#include "bench/harness.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "src/proto/ip.h"

// Build identity fallbacks: CMake defines these on pfbench_harness; keep the
// file compilable without them (e.g. external inclusion).
#ifndef PF_GIT_SHA
#define PF_GIT_SHA "unknown"
#endif
#ifndef PF_BUILD_TYPE
#define PF_BUILD_TYPE "unknown"
#endif
#ifndef PF_SANITIZERS
#define PF_SANITIZERS ""
#endif
#ifndef PF_ALLOC_COUNTER
#define PF_ALLOC_COUNTER 0
#endif

namespace {
std::atomic<uint64_t> allocation_count{0};
}  // namespace

#if PF_ALLOC_COUNTER
// The counting global allocator. The array and nothrow forms of new and the
// array forms of delete default to calling these, so they are counted too;
// over-aligned allocations keep the library's own (uncounted) functions.
void* operator new(std::size_t size) {
  allocation_count.fetch_add(1, std::memory_order_relaxed);
  for (;;) {
    if (void* p = std::malloc(size == 0 ? 1 : size)) {
      return p;
    }
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) {
      throw std::bad_alloc();
    }
    handler();
  }
}

void operator delete(void* p) noexcept { std::free(p); }

void operator delete(void* p, std::size_t /*size*/) noexcept { std::free(p); }
#endif

namespace pfbench {

namespace {

std::vector<BenchEntry>* registered_benches = nullptr;

// The active pfbench capture, if any.
BenchCapture* active_capture = nullptr;

}  // namespace

int RegisterBench(const char* id, BenchMainFn fn) {
  if (registered_benches == nullptr) {
    registered_benches = new std::vector<BenchEntry>;  // static-init order safe
  }
  registered_benches->push_back({id, fn});
  return static_cast<int>(registered_benches->size());
}

std::vector<BenchEntry> RegisteredBenches() {
  std::vector<BenchEntry> benches =
      registered_benches != nullptr ? *registered_benches : std::vector<BenchEntry>{};
  std::sort(benches.begin(), benches.end(),
            [](const BenchEntry& a, const BenchEntry& b) { return a.id < b.id; });
  return benches;
}

std::string BuildGitSha() {
  const char* env = std::getenv("PF_GIT_SHA");
  return env != nullptr && env[0] != '\0' ? env : PF_GIT_SHA;
}

std::string BuildTypeName() { return PF_BUILD_TYPE; }

std::string SanitizerFlags() { return PF_SANITIZERS; }

bool AllocationCounterInstalled() { return PF_ALLOC_COUNTER != 0; }

uint64_t AllocationCount() { return allocation_count.load(std::memory_order_relaxed); }

bool HostGatesEnforced(const std::string& build_type, const std::string& sanitizers) {
  const bool release_family =
      build_type == "Release" || build_type == "RelWithDebInfo" || build_type == "MinSizeRel";
  return release_family && sanitizers.empty();
}

void ReportCheck(const std::string& name, bool passed, double measured) {
  if (std::isnan(measured)) {
    std::printf("    gate %-40s [%s]\n", name.c_str(), passed ? "pass" : "FAIL");
  } else {
    std::printf("    gate %-40s [%s] measured %.4g\n", name.c_str(), passed ? "pass" : "FAIL",
                measured);
  }
  if (active_capture != nullptr) {
    active_capture->checks.push_back({name, passed, measured});
  }
}

void BeginCapture() {
  delete active_capture;
  active_capture = new BenchCapture;
}

BenchCapture EndCapture() {
  BenchCapture result;
  if (active_capture != nullptr) {
    result = std::move(*active_capture);
    delete active_capture;
    active_capture = nullptr;
  }
  return result;
}

void CaptureMachine(pfkern::Machine& machine) {
  if (active_capture == nullptr) {
    return;
  }
  const pfkern::Ledger& ledger = machine.ledger();
  for (size_t i = 0; i < static_cast<size_t>(pfkern::Cost::kCount); ++i) {
    const auto category = static_cast<pfkern::Cost>(i);
    if (ledger.count(category) == 0) {
      continue;
    }
    const std::string slug = pfkern::ToSlug(category);
    active_capture->ledger[slug + ".total_ns"] +=
        static_cast<double>(ledger.total(category).count());
    active_capture->ledger[slug + ".charges"] += static_cast<double>(ledger.count(category));
  }
  active_capture->ledger["grand_total_ns"] +=
      static_cast<double>(ledger.grand_total().count());
  for (const auto& [name, counter] : machine.metrics().counters()) {
    if (counter.value() == 0) {
      continue;
    }
    active_capture->metrics[name] += static_cast<double>(counter.value());
  }
}

void PrintTable(const std::string& title, const std::string& citation,
                const std::string& unit, const std::vector<Row>& rows) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("    (%s)\n", citation.c_str());
  std::printf("    %-44s %12s %12s %8s\n", "configuration", ("paper " + unit).c_str(),
              ("ours " + unit).c_str(), "ratio");
  for (const Row& row : rows) {
    if (std::isnan(row.paper)) {
      std::printf("    %-44s %12s %12.2f %8s\n", row.label.c_str(), "-", row.measured, "-");
    } else {
      std::printf("    %-44s %12.2f %12.2f %7.2fx\n", row.label.c_str(), row.paper,
                  row.measured, row.measured / row.paper);
    }
  }
  if (active_capture != nullptr) {
    active_capture->tables.push_back({title, unit, rows});
  }
}

void PrintNote(const std::string& note) { std::printf("    note: %s\n", note.c_str()); }

Duo::Duo(pflink::LinkType link_type, pfkern::CostModel costs)
    : segment_(&sim_, link_type) {
  const bool experimental = link_type == pflink::LinkType::kExperimental3Mb;
  const pflink::MacAddr client_mac =
      experimental ? pflink::MacAddr::Experimental(1) : pflink::MacAddr::Dix(8, 0, 0, 0, 0, 1);
  const pflink::MacAddr server_mac =
      experimental ? pflink::MacAddr::Experimental(2) : pflink::MacAddr::Dix(8, 0, 0, 0, 0, 2);
  client_ = std::make_unique<pfkern::Machine>(&sim_, &segment_, client_mac, costs, "client");
  server_ = std::make_unique<pfkern::Machine>(&sim_, &segment_, server_mac, costs, "server");
}

Duo::~Duo() {
  CaptureMachine(*client_);
  CaptureMachine(*server_);
}

uint32_t Duo::client_ip_addr() const { return pfproto::MakeIpv4(10, 0, 0, 1); }
uint32_t Duo::server_ip_addr() const { return pfproto::MakeIpv4(10, 0, 0, 2); }

void Duo::AddIpStacks() {
  client_ip_ = std::make_unique<pfkern::KernelIpStack>(client_.get(), client_ip_addr());
  server_ip_ = std::make_unique<pfkern::KernelIpStack>(server_.get(), server_ip_addr());
  client_->AddNeighbor(server_ip_addr(), server_->link_addr());
  server_->AddNeighbor(client_ip_addr(), client_->link_addr());
}

double ElapsedMs(pfsim::TimePoint start, pfsim::TimePoint end) {
  return pfsim::ToMilliseconds(end - start);
}

double RateKBps(size_t bytes, pfsim::TimePoint start, pfsim::TimePoint end) {
  const double seconds = pfsim::ToSeconds(end - start);
  return seconds > 0 ? static_cast<double>(bytes) / 1024.0 / seconds : 0.0;
}

}  // namespace pfbench
