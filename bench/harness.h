// Shared infrastructure for the table/figure reproduction benchmarks.
//
// Each bench regenerates one table or figure from the paper's §6,
// printing the paper's reported value next to the value measured on the
// simulated MicroVAX-II (see src/kernel/cost_model.h for the calibration).
// EXPERIMENTS.md records and discusses the outputs.
#ifndef BENCH_HARNESS_H_
#define BENCH_HARNESS_H_

#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/kernel/kernel_ip.h"
#include "src/kernel/kernel_tcp.h"
#include "src/kernel/kernel_vmtp.h"
#include "src/kernel/machine.h"
#include "src/kernel/pf_device.h"
#include "src/link/segment.h"
#include "src/sim/simulator.h"

namespace pfbench {

// --- Bench registration (the performance observatory, DESIGN.md §14) ---
//
// Every table/figure/micro bench exposes its entry point through
// PFBENCH_MAIN(id, fn), which registers it with the bench/pfbench runner:
// `pfbench` sweeps every registered bench in one process, and
// `pfbench <id> [args...]` runs one of them with its own arguments. `id` is
// the bench's stable identity in BENCH_<sha>.json and bench/baselines/.

using BenchMainFn = int (*)(int argc, char** argv);

struct BenchEntry {
  std::string id;
  BenchMainFn fn;
};

// Returns an arbitrary int so the macro can run it at static-init time.
int RegisterBench(const char* id, BenchMainFn fn);

// Every registered bench, sorted by id (static-init order is not stable
// across link orders; the sort is what makes sweep output deterministic).
std::vector<BenchEntry> RegisteredBenches();

#define PFBENCH_MAIN(id, fn)                                                         \
  namespace {                                                                        \
  [[maybe_unused]] const int pfbench_registered = ::pfbench::RegisterBench(id, fn);  \
  }

// Build identity, for the run documents: the values of the PF_GIT_SHA /
// PF_BUILD_TYPE / PF_SANITIZERS compile definitions (CMake provides them;
// a PF_GIT_SHA environment variable overrides the baked-in sha so CI can
// stamp artifacts with the exact commit even on stale configures).
std::string BuildGitSha();
std::string BuildTypeName();
std::string SanitizerFlags();

// True when host wall-clock gates are enforced for a build: a Release-family
// build type (Release, RelWithDebInfo, MinSizeRel) with no sanitizers. Under
// -O0 or ASan/UBSan a wall-clock ratio measures the build, not the code, so
// such gates only inform there.
bool HostGatesEnforced(const std::string& build_type, const std::string& sanitizers);

// --- Heap allocation counter ---
//
// harness.cc replaces the global operator new with one that counts its
// calls, so a bench can gate heap allocations per packet (micro_zerocopy).
// Sanitized builds keep the sanitizer's allocator: there the counter is not
// installed and AllocationCount() stays 0.
bool AllocationCounterInstalled();
// Global operator new calls (array and nothrow forms included) so far.
uint64_t AllocationCount();

// --- Output formatting ---

struct Row {
  std::string label;
  double paper;     // the value the paper reports (NaN if not reported)
  double measured;  // our simulated/measured value
};

// Prints a header (title + paper citation) and rows with a paper/measured
// ratio column.
void PrintTable(const std::string& title, const std::string& citation,
                const std::string& unit, const std::vector<Row>& rows);

// A free-form note under a table.
void PrintNote(const std::string& note);

// Records a named pass/fail gate outcome. The outcome is printed and —
// inside a pfbench sweep — captured into the bench's entry in
// BENCH_<sha>.json. `measured` is the value the gate judged (NaN when the
// gate has no single number); pfbench prints it with any failure.
void ReportCheck(const std::string& name, bool passed,
                 double measured = std::numeric_limits<double>::quiet_NaN());

// --- In-process capture (the pfbench runner) ---
//
// While a capture is active, PrintTable also appends its rows to the
// capture, CaptureMachine folds a machine's cost ledger and metric counters
// into it, and ReportCheck records gate outcomes. The runner brackets each
// bench's entry point with Begin/EndCapture; `pfbench <id>` runs a bench
// without one, so the hooks cost one branch.

struct CapturedTable {
  std::string title;
  std::string unit;
  std::vector<Row> rows;
};

struct CheckOutcome {
  std::string name;
  bool passed = false;
  double measured = std::numeric_limits<double>::quiet_NaN();  // not exported
};

struct BenchCapture {
  std::vector<CapturedTable> tables;
  std::vector<CheckOutcome> checks;
  // Cost-ledger totals summed over every captured machine:
  // "<slug>.total_ns" and "<slug>.charges" per category with any charges,
  // plus "grand_total_ns".
  std::map<std::string, double> ledger;
  // Metric counters summed by name over every captured machine.
  std::map<std::string, double> metrics;
};

void BeginCapture();
BenchCapture EndCapture();

// Folds `machine`'s ledger and metric counters into the active capture
// (no-op when none). Duo's destructor calls this for both machines; benches
// that build machines directly (bench/recv_common.h) call it explicitly.
void CaptureMachine(pfkern::Machine& machine);

// --- Canonical two-machine scenario ---

// Two machines ("client" and "server") on one segment, with optional kernel
// IP stacks and neighbor entries pre-wired. The paper's measurements all use
// identical machines at both ends (§6.3).
class Duo {
 public:
  explicit Duo(pflink::LinkType link_type,
               pfkern::CostModel costs = pfkern::MicroVaxUltrixCosts());
  // Feeds both machines to CaptureMachine (a no-op outside a pfbench capture).
  ~Duo();

  pfsim::Simulator& sim() { return sim_; }
  pflink::EthernetSegment& segment() { return segment_; }
  pfkern::Machine& client() { return *client_; }
  pfkern::Machine& server() { return *server_; }

  // Lazily adds kernel IP stacks (10.0.0.1 client, 10.0.0.2 server) with
  // neighbor entries both ways.
  void AddIpStacks();
  pfkern::KernelIpStack& client_ip() { return *client_ip_; }
  pfkern::KernelIpStack& server_ip() { return *server_ip_; }
  uint32_t client_ip_addr() const;
  uint32_t server_ip_addr() const;

 private:
  pfsim::Simulator sim_;
  pflink::EthernetSegment segment_;
  std::unique_ptr<pfkern::Machine> client_;
  std::unique_ptr<pfkern::Machine> server_;
  std::unique_ptr<pfkern::KernelIpStack> client_ip_;
  std::unique_ptr<pfkern::KernelIpStack> server_ip_;
};

// Milliseconds between two simulated time points.
double ElapsedMs(pfsim::TimePoint start, pfsim::TimePoint end);

// KBytes/sec for `bytes` transferred over [start, end].
double RateKBps(size_t bytes, pfsim::TimePoint start, pfsim::TimePoint end);

// --- Shared receive loops ---
//
// Hoisted from the per-table measurement headers (recv_common.h,
// stream_common.h, vmtp_common.h), which each grew their own copy of the
// same drain-until-done logic.

// Drains `total` packets by repeatedly awaiting `read_once` (a callable
// returning ValueTask<size_t>: packets obtained by one read). Stops early
// when a read times out empty. Returns the count actually consumed.
template <typename ReadOnce>
pfsim::ValueTask<int> DrainPackets(int total, ReadOnce read_once) {
  int consumed = 0;
  while (consumed < total) {
    const size_t got = co_await read_once();
    if (got == 0) {
      break;  // stalled; report what we have
    }
    consumed += static_cast<int>(got);
  }
  co_return consumed;
}

// Receives until `total` bytes or EOF from anything with
// `Recv(pid, max, timeout) -> vector<uint8_t>` and `eof()` (TcpConnection,
// BspStream). `on_chunk`, when set, is awaited after every nonempty chunk —
// display-rate charging (table 6-7) or application think time (fig. 2-3).
// Returns the bytes received.
template <typename Stream>
pfsim::ValueTask<size_t> DrainStream(
    Stream* stream, int pid, size_t total, size_t recv_chunk, pfsim::Duration timeout,
    std::function<pfsim::ValueTask<void>(size_t)> on_chunk = nullptr) {
  size_t received = 0;
  while (received < total && !stream->eof()) {
    const auto chunk = co_await stream->Recv(pid, recv_chunk, timeout);
    if (chunk.empty() && !stream->eof()) {
      break;
    }
    received += chunk.size();
    if (on_chunk && !chunk.empty()) {
      co_await on_chunk(chunk.size());
    }
  }
  co_return received;
}

// The §6.3 file-server loop: 'R' requests are answered with a cached
// `segment_bytes` segment, everything else with zero bytes. `receive` and
// `respond` adapt the transport (user-level or kernel VMTP): receive() ->
// ValueTask<optional<Request>>, respond(Request&, vector<uint8_t>).
template <typename ReceiveFn, typename RespondFn>
pfsim::Task FileServerLoop(size_t segment_bytes, ReceiveFn receive, RespondFn respond) {
  const std::vector<uint8_t> segment(segment_bytes, 0x6f);
  for (;;) {
    auto request = co_await receive();
    if (!request.has_value()) {
      co_return;  // measurement over
    }
    std::vector<uint8_t> response;
    if (!request->data.empty() && request->data[0] == 'R') {
      response = segment;
    }
    co_await respond(*request, std::move(response));
  }
}

}  // namespace pfbench

#endif  // BENCH_HARNESS_H_
