// micro_zerocopy: the charged cost of copying on the VMTP bulk path, legacy
// read() delivery vs. shared-memory ring delivery (DESIGN.md §13).
//
// Both modes move the same ~1 MB of 16 KB segment reads (bench/vmtp_common).
// The table reports, per mode and summed over both machines:
//   * charged copy cost (ledger kCopy total) and copy count,
//   * ring descriptors posted/reaped (ring mode only),
//   * bulk throughput.
//
// Every run is also a regression gate (wired into ctest and CI):
//   1. ring-mode charged copy cost must be at least 2x lower than legacy —
//      the tentpole claim that mapped descriptors eliminate the read-time
//      copy on the bulk path;
//   2. on every machine in every mode, the pf.copy.count metric equals the
//      ledger's kCopy charge count (one CopyCharge per modeled copy — the
//      metric and the ledger cannot drift);
//   3. in ring mode, descriptors posted == descriptors reaped (nothing left
//      mapped), and the pf.ring.post / pf.ring.reap histogram sums
//      reconcile exactly with the ledger's kRingPost / kRingReap totals;
//   4. the clean path takes no copy-on-write clones (PacketBuf stats): COW
//      exists for impaired duplicates, not for normal traffic;
//   5. the frame check sequence every bulk frame pays twice (stamped at
//      transmit, verified at receive): pfutil::Crc32 and the portable
//      pfutil::internal::Crc32Sliced on a 1514-byte frame must agree with a
//      bytewise table CRC written here, and Crc32 must cost at most 1/3 of
//      its ns/byte, fastest of 21 interleaved runs per side. The ratio is
//      enforced on sanitizer-free Release-family builds only
//      (informational elsewhere, where it measures the sanitizer or -O0);
//   5b. on those builds, when the CPU reports PCLMULQDQ and SSE4.1, Crc32's
//      carry-less fold must also cost at most 1/3 of Crc32Sliced per byte
//      on the same frame (micro_zerocopy.fcs_fold_third_of_sliced), so the
//      fast kernel cannot be lost silently; informational on other CPUs,
//      where Crc32 is the sliced loop. A table of both per frame at lengths
//      from kCrc32FoldMinBytes up shows where the fold starts to pay;
//   6. heap allocations per delivered packet, counted by the bench
//      harness's operator new over the bulk loop's steady state (segment
//      reads kWarmupSegments..kBulkSegments, deliveries summed over both
//      machines), must stay at or below kMaxAllocsPerPacket in both modes.
//      The bound sits above the count measured with pooled coroutine
//      frames and the segment's in-flight slab, and below the count
//      without either (EXPERIMENTS.md); the count depends on the standard
//      library, so it is a gate value, not a baseline row. Sanitized builds
//      keep the sanitizer's allocator, so there it is informational.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench/vmtp_common.h"
#include "src/pf/packet_buf.h"
#include "src/util/checksum.h"
#include "src/util/rng.h"

namespace {

constexpr int kBulkSegments = 64;
constexpr int kWarmupSegments = 16;
constexpr double kMaxAllocsPerPacket = 4.4;

struct ModeSnapshot {
  double bulk_kbps = 0;
  // Summed over client + server.
  double copy_ms = 0;
  uint64_t copy_charges = 0;
  uint64_t ring_posts = 0;
  uint64_t ring_reaps = 0;
  uint64_t ring_tx_posts = 0;
  int64_t ring_post_hist_sum = 0;
  int64_t ring_reap_hist_sum = 0;
  int64_t ledger_ring_post_ns = 0;
  int64_t ledger_ring_reap_ns = 0;
  bool metrics_match_ledger = true;
  // Check 6's window: heap allocations and pf deliveries (both machines).
  uint64_t window_allocs = 0;
  uint64_t window_packets = 0;
};

uint64_t Deliveries(pfbench::Duo& duo) {
  return duo.client().pf().core().global_stats().deliveries +
         duo.server().pf().core().global_stats().deliveries;
}

uint64_t CounterValue(const pfkern::Machine& machine, const char* name) {
  const pfobs::Counter* counter = machine.metrics().FindCounter(name);
  return counter == nullptr ? 0 : counter->value();
}

int64_t HistogramSum(const pfkern::Machine& machine, const char* name) {
  const pfobs::Histogram* hist = machine.metrics().FindHistogram(name);
  return hist == nullptr ? 0 : hist->sum();
}

ModeSnapshot RunBulk(size_t ring_slots) {
  pfbench::VmtpConfig config;
  config.ring_slots = ring_slots;
  ModeSnapshot snap;
  config.inspect = [&](pfbench::Duo& duo) {
    for (pfkern::Machine* machine : {&duo.client(), &duo.server()}) {
      const pfkern::Ledger& ledger = machine->ledger();
      snap.copy_ms += pfsim::ToMilliseconds(ledger.total(pfkern::Cost::kCopy));
      snap.copy_charges += ledger.count(pfkern::Cost::kCopy);
      // Check 2: the pf.copy.count metric is bumped by the same CopyCharge
      // helper that emits the ledger charge — they must agree exactly.
      if (machine->copies() != ledger.count(pfkern::Cost::kCopy)) {
        snap.metrics_match_ledger = false;
      }
      snap.ring_posts += CounterValue(*machine, "pfdev.ring.posts");
      snap.ring_reaps += CounterValue(*machine, "pfdev.ring.reaped");
      snap.ring_tx_posts += CounterValue(*machine, "pfdev.ring.tx_posts");
      snap.ring_post_hist_sum += HistogramSum(*machine, "pf.ring.post");
      snap.ring_reap_hist_sum += HistogramSum(*machine, "pf.ring.reap");
      snap.ledger_ring_post_ns += ledger.total(pfkern::Cost::kRingPost).count();
      snap.ledger_ring_reap_ns += ledger.total(pfkern::Cost::kRingReap).count();
    }
  };
  config.on_bulk_segment = [&](pfbench::Duo& duo, int segment) {
    if (segment == kWarmupSegments) {
      snap.window_packets = Deliveries(duo);
      snap.window_allocs = pfbench::AllocationCount();
    } else if (segment == kBulkSegments) {
      snap.window_allocs = pfbench::AllocationCount() - snap.window_allocs;
      snap.window_packets = Deliveries(duo) - snap.window_packets;
    }
  };
  // Bulk only: a couple of warm-up RTTs, then the ~1 MB segment-read loop.
  snap.bulk_kbps = pfbench::MeasureVmtp(config, /*rtt_transactions=*/2,
                                        kBulkSegments).bulk_kbps;
  return snap;
}

// The one-byte-per-step table CRC-32 the FCS used before slicing: the
// reference check 5 measures pfutil::Crc32 against.
uint32_t BytewiseCrc32(std::span<const uint8_t> data) {
  static const auto kTable = [] {
    std::array<uint32_t, 256> table{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return table;
  }();
  uint32_t crc = 0xffffffffu;
  for (const uint8_t byte : data) {
    crc = kTable[(crc ^ byte) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

using Crc32Fn = uint32_t (*)(std::span<const uint8_t>);

// Host ns/byte of each CRC in `impls` over a seeded random `len`-byte frame:
// the fastest of kReps interleaved runs, so host noise hits every side
// alike. Each CRC is fed back into the frame, so no call can be hoisted out
// of the loop. Clears `*agree` if any result differs from BytewiseCrc32.
template <size_t N>
std::array<double, N> MeasureCrcs(size_t len, const std::array<Crc32Fn, N>& impls, bool* agree) {
  constexpr int kReps = 21;
  constexpr size_t kBytesPerRun = 64 * 1514;
  const size_t frames_per_run = std::max<size_t>(64, kBytesPerRun / len);
  std::vector<uint8_t> frame(len);
  pfutil::Rng rng(len);
  for (uint8_t& byte : frame) {
    byte = rng.NextU8();
  }
  std::array<double, N> ns_per_byte;
  ns_per_byte.fill(1e300);
  for (int rep = 0; rep < kReps; ++rep) {
    for (size_t i = 0; i < N; ++i) {
      const auto start = std::chrono::steady_clock::now();
      for (size_t f = 0; f < frames_per_run; ++f) {
        frame[0] = static_cast<uint8_t>(impls[i](frame));
      }
      const std::chrono::duration<double, std::nano> elapsed =
          std::chrono::steady_clock::now() - start;
      *agree = *agree && impls[i](frame) == BytewiseCrc32(frame);
      ns_per_byte[i] = std::min(
          ns_per_byte[i], elapsed.count() / (static_cast<double>(frames_per_run) * len));
    }
  }
  return ns_per_byte;
}

}  // namespace

static int BenchMain(int /*argc*/, char** /*argv*/) {
  pf::PacketBuf::ResetStats();
  const ModeSnapshot legacy = RunBulk(/*ring_slots=*/0);
  const ModeSnapshot ring = RunBulk(/*ring_slots=*/128);
  const pf::PacketBufStats& buf_stats = pf::PacketBuf::stats();

  const double nan = std::nan("");
  pfbench::PrintTable(
      "micro_zerocopy: charged copy cost, VMTP bulk path (~1 MB, both machines)",
      "legacy read() delivery vs shared-memory ring, DESIGN.md §13", "",
      {
          {"legacy: charged copy cost (ms)", nan, legacy.copy_ms},
          {"legacy: copy charges", nan, static_cast<double>(legacy.copy_charges)},
          {"legacy: bulk rate (KB/s)", nan, legacy.bulk_kbps},
          {"ring: charged copy cost (ms)", nan, ring.copy_ms},
          {"ring: copy charges", nan, static_cast<double>(ring.copy_charges)},
          {"ring: bulk rate (KB/s)", nan, ring.bulk_kbps},
          {"ring: RX descriptors posted", nan, static_cast<double>(ring.ring_posts)},
          {"ring: RX descriptors reaped", nan, static_cast<double>(ring.ring_reaps)},
          {"ring: TX descriptors posted", nan, static_cast<double>(ring.ring_tx_posts)},
      });
  std::printf("    copy-cost reduction: %.1fx; COW clones on the clean path: %llu\n",
              ring.copy_ms > 0 ? legacy.copy_ms / ring.copy_ms : 0.0,
              (unsigned long long)buf_stats.cow_copies);

  std::vector<std::string> failures;
  if (!(legacy.copy_ms >= 2.0 * ring.copy_ms)) {
    failures.push_back("ring-mode charged copy cost is not >= 2x lower than legacy");
  }
  if (!legacy.metrics_match_ledger || !ring.metrics_match_ledger) {
    failures.push_back("pf.copy.count metric diverges from the ledger's kCopy count");
  }
  if (ring.ring_posts == 0) {
    failures.push_back("ring mode posted no descriptors (ring path not exercised)");
  }
  if (ring.ring_posts != ring.ring_reaps) {
    failures.push_back("ring descriptors posted != reaped");
  }
  if (ring.ring_post_hist_sum != ring.ledger_ring_post_ns) {
    failures.push_back("pf.ring.post histogram sum != ledger kRingPost total");
  }
  if (ring.ring_reap_hist_sum != ring.ledger_ring_reap_ns) {
    failures.push_back("pf.ring.reap histogram sum != ledger kRingReap total");
  }
  if (legacy.ring_posts != 0 || legacy.ledger_ring_post_ns != 0) {
    failures.push_back("legacy mode charged ring costs (modes not isolated)");
  }
  if (buf_stats.cow_copies != 0) {
    failures.push_back("clean path took copy-on-write clones");
  }
  for (const std::string& failure : failures) {
    std::fprintf(stderr, "micro_zerocopy FAILED: %s\n", failure.c_str());
  }
  pfbench::ReportCheck("micro_zerocopy.zero_copy_gates", failures.empty());

  // Check 5: the FCS host cost, wall-clock ratios.
  const bool enforce =
      pfbench::HostGatesEnforced(pfbench::BuildTypeName(), pfbench::SanitizerFlags());
  const bool fold = pfutil::internal::Crc32FoldAvailable();
  bool agree = true;
  const auto [crc32_ns, sliced_ns, bytewise_ns] = MeasureCrcs<3>(
      1514, {pfutil::Crc32, pfutil::internal::Crc32Sliced, BytewiseCrc32}, &agree);
  const double ratio = crc32_ns / bytewise_ns;
  const double fold_ratio = crc32_ns / sliced_ns;
  const char* const not_release = " [informational: non-Release or sanitized build]";
  std::printf("    FCS on a 1514-byte frame: Crc32 %.3f ns/byte, bytewise reference %.3f "
              "ns/byte, ratio %.2f (need <= 1/3)%s\n",
              crc32_ns, bytewise_ns, ratio, enforce ? "" : not_release);
  std::printf("    FCS fold on a 1514-byte frame: Crc32 %.3f ns/byte, Crc32Sliced %.3f "
              "ns/byte, ratio %.2f (need <= 1/3)%s\n",
              crc32_ns, sliced_ns, fold_ratio,
              !enforce ? not_release
              : !fold  ? " [informational: the CPU lacks PCLMULQDQ or SSE4.1, so Crc32 "
                         "is the sliced loop]"
                       : "");
  std::printf("    FCS per frame, Crc32 vs Crc32Sliced (the fold runs from %zu bytes%s):",
              pfutil::kCrc32FoldMinBytes, fold ? "" : "; not on this CPU");
  for (const size_t len : {size_t{64}, size_t{96}, size_t{128}, size_t{256}, size_t{512}}) {
    const auto [short_crc32_ns, short_sliced_ns] =
        MeasureCrcs<2>(len, {pfutil::Crc32, pfutil::internal::Crc32Sliced}, &agree);
    std::printf(" %zu B %.1f vs %.1f ns;", len, short_crc32_ns * len, short_sliced_ns * len);
  }
  std::printf("\n");
  bool fcs_ok = agree;
  if (!agree) {
    std::fprintf(stderr, "micro_zerocopy FAILED: Crc32 or Crc32Sliced disagrees with the "
                         "bytewise reference\n");
  }
  if (enforce && !(ratio <= 1.0 / 3.0)) {
    std::fprintf(stderr, "micro_zerocopy FAILED: Crc32 costs more than 1/3 of the "
                         "bytewise reference per byte\n");
    fcs_ok = false;
  }
  pfbench::ReportCheck("micro_zerocopy.fcs_third_of_bytewise", fcs_ok, ratio);
  bool fold_ok = agree;
  if (enforce && fold && !(fold_ratio <= 1.0 / 3.0)) {
    std::fprintf(stderr, "micro_zerocopy FAILED: Crc32's carry-less fold costs more than "
                         "1/3 of Crc32Sliced per byte\n");
    fold_ok = false;
  }
  pfbench::ReportCheck("micro_zerocopy.fcs_fold_third_of_sliced", fold_ok, fold_ratio);

  // Check 6: heap allocations per delivered packet in the steady state.
  const bool counted = pfbench::AllocationCounterInstalled();
  double worst_allocs = counted ? 0 : nan;
  bool allocs_ok = true;
  for (const auto& [mode, snap] : {std::pair{"legacy", &legacy}, std::pair{"ring", &ring}}) {
    const double per_packet = snap->window_packets > 0
                                  ? static_cast<double>(snap->window_allocs) /
                                        static_cast<double>(snap->window_packets)
                                  : nan;
    if (counted) {
      std::printf("    %s: %llu heap allocations over %llu delivered packets, %.2f per "
                  "packet (need <= %.2f)\n",
                  mode, (unsigned long long)snap->window_allocs,
                  (unsigned long long)snap->window_packets, per_packet, kMaxAllocsPerPacket);
    } else {
      std::printf("    %s: %llu delivered packets, heap allocations not counted "
                  "[informational: sanitized build, counter not installed]\n",
                  mode, (unsigned long long)snap->window_packets);
    }
    if (snap->window_packets == 0) {
      std::fprintf(stderr, "micro_zerocopy FAILED: %s: no packets delivered in the "
                           "allocation window\n",
                   mode);
      allocs_ok = false;
    } else if (counted && !(per_packet <= kMaxAllocsPerPacket)) {
      std::fprintf(stderr, "micro_zerocopy FAILED: %s: %.2f heap allocations per "
                           "delivered packet (bound %.2f)\n",
                   mode, per_packet, kMaxAllocsPerPacket);
      allocs_ok = false;
    }
    if (counted) {
      worst_allocs = std::max(worst_allocs, per_packet);
    }
  }
  pfbench::ReportCheck("micro_zerocopy.allocs_per_packet", allocs_ok, worst_allocs);

  if (failures.empty() && allocs_ok && fcs_ok && fold_ok) {
    std::printf("    all zero-copy, reconciliation, allocation and FCS gates hold\n");
    return 0;
  }
  return 1;
}

PFBENCH_MAIN("micro_zerocopy", BenchMain)
