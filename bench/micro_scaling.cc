// O(1)-per-packet demultiplexing at scale.
//
// The paper's fig. 4-1 loop applies every open port's filter in priority
// order, so demux cost grows linearly in the number of ports. This bench
// sweeps 1 -> 1024 open ports (one Pup-socket filter each, traffic rotating
// across all sockets) and reports the per-packet demux *work* — filter
// instructions + index probes, the structural count the kernel cost model
// charges from — for every engine strategy.
//
// Expected shape: kChecked/kFast grow linearly (half the bound set runs
// per packet on average), and kIndexed stays flat: a constant number of
// hash probes plus one re-confirmed filter, independent of port count.
// On the host clock kIndexed stays nearly flat too: the demux walk
// visits only the candidates the index hands back (DESIGN.md §4).
//
// §3.2's priority argument (DESIGN.md §7, ablation 3) rides along: 32 ports
// under kFast with the one busy filter applied first, last, or last with
// busy-reordering left to promote it.
//
// So does §3's "a new filter can be bound at any time": the host cost of one
// write — SetFilter on one port plus the first Demux after it, where a lazy
// rebuild would land — at 16, 256 and 1024 kIndexed ports, re-binding the
// port's own program or flipping its priority. A write patches the priority
// order and the index in place (DESIGN.md §4), so a rebind costs about the
// same at every port count.
//
// Every run exits non-zero unless kIndexed at 256 ports is at least 5x
// cheaper than kFast at 256 ports — the CI regression gate for this
// optimization — and, on sanitizer-free Release-family builds, unless
// kIndexed's wall ns/packet at 1024 ports is within 2x of
// its 1-port value and a rebind at 1024 ports costs at most 4x a rebind at
// 16 ports (both informational elsewhere, where wall ratios measure the
// sanitizer or -O0 rather than the walk).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/net/pup_endpoint.h"
#include "src/obs/metrics.h"
#include "src/pf/demux.h"
#include "tests/test_packets.h"

namespace {

constexpr int kPortCounts[] = {1, 4, 16, 64, 256, 1024};

// The priority ablation's port count, and its warm-up: two of the demux's
// 256-packet busy-reorder intervals, so a reordering rig is measured in its
// settled order.
constexpr int kPriorityPorts = 32;
constexpr int kPriorityWarmup = 512;

uint8_t EqualPriority(int /*socket*/) { return 10; }

struct WorkSample {
  double work_per_packet = 0;  // insns + index probes
  double wall_ns_per_packet = 0;
};

// Open ports with one Pup-socket filter each (1-deep queues, no reader),
// and the packet set the timed loop rotates over, warmed up.
struct Rig {
  // The sweep: `ports` equal-priority ports, traffic spread over all of them.
  Rig(pf::Strategy strategy, int ports) {
    filter.SetStrategy(strategy);
    Bind(ports, EqualPriority);
    // Pre-build the rotating packet set once so packet construction stays
    // out of the timed loop.
    const int distinct = ports < 64 ? ports : 64;
    packets.reserve(static_cast<size_t>(distinct));
    for (int i = 0; i < distinct; ++i) {
      // Spread targets across the whole port range.
      const uint32_t socket = static_cast<uint32_t>(((i * ports) / distinct) + 1);
      packets.push_back(pftest::MakePupFrame(8, socket));
    }
    // One warm-up round: builds the index.
    Run(1);
  }

  // The priority ablation: kPriorityPorts ports under kFast, socket s at
  // `priority(s)`, every packet to `target`.
  Rig(uint8_t (*priority)(int socket), uint32_t target, bool busy_reordering) {
    filter.SetStrategy(pf::Strategy::kFast);
    filter.SetBusyReordering(busy_reordering);
    Bind(kPriorityPorts, priority);
    packets.push_back(pftest::MakePupFrame(8, target));
    Run(kPriorityWarmup);
  }

  void Bind(int ports, uint8_t (*priority)(int socket)) {
    for (int socket = 1; socket <= ports; ++socket) {
      const pf::PortId port = filter.OpenPort();
      filter.SetFilter(port,
                       pfnet::MakePupSocketFilter(static_cast<uint32_t>(socket), priority(socket)));
      filter.SetQueueLimit(port, 1);
      ids.push_back(port);
    }
  }

  // Demuxes `rounds` passes over the packet set; returns wall ns/packet.
  double Run(int rounds) {
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < rounds; ++r) {
      for (const auto& packet : packets) {
        filter.Demux(packet);
      }
    }
    const auto end = std::chrono::steady_clock::now();
    return static_cast<double>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count()) /
           (static_cast<double>(rounds) * static_cast<double>(packets.size()));
  }

  // Writes `writes` times to the middle port's filter, each write followed
  // by one Demux of a frame it accepts; returns wall ns per write. A
  // rebind re-binds the port's own program; a reprioritize flips its
  // priority between 11 and 10 (an even count ends where it started).
  double Write(bool reprioritize, int writes) {
    const size_t middle = ids.size() / 2;
    const auto socket = static_cast<uint32_t>(middle + 1);
    const pf::Program same = pfnet::MakePupSocketFilter(socket, 10);
    const pf::Program raised = pfnet::MakePupSocketFilter(socket, 11);
    const std::vector<uint8_t> packet = pftest::MakePupFrame(8, socket);
    const auto start = std::chrono::steady_clock::now();
    for (int w = 0; w < writes; ++w) {
      filter.SetFilter(ids[middle], reprioritize && w % 2 == 0 ? raised : same);
      filter.Demux(packet);
    }
    const auto end = std::chrono::steady_clock::now();
    return static_cast<double>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count()) /
           writes;
  }

  pf::PacketFilter filter;
  std::vector<pf::PortId> ids;
  std::vector<std::vector<uint8_t>> packets;
};

// Demux ~512 frames, rotating over the rig's packet set, and report the
// structural work and wall clock per packet.
WorkSample Measure(Rig&& rig) {
  const pf::ExecTelemetry before = rig.filter.global_stats().exec;
  const int distinct = static_cast<int>(rig.packets.size());
  const int rounds = 512 / distinct + 1;
  const int total = rounds * distinct;
  WorkSample sample;
  sample.wall_ns_per_packet = rig.Run(rounds);
  const pf::ExecTelemetry& after = rig.filter.global_stats().exec;
  const double delta_work =
      static_cast<double>(after.insns_executed - before.insns_executed) +
      static_cast<double>(after.index_probes - before.index_probes);
  sample.work_per_packet = delta_work / total;
  return sample;
}

struct Slope {
  double one_port_ns = 0;
  double many_ports_ns = 0;
};

// kIndexed's host-clock slope: the fastest of interleaved
// ~8k-packet runs at 1 and at 1024 ports, so host noise hits both sides.
Slope IndexedHostSlope() {
  constexpr int kReps = 21;
  constexpr int kPacketsPerRun = 8192;
  Rig one(pf::Strategy::kIndexed, 1);
  Rig many(pf::Strategy::kIndexed, 1024);
  Slope slope{1e300, 1e300};
  for (int rep = 0; rep < kReps; ++rep) {
    slope.one_port_ns = std::min(
        slope.one_port_ns, one.Run(kPacketsPerRun / static_cast<int>(one.packets.size())));
    slope.many_ports_ns = std::min(
        slope.many_ports_ns, many.Run(kPacketsPerRun / static_cast<int>(many.packets.size())));
  }
  return slope;
}

constexpr int kWritePortCounts[] = {16, 256, 1024};

struct WriteCost {
  double rebind_ns = 1e300;
  double reprioritize_ns = 1e300;
};

// The fastest of interleaved 64-write runs per port count (kIndexed), so
// host noise hits every port count alike.
std::vector<WriteCost> WriteCosts() {
  constexpr int kReps = 15;
  constexpr int kWrites = 64;
  std::vector<Rig> rigs;
  rigs.reserve(std::size(kWritePortCounts));  // a Rig is never moved
  for (const int ports : kWritePortCounts) {
    rigs.emplace_back(pf::Strategy::kIndexed, ports);
  }
  std::vector<WriteCost> costs(rigs.size());
  for (int rep = 0; rep < kReps; ++rep) {
    for (size_t i = 0; i < rigs.size(); ++i) {
      costs[i].rebind_ns = std::min(costs[i].rebind_ns, rigs[i].Write(false, kWrites));
      costs[i].reprioritize_ns =
          std::min(costs[i].reprioritize_ns, rigs[i].Write(true, kWrites));
    }
  }
  return costs;
}

// Drop accounting (PR 4): over a full run that loses packets every way the
// demux can — queue overflow (1-deep queues, no reader), no-match (traffic
// to unbound sockets), short-packet (truncated frames) — every non-delivered
// packet must land in exactly one pf.drop.<reason> bucket:
//
//   packets_in == sum(enqueued) + sum(drops_by_reason)      (single-claim)
//
// the registry's "pf.drop.*" counters must mirror the struct counters, and
// the flight recorder must stay bounded while counting every loss.
bool VerifyDropAccounting() {
  pfobs::MetricsRegistry registry;
  pf::PacketFilter filter;
  filter.AttachMetrics(&registry);
  constexpr size_t kRecorderCapacity = 32;
  filter.SetFlightRecorder(kRecorderCapacity);

  constexpr int kPorts = 16;
  std::vector<pf::PortId> ids;
  for (int socket = 1; socket <= kPorts; ++socket) {
    const pf::PortId port = filter.OpenPort();
    filter.SetFilter(port, pfnet::MakePupSocketFilter(static_cast<uint32_t>(socket), 10));
    filter.SetQueueLimit(port, 1);
    ids.push_back(port);
  }

  std::vector<uint8_t> truncated = pftest::MakePupFrame(8, 1);
  truncated.resize(8);  // valid link header, Pup words cut off
  for (int round = 0; round < 64; ++round) {
    for (int socket = 1; socket <= kPorts; ++socket) {
      filter.Demux(pftest::MakePupFrame(8, static_cast<uint32_t>(socket)));
    }
    filter.Demux(pftest::MakePupFrame(8, 999));  // no port bound
    filter.Demux(truncated);
  }

  const pf::FilterGlobalStats& global = filter.global_stats();
  uint64_t enqueued = 0;
  for (const pf::PortId id : ids) {
    enqueued += filter.Stats(id)->enqueued;
  }
  bool ok = global.packets_in == enqueued + pf::TotalDrops(global.drops_by_reason);
  for (size_t i = 0; i < pf::kDropReasonCount; ++i) {
    const pfobs::Counter* counter =
        registry.FindCounter("pf.drop." + pf::ToSlug(static_cast<pf::DropReason>(i)));
    ok = ok && counter != nullptr &&
         static_cast<uint64_t>(counter->value()) == global.drops_by_reason[i];
  }
  const pf::DropRecorder* recorder = filter.flight_recorder();
  ok = ok && recorder != nullptr && recorder->size() <= kRecorderCapacity &&
       recorder->total_recorded() == pf::TotalDrops(global.drops_by_reason);
  // This scenario exercises three distinct reasons; all must be non-zero.
  using R = pf::DropReason;
  ok = ok && global.drops_by_reason[static_cast<size_t>(R::kQueueOverflow)] > 0 &&
       global.drops_by_reason[static_cast<size_t>(R::kNoMatch)] > 0 &&
       global.drops_by_reason[static_cast<size_t>(R::kShortPacket)] > 0;

  std::printf(
      "drop accounting: in=%llu enqueued=%llu dropped=%llu "
      "(overflow=%llu no-match=%llu short=%llu) recorder=%zu/%zu of %llu  [%s]\n",
      (unsigned long long)global.packets_in, (unsigned long long)enqueued,
      (unsigned long long)pf::TotalDrops(global.drops_by_reason),
      (unsigned long long)global.drops_by_reason[static_cast<size_t>(R::kQueueOverflow)],
      (unsigned long long)global.drops_by_reason[static_cast<size_t>(R::kNoMatch)],
      (unsigned long long)global.drops_by_reason[static_cast<size_t>(R::kShortPacket)],
      recorder != nullptr ? recorder->size() : 0, kRecorderCapacity,
      (unsigned long long)(recorder != nullptr ? recorder->total_recorded() : 0),
      ok ? "accounted" : "MISMATCH");
  return ok;
}

}  // namespace

static int BenchMain(int /*argc*/, char** /*argv*/) {
  const double nan = std::nan("");
  std::vector<pfbench::Row> work_rows;
  std::vector<pfbench::Row> wall_rows;
  double fast_at_256 = 0;
  double indexed_at_256 = 0;

  for (const pf::Strategy strategy : pf::kAllStrategies) {
    for (const int ports : kPortCounts) {
      const WorkSample sample = Measure(Rig(strategy, ports));
      char label[64];
      std::snprintf(label, sizeof(label), "%-10s %5d ports", pf::ToString(strategy).c_str(),
                    ports);
      work_rows.push_back({label, nan, sample.work_per_packet});
      wall_rows.push_back({label, nan, sample.wall_ns_per_packet});
      if (ports == 256 && strategy == pf::Strategy::kFast) {
        fast_at_256 = sample.work_per_packet;
      }
      if (ports == 256 && strategy == pf::Strategy::kIndexed) {
        indexed_at_256 = sample.work_per_packet;
      }
    }
  }
  pfbench::PrintTable("Per-packet demux work vs open ports",
                      "fig. 4-1 loop; §7 improvements taken further", "insns+probes/packet",
                      work_rows);
  pfbench::PrintNote("Traffic rotates across all ports; sequential strategies pay ~half the "
                     "bound set per packet, kIndexed pays a constant probe+re-confirm.");
  pfbench::PrintTable("Per-packet demux wall clock (host CPU, informational)",
                      "same sweep as above", "ns/packet", wall_rows);

  // §3.2: "the interpreter may occasionally reorder such filters to place
  // the busier ones first".
  struct PriorityCase {
    const char* label;
    uint8_t (*priority)(int socket);
    uint32_t target;
    bool busy_reordering;
  };
  const PriorityCase priority_cases[] = {
      {"match first", [](int socket) { return static_cast<uint8_t>(255 - socket); }, 1, false},
      {"match last", [](int socket) { return static_cast<uint8_t>(socket); }, 1, false},
      {"match last + busy reordering", EqualPriority, kPriorityPorts, true},
  };
  std::vector<pfbench::Row> priority_rows;
  std::vector<pfbench::Row> priority_wall_rows;
  for (const PriorityCase& c : priority_cases) {
    const WorkSample sample = Measure(Rig(c.priority, c.target, c.busy_reordering));
    priority_rows.push_back({c.label, nan, sample.work_per_packet});
    priority_wall_rows.push_back({c.label, nan, sample.wall_ns_per_packet});
  }
  pfbench::PrintTable("Priority ordering, 32 ports under kFast",
                      "§3.2: busy filter first vs last, and busy-reordering", "insns+probes/packet",
                      priority_rows);
  pfbench::PrintTable("Priority ordering, 32 ports under kFast, wall clock (host CPU, "
                      "informational)",
                      "same cases as above", "ns/packet", priority_wall_rows);

  // §3: "a new filter can be bound at any time".
  const std::vector<WriteCost> writes = WriteCosts();
  std::vector<pfbench::Row> write_rows;
  for (size_t i = 0; i < writes.size(); ++i) {
    char label[64];
    std::snprintf(label, sizeof(label), "rebind %d ports", kWritePortCounts[i]);
    write_rows.push_back({label, nan, writes[i].rebind_ns});
  }
  for (size_t i = 0; i < writes.size(); ++i) {
    char label[64];
    std::snprintf(label, sizeof(label), "reprioritize %d ports", kWritePortCounts[i]);
    write_rows.push_back({label, nan, writes[i].reprioritize_ns});
  }
  pfbench::PrintTable("Reconfiguration cost vs open ports, kIndexed (host CPU)",
                      "§3: SetFilter on one port + the first Demux after it", "ns/write",
                      write_rows);

  const double ratio = indexed_at_256 > 0 ? fast_at_256 / indexed_at_256 : 0;
  std::printf("check: kFast@256 = %.2f, kIndexed@256 = %.2f, ratio = %.1fx (need >= 5x)\n",
              fast_at_256, indexed_at_256, ratio);
  pfbench::ReportCheck("micro_scaling.indexed_5x_cheaper", ratio >= 5.0, ratio);
  if (ratio < 5.0) {
    std::printf("check FAILED\n");
    return 1;
  }
  const bool enforce =
      pfbench::HostGatesEnforced(pfbench::BuildTypeName(), pfbench::SanitizerFlags());
  const Slope slope = IndexedHostSlope();
  const double growth = slope.many_ports_ns / slope.one_port_ns;
  std::printf("check: kIndexed wall: 1 port = %.1f ns, 1024 ports = %.1f ns, "
              "growth = %.2fx (need <= 2x)%s\n",
              slope.one_port_ns, slope.many_ports_ns, growth,
              enforce ? "" : " [informational: non-Release or sanitized build]");
  if (enforce) {
    pfbench::ReportCheck("micro_scaling.indexed_host_slope_2x", growth <= 2.0, growth);
    if (growth > 2.0) {
      std::printf("check FAILED\n");
      return 1;
    }
  }
  const double write_growth = writes.back().rebind_ns / writes.front().rebind_ns;
  std::printf("check: rebind wall, kIndexed: 16 ports = %.0f ns, 1024 ports = %.0f ns, "
              "growth = %.2fx (need <= 4x)%s\n",
              writes.front().rebind_ns, writes.back().rebind_ns, write_growth,
              enforce ? "" : " [informational: non-Release or sanitized build]");
  if (enforce) {
    pfbench::ReportCheck("micro_scaling.reconfig_flat", write_growth <= 4.0, write_growth);
    if (write_growth > 4.0) {
      std::printf("check FAILED\n");
      return 1;
    }
  }
  const bool drops_ok = VerifyDropAccounting();
  pfbench::ReportCheck("micro_scaling.drop_accounting", drops_ok);
  if (!drops_ok) {
    std::printf("check FAILED\n");
    return 1;
  }
  std::printf("check passed\n");
  return 0;
}

PFBENCH_MAIN("micro_scaling", BenchMain)
