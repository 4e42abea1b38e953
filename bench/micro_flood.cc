// Connection-database flood robustness (DESIGN.md §17, ROADMAP item 4).
//
// A stateful filter's worst day is a flow flood: millions of distinct
// single-packet "connections" arriving faster than state can possibly be
// retained. This bench sweeps flow arrival from 1x to 1000x the conndb's
// capacity and reports what the robustness machinery did about it — how
// much state was created, shed by the emergency watermarks, or refused
// outright — plus the structural demux work per packet, which must stay
// bounded no matter how hard the table churns.
//
// Every cell asserts the partition identity
//
//     created == live + expired + evicted + refused
//
// and reconciles the "pf.conn.*" metrics bit-exactly against the DB's own
// counters. The machine-based cells additionally reconcile the cost
// ledger: exactly one kConnDb charge per packet that consulted the DB and
// one kConnGc charge per background sweep.
//
// Every run also runs the CI gate: capacity 64k, one million distinct
// single-packet flows, per-packet demux work within 2x of the steady-state
// (conn-hit) value, emergency mode engaging and disengaging with every
// transition counted, and the identity + metrics reconciliation exact in
// every cell. A kIndexed cell at 256 ports gates that a conn hit costs
// less modeled work than a walk: it runs the stored filter, not the index
// probe. A second capacity-64k cell gates heap allocations: once the table
// is full, a flood of new flows must not allocate at all (counted by the
// harness's operator new; sanitized builds keep their own allocator, so
// there the gate only reports).
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/kernel/cost_model.h"
#include "src/net/pup_endpoint.h"
#include "src/obs/flow_stats.h"
#include "src/obs/metrics.h"
#include "src/pf/conndb.h"
#include "src/pf/demux.h"
#include "tests/test_packets.h"

namespace {

// Flow-id bytes live in the Pup data area: frame offset 24 (4-byte link
// header + 20-byte Pup header) is inside the 64-byte signature prefix but
// outside every word the socket filter reads, so each value is a distinct
// flow to the conndb while still matching the claiming filter.
constexpr size_t kFlowIdOffset = 24;

// One flood driver: a PacketFilter with conn tracking on, one bound
// Pup-socket port, and a synthetic clock advancing 10us per arrival.
struct FloodRig {
  pfobs::MetricsRegistry registry;
  pf::PacketFilter filter;
  pf::PortId port = 0;
  std::vector<uint8_t> frame;
  uint64_t now_ns = 0;

  explicit FloodRig(const pf::ConnDB::Config& cfg) {
    filter.AttachMetrics(&registry);
    filter.EnableConnTracking(cfg);
    port = filter.OpenPort();
    filter.SetFilter(port, pfnet::MakePupSocketFilter(35, 10));
    // Nobody reads during a flood; the queue overflows alongside the
    // connection churn, exactly like a flooded endpoint.
    filter.SetQueueLimit(port, 1);
    frame = pftest::MakePupFrame(8, 35, 2, 1, 40);
  }

  void Send(uint32_t flow_id) {
    frame[kFlowIdOffset + 0] = static_cast<uint8_t>(flow_id >> 24);
    frame[kFlowIdOffset + 1] = static_cast<uint8_t>(flow_id >> 16);
    frame[kFlowIdOffset + 2] = static_cast<uint8_t>(flow_id >> 8);
    frame[kFlowIdOffset + 3] = static_cast<uint8_t>(flow_id);
    now_ns += 10'000;
    filter.Demux(frame, now_ns);
  }

  double Work() const {
    const pf::ExecTelemetry& exec = filter.global_stats().exec;
    return static_cast<double>(exec.insns_executed) + static_cast<double>(exec.index_probes);
  }

  pf::ConnDB* db() { return filter.conndb(); }

  // Advance past the TTL and sweep until the table drains (the device's
  // worker timer, hand-cranked).
  void Drain() {
    now_ns += filter.conndb()->config().ttl_ns + 1;
    const size_t cap = filter.conndb()->capacity();
    const size_t batch = filter.conndb()->config().gc_batch;
    const size_t max_sweeps = 2 * (cap / (batch > 0 ? batch : 1) + 2);
    for (size_t i = 0; i < max_sweeps && filter.conndb()->live() > 0; ++i) {
      filter.conndb()->GcSweep(now_ns);
    }
  }
};

// Bit-exact reconciliation of every "pf.conn.*" counter/gauge against the
// DB's own stats. Appends a message per mismatch.
void CheckMetricsExact(const char* cell, FloodRig& rig,
                       std::vector<std::string>& failures) {
  const pf::ConnDB::Stats& st = rig.db()->stats();
  const struct {
    const char* name;
    uint64_t want;
  } counters[] = {
      {"pf.conn.lookups", st.lookups},
      {"pf.conn.hits", st.hits},
      {"pf.conn.misses", st.misses},
      {"pf.conn.stale_epoch", st.stale_epoch},
      {"pf.conn.created", st.created},
      {"pf.conn.updated", st.updated},
      {"pf.conn.refused", st.refused},
      {"pf.conn.expired.lazy", st.expired_lazy},
      {"pf.conn.expired.gc", st.expired_gc},
      {"pf.conn.evicted.capacity", st.evicted_capacity},
      {"pf.conn.evicted.emergency", st.evicted_emergency},
      {"pf.conn.evicted.stale", st.evicted_stale},
      {"pf.conn.emergency.engaged", st.emergency_engaged},
      {"pf.conn.emergency.disengaged", st.emergency_disengaged},
      {"pf.conn.gc.sweeps", st.gc_sweeps},
      {"pf.conn.gc.scanned", st.gc_scanned},
      {"pf.conn.gc.reclaimed", st.expired_gc},
  };
  for (const auto& c : counters) {
    const pfobs::Counter* counter = rig.registry.FindCounter(c.name);
    if (counter == nullptr || counter->value() != c.want) {
      failures.push_back(std::string(cell) + ": " + c.name + " != stats (" +
                         std::to_string(counter == nullptr ? 0 : counter->value()) +
                         " vs " + std::to_string(c.want) + ")");
    }
  }
  if (rig.registry.gauge("pf.conn.live")->value() !=
      static_cast<int64_t>(rig.db()->live())) {
    failures.push_back(std::string(cell) + ": pf.conn.live gauge mismatch");
  }
  if (rig.registry.gauge("pf.conn.emergency")->value() !=
      (rig.db()->emergency() ? 1 : 0)) {
    failures.push_back(std::string(cell) + ": pf.conn.emergency gauge mismatch");
  }
}

struct FloodSample {
  double flood_work_per_packet = 0;  // insns+probes/packet during the flood
  uint64_t created = 0;
  uint64_t evicted = 0;
  uint64_t refused = 0;
  uint64_t engaged = 0;
};

// One sweep cell: `flows` distinct single-packet flows against `capacity`.
FloodSample RunFlood(size_t capacity, uint64_t flows, bool refuse,
                     std::vector<std::string>& failures) {
  pf::ConnDB::Config cfg;
  cfg.capacity = capacity;
  cfg.ttl_ns = 1'000'000'000;  // nothing idles out mid-flood
  cfg.high_water_pct = 90;
  cfg.low_water_pct = 70;
  cfg.emergency_evict_batch = 8;
  cfg.refuse_new_in_emergency = refuse;
  cfg.gc_batch = 256;
  FloodRig rig(cfg);

  char cell[64];
  std::snprintf(cell, sizeof(cell), "flood cap=%zu flows=%llu%s", capacity,
                (unsigned long long)flows, refuse ? " refuse" : "");

  const double before = rig.Work();
  for (uint64_t i = 0; i < flows; ++i) {
    rig.Send(static_cast<uint32_t>(1'000'000 + i));
  }
  FloodSample sample;
  sample.flood_work_per_packet = (rig.Work() - before) / static_cast<double>(flows);

  const pf::ConnDB::Stats& st = rig.db()->stats();
  sample.created = st.created;
  sample.evicted = st.evicted();
  sample.refused = st.refused;
  sample.engaged = st.emergency_engaged;
  if (!rig.db()->IdentityHolds()) {
    failures.push_back(std::string(cell) + ": partition identity broken");
  }
  rig.Drain();
  if (rig.db()->live() != 0 || rig.db()->emergency()) {
    failures.push_back(std::string(cell) + ": table did not drain");
  }
  if (st.emergency_engaged != st.emergency_disengaged) {
    failures.push_back(std::string(cell) + ": engage/disengage transitions unbalanced");
  }
  if (!rig.db()->IdentityHolds()) {
    failures.push_back(std::string(cell) + ": identity broken after drain");
  }
  CheckMetricsExact(cell, rig, failures);
  return sample;
}

// The CI gate: capacity 64k, one million distinct single-packet flows.
// Steady-state work is measured first on the same rig (a small set of
// established flows served from conn state); the flood's per-packet work
// must stay within 2x of it — graceful degradation, not collapse.
bool RunCheckCell(std::vector<std::string>& failures) {
  pf::ConnDB::Config cfg;
  cfg.capacity = 65536;
  cfg.ttl_ns = 1'000'000'000;
  cfg.high_water_pct = 90;
  cfg.low_water_pct = 70;
  cfg.emergency_evict_batch = 8;
  cfg.refuse_new_in_emergency = false;
  cfg.gc_batch = 1024;
  FloodRig rig(cfg);
  const size_t before_failures = failures.size();

  // Steady state: 64 established flows, revisited. First round creates,
  // the rest are conn hits (one re-confirmed filter, no walk).
  constexpr uint32_t kSteadyFlows = 64;
  for (int round = 0; round < 4; ++round) {
    for (uint32_t f = 0; f < kSteadyFlows; ++f) {
      rig.Send(f);
    }
  }
  const double steady_before = rig.Work();
  constexpr int kSteadyRounds = 8;
  for (int round = 0; round < kSteadyRounds; ++round) {
    for (uint32_t f = 0; f < kSteadyFlows; ++f) {
      rig.Send(f);
    }
  }
  const double steady =
      (rig.Work() - steady_before) / (kSteadyRounds * kSteadyFlows);
  if (rig.db()->stats().hits == 0) {
    failures.push_back("check: steady phase never hit conn state");
  }

  // The flood: 1M distinct flows, far past the high water mark.
  constexpr uint64_t kFloodFlows = 1'000'000;
  const double flood_before = rig.Work();
  for (uint64_t i = 0; i < kFloodFlows; ++i) {
    rig.Send(static_cast<uint32_t>(1'000'000 + i));
  }
  const double flood = (rig.Work() - flood_before) / static_cast<double>(kFloodFlows);

  const pf::ConnDB::Stats& st = rig.db()->stats();
  if (!(flood <= 2.0 * steady)) {
    char msg[128];
    std::snprintf(msg, sizeof(msg),
                  "check: flood work %.2f/packet exceeds 2x steady %.2f/packet", flood,
                  steady);
    failures.push_back(msg);
  }
  if (st.emergency_engaged == 0) {
    failures.push_back("check: emergency mode never engaged");
  }
  if (!rig.db()->IdentityHolds()) {
    failures.push_back("check: partition identity broken under flood");
  }

  rig.Drain();
  if (rig.db()->live() != 0 || rig.db()->emergency()) {
    failures.push_back("check: table did not drain after the flood");
  }
  if (st.emergency_engaged != st.emergency_disengaged) {
    failures.push_back("check: engage/disengage transitions unbalanced");
  }
  CheckMetricsExact("check", rig, failures);

  std::printf(
      "check cell: steady %.2f flood %.2f insns+probes/packet, created=%llu "
      "evicted=%llu engaged=%llu disengaged=%llu live=%zu  [%s]\n",
      steady, flood, (unsigned long long)st.created, (unsigned long long)st.evicted(),
      (unsigned long long)st.emergency_engaged,
      (unsigned long long)st.emergency_disengaged, rig.db()->live(),
      failures.size() == before_failures ? "ok" : "FAILED");
  return failures.size() == before_failures;
}

// The allocation gate: capacity 64k with the watermarks out of reach, so
// the flood fills the table to capacity and every later flow evicts the LRU
// tail. The slab and the index have grown to their peak by then, and the
// free list to its first slot after a short warm-up past the fill, so over
// the window that follows the conn path (signature, lookup, walk, eviction,
// insertion) must allocate nothing.
struct AllocSample {
  uint64_t packets = 0;
  uint64_t allocs = 0;
};

AllocSample RunAllocCell(std::vector<std::string>& failures) {
  pf::ConnDB::Config cfg;
  cfg.capacity = 65536;
  cfg.ttl_ns = 1'000'000'000;
  cfg.high_water_pct = 101;  // never reached: the capacity bound sheds
  cfg.gc_batch = 1024;
  FloodRig rig(cfg);
  uint32_t flow = 1'000'000;
  for (size_t i = 0; i < cfg.capacity; ++i) {
    rig.Send(flow++);
  }
  if (rig.db()->live() != cfg.capacity) {
    failures.push_back("alloc cell: the fill did not reach capacity");
  }
  for (int i = 0; i < 4096; ++i) {  // warm-up: the free list's first push
    rig.Send(flow++);
  }
  constexpr uint64_t kWindow = 262'144;
  AllocSample sample;
  const uint64_t evicted_before = rig.db()->stats().evicted_capacity;
  const uint64_t allocs_before = pfbench::AllocationCount();
  for (uint64_t i = 0; i < kWindow; ++i) {
    rig.Send(flow++);
  }
  sample.allocs = pfbench::AllocationCount() - allocs_before;
  sample.packets = kWindow;
  if (rig.db()->stats().evicted_capacity - evicted_before != kWindow) {
    failures.push_back("alloc cell: a window flow did not evict the LRU tail");
  }
  rig.Drain();
  if (!rig.db()->IdentityHolds() || rig.db()->live() != 0) {
    failures.push_back("alloc cell: identity broken or table not drained");
  }
  CheckMetricsExact("alloc cell", rig, failures);
  return sample;
}

// The conn fast path under §7's decision table: 256 Pup-socket ports under
// kIndexed with tracking on, one flow per port, each sent four times. A
// flow's first packet walks (one index probe, then the bucket's filter);
// the repeats are conn hits, which run the stored port's filter alone, so
// a hit must cost less modeled work than a walk (ROADMAP item 5).
struct HitWalkSample {
  double hit_work_per_packet = 0;   // insns+probes per conn hit
  double walk_work_per_packet = 0;  // insns+probes per walked packet
};

HitWalkSample RunIndexedHitCell(std::vector<std::string>& failures) {
  constexpr uint32_t kPorts = 256;
  pf::PacketFilter filter;
  filter.SetStrategy(pf::Strategy::kIndexed);
  filter.EnableConnTracking();
  for (uint32_t socket = 1; socket <= kPorts; ++socket) {
    filter.SetFilter(filter.OpenPort(), pfnet::MakePupSocketFilter(socket, 10));
  }
  uint64_t now_ns = 0;
  uint64_t hits = 0;
  uint64_t walks = 0;
  double hit_work = 0;
  double walk_work = 0;
  for (int round = 0; round < 4; ++round) {
    for (uint32_t socket = 1; socket <= kPorts; ++socket) {
      now_ns += 10'000;
      const pf::DemuxResult r = filter.Demux(pftest::MakePupFrame(8, socket, 2, 1, 40), now_ns);
      const double work =
          static_cast<double>(r.exec.insns_executed) + static_cast<double>(r.exec.index_probes);
      (r.conn_hit ? hit_work : walk_work) += work;
      ++(r.conn_hit ? hits : walks);
    }
  }
  if (hits == 0 || walks == 0) {
    failures.push_back("indexed cell: no conn hit or no walk");
    return {};
  }
  const HitWalkSample sample{hit_work / static_cast<double>(hits),
                             walk_work / static_cast<double>(walks)};
  if (!(sample.hit_work_per_packet < sample.walk_work_per_packet)) {
    failures.push_back("indexed cell: a conn hit costs no less work than a walk");
  }
  return sample;
}

// Machine-based cell: the same flood through the simulated kernel, so the
// cost ledger is in the loop. Reconciles kConnDb charges against conndb
// lookups and kConnGc charges against worker sweeps, bit-exactly.
struct LedgerSample {
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t created = 0;
  uint64_t gc_sweeps = 0;
};

LedgerSample RunLedgerCell(bool refuse, std::vector<std::string>& failures) {
  const char* cell = refuse ? "ledger refuse" : "ledger shed";
  pfbench::Duo duo(pflink::LinkType::kExperimental3Mb);
  pfkern::Machine& sender = duo.client();
  pfkern::Machine& receiver = duo.server();

  bool sent_all = false;
  auto rx_setup = [&]() -> pfsim::Task {
    const int pid = receiver.NewPid();
    pf::ConnDB::Config cfg;
    cfg.capacity = 16;  // tiny on purpose: the flood dwarfs it
    cfg.ttl_ns = 80'000'000;
    cfg.high_water_pct = 75;
    cfg.low_water_pct = 25;
    cfg.emergency_evict_batch = 2;
    cfg.refuse_new_in_emergency = refuse;
    cfg.gc_batch = 8;
    co_await receiver.pf().EnableConnTracking(pid, cfg);
    const pf::PortId port = co_await receiver.pf().Open(pid);
    co_await receiver.pf().SetFilter(pid, port, pfnet::MakePupSocketFilter(35, 10));
    receiver.pf().core().SetQueueLimit(port, 4);
  };
  auto tx_flood = [&]() -> pfsim::Task {
    const int pid = sender.NewPid();
    co_await duo.sim().Delay(pfsim::Milliseconds(5));
    for (int i = 0; i < 240; ++i) {
      // Four elephant flows that keep hitting, interleaved with one-shot
      // flood flows that drive the table through high water.
      const bool flood = (i % 3) == 2;
      const uint8_t src =
          flood ? static_cast<uint8_t>(100 + i / 3) : static_cast<uint8_t>(3 + (i % 4));
      co_await sender.pf().Write(pid, pftest::MakePupFrame(8, 35, 2, src));
    }
    sent_all = true;
  };
  duo.sim().Spawn(rx_setup());
  duo.sim().Spawn(tx_flood());
  // To quiescence: the flood drains, GC reclaims the last entry, the
  // worker timer disarms.
  duo.sim().RunUntil(pfsim::TimePoint{} + pfsim::Seconds(60));

  LedgerSample sample;
  const pf::ConnDB* db = receiver.pf().ConnDb();
  if (!sent_all || db == nullptr) {
    failures.push_back(std::string(cell) + ": scenario did not complete");
    return sample;
  }
  const pf::ConnDB::Stats& st = db->stats();
  sample.lookups = st.lookups;
  sample.hits = st.hits;
  sample.created = st.created;
  sample.gc_sweeps = st.gc_sweeps;
  if (!db->IdentityHolds()) {
    failures.push_back(std::string(cell) + ": partition identity broken");
  }
  if (db->live() != 0 || db->emergency() ||
      st.emergency_engaged != st.emergency_disengaged) {
    failures.push_back(std::string(cell) + ": table did not drain cleanly");
  }
  if (st.emergency_engaged == 0 || st.expired_gc == 0) {
    failures.push_back(std::string(cell) + ": flood never stressed the watermarks/GC");
  }
  if ((st.refused > 0) != refuse) {
    failures.push_back(std::string(cell) + ": refusal counters inconsistent with mode");
  }
  // The ledger contract: one kConnDb charge per consulting packet, one
  // kConnGc charge per sweep the worker ran.
  if (receiver.ledger().count(pfkern::Cost::kConnDb) != st.lookups) {
    failures.push_back(std::string(cell) + ": ledger kConnDb charges != conndb lookups");
  }
  if (receiver.ledger().count(pfkern::Cost::kConnGc) != st.gc_sweeps) {
    failures.push_back(std::string(cell) + ": ledger kConnGc charges != gc sweeps");
  }
  const pfobs::MetricsRegistry& metrics = receiver.metrics();
  const pfobs::Counter* lookups = metrics.FindCounter("pf.conn.lookups");
  const pfobs::Counter* created = metrics.FindCounter("pf.conn.created");
  if (lookups == nullptr || lookups->value() != st.lookups || created == nullptr ||
      created->value() != st.created) {
    failures.push_back(std::string(cell) + ": pf.conn.* metrics do not match stats");
  }
  return sample;
}

}  // namespace

static int BenchMain(int /*argc*/, char** /*argv*/) {
  const double nan = std::nan("");
  std::vector<std::string> failures;

  // The arrival sweep: distinct single-packet flows, 1x -> 1000x capacity.
  constexpr size_t kCapacity = 256;
  constexpr int kMultipliers[] = {1, 10, 100, 1000};
  std::vector<pfbench::Row> work_rows;
  std::vector<pfbench::Row> shed_rows;
  std::vector<pfbench::Row> refuse_rows;
  for (const int m : kMultipliers) {
    const uint64_t flows = static_cast<uint64_t>(kCapacity) * m;
    const FloodSample shed = RunFlood(kCapacity, flows, /*refuse=*/false, failures);
    const FloodSample refuse = RunFlood(kCapacity, flows, /*refuse=*/true, failures);
    char label[64];
    std::snprintf(label, sizeof(label), "flood %4dx capacity", m);
    work_rows.push_back({label, nan, shed.flood_work_per_packet});
    std::snprintf(label, sizeof(label), "%4dx created", m);
    shed_rows.push_back({label, nan, static_cast<double>(shed.created)});
    std::snprintf(label, sizeof(label), "%4dx evicted", m);
    shed_rows.push_back({label, nan, static_cast<double>(shed.evicted)});
    std::snprintf(label, sizeof(label), "%4dx emergency engagements", m);
    shed_rows.push_back({label, nan, static_cast<double>(shed.engaged)});
    std::snprintf(label, sizeof(label), "%4dx created", m);
    refuse_rows.push_back({label, nan, static_cast<double>(refuse.created)});
    std::snprintf(label, sizeof(label), "%4dx refused", m);
    refuse_rows.push_back({label, nan, static_cast<double>(refuse.refused)});
    std::snprintf(label, sizeof(label), "%4dx evicted", m);
    refuse_rows.push_back({label, nan, static_cast<double>(refuse.evicted)});
  }
  pfbench::PrintTable("Per-packet demux work under flow flood (capacity 256)",
                      "DESIGN.md §17; npf_conndb-style reclamation", "insns+probes/packet",
                      work_rows);
  pfbench::PrintNote("Every arrival is a distinct flow: each packet pays the walk plus a "
                     "conndb miss; the emergency shed bounds state, not packet work.");
  pfbench::PrintTable("State churn, shed mode (evict LRU tail in emergency)",
                      "created == live + expired + evicted + refused", "count", shed_rows);
  pfbench::PrintTable("State churn, refuse mode (decline new state in emergency)",
                      "same identity; refused flows stay on the stateless walk", "count",
                      refuse_rows);

  const bool flood_ok = RunCheckCell(failures);
  pfbench::ReportCheck("micro_flood.flood_2x_and_drain", flood_ok);

  const AllocSample alloc = RunAllocCell(failures);
  const bool counted = pfbench::AllocationCounterInstalled();
  const double allocs_per_packet =
      counted ? static_cast<double>(alloc.allocs) / static_cast<double>(alloc.packets) : nan;
  if (counted) {
    std::printf("alloc cell: %llu heap allocations over %llu flood packets at capacity "
                "65536, %.3f per packet (need 0)\n",
                (unsigned long long)alloc.allocs, (unsigned long long)alloc.packets,
                allocs_per_packet);
  } else {
    std::printf("alloc cell: %llu flood packets at capacity 65536, heap allocations not "
                "counted [informational: sanitized build, counter not installed]\n",
                (unsigned long long)alloc.packets);
  }
  const bool allocs_ok = !counted || alloc.allocs == 0;
  if (!allocs_ok) {
    std::fprintf(stderr, "micro_flood FAILED: %.3f heap allocations per flood packet at "
                         "capacity (need 0)\n",
                 allocs_per_packet);
  }
  pfbench::ReportCheck("micro_flood.flood_allocs_zero", allocs_ok, allocs_per_packet);

  const HitWalkSample indexed = RunIndexedHitCell(failures);
  pfbench::PrintTable("Conn hit vs walk under kIndexed (256 Pup-socket ports)",
                      "ROADMAP item 5; DESIGN.md §17", "insns+probes/packet",
                      {{"per conn hit", nan, indexed.hit_work_per_packet},
                       {"per walked packet", nan, indexed.walk_work_per_packet}});
  pfbench::ReportCheck("micro_flood.indexed_hit_below_walk",
                       indexed.hit_work_per_packet < indexed.walk_work_per_packet);

  const size_t before_ledger = failures.size();
  std::vector<pfbench::Row> ledger_rows;
  for (const bool refuse : {false, true}) {
    const LedgerSample s = RunLedgerCell(refuse, failures);
    const char* mode = refuse ? "refuse" : "shed";
    char label[64];
    std::snprintf(label, sizeof(label), "%s lookups", mode);
    ledger_rows.push_back({label, nan, static_cast<double>(s.lookups)});
    std::snprintf(label, sizeof(label), "%s hits", mode);
    ledger_rows.push_back({label, nan, static_cast<double>(s.hits)});
    std::snprintf(label, sizeof(label), "%s created", mode);
    ledger_rows.push_back({label, nan, static_cast<double>(s.created)});
    std::snprintf(label, sizeof(label), "%s gc sweeps", mode);
    ledger_rows.push_back({label, nan, static_cast<double>(s.gc_sweeps)});
  }
  pfbench::PrintTable("Flood through the simulated kernel (ledger-reconciled)",
                      "one kConnDb charge per lookup, one kConnGc per sweep", "count",
                      ledger_rows);
  pfbench::ReportCheck("micro_flood.ledger_reconciles", failures.size() == before_ledger);
  pfbench::ReportCheck("micro_flood.identity_and_metrics_exact", failures.empty());
  if (!failures.empty() || !allocs_ok) {
    for (const std::string& f : failures) {
      std::fprintf(stderr, "micro_flood: %s\n", f.c_str());
    }
    std::printf("check FAILED\n");
    return 1;
  }
  std::printf("check passed\n");
  return 0;
}

PFBENCH_MAIN("micro_flood", BenchMain)
