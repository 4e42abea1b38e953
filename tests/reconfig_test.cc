// Reconfiguration under traffic, checked differentially. Two checks share
// one seeded, time-boxed driver:
//
// * The fast path: a PacketFilter whose connection tracking comes and goes
//   must deliver every packet exactly as a twin running the plain fig. 4-1
//   walk (no tracking) under the same strategy, while a random interleaving
//   rebinds filters, opens and closes ports, flips copy-all, switches
//   strategies, toggles busy reordering, and turns connection tracking on
//   (with a random table configuration) and off between packet bursts (runts and unmatched frames included). After every
//   packet: identical per-port accept/enqueue/drop counters (so identical
//   delivered-port sets) and identical drop-reason counts. A third twin,
//   always kIndexed with tracking always on, must match the walk the same
//   way, and every connection-table hit of either tracked filter must run
//   one filter and probe no index. After every step: accepts == enqueued +
//   dropped on every port, the fast-path tables' partition identity, and
//   monotonic fast-path hit counters.
//
// * The candidate walk: a kIndexed demux, which tests only the ports its
//   index bucket lets through, and a kChecked twin that tests every port
//   must both match a naive fig. 4-1 reference model
//   packet for packet (per-port accept/enqueue/drop/error counters, queue
//   lengths, drop reasons), under rebinds, priority flips, copy-all flips,
//   busy reordering, queue limits, port churn and truncated frames. A
//   profiled kIndexed twin (which walks every port and replays the pruned
//   ones) must report the same ExecTelemetry as the unprofiled one, and the
//   same per-pc hit counts as the profiled kChecked twin.
//
// Each check runs twice: over up to 6 ports with every reconfiguration
// equally likely, and over 48 ports bound up front where most writes
// re-bind a port's own program or flip its priority (the writes the
// demultiplexer patches in place rather than rebuilding); the 48-port
// fast-path run keeps connection tracking on throughout.
//
// Time-boxed: the first seed always runs to completion; further seeds run
// while the budget lasts (PF_RECONFIG_SECONDS, default 2 per test; raise it
// for a soak). A failure names its seed; PF_RECONFIG_SEED=N
// PF_RECONFIG_SECONDS=0 replays exactly that seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/obs/flow_stats.h"
#include "src/pf/builder.h"
#include "src/pf/demux.h"
#include "src/pf/interpreter.h"
#include "src/util/rng.h"
#include "tests/test_packets.h"

namespace {

using pf::ConnDB;
using pf::FilterBuilder;
using pf::PacketFilter;
using pf::PortId;
using pf::Program;

constexpr int kStepsPerSeed = 400;

// The two mixes every check runs under (see the top of the file).
enum class Mix { kSmall, kLarge };
constexpr size_t kLargePorts = 48;

// A random filter from a pool that covers every fast-path gate: indexable
// conjunctions (indexed and conn-servable), overlapping accept-alls, a
// non-conjunction (an uncovered candidate), a word past the FlowSignature
// prefix (breaks conn_servable), and a word inside the prefix that short
// frames cannot load (kOutOfPacket statuses). `rare_unservable` makes the
// filter past the prefix ten times rarer, so that over 48 ports the
// connection table is still consulted most of the time.
Program RandomFilter(pfutil::Rng& rng, bool rare_unservable = false) {
  static constexpr uint8_t kPriorities[] = {5, 10, 10, 10, 10, 200};
  const uint8_t priority = kPriorities[rng.Below(std::size(kPriorities))];
  FilterBuilder b;
  uint64_t kind = rng.Below(9);
  if (kind == 7 && rare_unservable && !rng.Chance(0.1)) {
    kind = 0;
  }
  switch (kind) {
    case 0:
    case 1:
    case 2: {
      const auto socket = static_cast<uint16_t>(rng.Range(1, 4));
      b.WordEqualsShortCircuit(pfproto::kWordDstSocketLow, socket)
          .WordEqualsShortCircuit(pfproto::kWordDstSocketHigh, 0)
          .WordEquals(pfproto::kWordEtherType, pfproto::kEtherTypePup);
      return b.Build(priority);
    }
    case 3:
    case 4:
      b.WordEquals(pfproto::kWordEtherType, pfproto::kEtherTypePup);
      return b.Build(priority);
    case 5:
      return Program{priority, pf::LangVersion::kV1, {}};  // accept-all
    case 6:
      return pf::PaperFig38Filter(priority);
    case 7:
      b.WordEquals(static_cast<uint8_t>(pfobs::kFlowSignaturePrefix / 2 + 2), 0xabab);
      return b.Build(priority);
    default:
      b.WordEquals(static_cast<uint8_t>(pfobs::kFlowSignaturePrefix / 2 - 2), 0xabab);
      return b.Build(priority);
  }
}

std::vector<uint8_t> RandomPacket(pfutil::Rng& rng) {
  const uint64_t kind = rng.Below(20);
  if (kind == 0) {  // runt: 0..5 bytes
    std::vector<uint8_t> runt(rng.Below(6));
    for (uint8_t& byte : runt) {
      byte = rng.NextU8();
    }
    return runt;
  }
  // Few distinct flows, so most packets belong to an established one.
  const auto socket = static_cast<uint32_t>(rng.Range(1, 5));
  const auto src = static_cast<uint8_t>(rng.Range(1, 2));
  const size_t data = rng.Chance(0.3) ? 80 : 8;
  const uint16_t ether_type = kind == 1 ? 0x0800 : pfproto::kEtherTypePup;  // 1: unmatched
  return pftest::MakePupFrame(8, socket, 2, src, data, ether_type);
}

ConnDB::Config RandomConnConfig(pfutil::Rng& rng) {
  static constexpr size_t kCapacities[] = {1, 2, 4, 16};
  static constexpr uint64_t kTtls[] = {1'000'000, 5'000'000, 1'000'000'000, 1'000'000'000};
  static constexpr uint32_t kHigh[] = {50, 75, 90, 100, 200};
  static constexpr uint32_t kLow[] = {0, 25, 70};
  ConnDB::Config config;
  config.capacity = kCapacities[rng.Below(std::size(kCapacities))];
  config.ttl_ns = kTtls[rng.Below(std::size(kTtls))];
  config.high_water_pct = kHigh[rng.Below(std::size(kHigh))];
  config.low_water_pct = kLow[rng.Below(std::size(kLow))];
  config.emergency_evict_batch = rng.Range(1, 3);
  config.refuse_new_in_emergency = rng.Chance(0.5);
  config.gc_batch = rng.Range(1, 8);
  return config;
}

class Twins {
 public:
  // Conn hits served under kIndexed, summed over the seeds of one test, so
  // the per-hit checks in Traffic() cannot pass vacuously. A seed whose
  // filter set is never conn-servable serves none; seed 1, where every
  // unreplayed run starts, serves some in both mixes.
  static inline uint64_t indexed_hits = 0;

  Twins(uint64_t seed, Mix mix) : rng_(seed), mix_(mix) {
    indexed_.SetStrategy(pf::Strategy::kIndexed);
    indexed_.EnableConnTracking();
    // Seeds differ in how often they reconfigure: stale-verdict bugs need
    // quiet stretches for entries to outlive a change that missed them.
    static constexpr uint64_t kOpRanges[] = {16, 64, 256};
    op_range_ = kOpRanges[rng_.Below(std::size(kOpRanges))];
    // Start half the seeds with busy reordering on, and half with tracking
    // (every 48-port seed tracks).
    if (rng_.Chance(0.5)) {
      subject_.SetBusyReordering(true);
      walk_.SetBusyReordering(true);
      indexed_.SetBusyReordering(true);
    }
    if (rng_.Chance(0.5) || mix_ == Mix::kLarge) {
      subject_.EnableConnTracking(RandomConnConfig(rng_));
    }
    if (mix_ == Mix::kLarge) {
      for (size_t i = 0; i < kLargePorts; ++i) {
        const PortId port = subject_.OpenPort();
        EXPECT_EQ(walk_.OpenPort(), port);
        EXPECT_EQ(indexed_.OpenPort(), port);
        const Program program = RandomFilter(rng_, /*rare_unservable=*/true);
        subject_.SetFilter(port, program);
        walk_.SetFilter(port, program);
        indexed_.SetFilter(port, program);
      }
    }
  }

  // One random reconfiguration (op 0-11; 12 and up: none; under the
  // 48-port mix, most steps re-bind a bound port's program or flip its
  // priority instead) followed by a burst of traffic.
  void Step() {
    const std::vector<PortId> ports = subject_.Ports();
    const PortId port = ports.empty() ? 0 : ports[rng_.Below(ports.size())];
    const pf::ValidatedProgram* bound = port == 0 ? nullptr : subject_.engine().Find(port);
    if (mix_ == Mix::kLarge && bound != nullptr && rng_.Chance(0.6)) {
      Program program = bound->program();
      if (rng_.Chance(0.5)) {
        static constexpr uint8_t kPriorities[] = {5, 10, 11, 200};
        program.priority = kPriorities[rng_.Below(std::size(kPriorities))];
      }
      SCOPED_TRACE("re-bind at priority " + std::to_string(program.priority) + " on port " +
                   std::to_string(port));
      subject_.SetFilter(port, program);
      walk_.SetFilter(port, program);
      indexed_.SetFilter(port, program);
      Traffic(port);
      return;
    }
    const uint64_t op = rng_.Below(op_range_);
    SCOPED_TRACE("op " + std::to_string(op) + " on port " + std::to_string(port) +
                 ", strategy " + pf::ToString(subject_.strategy()) +
                 (subject_.conndb() != nullptr ? ", tracking" : ", walk only"));
    switch (op) {
      case 0:
      case 1:
      case 2:
        if (port != 0) {
          const Program program = RandomFilter(rng_, mix_ == Mix::kLarge);
          subject_.SetFilter(port, program);
          walk_.SetFilter(port, program);
          indexed_.SetFilter(port, program);
        }
        break;
      case 3:
        if (port != 0) {
          subject_.ClearFilter(port);
          walk_.ClearFilter(port);
          indexed_.ClearFilter(port);
        }
        break;
      case 4:
        if (ports.size() < MaxPorts()) {
          const PortId opened = subject_.OpenPort();
          ASSERT_EQ(walk_.OpenPort(), opened);
          ASSERT_EQ(indexed_.OpenPort(), opened);
        }
        break;
      case 5:
        if (port != 0) {
          subject_.ClosePort(port);
          walk_.ClosePort(port);
          indexed_.ClosePort(port);
        }
        break;
      case 6:
        if (port != 0) {
          const bool enabled = rng_.Chance(0.3);
          subject_.SetDeliverToLower(port, enabled);
          walk_.SetDeliverToLower(port, enabled);
          indexed_.SetDeliverToLower(port, enabled);
        }
        break;
      case 7: {
        const pf::Strategy strategy = pf::kAllStrategies[rng_.Below(pf::kStrategyCount)];
        subject_.SetStrategy(strategy);
        walk_.SetStrategy(strategy);
        break;
      }
      case 8: {
        const bool enabled = rng_.Chance(0.5);
        subject_.SetBusyReordering(enabled);
        walk_.SetBusyReordering(enabled);
        indexed_.SetBusyReordering(enabled);
        break;
      }
      case 9:
        if (rng_.Chance(0.6) || mix_ == Mix::kLarge) {
          subject_.EnableConnTracking(RandomConnConfig(rng_));
        } else {
          subject_.DisableConnTracking();
        }
        break;
      case 10:
        if (port != 0) {
          const size_t limit = rng_.Range(1, 4);
          subject_.SetQueueLimit(port, limit);
          walk_.SetQueueLimit(port, limit);
          indexed_.SetQueueLimit(port, limit);
        }
        break;
      case 11:
        if (ConnDB* db = subject_.conndb()) {
          db->GcSweep(now_ns_);
        }
        indexed_.conndb()->GcSweep(now_ns_);
        break;
      default:
        break;  // traffic only
    }
    Traffic(port);
  }

 private:
  size_t MaxPorts() const { return mix_ == Mix::kLarge ? kLargePorts + 8 : 6; }

  void Traffic(PortId port) {
    CheckInvariants();
    // Up to 0.3 ms between packets: conn TTLs of 1 and 5 ms expire mid-run.
    const uint64_t burst = rng_.Range(1, 40);
    for (uint64_t i = 0; i < burst && !::testing::Test::HasFatalFailure(); ++i) {
      now_ns_ += rng_.Below(300'000);
      const std::vector<uint8_t> packet = RandomPacket(rng_);
      const pf::DemuxResult want = walk_.Demux(packet, now_ns_);
      for (PacketFilter* tracked : {&subject_, &indexed_}) {
        SCOPED_TRACE(tracked == &subject_ ? "subject" : "kIndexed twin");
        const pf::DemuxResult got = tracked->Demux(packet, now_ns_);
        ASSERT_EQ(got.accepted, want.accepted) << "packet " << i;
        ASSERT_EQ(got.deliveries, want.deliveries) << "packet " << i;
        ASSERT_EQ(got.drops, want.drops) << "packet " << i;
        if (got.conn_hit) {
          // A hit runs the stored port's filter alone: no index probe.
          ASSERT_EQ(got.exec.index_probes, 0u) << "packet " << i;
          ASSERT_EQ(got.exec.filters_run, 1u) << "packet " << i;
          indexed_hits += tracked->strategy() == pf::Strategy::kIndexed ? 1 : 0;
        }
        CompareCounters(*tracked);
      }
      if (rng_.Chance(0.3) && port != 0) {  // readers drain at random
        const size_t n = rng_.Range(1, 4);
        const size_t popped = walk_.PopBatch(port, n).size();
        ASSERT_EQ(subject_.PopBatch(port, n).size(), popped);
        ASSERT_EQ(indexed_.PopBatch(port, n).size(), popped);
      }
    }
    CheckInvariants();
  }

  void CompareCounters(const PacketFilter& tracked) {
    const std::vector<PortId> ports = tracked.Ports();
    ASSERT_EQ(ports, walk_.Ports());
    for (const PortId id : ports) {
      const pf::PortStats& got = *tracked.Stats(id);
      const pf::PortStats& want = *walk_.Stats(id);
      ASSERT_EQ(got.accepts, want.accepts) << "port " << id;
      ASSERT_EQ(got.enqueued, want.enqueued) << "port " << id;
      ASSERT_EQ(got.dropped, want.dropped) << "port " << id;
      ASSERT_EQ(got.drops_by_reason, want.drops_by_reason) << "port " << id;
    }
    const pf::FilterGlobalStats& got = tracked.global_stats();
    const pf::FilterGlobalStats& want = walk_.global_stats();
    ASSERT_EQ(got.packets_accepted, want.packets_accepted);
    ASSERT_EQ(got.packets_unclaimed, want.packets_unclaimed);
    ASSERT_EQ(got.drops_by_reason, want.drops_by_reason);
  }

  void CheckInvariants() {
    for (const PacketFilter* filter : {&subject_, &walk_, &indexed_}) {
      for (const PortId id : filter->Ports()) {
        const pf::PortStats& st = *filter->Stats(id);
        ASSERT_EQ(st.accepts, st.enqueued + st.dropped) << "port " << id;
      }
    }
    const ConnDB::Stats& table = subject_.flow_cache_stats();
    if (const ConnDB* db = subject_.conndb()) {
      ASSERT_TRUE(db->IdentityHolds());
    }
    ASSERT_TRUE(indexed_.conndb()->IdentityHolds());
    ASSERT_GE(table.hits, last_hits_);
    last_hits_ = table.hits;
  }

  pfutil::Rng rng_;
  Mix mix_;
  uint64_t op_range_ = 0;
  PacketFilter subject_;
  PacketFilter walk_;
  // Always kIndexed with tracking on (a default table), whatever the
  // subject's strategy and tracking are doing.
  PacketFilter indexed_;
  uint64_t now_ns_ = 1000;
  uint64_t last_hits_ = 0;
};

// Runs T(seed, mix).Step() kStepsPerSeed times per seed, for as many seeds
// as the time budget allows (at least one).
template <typename T>
void RunSeeds(Mix mix) {
  const char* seconds_env = std::getenv("PF_RECONFIG_SECONDS");
  const char* seed_env = std::getenv("PF_RECONFIG_SEED");
  const double budget_s = seconds_env != nullptr ? std::atof(seconds_env) : 2.0;
  const uint64_t first_seed = seed_env != nullptr ? std::strtoull(seed_env, nullptr, 10) : 1;
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed_s = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };
  uint64_t seed = first_seed;
  do {
    SCOPED_TRACE("seed " + std::to_string(seed));
    T twins(seed, mix);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
    for (int step = 0; step < kStepsPerSeed; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      twins.Step();
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
    ++seed;
  } while (elapsed_s() < budget_s);
  ::testing::Test::RecordProperty("seeds", static_cast<int>(seed - first_seed));
}

TEST(ReconfigDifferentialTest, FastPathMatchesTheWalkUnderRandomReconfiguration) {
  Twins::indexed_hits = 0;
  RunSeeds<Twins>(Mix::kSmall);
  EXPECT_GT(Twins::indexed_hits, 0u);
}

TEST(ReconfigDifferentialTest, FastPathMatchesTheWalkUnderRebindsAt48PortsWithTracking) {
  Twins::indexed_hits = 0;
  RunSeeds<Twins>(Mix::kLarge);
  EXPECT_GT(Twins::indexed_hits, 0u);
}

// --- The candidate walk against the full fig. 4-1 walk ---

// A pool mixing what the index can prune with what it cannot: Pup-socket
// conjunctions (indexable: they test every discriminating pair), a
// conjunction on the EtherType alone (indexable only when the index probes
// the EtherType alone), accept-alls, fig. 3-8's range test and an indirect
// load (non-conjunctions), a conjunction reaching far into the frame (raises
// the short-packet fallback threshold) and a division that can fail at run
// time (kDivideByZero statuses).
Program RandomWalkFilter(pfutil::Rng& rng, uint8_t priority) {
  FilterBuilder b;
  switch (rng.Below(12)) {
    case 0:
    case 1:
    case 2:
    case 3:
    case 4: {
      const auto socket = static_cast<uint16_t>(rng.Range(1, 6));
      b.WordEqualsShortCircuit(pfproto::kWordDstSocketLow, socket)
          .WordEqualsShortCircuit(pfproto::kWordDstSocketHigh, 0)
          .WordEquals(pfproto::kWordEtherType, pfproto::kEtherTypePup);
      return b.Build(priority);
    }
    case 5:
      b.WordEquals(pfproto::kWordEtherType, pfproto::kEtherTypePup);
      return b.Build(priority);
    case 6:
      return Program{priority, pf::LangVersion::kV1, {}};  // accept-all
    case 7:
      return pf::PaperFig38Filter(priority);
    case 8: {
      FilterBuilder ind(pf::LangVersion::kV2);
      ind.PushLit(static_cast<uint16_t>(2 * pfproto::kWordPupType)).IndOp().Lit(
          pf::BinaryOp::kEq, 8);
      return ind.Build(priority);
    }
    case 9: {
      const auto socket = static_cast<uint16_t>(rng.Range(1, 6));
      b.WordEqualsShortCircuit(pfproto::kWordDstSocketLow, socket)
          .WordEqualsShortCircuit(pfproto::kWordDstSocketHigh, 0)
          .WordEqualsShortCircuit(pfproto::kWordEtherType, pfproto::kEtherTypePup)
          .MaskedWordEquals(30, 0x00ff, 0);
      return b.Build(priority);
    }
    case 10: {
      FilterBuilder div(pf::LangVersion::kV2);
      div.PushWord(pfproto::kWordSrcSocketHigh).WordOp(pfproto::kWordPupLength, pf::BinaryOp::kDiv);
      return div.Build(priority);
    }
    default: {
      const auto socket = static_cast<uint16_t>(rng.Range(1, 6));
      b.WordEqualsShortCircuit(pfproto::kWordDstSocketLow, socket)
          .WordEquals(pfproto::kWordEtherType, pfproto::kEtherTypePup);
      return b.Build(priority);
    }
  }
}

std::vector<uint8_t> RandomWalkPacket(pfutil::Rng& rng) {
  const auto socket = static_cast<uint32_t>(rng.Range(1, 7));
  const size_t data = rng.Chance(0.3) ? 80 : 8;
  const uint16_t ether_type = rng.Chance(0.1) ? 0x0800 : pfproto::kEtherTypePup;
  std::vector<uint8_t> packet = pftest::MakePupFrame(8, socket, 2, 1, data, ether_type);
  if (rng.Chance(0.02)) {
    packet[2 * pfproto::kWordPupLength] = 0;  // the division filter's divisor
    packet[2 * pfproto::kWordPupLength + 1] = 0;
  }
  if (rng.Chance(0.2)) {
    packet.resize(rng.Below(packet.size()));  // truncated, down to a runt
  }
  return packet;
}

// The reference: fig. 4-1 written out naively — every port with a filter,
// sorted by (priority desc, [busy: accepts desc], open order), each filter
// run by the §4 checked interpreter until one claims — sharing no code with
// PacketFilter's walk or the engine's candidate lists.
class NaiveWalk {
 public:
  struct Port {
    std::optional<Program> program;
    bool copy_all = false;
    size_t queue_limit = 32;  // PacketFilter's default
    size_t queued = 0;
    uint64_t accepts = 0;
    uint64_t enqueued = 0;
    uint64_t dropped = 0;
    uint64_t errors = 0;
  };

  void Open(PortId id) {
    ports_[id] = Port{};
    dirty_ = true;
  }
  void Close(PortId id) {
    ports_.erase(id);
    dirty_ = true;
  }
  void Bind(PortId id, std::optional<Program> program) {
    ports_.at(id).program = std::move(program);
    dirty_ = true;
  }
  // Setting the current value is a no-op, as in PacketFilter: it must not
  // re-sort busy ports ahead of the next reorder interval.
  void SetBusy(bool busy) {
    dirty_ = dirty_ || busy != busy_;
    busy_ = busy;
  }
  Port& port(PortId id) { return ports_.at(id); }
  const std::map<PortId, Port>& ports() const { return ports_; }
  const pf::DropCounts& drops() const { return drops_; }

  // Delivers one packet; returns the number of copies taken (enqueued or
  // dropped).
  uint32_t Demux(std::span<const uint8_t> packet) {
    ++count_;
    if (dirty_ || (busy_ && count_ % 256 == 0)) {  // PacketFilter's reorder interval
      order_.clear();
      for (const auto& [id, port] : ports_) {
        if (port.program.has_value()) {
          order_.push_back(id);
        }
      }
      std::sort(order_.begin(), order_.end(), [this](PortId a, PortId b) {
        const Port& pa = ports_.at(a);
        const Port& pb = ports_.at(b);
        if (pa.program->priority != pb.program->priority) {
          return pa.program->priority > pb.program->priority;
        }
        if (busy_ && pa.accepts != pb.accepts) {
          return pa.accepts > pb.accepts;
        }
        return a < b;  // ids are handed out in open order
      });
      dirty_ = false;
    }
    uint32_t copies = 0;
    bool saw_short = false;
    bool saw_error = false;
    for (const PortId id : order_) {
      Port& port = ports_.at(id);
      const pf::ExecResult exec = pf::InterpretChecked(*port.program, packet);
      if (exec.status != pf::ExecStatus::kOk) {
        ++port.errors;
        (exec.status == pf::ExecStatus::kOutOfPacket ? saw_short : saw_error) = true;
      }
      if (!exec.accept) {
        continue;
      }
      ++copies;
      ++port.accepts;
      if (port.queued >= port.queue_limit) {
        ++port.dropped;
        ++drops_[static_cast<size_t>(pf::DropReason::kQueueOverflow)];
      } else {
        ++port.enqueued;
        ++port.queued;
      }
      if (!port.copy_all) {
        break;
      }
    }
    if (copies == 0) {
      pf::DropReason reason = pf::DropReason::kNoMatch;
      if (order_.empty()) {
        reason = pf::DropReason::kNoPorts;
      } else if (saw_error) {
        reason = pf::DropReason::kFilterError;
      } else if (saw_short) {
        reason = pf::DropReason::kShortPacket;
      }
      ++drops_[static_cast<size_t>(reason)];
    }
    return copies;
  }

 private:
  std::map<PortId, Port> ports_;
  std::vector<PortId> order_;
  bool dirty_ = false;
  bool busy_ = false;
  uint64_t count_ = 0;
  pf::DropCounts drops_{};
};

class WalkTwins {
 public:
  WalkTwins(uint64_t seed, Mix mix) : rng_(seed), mix_(mix) {
    checked().SetStrategy(pf::Strategy::kChecked);
    indexed().SetStrategy(pf::Strategy::kIndexed);
    profiled().SetStrategy(pf::Strategy::kIndexed);
    checked().SetProfiling(true);
    profiled().SetProfiling(true);
    static constexpr uint64_t kOpRanges[] = {12, 48, 192};
    op_range_ = kOpRanges[rng_.Below(std::size(kOpRanges))];
    if (rng_.Chance(0.5)) {
      ForAll([](PacketFilter& f) { f.SetBusyReordering(true); });
      model_.SetBusy(true);
    }
    if (mix_ == Mix::kLarge) {
      for (size_t i = 0; i < kLargePorts; ++i) {
        const PortId id = OpenEverywhere();
        Bind(id, RandomWalkFilter(rng_, RandomPriority()));
      }
    }
  }

  // One random reconfiguration (op 0-11; 12 and up: none; under the
  // 48-port mix, most steps re-bind a bound port's program or flip its
  // priority instead) followed by a burst of traffic.
  void Step() {
    const std::vector<PortId> ports = checked().Ports();
    const PortId port = ports.empty() ? 0 : ports[rng_.Below(ports.size())];
    uint64_t op = rng_.Below(op_range_);
    if (mix_ == Mix::kLarge && port != 0 && model_.port(port).program.has_value() &&
        rng_.Chance(0.6)) {
      op = rng_.Chance(0.5) ? 4 : kRebindSame;
    }
    SCOPED_TRACE("op " + std::to_string(op) + " on port " + std::to_string(port));
    switch (op) {
      case 0:
      case 1:
      case 2:
      case 3:
        if (port != 0) {
          Bind(port, RandomWalkFilter(rng_, RandomPriority()));
        }
        break;
      case 4:  // priority flip: same program, new priority
        if (port != 0 && model_.port(port).program.has_value()) {
          Program program = *model_.port(port).program;
          program.priority = RandomPriority();
          Bind(port, program);
        }
        break;
      case kRebindSame: {
        const Program program = *model_.port(port).program;
        Bind(port, program);
        break;
      }
      case 5:
        if (port != 0) {
          ForAll([&](PacketFilter& f) { f.ClearFilter(port); });
          model_.Bind(port, std::nullopt);
        }
        break;
      case 6:
      case 7:
        if (ports.size() < (mix_ == Mix::kLarge ? kLargePorts + 8 : 10)) {
          OpenEverywhere();
        }
        break;
      case 8:
        if (port != 0) {
          ForAll([&](PacketFilter& f) { f.ClosePort(port); });
          model_.Close(port);
        }
        break;
      case 9:
        if (port != 0) {
          const bool enabled = rng_.Chance(0.4);
          ForAll([&](PacketFilter& f) { f.SetDeliverToLower(port, enabled); });
          model_.port(port).copy_all = enabled;
        }
        break;
      case 10: {
        const bool enabled = rng_.Chance(0.5);
        ForAll([&](PacketFilter& f) { f.SetBusyReordering(enabled); });
        model_.SetBusy(enabled);
        break;
      }
      case 11:
        if (port != 0) {
          const size_t limit = rng_.Range(1, 6);
          ForAll([&](PacketFilter& f) { f.SetQueueLimit(port, limit); });
          model_.port(port).queue_limit = limit;
        }
        break;
      default:
        break;  // traffic only
    }
    const uint64_t burst = rng_.Range(1, 40);
    for (uint64_t i = 0; i < burst && !::testing::Test::HasFatalFailure(); ++i) {
      SCOPED_TRACE("packet " + std::to_string(i));
      const std::vector<uint8_t> packet = RandomWalkPacket(rng_);
      const uint32_t copies = model_.Demux(packet);
      std::array<pf::DemuxResult, 3> got;
      for (size_t f = 0; f < filters_.size(); ++f) {
        got[f] = filters_[f].Demux(packet);
      }
      for (size_t f = 0; f < filters_.size(); ++f) {
        SCOPED_TRACE(pf::ToString(filters_[f].strategy()));
        ASSERT_EQ(got[f].accepted, copies > 0);
        ASSERT_EQ(got[f].deliveries + got[f].drops, copies);
        ComparePorts(filters_[f]);
      }
      // Profiling walks every port and replays the pruned ones uncharged:
      // the charged work must not notice.
      const pf::ExecTelemetry& plain = got[1].exec;
      const pf::ExecTelemetry& traced = got[2].exec;
      ASSERT_EQ(traced.filters_run, plain.filters_run);
      ASSERT_EQ(traced.insns_executed, plain.insns_executed);
      ASSERT_EQ(traced.index_probes, plain.index_probes);
      if (rng_.Chance(0.3) && model_.ports().count(port) != 0) {  // readers drain at random
        const size_t n = rng_.Range(1, 4);
        size_t& queued = model_.port(port).queued;
        const size_t want = std::min(n, queued);
        queued -= want;
        for (PacketFilter& filter : filters_) {
          ASSERT_EQ(filter.PopBatch(port, n).size(), want);
        }
      }
    }
    CompareProfiles();
  }

 private:
  // Outside the random op range: re-bind the port's own program.
  static constexpr uint64_t kRebindSame = UINT64_MAX;

  PacketFilter& checked() { return filters_[0]; }
  PacketFilter& indexed() { return filters_[1]; }
  PacketFilter& profiled() { return filters_[2]; }

  template <typename F>
  void ForAll(F&& f) {
    for (PacketFilter& filter : filters_) {
      f(filter);
    }
  }

  uint8_t RandomPriority() {
    static constexpr uint8_t kPriorities[] = {1, 5, 5, 5, 9, 200};
    return kPriorities[rng_.Below(std::size(kPriorities))];
  }

  PortId OpenEverywhere() {
    const PortId id = checked().OpenPort();
    for (size_t i = 1; i < filters_.size(); ++i) {
      EXPECT_EQ(filters_[i].OpenPort(), id);
    }
    model_.Open(id);
    return id;
  }

  // Binds `program` everywhere; every pool program is valid.
  void Bind(PortId port, const Program& program) {
    ForAll([&](PacketFilter& f) { ASSERT_TRUE(f.SetFilter(port, program).ok); });
    model_.Bind(port, program);
  }

  // Per-port counters (so the delivered-port set) and drop reasons.
  void ComparePorts(const PacketFilter& got) {
    std::vector<PortId> ids;
    for (const auto& [id, want] : model_.ports()) {
      ids.push_back(id);
      const pf::PortStats& g = *got.Stats(id);
      ASSERT_EQ(g.accepts, want.accepts) << "port " << id;
      ASSERT_EQ(g.enqueued, want.enqueued) << "port " << id;
      ASSERT_EQ(g.dropped, want.dropped) << "port " << id;
      ASSERT_EQ(g.filter_errors, want.errors) << "port " << id;
      ASSERT_EQ(pf::TotalDrops(g.drops_by_reason), g.dropped) << "port " << id;
      ASSERT_EQ(got.QueueLength(id), want.queued) << "port " << id;
    }
    ASSERT_EQ(got.Ports(), ids);
    ASSERT_EQ(got.global_stats().drops_by_reason, model_.drops());
  }

  // Per-pc hit counts and exits are strategy-independent: the profiled
  // kIndexed twin must agree with the profiled kChecked one.
  void CompareProfiles() {
    for (const PortId id : checked().Ports()) {
      const pf::ProgramProfile* want = checked().Profile(id);
      const pf::ProgramProfile* got = profiled().Profile(id);
      ASSERT_EQ(got == nullptr, want == nullptr) << "port " << id;
      if (want == nullptr) {
        continue;
      }
      ASSERT_EQ(got->passes, want->passes) << "port " << id;
      ASSERT_EQ(got->accepts, want->accepts) << "port " << id;
      ASSERT_EQ(got->rejects, want->rejects) << "port " << id;
      ASSERT_EQ(got->errors, want->errors) << "port " << id;
      ASSERT_EQ(got->pc.size(), want->pc.size()) << "port " << id;
      for (size_t pc = 0; pc < want->pc.size(); ++pc) {
        ASSERT_EQ(got->pc[pc].hits, want->pc[pc].hits) << "port " << id << " pc " << pc;
        ASSERT_EQ(got->pc[pc].accept_exits, want->pc[pc].accept_exits)
            << "port " << id << " pc " << pc;
        ASSERT_EQ(got->pc[pc].reject_exits, want->pc[pc].reject_exits)
            << "port " << id << " pc " << pc;
      }
    }
  }

  pfutil::Rng rng_;
  Mix mix_;
  uint64_t op_range_ = 0;
  NaiveWalk model_;
  // kChecked (profiled), kIndexed, kIndexed profiled.
  std::array<PacketFilter, 3> filters_;
};

TEST(ReconfigDifferentialTest, CandidateWalkMatchesCheckedUnderRandomReconfiguration) {
  RunSeeds<WalkTwins>(Mix::kSmall);
}

TEST(ReconfigDifferentialTest, CandidateWalkMatchesCheckedUnderRebindsAt48Ports) {
  RunSeeds<WalkTwins>(Mix::kLarge);
}

}  // namespace
