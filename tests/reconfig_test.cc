// Reconfiguration under traffic, checked differentially: a PacketFilter with
// its flow-state fast path (verdict cache or connection tracking) must
// deliver every packet exactly as a twin running the plain fig. 4-1 walk
// (no cache, no tracking) under the same strategy, while a seeded random
// interleaving rebinds filters, opens and closes ports, flips copy-all,
// switches strategies, toggles busy reordering, resizes the cache, and
// turns connection tracking on and off between packet bursts (runts and
// unmatched frames included).
//
// After every packet: identical per-port accept/enqueue/drop counters (so
// identical delivered-port sets) and identical drop-reason counts. After
// every step: accepts == enqueued + dropped on every port, the fast-path
// table's partition identity, and monotonic fast-path hit counters.
//
// Time-boxed: the first seed always runs to completion; further seeds run
// while the budget lasts (PF_RECONFIG_SECONDS, default 2; raise it for a
// soak). A failure names its seed; PF_RECONFIG_SEED=N PF_RECONFIG_SECONDS=0
// replays exactly that seed.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/obs/flow_stats.h"
#include "src/pf/builder.h"
#include "src/pf/demux.h"
#include "src/util/rng.h"
#include "tests/test_packets.h"

namespace {

using pf::ConnDB;
using pf::FilterBuilder;
using pf::PacketFilter;
using pf::PortId;
using pf::Program;

constexpr int kStepsPerSeed = 400;
constexpr size_t kMaxPorts = 6;

// A random filter from a pool that covers every fast-path gate: indexable
// conjunctions (cache- and conn-servable), overlapping accept-alls, a
// non-conjunction (breaks index_covers_all), a word past the FlowSignature
// prefix (breaks conn_servable), and a word inside the prefix that short
// frames cannot load (kOutOfPacket statuses).
Program RandomFilter(pfutil::Rng& rng) {
  static constexpr uint8_t kPriorities[] = {5, 10, 10, 10, 10, 200};
  const uint8_t priority = kPriorities[rng.Below(std::size(kPriorities))];
  FilterBuilder b;
  switch (rng.Below(9)) {
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
  explicit Twins(uint64_t seed) : rng_(seed) {
    walk_.SetFlowCacheCapacity(0);
    // Seeds differ in how often they reconfigure: stale-verdict bugs need
    // quiet stretches for entries to outlive a change that missed them.
    static constexpr uint64_t kOpRanges[] = {16, 64, 256};
    op_range_ = kOpRanges[rng_.Below(std::size(kOpRanges))];
    // Start half the seeds with busy reordering on, and half with tracking.
    if (rng_.Chance(0.5)) {
      subject_.SetBusyReordering(true);
      walk_.SetBusyReordering(true);
    }
    if (rng_.Chance(0.5)) {
      subject_.EnableConnTracking(RandomConnConfig(rng_));
    }
  }

  // One random reconfiguration (op 0-12; 13 and up: none) followed by a
  // burst of traffic.
  void Step() {
    const std::vector<PortId> ports = subject_.Ports();
    const PortId port = ports.empty() ? 0 : ports[rng_.Below(ports.size())];
    const uint64_t op = rng_.Below(op_range_);
    SCOPED_TRACE("op " + std::to_string(op) + " on port " + std::to_string(port) +
                 ", strategy " + pf::ToString(subject_.strategy()) +
                 (subject_.conndb() != nullptr ? ", tracking" : ", cache mode"));
    switch (op) {
      case 0:
      case 1:
      case 2:
        if (port != 0) {
          const Program program = RandomFilter(rng_);
          subject_.SetFilter(port, program);
          walk_.SetFilter(port, program);
        }
        break;
      case 3:
        if (port != 0) {
          subject_.ClearFilter(port);
          walk_.ClearFilter(port);
        }
        break;
      case 4:
        if (ports.size() < kMaxPorts) {
          ASSERT_EQ(subject_.OpenPort(), walk_.OpenPort());
        }
        break;
      case 5:
        if (port != 0) {
          subject_.ClosePort(port);
          walk_.ClosePort(port);
        }
        break;
      case 6:
        if (port != 0) {
          const bool enabled = rng_.Chance(0.3);
          subject_.SetDeliverToLower(port, enabled);
          walk_.SetDeliverToLower(port, enabled);
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
        break;
      }
      case 9: {
        static constexpr size_t kCapacities[] = {0, 1, 2, 3, 8, 1024};
        subject_.SetFlowCacheCapacity(kCapacities[rng_.Below(std::size(kCapacities))]);
        break;
      }
      case 10:
        if (rng_.Chance(0.6)) {
          subject_.EnableConnTracking(RandomConnConfig(rng_));
        } else {
          subject_.DisableConnTracking();
        }
        break;
      case 11:
        if (port != 0) {
          const size_t limit = rng_.Range(1, 4);
          subject_.SetQueueLimit(port, limit);
          walk_.SetQueueLimit(port, limit);
        }
        break;
      case 12:
        if (ConnDB* db = subject_.conndb()) {
          db->GcSweep(now_ns_);
        }
        break;
      default:
        break;  // traffic only
    }
    CheckInvariants();
    // Up to 0.3 ms between packets: conn TTLs of 1 and 5 ms expire mid-run.
    const uint64_t burst = rng_.Range(1, 40);
    for (uint64_t i = 0; i < burst && !::testing::Test::HasFatalFailure(); ++i) {
      now_ns_ += rng_.Below(300'000);
      const std::vector<uint8_t> packet = RandomPacket(rng_);
      const pf::DemuxResult got = subject_.Demux(packet, now_ns_);
      const pf::DemuxResult want = walk_.Demux(packet, now_ns_);
      ASSERT_EQ(got.accepted, want.accepted) << "packet " << i;
      ASSERT_EQ(got.deliveries, want.deliveries) << "packet " << i;
      ASSERT_EQ(got.drops, want.drops) << "packet " << i;
      CompareCounters();
      if (rng_.Chance(0.3) && port != 0) {  // readers drain at random
        const size_t n = rng_.Range(1, 4);
        ASSERT_EQ(subject_.PopBatch(port, n).size(), walk_.PopBatch(port, n).size());
      }
    }
    CheckInvariants();
  }

 private:
  void CompareCounters() {
    const std::vector<PortId> ports = subject_.Ports();
    ASSERT_EQ(ports, walk_.Ports());
    for (const PortId id : ports) {
      const pf::PortStats& got = *subject_.Stats(id);
      const pf::PortStats& want = *walk_.Stats(id);
      ASSERT_EQ(got.accepts, want.accepts) << "port " << id;
      ASSERT_EQ(got.enqueued, want.enqueued) << "port " << id;
      ASSERT_EQ(got.dropped, want.dropped) << "port " << id;
      ASSERT_EQ(got.drops_by_reason, want.drops_by_reason) << "port " << id;
    }
    const pf::FilterGlobalStats& got = subject_.global_stats();
    const pf::FilterGlobalStats& want = walk_.global_stats();
    ASSERT_EQ(got.packets_accepted, want.packets_accepted);
    ASSERT_EQ(got.packets_unclaimed, want.packets_unclaimed);
    ASSERT_EQ(got.drops_by_reason, want.drops_by_reason);
  }

  void CheckInvariants() {
    for (const PacketFilter* filter : {&subject_, &walk_}) {
      for (const PortId id : filter->Ports()) {
        const pf::PortStats& st = *filter->Stats(id);
        ASSERT_EQ(st.accepts, st.enqueued + st.dropped) << "port " << id;
      }
    }
    const ConnDB::Stats& table = subject_.flow_cache_stats();
    ASSERT_EQ(table.created, subject_.flow_cache_size() + table.expired() + table.evicted() +
                                 table.refused);
    if (const ConnDB* db = subject_.conndb()) {
      ASSERT_TRUE(db->IdentityHolds());
    }
    ASSERT_GE(table.hits, last_hits_);
    last_hits_ = table.hits;
  }

  pfutil::Rng rng_;
  uint64_t op_range_ = 0;
  PacketFilter subject_;
  PacketFilter walk_;
  uint64_t now_ns_ = 1000;
  uint64_t last_hits_ = 0;
};

TEST(ReconfigDifferentialTest, FastPathMatchesTheWalkUnderRandomReconfiguration) {
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
    Twins twins(seed);
    for (int step = 0; step < kStepsPerSeed; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      twins.Step();
      if (HasFatalFailure()) {
        return;
      }
    }
    ++seed;
  } while (elapsed_s() < budget_s);
  RecordProperty("seeds", static_cast<int>(seed - first_seed));
}

}  // namespace
