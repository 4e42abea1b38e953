// Flow observability plane tests (DESIGN.md §16): the FlowSignature, the
// Space-Saving sketch and its paper guarantees, the bounded FlowTable's
// conservation identities under eviction, the pf.flow.* metric export and
// sampler prefix selection, and the reconciliation of per-flow accounting
// against the demux counters and the machine's cost ledger.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "src/kernel/cost_model.h"
#include "src/kernel/machine.h"
#include "src/kernel/pf_device.h"
#include "src/net/pup_endpoint.h"
#include "src/obs/flow_stats.h"
#include "src/obs/sampler.h"
#include "src/pf/demux.h"
#include "src/util/rng.h"
#include "tests/test_packets.h"

namespace {

using pfobs::FlowSignature;
using pfobs::FlowTable;
using pfobs::SpaceSavingSketch;

TEST(FlowSignatureTest, NeverZeroAndDeterministic) {
  const std::vector<uint8_t> frame = pftest::MakePupFrame(8, 35);
  const uint64_t sig = FlowSignature::Of(frame);
  EXPECT_NE(sig, 0u);
  EXPECT_EQ(sig, FlowSignature::Of(frame));
  EXPECT_NE(sig, FlowSignature::Of(pftest::MakePupFrame(8, 44)));
  EXPECT_EQ(FlowSignature::Of({}), FlowSignature::Of({}));  // empty frames hash too
  EXPECT_NE(FlowSignature::Of({}), 0u);
}

TEST(FlowSignatureTest, OnlyThePrefixDiscriminates) {
  // Two frames identical in the first kFlowSignaturePrefix bytes are the
  // same flow no matter how their payloads differ past it.
  std::vector<uint8_t> a(pfobs::kFlowSignaturePrefix + 32, 0x41);
  std::vector<uint8_t> b = a;
  b.back() = 0x42;  // differs beyond the prefix
  EXPECT_EQ(FlowSignature::Of(a), FlowSignature::Of(b));
  b = a;
  b[4] ^= 1;  // differs inside the prefix
  EXPECT_NE(FlowSignature::Of(a), FlowSignature::Of(b));
}

TEST(FlowSignatureTest, PinnedValues) {
  // The signature is the cross-reference key between the flight recorder,
  // the flow table, the conndb, and the pcapng comments — recorded
  // artifacts outlive processes, so the hash itself is part of the wire
  // contract. These are the multiply-fold values (eight little-endian lanes
  // plus the length lane; checked against an independent reference); if
  // this test breaks, existing captures stop cross-referencing.
  EXPECT_EQ(FlowSignature::Of({}), 0x5964a6c87ef0c17cull);
  const std::vector<uint8_t> one = {0x01};
  EXPECT_EQ(FlowSignature::Of(one), 0x55e583b57e2db976ull);
  const std::vector<uint8_t> beef = {0xde, 0xad, 0xbe, 0xef};
  EXPECT_EQ(FlowSignature::Of(beef), 0xa60c00a3074bd116ull);
  std::vector<uint8_t> ramp(80);
  for (size_t i = 0; i < ramp.size(); ++i) {
    ramp[i] = static_cast<uint8_t>(i);
  }
  EXPECT_EQ(FlowSignature::Of(ramp), 0xd9d0b3c743cebe8eull);
  ramp.resize(pfobs::kFlowSignaturePrefix);  // bytes past the prefix never hashed
  EXPECT_EQ(FlowSignature::Of(ramp), 0xd9d0b3c743cebe8eull);
  ramp.resize(13);  // a partial last word
  EXPECT_EQ(FlowSignature::Of(ramp), 0xdc32da70ccc81848ull);
}

TEST(FlowSignatureTest, EverySingleBitFlipInThePrefixChangesIt) {
  // Each base frame, and each of its one-bit variants, is a distinct flow:
  // no two of them share a signature.
  std::vector<uint8_t> ramp(pfobs::kFlowSignaturePrefix);
  for (size_t i = 0; i < ramp.size(); ++i) {
    ramp[i] = static_cast<uint8_t>(0x11 * i + 3);
  }
  const std::vector<std::vector<uint8_t>> bases = {
      std::vector<uint8_t>(pfobs::kFlowSignaturePrefix, 0x00),
      std::vector<uint8_t>(pfobs::kFlowSignaturePrefix, 0xff),
      ramp,
      pftest::MakePupFrame(8, 35, 2, 1, 40),  // past the prefix
      pftest::MakePupFrame(8, 35),            // shorter than the prefix
  };
  for (const std::vector<uint8_t>& base : bases) {
    const size_t n = std::min(base.size(), pfobs::kFlowSignaturePrefix);
    std::vector<uint64_t> sigs = {FlowSignature::Of(base)};
    for (size_t bit = 0; bit < 8 * n; ++bit) {
      std::vector<uint8_t> flipped = base;
      flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      sigs.push_back(FlowSignature::Of(flipped));
    }
    std::sort(sigs.begin(), sigs.end());
    EXPECT_EQ(std::adjacent_find(sigs.begin(), sigs.end()), sigs.end())
        << "a one-bit flip collided in a " << base.size() << "-byte frame";
  }
}

TEST(FlowSignatureTest, TrailingZeroByteInsideThePrefixChangesIt) {
  // Zero padding alone would make n and n+1 zero bytes the same words; the
  // length lane tells them apart, up to the prefix and not beyond it.
  std::vector<uint64_t> sigs;
  for (size_t n = 0; n <= pfobs::kFlowSignaturePrefix; ++n) {
    sigs.push_back(FlowSignature::Of(std::vector<uint8_t>(n, 0)));
    std::vector<uint8_t> frame = pftest::MakePupFrame(8, 35, 2, 1, 40);
    frame.resize(n);
    const uint64_t shorter = FlowSignature::Of(frame);
    frame.push_back(0);
    if (n < pfobs::kFlowSignaturePrefix) {
      EXPECT_NE(FlowSignature::Of(frame), shorter) << "length " << n;
    } else {
      EXPECT_EQ(FlowSignature::Of(frame), shorter) << "length " << n;
    }
  }
  std::sort(sigs.begin(), sigs.end());
  EXPECT_EQ(std::adjacent_find(sigs.begin(), sigs.end()), sigs.end());
}

TEST(FlowSignatureTest, BytesPastThePrefixNeverChangeIt) {
  pfutil::Rng rng(0x5161);
  for (int trial = 0; trial < 64; ++trial) {
    std::vector<uint8_t> frame(pfobs::kFlowSignaturePrefix);
    for (uint8_t& byte : frame) {
      byte = static_cast<uint8_t>(rng.Below(256));
    }
    const uint64_t sig = FlowSignature::Of(frame);
    const size_t tail = 1 + rng.Below(1500);
    for (size_t i = 0; i < tail; ++i) {
      frame.push_back(static_cast<uint8_t>(rng.Below(256)));
    }
    EXPECT_EQ(FlowSignature::Of(frame), sig) << "tail of " << tail << " bytes";
  }
}

TEST(FlowSignatureTest, NoCollisionAcrossMillionsOfPupFlows) {
  // The flood shapes the benches drive: micro_flood writes a 32-bit flow id
  // into the Pup data area (frame offset 24) of a 66-byte frame, and
  // conn_churn's one-shot flows carry theirs in the first data bytes of a
  // frame shorter than the prefix. Vary the Pup identifier field (offset 8)
  // as well. 2^20 of each, 3 * 2^20 in all: any collision is structural
  // (a 64-bit hash collides by chance with probability ~2^-22 here).
  constexpr uint32_t kFlows = 1u << 20;
  const auto stamp = [](std::vector<uint8_t>& frame, size_t offset, uint32_t id) {
    frame[offset + 0] = static_cast<uint8_t>(id >> 24);
    frame[offset + 1] = static_cast<uint8_t>(id >> 16);
    frame[offset + 2] = static_cast<uint8_t>(id >> 8);
    frame[offset + 3] = static_cast<uint8_t>(id);
  };
  std::vector<uint8_t> flood = pftest::MakePupFrame(8, 35, 2, 1, 40);
  std::vector<uint8_t> churn = pftest::MakePupFrame(8, 0x205);
  std::vector<uint8_t> ident = pftest::MakePupFrame(8, 0x205);
  ASSERT_GT(flood.size(), pfobs::kFlowSignaturePrefix);
  ASSERT_LT(churn.size(), pfobs::kFlowSignaturePrefix);
  std::vector<uint64_t> sigs;
  sigs.reserve(3 * kFlows);
  for (uint32_t id = 0; id < kFlows; ++id) {
    stamp(flood, 24, 1'000'000 + id);
    stamp(churn, 24, 0x01000000 + id);
    stamp(ident, 8, id);
    sigs.push_back(FlowSignature::Of(flood));
    sigs.push_back(FlowSignature::Of(churn));
    sigs.push_back(FlowSignature::Of(ident));
  }
  std::sort(sigs.begin(), sigs.end());
  const auto dup = std::adjacent_find(sigs.begin(), sigs.end());
  EXPECT_EQ(dup, sigs.end()) << "collision on " << std::hex << *dup;
}

TEST(FlowTableTest, GenerationWraparoundKeepsLruOrder) {
  // Eviction order is LRU-list order, never a generation comparison, so a
  // wrapped touch counter must not change who gets evicted — the stamps
  // just wrap along with it.
  FlowTable table({.capacity = 2, .top_k = 4});
  table.SetGenerationForTest(UINT64_MAX - 1);
  table.Record(0xA, 10, 0, 100);  // generation UINT64_MAX
  table.Record(0xB, 10, 0, 200);  // generation 0 (wrapped)
  EXPECT_EQ(table.Find(0xA)->generation, UINT64_MAX);
  EXPECT_EQ(table.Find(0xB)->generation, 0u);
  table.Record(0xA, 10, 0, 300);  // touch A: now B is least recent
  table.Record(0xC, 10, 0, 400);  // evicts B, not A, despite A's huge stamp
  EXPECT_NE(table.Find(0xA), nullptr);
  EXPECT_EQ(table.Find(0xB), nullptr);
  EXPECT_NE(table.Find(0xC), nullptr);
  EXPECT_EQ(table.totals().evictions, 1u);
  // The fold identity survives the wrap: live + evicted == recorded.
  EXPECT_EQ(table.totals().packets,
            table.Find(0xA)->packets + table.Find(0xC)->packets +
                table.totals().evicted_packets);
}

TEST(FlowTableTest, CapacityOneDegenerateBound) {
  // The tightest legal table: every new flow evicts the previous one, and
  // the evicted_* folds still reconcile exactly.
  FlowTable table({.capacity = 1, .top_k = 2});
  table.Record(0xA, 5, 1, 10);
  table.Record(0xA, 5, 1, 20);
  table.Record(0xB, 7, 0, 30);  // evicts A (packets=2, bytes=10, deliveries=2)
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.Find(0xA), nullptr);
  ASSERT_NE(table.Find(0xB), nullptr);
  EXPECT_EQ(table.totals().evictions, 1u);
  EXPECT_EQ(table.totals().evicted_packets, 2u);
  EXPECT_EQ(table.totals().evicted_bytes, 10u);
  EXPECT_EQ(table.totals().evicted_deliveries, 2u);
  table.RecordDrop(0xC, 0, 40);  // a drop-first flow also evicts
  EXPECT_EQ(table.Find(0xB), nullptr);
  EXPECT_EQ(table.totals().evictions, 2u);
  EXPECT_EQ(table.totals().packets,
            table.Find(0xC)->packets + table.totals().evicted_packets);
  EXPECT_EQ(table.totals().drops, 1u);
}

TEST(SpaceSavingSketchTest, ExactUnderCapacity) {
  SpaceSavingSketch sketch(8);
  for (int i = 0; i < 5; ++i) {
    sketch.Add(100 + static_cast<uint64_t>(i), static_cast<uint64_t>(i) + 1);
  }
  EXPECT_EQ(sketch.size(), 5u);
  EXPECT_EQ(sketch.replacements(), 0u);
  const std::vector<SpaceSavingSketch::Entry> top = sketch.Top();
  ASSERT_EQ(top.size(), 5u);
  EXPECT_EQ(top[0].key, 104u);
  EXPECT_EQ(top[0].count, 5u);
  EXPECT_EQ(top[0].error, 0u);  // tracked from first sight: exact
  EXPECT_EQ(top[4].key, 100u);
  EXPECT_EQ(top[4].count, 1u);
}

TEST(SpaceSavingSketchTest, ReplacementInheritsMinimumAsError) {
  SpaceSavingSketch sketch(2);
  sketch.Add(1, 5);
  sketch.Add(2, 3);
  sketch.Add(3);  // untracked: replaces key 2 (count 3), inherits as error
  EXPECT_EQ(sketch.replacements(), 1u);
  const std::vector<SpaceSavingSketch::Entry> top = sketch.Top();
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].key, 1u);
  EXPECT_EQ(top[1].key, 3u);
  EXPECT_EQ(top[1].count, 4u);  // 3 inherited + 1 observed
  EXPECT_EQ(top[1].error, 3u);  // true count bounded below by 4 - 3 = 1
}

TEST(SpaceSavingSketchTest, TieBreakIsDeterministic) {
  SpaceSavingSketch sketch(4);
  sketch.Add(9);
  sketch.Add(3);
  sketch.Add(7);
  const std::vector<SpaceSavingSketch::Entry> top = sketch.Top();
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].key, 3u);  // equal counts: key ascending
  EXPECT_EQ(top[1].key, 7u);
  EXPECT_EQ(top[2].key, 9u);
}

// The ICDT 2005 guarantees, checked against ground truth on a skewed
// stream: every monitored entry bounds its true count within [count-error,
// count]; every error is at most N/K; and any key whose true frequency
// exceeds N/K is guaranteed to be monitored.
TEST(SpaceSavingSketchTest, PaperBoundsHoldOnSkewedStream) {
  constexpr size_t kK = 16;
  SpaceSavingSketch sketch(kK);
  std::map<uint64_t, uint64_t> truth;
  pfutil::Rng rng(42);
  uint64_t n = 0;
  for (int i = 0; i < 20000; ++i) {
    // Zipf-ish: key k drawn with probability ~ 1/(k+1) over 200 keys.
    uint64_t key = 0;
    while (key < 199 && rng.Chance(0.5)) {
      ++key;
    }
    sketch.Add(key);
    ++truth[key];
    ++n;
  }
  ASSERT_EQ(sketch.total_weight(), n);
  const uint64_t bound = n / kK;
  for (const SpaceSavingSketch::Entry& entry : sketch.Top()) {
    const uint64_t true_count = truth[entry.key];
    EXPECT_LE(true_count, entry.count) << "key " << entry.key;
    EXPECT_GE(true_count, entry.count - entry.error) << "key " << entry.key;
    EXPECT_LE(entry.error, bound) << "key " << entry.key;
  }
  // Heavy hitters cannot be missed.
  for (const auto& [key, count] : truth) {
    if (count > bound) {
      bool monitored = false;
      for (const SpaceSavingSketch::Entry& entry : sketch.Top()) {
        monitored = monitored || entry.key == key;
      }
      EXPECT_TRUE(monitored) << "heavy hitter " << key << " (" << count << " > " << bound
                             << ") missing from the sketch";
    }
  }
}

TEST(FlowTableTest, RecordsAndFinds) {
  FlowTable table;
  table.Record(7, 100, 1, 1000);
  table.Record(7, 50, 2, 2000);
  table.Record(9, 10, 0, 3000);
  const FlowTable::Entry* entry = table.Find(7);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->packets, 2u);
  EXPECT_EQ(entry->bytes, 150u);
  EXPECT_EQ(entry->deliveries, 3u);
  EXPECT_EQ(entry->first_seen_ns, 1000u);
  EXPECT_EQ(entry->last_seen_ns, 2000u);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.totals().packets, 3u);
  EXPECT_EQ(table.totals().bytes, 160u);
  EXPECT_EQ(table.totals().flows_seen, 2u);
  // Most-recently-touched first.
  EXPECT_EQ(table.Snapshot()[0].signature, 9u);
}

TEST(FlowTableTest, DropsLandInSlots) {
  FlowTable table;
  table.RecordDrop(5, 2, 100);
  table.RecordDrop(5, 2, 200);
  table.RecordDrop(5, 7, 300);
  const FlowTable::Entry* entry = table.Find(5);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->packets, 0u);  // drops are not packet records
  EXPECT_EQ(entry->drops, 3u);
  EXPECT_EQ(entry->drops_by_slot[2], 2u);
  EXPECT_EQ(entry->drops_by_slot[7], 1u);
  EXPECT_EQ(table.totals().drops, 3u);
  EXPECT_EQ(table.totals().drops_by_slot[2], 2u);
}

TEST(FlowTableTest, LatencyTracksResidentFlows) {
  FlowTable table;
  table.Record(3, 10, 1, 100);
  table.RecordLatency(3, 5000);
  table.RecordLatency(3, 7000);
  const FlowTable::Entry* entry = table.Find(3);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->latency_samples, 2u);
  EXPECT_EQ(entry->latency_sum_ns, 12000);
  EXPECT_EQ(entry->latency_max_ns, 7000);
  EXPECT_EQ(table.totals().latency_samples, 2u);
  EXPECT_EQ(table.totals().latency_sum_ns, 12000);
}

// The central invariant: whatever churn the LRU saw, live entries plus the
// evicted_* fold account for every Record/RecordDrop exactly once.
TEST(FlowTableTest, EvictionConservesTotals) {
  FlowTable table(FlowTable::Config{.capacity = 4, .top_k = 4});
  pfutil::Rng rng(7);
  for (int i = 0; i < 3000; ++i) {
    const uint64_t sig = 1 + rng.Below(64);  // far more flows than capacity
    if (rng.Chance(0.2)) {
      table.RecordDrop(sig, rng.Below(pfobs::kFlowDropSlots), static_cast<uint64_t>(i));
    } else {
      table.Record(sig, rng.Below(1500), static_cast<uint32_t>(rng.Below(3)),
                   static_cast<uint64_t>(i));
    }
  }
  EXPECT_EQ(table.size(), 4u);
  EXPECT_GT(table.totals().evictions, 0u);
  FlowTable::Totals live;  // only the live-sum fields are used
  for (const FlowTable::Entry& entry : table.Snapshot()) {
    live.packets += entry.packets;
    live.bytes += entry.bytes;
    live.deliveries += entry.deliveries;
    live.drops += entry.drops;
  }
  const FlowTable::Totals& totals = table.totals();
  EXPECT_EQ(live.packets + totals.evicted_packets, totals.packets);
  EXPECT_EQ(live.bytes + totals.evicted_bytes, totals.bytes);
  EXPECT_EQ(live.deliveries + totals.evicted_deliveries, totals.deliveries);
  EXPECT_EQ(live.drops + totals.evicted_drops, totals.drops);
  // The sketch saw every Record (drops are not packet weight).
  EXPECT_EQ(table.sketch().total_weight(), totals.packets);
}

TEST(FlowTableTest, EvictionIsLeastRecentlyTouched) {
  FlowTable table(FlowTable::Config{.capacity = 2, .top_k = 2});
  table.Record(1, 10, 0, 100);
  table.Record(2, 10, 0, 200);
  table.Record(1, 10, 0, 300);  // 2 is now the LRU victim
  table.Record(3, 10, 0, 400);
  EXPECT_NE(table.Find(1), nullptr);
  EXPECT_EQ(table.Find(2), nullptr);
  EXPECT_NE(table.Find(3), nullptr);
  EXPECT_EQ(table.totals().evictions, 1u);
  // Generation stamps explain the order: the survivor was touched later.
  EXPECT_GT(table.Find(3)->generation, table.Find(1)->generation);
}

TEST(FlowTableTest, MetricsExportMatchesTotals) {
  pfobs::MetricsRegistry registry;
  FlowTable table(FlowTable::Config{.capacity = 2, .top_k = 2});
  table.AttachMetrics(&registry);
  for (uint64_t sig = 1; sig <= 5; ++sig) {
    table.Record(sig, 100, 1, sig * 10);
  }
  table.RecordDrop(5, 1, 60);
  const pfobs::Counter* packets = registry.FindCounter("pf.flow.packets");
  const pfobs::Counter* bytes = registry.FindCounter("pf.flow.bytes");
  const pfobs::Counter* drops = registry.FindCounter("pf.flow.drops");
  const pfobs::Counter* flows_seen = registry.FindCounter("pf.flow.flows_seen");
  const pfobs::Counter* evictions = registry.FindCounter("pf.flow.evictions");
  const pfobs::Gauge* active = registry.FindGauge("pf.flow.active");
  ASSERT_NE(packets, nullptr);
  ASSERT_NE(active, nullptr);
  EXPECT_EQ(static_cast<uint64_t>(packets->value()), table.totals().packets);
  EXPECT_EQ(static_cast<uint64_t>(bytes->value()), table.totals().bytes);
  EXPECT_EQ(static_cast<uint64_t>(drops->value()), table.totals().drops);
  EXPECT_EQ(static_cast<uint64_t>(flows_seen->value()), table.totals().flows_seen);
  EXPECT_EQ(static_cast<uint64_t>(evictions->value()), table.totals().evictions);
  EXPECT_EQ(static_cast<size_t>(active->value()), table.size());
}

// Satellite: MetricsSampler prefix selectors pick up the pf.flow.* family.
TEST(FlowTableTest, SamplerPrefixSelectsFlowMetrics) {
  pfobs::MetricsRegistry registry;
  uint64_t unrelated = 0;
  registry.Expose("unrelated.count", &unrelated);
  unrelated = 3;
  FlowTable table;
  table.AttachMetrics(&registry);
  table.Record(11, 64, 1, 1000);
  table.Record(11, 64, 1, 2000);
  pfobs::MetricsSampler sampler(&registry, {"pf.flow.*"});
  sampler.Sample(5000);
  bool saw_packets = false;
  for (const std::string& column : sampler.columns()) {
    EXPECT_EQ(column.rfind("pf.flow.", 0), 0u) << "selector leaked column " << column;
    saw_packets = saw_packets || column == "pf.flow.packets";
  }
  ASSERT_TRUE(saw_packets);
  const std::string csv = sampler.ToCsv();
  EXPECT_NE(csv.find("pf.flow.packets"), std::string::npos);
  EXPECT_EQ(csv.find("unrelated.count"), std::string::npos);
}

pf::Program SocketFilter(uint32_t socket, uint8_t priority) {
  return pfnet::MakePupSocketFilter(socket, priority);
}

// Reconciliation at the demux layer: pf.flow.* totals must equal the demux
// core's own counters bit-exactly, whatever mix of accepts, rejects, and
// queue overflows the traffic produced — the tentpole acceptance identity.
TEST(FlowReconciliationTest, FlowTotalsMatchDemuxCounters) {
  pfobs::MetricsRegistry registry;  // outlives the filter attached to it
  pf::PacketFilter filter;
  filter.AttachMetrics(&registry);
  filter.EnableFlowStats({.capacity = 3, .top_k = 8});  // force eviction churn
  const pf::PortId p35 = filter.OpenPort();
  const pf::PortId p77 = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(p35, SocketFilter(35, 10)).ok);
  ASSERT_TRUE(filter.SetFilter(p77, SocketFilter(77, 10)).ok);
  filter.SetQueueLimit(p77, 2);

  pfutil::Rng rng(123);
  std::vector<uint8_t> truncated = pftest::MakePupFrame(8, 35);
  truncated.resize(8);
  for (int i = 0; i < 400; ++i) {
    switch (rng.Below(4)) {
      case 0:
        filter.Demux(pftest::MakePupFrame(8, 35), static_cast<uint64_t>(i));
        filter.Pop(p35);  // drain so 35 never overflows
        break;
      case 1:
        filter.Demux(pftest::MakePupFrame(8, 77), static_cast<uint64_t>(i));  // overflows
        break;
      case 2:
        filter.Demux(pftest::MakePupFrame(8, 99), static_cast<uint64_t>(i));  // unclaimed
        break;
      default:
        filter.Demux(truncated, static_cast<uint64_t>(i));  // short packet
        break;
    }
  }

  const pfobs::FlowTable* flows = filter.flow_stats();
  ASSERT_NE(flows, nullptr);
  const pfobs::FlowTable::Totals& totals = flows->totals();
  const pf::FilterGlobalStats& global = filter.global_stats();
  // Every demuxed packet was recorded exactly once.
  EXPECT_EQ(totals.packets, global.packets_in);
  // Every enqueued copy was recorded as a delivery.
  uint64_t enqueued = 0;
  for (const pf::PortId port : filter.Ports()) {
    enqueued += filter.Stats(port)->enqueued;
  }
  EXPECT_EQ(totals.deliveries, enqueued);
  // Every counted drop landed in the matching per-flow slot.
  EXPECT_EQ(totals.drops, pf::TotalDrops(global.drops_by_reason));
  for (size_t i = 0; i < pf::kDropReasonCount; ++i) {
    EXPECT_EQ(totals.drops_by_slot[i], global.drops_by_reason[i])
        << pf::ToString(static_cast<pf::DropReason>(i));
  }
  // The eviction fold kept the table bounded without losing a count.
  EXPECT_LE(flows->size(), 3u);
  EXPECT_GT(totals.evictions, 0u);
  // The metric twins carry the same numbers.
  EXPECT_EQ(static_cast<uint64_t>(registry.FindCounter("pf.flow.packets")->value()),
            totals.packets);
  EXPECT_EQ(static_cast<uint64_t>(registry.FindCounter("pf.flow.drops")->value()),
            totals.drops);
  // Per-flow drill-down: whatever part of socket 77's history is still
  // resident (the LRU churns here), its drops are all queue overflows.
  const uint64_t sig77 = FlowSignature::Of(pftest::MakePupFrame(8, 77));
  const pfobs::FlowTable::Entry* entry77 = flows->Find(sig77);
  if (entry77 != nullptr) {
    EXPECT_EQ(entry77->drops,
              entry77->drops_by_slot[static_cast<size_t>(pf::DropReason::kQueueOverflow)]);
    EXPECT_LE(entry77->drops,
              global.drops_by_reason[static_cast<size_t>(pf::DropReason::kQueueOverflow)]);
  }
}

// "pf.flow.*" spans the filter's flow tables: disabling flow accounting
// keeps what the table counted, packets demuxed while it is off are not
// counted, and a re-enabled (fresh) table counts on from there.
TEST(FlowReconciliationTest, FlowCountersCountOnAcrossDisableAndReEnable) {
  pfobs::MetricsRegistry registry;  // outlives the filter attached to it
  pf::PacketFilter filter;
  filter.AttachMetrics(&registry);
  filter.EnableFlowStats();
  const pf::PortId p35 = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(p35, SocketFilter(35, 10)).ok);
  const auto demux = [&filter, p35](int packets) {
    for (int i = 0; i < packets; ++i) {
      filter.Demux(pftest::MakePupFrame(8, 35));
      filter.Pop(p35);
    }
  };
  const pfobs::Counter* packets = nullptr;
  const pfobs::Counter* flows_seen = nullptr;
  demux(5);
  packets = registry.FindCounter("pf.flow.packets");
  flows_seen = registry.FindCounter("pf.flow.flows_seen");
  ASSERT_NE(packets, nullptr);
  ASSERT_NE(flows_seen, nullptr);
  EXPECT_EQ(packets->value(), 5u);
  EXPECT_EQ(flows_seen->value(), 1u);

  filter.DisableFlowStats();
  EXPECT_EQ(packets->value(), 5u);
  demux(3);  // not accounted: the table is gone
  EXPECT_EQ(packets->value(), 5u);

  filter.EnableFlowStats();
  demux(2);
  ASSERT_NE(filter.flow_stats(), nullptr);
  EXPECT_EQ(filter.flow_stats()->totals().packets, 2u);
  EXPECT_EQ(packets->value(), 7u);
  EXPECT_EQ(flows_seen->value(), 2u);  // the fresh table inserted the flow again
  EXPECT_EQ(registry.FindCounter("pf.demux.packets_in")->value(), 10u);
}

// Reconciliation at the machine layer: flow accounting enabled through the
// device, driven by real simulated traffic, must agree with the pf.demux.*
// registry metrics and the cost ledger.
TEST(FlowReconciliationTest, MachineFlowPlaneReconcilesWithLedger) {
  pfsim::Simulator sim;
  pflink::EthernetSegment wire(&sim, pflink::LinkType::kExperimental3Mb);
  pfkern::Machine sender(&sim, &wire, pflink::MacAddr::Experimental(1),
                         pfkern::MicroVaxUltrixCosts(), "sender");
  pfkern::Machine receiver(&sim, &wire, pflink::MacAddr::Experimental(2),
                           pfkern::MicroVaxUltrixCosts(), "receiver");
  receiver.pf().EnableFlowAccounting({});

  auto receiver_setup = [&]() -> pfsim::Task {
    const int pid = receiver.NewPid();
    const pf::PortId port = co_await receiver.pf().Open(pid);
    co_await receiver.pf().SetFilter(pid, port, SocketFilter(35, 10));
    for (int reads = 0; reads < 20; ++reads) {
      co_await receiver.pf().Read(pid, port, pfsim::Milliseconds(5));
    }
  };
  auto sender_process = [&]() -> pfsim::Task {
    const int pid = sender.NewPid();
    co_await sim.Delay(pfsim::Milliseconds(1));
    for (int i = 0; i < 12; ++i) {
      co_await sender.pf().Write(pid, pftest::MakePupFrame(8, 35));
      co_await sender.pf().Write(pid, pftest::MakePupFrame(8, 99));  // unclaimed
      co_await sim.Delay(pfsim::Milliseconds(2));
    }
  };
  sim.Spawn(receiver_setup());
  sim.Spawn(sender_process());
  sim.Run();

  const pfobs::FlowTable* flows = receiver.pf().FlowStats();
  ASSERT_NE(flows, nullptr);
  const pfobs::FlowTable::Totals& totals = flows->totals();
  const pf::FilterGlobalStats& global = receiver.pf().core().global_stats();
  ASSERT_GT(totals.packets, 0u);
  EXPECT_EQ(totals.packets, global.packets_in);
  EXPECT_EQ(totals.drops, pf::TotalDrops(global.drops_by_reason));
  // In this scenario every accepted packet has exactly one delivery, so the
  // flow plane's delivery count equals the ledger's per-packet bookkeeping
  // charges (one kPfBookkeeping charge per packet with deliveries > 0).
  EXPECT_EQ(totals.deliveries, global.packets_accepted);
  EXPECT_EQ(totals.deliveries, receiver.ledger().count(pfkern::Cost::kPfBookkeeping));
  // Per-flow demux latency reconciles with the machine-wide histogram.
  const pfobs::Histogram* latency = receiver.metrics().FindHistogram("pf.demux.latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(totals.latency_samples, latency->count());
  uint64_t per_flow_samples = 0;
  for (const pfobs::FlowTable::Entry& entry : flows->Snapshot()) {
    per_flow_samples += entry.latency_samples;
  }
  EXPECT_EQ(per_flow_samples, totals.latency_samples);  // no eviction here
}

}  // namespace
