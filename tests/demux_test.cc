// Demultiplexer tests: the fig. 4-1 loop, priority ordering, copy-all
// delivery, queue overflow accounting, batch reads, timestamps, stats,
// busy-reordering, and the strategy knobs.
#include <gtest/gtest.h>

#include <string>

#include "src/net/pup_endpoint.h"
#include "src/obs/metrics.h"
#include "src/pf/builder.h"
#include "src/pf/demux.h"
#include "tests/test_packets.h"

namespace {

using pf::BinaryOp;
using pf::FilterBuilder;
using pf::PacketFilter;
using pf::PortId;
using pf::Program;

Program SocketFilter(uint32_t socket, uint8_t priority) {
  FilterBuilder b;
  b.WordEqualsShortCircuit(pfproto::kWordDstSocketLow, static_cast<uint16_t>(socket & 0xffff))
      .WordEqualsShortCircuit(pfproto::kWordDstSocketHigh, static_cast<uint16_t>(socket >> 16))
      .WordEquals(pfproto::kWordEtherType, pfproto::kEtherTypePup);
  return b.Build(priority);
}

Program AcceptAll(uint8_t priority) { return Program{priority, pf::LangVersion::kV1, {}}; }

TEST(DemuxTest, UnclaimedPacketIsDropped) {
  PacketFilter filter;
  const auto r = filter.Demux(pftest::MakePupFrame(8, 35));
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(filter.global_stats().packets_unclaimed, 1u);
}

TEST(DemuxTest, DeliversToMatchingPortOnly) {
  PacketFilter filter;
  const PortId p35 = filter.OpenPort();
  const PortId p36 = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(p35, SocketFilter(35, 10)).ok);
  ASSERT_TRUE(filter.SetFilter(p36, SocketFilter(36, 10)).ok);

  filter.Demux(pftest::MakePupFrame(8, 35));
  filter.Demux(pftest::MakePupFrame(8, 36));
  filter.Demux(pftest::MakePupFrame(8, 36));
  EXPECT_EQ(filter.QueueLength(p35), 1u);
  EXPECT_EQ(filter.QueueLength(p36), 2u);

  const auto packet = filter.Pop(p35);
  ASSERT_TRUE(packet.has_value());
  EXPECT_EQ(packet->bytes, pftest::MakePupFrame(8, 35));
  EXPECT_EQ(filter.QueueLength(p35), 0u);
}

TEST(DemuxTest, HigherPriorityWins) {
  PacketFilter filter;
  const PortId low = filter.OpenPort();
  const PortId high = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(low, SocketFilter(35, 5)).ok);
  ASSERT_TRUE(filter.SetFilter(high, SocketFilter(35, 200)).ok);

  const auto r = filter.Demux(pftest::MakePupFrame(8, 35));
  EXPECT_TRUE(r.accepted);
  EXPECT_EQ(r.deliveries, 1u);
  EXPECT_EQ(filter.QueueLength(high), 1u);
  EXPECT_EQ(filter.QueueLength(low), 0u);  // claimed by the higher priority
}

TEST(DemuxTest, EqualPriorityUsesOpenOrder) {
  PacketFilter filter;
  const PortId first = filter.OpenPort();
  const PortId second = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(first, SocketFilter(35, 10)).ok);
  ASSERT_TRUE(filter.SetFilter(second, SocketFilter(35, 10)).ok);
  filter.Demux(pftest::MakePupFrame(8, 35));
  EXPECT_EQ(filter.QueueLength(first), 1u);
  EXPECT_EQ(filter.QueueLength(second), 0u);
}

TEST(DemuxTest, DeliverToLowerProducesCopies) {
  // §3.2: a monitor at high priority with deliver-to-lower set must not
  // steal packets from the real recipient.
  PacketFilter filter;
  const PortId monitor = filter.OpenPort();
  const PortId app = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(monitor, AcceptAll(255)).ok);
  ASSERT_TRUE(filter.SetFilter(app, SocketFilter(35, 10)).ok);
  filter.SetDeliverToLower(monitor, true);

  const auto r = filter.Demux(pftest::MakePupFrame(8, 35));
  EXPECT_EQ(r.deliveries, 2u);
  EXPECT_EQ(filter.QueueLength(monitor), 1u);
  EXPECT_EQ(filter.QueueLength(app), 1u);
}

TEST(DemuxTest, DeliverToLowerOrderingIsStrategyIndependent) {
  // The fig. 4-1 walk order (priority desc, then open order) is policy and
  // must not depend on how filters are *executed* or which candidates the
  // index hands back: no strategy may reorder claims or copies.
  for (const pf::Strategy strategy : pf::kAllStrategies) {
    PacketFilter filter;
    filter.SetStrategy(strategy);
    const PortId monitor = filter.OpenPort();
    const PortId app35 = filter.OpenPort();
    const PortId app36 = filter.OpenPort();
    ASSERT_TRUE(filter.SetFilter(monitor, AcceptAll(255)).ok);
    ASSERT_TRUE(filter.SetFilter(app35, SocketFilter(35, 10)).ok);
    ASSERT_TRUE(filter.SetFilter(app36, SocketFilter(36, 10)).ok);
    filter.SetDeliverToLower(monitor, true);

    const auto r = filter.Demux(pftest::MakePupFrame(8, 35));
    EXPECT_EQ(r.deliveries, 2u) << pf::ToString(strategy);
    EXPECT_EQ(filter.QueueLength(monitor), 1u) << pf::ToString(strategy);
    EXPECT_EQ(filter.QueueLength(app35), 1u) << pf::ToString(strategy);
    EXPECT_EQ(filter.QueueLength(app36), 0u) << pf::ToString(strategy);
  }
}

TEST(DemuxTest, WithoutDeliverToLowerMonitorSteals) {
  PacketFilter filter;
  const PortId monitor = filter.OpenPort();
  const PortId app = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(monitor, AcceptAll(255)).ok);
  ASSERT_TRUE(filter.SetFilter(app, SocketFilter(35, 10)).ok);

  filter.Demux(pftest::MakePupFrame(8, 35));
  EXPECT_EQ(filter.QueueLength(monitor), 1u);
  EXPECT_EQ(filter.QueueLength(app), 0u);
}

TEST(DemuxTest, QueueOverflowDropsAndReportsOnNextPacket) {
  PacketFilter filter;
  const PortId port = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(port, SocketFilter(35, 10)).ok);
  filter.SetQueueLimit(port, 2);

  for (int i = 0; i < 5; ++i) {
    filter.Demux(pftest::MakePupFrame(8, 35));
  }
  EXPECT_EQ(filter.QueueLength(port), 2u);
  const pf::PortStats* stats = filter.Stats(port);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->dropped, 3u);
  EXPECT_EQ(stats->enqueued, 2u);
  EXPECT_EQ(stats->accepts, 5u);

  // Drain, then deliver again: the next packet reports the 3 losses (§3.3's
  // "count of the number of packets lost due to queue overflows").
  filter.PopBatch(port);
  filter.Demux(pftest::MakePupFrame(8, 35));
  const auto packet = filter.Pop(port);
  ASSERT_TRUE(packet.has_value());
  EXPECT_EQ(packet->dropped_before, 3u);
}

TEST(DemuxTest, PopBatchReturnsAllPending) {
  PacketFilter filter;
  const PortId port = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(port, SocketFilter(35, 10)).ok);
  for (int i = 0; i < 7; ++i) {
    filter.Demux(pftest::MakePupFrame(8, 35));
  }
  EXPECT_EQ(filter.PopBatch(port, 4).size(), 4u);
  EXPECT_EQ(filter.PopBatch(port).size(), 3u);
  EXPECT_TRUE(filter.PopBatch(port).empty());
}

TEST(DemuxTest, TimestampsOnlyWhenEnabled) {
  PacketFilter filter;
  const PortId port = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(port, SocketFilter(35, 10)).ok);

  filter.Demux(pftest::MakePupFrame(8, 35), 111222333);
  EXPECT_EQ(filter.Pop(port)->timestamp_ns, 0u);

  filter.SetTimestamps(port, true);
  filter.Demux(pftest::MakePupFrame(8, 35), 111222333);
  EXPECT_EQ(filter.Pop(port)->timestamp_ns, 111222333u);
}

TEST(DemuxTest, EnqueuedListsThePortsAFrameReachedInOrder) {
  PacketFilter filter;
  const PortId low = filter.OpenPort();
  const PortId high = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(low, SocketFilter(35, 10)).ok);
  ASSERT_TRUE(filter.SetFilter(high, SocketFilter(35, 20)).ok);
  filter.SetDeliverToLower(high, true);  // copy-all: both ports get a copy
  filter.Demux(pftest::MakePupFrame(8, 35));
  EXPECT_EQ(std::vector<PortId>(filter.enqueued().begin(), filter.enqueued().end()),
            (std::vector<PortId>{high, low}));
  filter.Demux(pftest::MakePupFrame(8, 36));  // no match: nothing to wake
  EXPECT_TRUE(filter.enqueued().empty());
}

TEST(DemuxTest, SetFilterRejectsInvalidAndKeepsOld) {
  PacketFilter filter;
  const PortId port = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(port, SocketFilter(35, 10)).ok);

  Program bad;
  bad.words = {pf::EncodeWord(BinaryOp::kAnd, pf::StackAction::kNoPush)};
  EXPECT_FALSE(filter.SetFilter(port, bad).ok);

  // The old filter is still in force.
  filter.Demux(pftest::MakePupFrame(8, 35));
  EXPECT_EQ(filter.QueueLength(port), 1u);
}

TEST(DemuxTest, PortWithoutFilterReceivesNothing) {
  PacketFilter filter;
  const PortId port = filter.OpenPort();
  filter.Demux(pftest::MakePupFrame(8, 35));
  EXPECT_EQ(filter.QueueLength(port), 0u);
}

TEST(DemuxTest, ClosePortStopsDelivery) {
  PacketFilter filter;
  const PortId port = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(port, SocketFilter(35, 10)).ok);
  EXPECT_TRUE(filter.ClosePort(port));
  EXPECT_FALSE(filter.ClosePort(port));
  const auto r = filter.Demux(pftest::MakePupFrame(8, 35));
  EXPECT_FALSE(r.accepted);
}

TEST(DemuxTest, FilterErrorCountsAndRejects) {
  PacketFilter filter;
  const PortId port = filter.OpenPort();
  FilterBuilder b;
  b.PushWord(45).Lit(BinaryOp::kEq, 0);  // beyond any small packet
  ASSERT_TRUE(filter.SetFilter(port, b.Build(10)).ok);
  filter.Demux(pftest::MakePupFrame(8, 35, 2, 1, 2));
  EXPECT_EQ(filter.Stats(port)->filter_errors, 1u);
  EXPECT_EQ(filter.QueueLength(port), 0u);
}

TEST(DemuxTest, PriorityReducesFiltersTested) {
  // §3.2: "if priorities are assigned proportional to the likelihood that a
  // filter will accept a packet, then the 'average' packet will match one
  // of the first few filters".
  PacketFilter filter;
  for (uint32_t socket = 1; socket <= 10; ++socket) {
    const PortId port = filter.OpenPort();
    // Socket 1's filter gets the highest priority.
    ASSERT_TRUE(filter.SetFilter(port, SocketFilter(socket, static_cast<uint8_t>(50 - socket)))
                    .ok);
  }
  const auto hit_first = filter.Demux(pftest::MakePupFrame(8, 1));
  EXPECT_EQ(hit_first.exec.filters_run, 1u);
  const auto hit_last = filter.Demux(pftest::MakePupFrame(8, 10));
  EXPECT_EQ(hit_last.exec.filters_run, 10u);
}

TEST(DemuxTest, BusyReorderingMovesBusyFilterForward) {
  PacketFilter filter;
  const PortId quiet = filter.OpenPort();
  const PortId busy = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(quiet, SocketFilter(1, 10)).ok);
  ASSERT_TRUE(filter.SetFilter(busy, SocketFilter(2, 10)).ok);
  filter.SetBusyReordering(true);

  // Make `busy` accept many packets so reordering puts it first; the
  // reorder happens on the next rebuild tick (every 256 packets).
  for (int i = 0; i < 300; ++i) {
    filter.Demux(pftest::MakePupFrame(8, 2));
  }
  const auto r = filter.Demux(pftest::MakePupFrame(8, 2));
  EXPECT_EQ(r.exec.filters_run, 1u) << "busy filter should now be tested first";

  // Without reordering, port order puts `quiet` first.
  filter.SetBusyReordering(false);
  const auto r2 = filter.Demux(pftest::MakePupFrame(8, 2));
  EXPECT_EQ(r2.exec.filters_run, 2u);
}

// A busy reorder that moves a port must stale every stored flow verdict,
// under connection tracking too: once B (any Pup) becomes busier than A
// (socket 5) at the same priority, the walk hands the next socket-5 frame to
// B, and the fast path must not keep serving A's older claim.
TEST(DemuxTest, BusyReorderStalesConnTrackedVerdicts) {
  for (const pf::Strategy strategy : {pf::Strategy::kFast, pf::Strategy::kIndexed}) {
    PacketFilter tracked;
    PacketFilter walk;  // the plain fig. 4-1 walk: no fast path at all
    tracked.EnableConnTracking();
    for (PacketFilter* filter : {&tracked, &walk}) {
      filter->SetStrategy(strategy);
      const PortId a = filter->OpenPort();
      const PortId b = filter->OpenPort();
      ASSERT_TRUE(filter->SetFilter(a, pfnet::MakePupSocketFilter(5, 10)).ok);
      FilterBuilder any_pup;
      any_pup.WordEquals(pfproto::kWordEtherType, pfproto::kEtherTypePup);
      ASSERT_TRUE(filter->SetFilter(b, any_pup.Build(10)).ok);
      filter->SetBusyReordering(true);

      filter->Demux(pftest::MakePupFrame(8, 5));  // A opened first: A claims
      for (int i = 0; i < 600; ++i) {
        filter->Demux(pftest::MakePupFrame(8, 6));  // only B accepts
      }
      filter->Demux(pftest::MakePupFrame(8, 5));
      EXPECT_EQ(filter->Stats(a)->accepts, 1u)
          << (filter == &tracked ? "tracked" : "walk") << " strategy=" << pf::ToString(strategy);
      EXPECT_EQ(filter->Stats(b)->accepts, 601u)
          << (filter == &tracked ? "tracked" : "walk") << " strategy=" << pf::ToString(strategy);
    }
    EXPECT_TRUE(tracked.conndb()->IdentityHolds());
  }
}

TEST(DemuxTest, AllStrategiesAgreeOnDelivery) {
  for (const pf::Strategy strategy : pf::kAllStrategies) {
    PacketFilter filter;
    filter.SetStrategy(strategy);
    const PortId port = filter.OpenPort();
    ASSERT_TRUE(filter.SetFilter(port, pf::PaperFig39Filter()).ok);
    filter.Demux(pftest::MakePupFrame(8, 35));
    filter.Demux(pftest::MakePupFrame(8, 36));
    EXPECT_EQ(filter.QueueLength(port), 1u) << "strategy=" << pf::ToString(strategy);
  }
}

// The walk maps the engine's candidate ranks back to ports, so ranks must
// follow the priority order — not the port ids — through a rebind that
// leaves that order unchanged.
TEST(DemuxTest, RebindKeepingTheOrderKeepsCandidatesOnTheirPorts) {
  for (const pf::Strategy strategy : pf::kAllStrategies) {
    PacketFilter filter;
    filter.SetStrategy(strategy);
    const PortId low = filter.OpenPort();   // first by id ...
    const PortId high = filter.OpenPort();  // ... second by priority
    ASSERT_TRUE(filter.SetFilter(low, pfnet::MakePupSocketFilter(1, 5)).ok);
    ASSERT_TRUE(filter.SetFilter(high, pfnet::MakePupSocketFilter(2, 9)).ok);
    filter.Demux(pftest::MakePupFrame(8, 1));
    ASSERT_TRUE(filter.SetFilter(low, pfnet::MakePupSocketFilter(1, 5)).ok);
    filter.Demux(pftest::MakePupFrame(8, 1));
    filter.Demux(pftest::MakePupFrame(8, 2));
    EXPECT_EQ(filter.QueueLength(low), 2u) << "strategy=" << pf::ToString(strategy);
    EXPECT_EQ(filter.QueueLength(high), 1u) << "strategy=" << pf::ToString(strategy);
  }
}

// conn_servable() is kept current by every write: the in-place re-bind as
// well as the writes that rebuild the order.
TEST(DemuxTest, ConnServableFollowsEveryWrite) {
  PacketFilter filter;
  const PortId a = filter.OpenPort();
  const PortId b = filter.OpenPort();
  FilterBuilder past_prefix;
  past_prefix.WordEquals(static_cast<uint8_t>(pfobs::kFlowSignaturePrefix / 2 + 2), 0xabab);
  const Program unservable = past_prefix.Build(10);
  ASSERT_TRUE(filter.SetFilter(a, SocketFilter(35, 10)).ok);
  ASSERT_TRUE(filter.SetFilter(b, SocketFilter(36, 10)).ok);
  filter.Demux(pftest::MakePupFrame(8, 35));  // the order is current: re-binds patch it
  EXPECT_TRUE(filter.conn_servable());
  ASSERT_TRUE(filter.SetFilter(a, unservable).ok);
  EXPECT_FALSE(filter.conn_servable());
  ASSERT_TRUE(filter.SetFilter(b, unservable).ok);
  ASSERT_TRUE(filter.SetFilter(a, SocketFilter(35, 10)).ok);
  EXPECT_FALSE(filter.conn_servable());  // b still reads past the prefix
  filter.ClearFilter(b);
  EXPECT_TRUE(filter.conn_servable());
  ASSERT_TRUE(filter.SetFilter(b, unservable).ok);
  EXPECT_FALSE(filter.conn_servable());
  ASSERT_TRUE(filter.ClosePort(b));
  EXPECT_TRUE(filter.conn_servable());
}

TEST(DemuxTest, StrategySwitchableAtRuntime) {
  PacketFilter filter;
  const PortId port = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(port, pf::PaperFig39Filter()).ok);
  for (const pf::Strategy strategy : pf::kAllStrategies) {
    filter.SetStrategy(strategy);
    EXPECT_EQ(filter.strategy(), strategy);
    filter.Demux(pftest::MakePupFrame(8, 35));
  }
  EXPECT_EQ(filter.QueueLength(port), std::size(pf::kAllStrategies));
}

// A frame too short to load the index's words takes the sequential pass:
// fig. 3-9 reads word 8 first, so on a 10-byte Pup frame it stops with
// kOutOfPacket and the unclaimed frame is a short_packet drop — exactly what
// kChecked reports — not a clean no_match from a pruned filter.
TEST(DemuxTest, ShortFrameTakesTheSequentialPassUnderIndexed) {
  PacketFilter checked;
  PacketFilter indexed;
  checked.SetStrategy(pf::Strategy::kChecked);
  indexed.SetStrategy(pf::Strategy::kIndexed);
  const PortId checked_port = checked.OpenPort();
  const PortId indexed_port = indexed.OpenPort();
  ASSERT_TRUE(checked.SetFilter(checked_port, pf::PaperFig39Filter()).ok);
  ASSERT_TRUE(indexed.SetFilter(indexed_port, pf::PaperFig39Filter()).ok);

  std::vector<uint8_t> runt = pftest::MakePupFrame(8, 35);
  runt.resize(10);
  checked.Demux(runt);
  const pf::DemuxResult got = indexed.Demux(runt);
  EXPECT_FALSE(got.accepted);
  EXPECT_EQ(got.exec.index_probes, 0u);  // no probe: the filter ran
  EXPECT_EQ(got.exec.filters_run, 1u);
  EXPECT_EQ(indexed.Stats(indexed_port)->filter_errors,
            checked.Stats(checked_port)->filter_errors);
  EXPECT_EQ(indexed.Stats(indexed_port)->filter_errors, 1u);
  const auto short_packet = static_cast<size_t>(pf::DropReason::kShortPacket);
  EXPECT_EQ(indexed.global_stats().drops_by_reason, checked.global_stats().drops_by_reason);
  EXPECT_EQ(indexed.global_stats().drops_by_reason[short_packet], 1u);

  // A full frame probes the index, and its claimer still runs.
  const pf::DemuxResult full = indexed.Demux(pftest::MakePupFrame(8, 35));
  EXPECT_TRUE(full.accepted);
  EXPECT_GT(full.exec.index_probes, 0u);
  EXPECT_EQ(full.exec.filters_run, 1u);
}

TEST(DemuxTest, GlobalStatsAccumulate) {
  PacketFilter filter;
  const PortId port = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(port, SocketFilter(35, 10)).ok);
  filter.Demux(pftest::MakePupFrame(8, 35));
  filter.Demux(pftest::MakePupFrame(8, 99));
  const auto& g = filter.global_stats();
  EXPECT_EQ(g.packets_in, 2u);
  EXPECT_EQ(g.packets_accepted, 1u);
  EXPECT_EQ(g.packets_unclaimed, 1u);
  EXPECT_GT(g.exec.insns_executed, 0u);
}

TEST(DemuxTest, AcceptsInvariantAcrossOverflowAndCopyAll) {
  // The documented PortStats invariant: every accept is either enqueued or
  // dropped, so accepts == enqueued + dropped on every port at all times —
  // including under queue overflow and deliver-to-lower copies.
  PacketFilter filter;
  const PortId monitor = filter.OpenPort();
  const PortId app = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(monitor, AcceptAll(255)).ok);
  ASSERT_TRUE(filter.SetFilter(app, SocketFilter(35, 10)).ok);
  filter.SetDeliverToLower(monitor, true);
  filter.SetQueueLimit(monitor, 2);
  filter.SetQueueLimit(app, 1);

  for (int i = 0; i < 6; ++i) {
    filter.Demux(pftest::MakePupFrame(8, 35));
    filter.Demux(pftest::MakePupFrame(8, 99));  // monitor-only traffic
    for (const PortId port : {monitor, app}) {
      const pf::PortStats* stats = filter.Stats(port);
      ASSERT_NE(stats, nullptr);
      EXPECT_EQ(stats->accepts, stats->enqueued + stats->dropped) << "port " << port;
    }
  }
  EXPECT_EQ(filter.Stats(monitor)->accepts, 12u);
  EXPECT_EQ(filter.Stats(monitor)->enqueued, 2u);
  EXPECT_EQ(filter.Stats(monitor)->dropped, 10u);
  EXPECT_EQ(filter.Stats(app)->accepts, 6u);
}

// --- The flow-state fast path: only connection tracking skips the walk ---

// With tracking off, nothing skips the fig. 4-1 walk — not even under
// kIndexed over a filter set whose index words determine every verdict: no
// result reports a table lookup or hit, the table's counters stay at zero,
// every repeat of one flow does the same engine work, and no fast-path
// metric is registered.
TEST(DemuxTest, NoFastPathWithoutConnTracking) {
  for (const pf::Strategy strategy : pf::kAllStrategies) {
    SCOPED_TRACE(pf::ToString(strategy));
    pfobs::MetricsRegistry registry;
    PacketFilter filter;
    filter.AttachMetrics(&registry);
    filter.SetStrategy(strategy);
    const PortId p35 = filter.OpenPort();
    const PortId p36 = filter.OpenPort();
    ASSERT_TRUE(filter.SetFilter(p35, SocketFilter(35, 10)).ok);
    ASSERT_TRUE(filter.SetFilter(p36, SocketFilter(36, 10)).ok);

    const auto frame = pftest::MakePupFrame(8, 35);
    const pf::DemuxResult first = filter.Demux(frame);
    for (int i = 0; i < 4; ++i) {
      const pf::DemuxResult r = i == 0 ? first : filter.Demux(frame);
      SCOPED_TRACE("packet " + std::to_string(i));
      EXPECT_TRUE(r.accepted);
      EXPECT_FALSE(r.cache_lookup);
      EXPECT_FALSE(r.cache_hit);
      EXPECT_FALSE(r.conn_lookup);
      EXPECT_FALSE(r.conn_hit);
      EXPECT_EQ(r.exec.insns_executed, first.exec.insns_executed);
      EXPECT_EQ(r.exec.filters_run, first.exec.filters_run);
      EXPECT_EQ(r.exec.index_probes, first.exec.index_probes);
    }
    EXPECT_EQ(filter.QueueLength(p35), 4u);
    EXPECT_EQ(filter.QueueLength(p36), 0u);
    EXPECT_EQ(filter.flow_cache_stats().lookups, 0u);
    EXPECT_EQ(filter.conndb(), nullptr);
    // No flow-state table registered its metrics ("<prefix>.lookups",
    // "<prefix>.live", ...) under any prefix.
    for (const auto& [name, counter] : registry.counters()) {
      EXPECT_FALSE(name.ends_with(".lookups") || name.ends_with(".hits")) << name;
    }
    for (const auto& [name, gauge] : registry.gauges()) {
      EXPECT_FALSE(name.ends_with(".live") || name.ends_with(".capacity")) << name;
    }
  }
}

// A connection-table hit runs the stored port's filter and nothing else:
// no index probe under kIndexed, and the same telemetry under kFast, whose
// walk never probes.
TEST(DemuxTest, ConnHitRunsOnlyTheStoredFilter) {
  for (const pf::Strategy strategy : {pf::Strategy::kFast, pf::Strategy::kIndexed}) {
    SCOPED_TRACE(pf::ToString(strategy));
    PacketFilter filter;
    filter.SetStrategy(strategy);
    filter.EnableConnTracking();
    // Fig. 3-8's range test is no conjunction, so the index leaves it
    // uncovered: a candidate on every packet, below the socket ports.
    const PortId uncovered = filter.OpenPort();
    ASSERT_TRUE(filter.SetFilter(uncovered, pf::PaperFig38Filter(5)).ok);
    PortId p35 = 0;
    for (uint32_t socket = 33; socket <= 38; ++socket) {
      const PortId port = filter.OpenPort();
      ASSERT_TRUE(filter.SetFilter(port, SocketFilter(socket, 10)).ok);
      p35 = socket == 35 ? port : p35;
    }

    const auto frame = pftest::MakePupFrame(8, 35);
    const pf::DemuxResult miss = filter.Demux(frame);
    EXPECT_TRUE(miss.conn_lookup);
    EXPECT_FALSE(miss.conn_hit);
    EXPECT_EQ(miss.exec.index_probes > 0, strategy == pf::Strategy::kIndexed);

    const pf::ExecResult own =
        pf::InterpretPredecoded(filter.engine().FindBinding(p35)->decoded, frame);
    ASSERT_TRUE(own.accept);
    const pf::DemuxResult hit = filter.Demux(frame);
    EXPECT_TRUE(hit.conn_hit);
    EXPECT_EQ(hit.exec.index_probes, 0u);
    EXPECT_EQ(hit.exec.filters_run, 1u);
    EXPECT_EQ(hit.exec.insns_executed, own.insns_executed);
    EXPECT_EQ(filter.QueueLength(p35), 2u);
    EXPECT_EQ(filter.QueueLength(uncovered), 0u);
  }
}

// The suite below is the fast path's invalidation and bypass rules, all
// under EnableConnTracking (flow_cache_stats() is the tracking table's).

TEST(DemuxFlowCacheTest, RebindInvalidatesAndRedirectsTheFlow) {
  PacketFilter filter;
  filter.EnableConnTracking();
  const PortId a = filter.OpenPort();
  const PortId b = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(a, SocketFilter(35, 10)).ok);
  ASSERT_TRUE(filter.SetFilter(b, SocketFilter(35, 10)).ok);
  // Equal priority: `a` opened first, claims, and the flow is stored on it.
  filter.Demux(pftest::MakePupFrame(8, 35));
  filter.Demux(pftest::MakePupFrame(8, 35));
  EXPECT_EQ(filter.QueueLength(a), 2u);
  EXPECT_GT(filter.flow_cache_stats().hits, 0u);

  // Rebinding `a` to a different socket must invalidate: the next socket-35
  // packet belongs to `b`, not the stale entry.
  ASSERT_TRUE(filter.SetFilter(a, SocketFilter(99, 10)).ok);
  filter.Demux(pftest::MakePupFrame(8, 35));
  EXPECT_EQ(filter.QueueLength(a), 2u);  // no stale delivery
  EXPECT_EQ(filter.QueueLength(b), 1u);
  // The epoch bump stale-missed the old entry; the walk restamped it.
  EXPECT_EQ(filter.flow_cache_stats().stale_epoch, 1u);
  EXPECT_EQ(filter.flow_cache_stats().updated, 1u);
}

TEST(DemuxFlowCacheTest, ClosePortInvalidates) {
  PacketFilter filter;
  filter.EnableConnTracking();
  const PortId a = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(a, SocketFilter(35, 10)).ok);
  filter.Demux(pftest::MakePupFrame(8, 35));
  filter.Demux(pftest::MakePupFrame(8, 35));
  EXPECT_GT(filter.flow_cache_stats().hits, 0u);

  ASSERT_TRUE(filter.ClosePort(a));
  const auto r = filter.Demux(pftest::MakePupFrame(8, 35));
  EXPECT_FALSE(r.accepted);  // no ghost delivery to the closed port
  EXPECT_EQ(filter.global_stats().packets_unclaimed, 1u);
}

TEST(DemuxFlowCacheTest, PriorityChangeInvalidates) {
  PacketFilter filter;
  filter.EnableConnTracking();
  const PortId low = filter.OpenPort();
  const PortId high = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(low, SocketFilter(35, 10)).ok);
  ASSERT_TRUE(filter.SetFilter(high, SocketFilter(35, 5)).ok);
  // `low` wins at priority 10 and the flow is stored on it.
  filter.Demux(pftest::MakePupFrame(8, 35));
  EXPECT_TRUE(filter.Demux(pftest::MakePupFrame(8, 35)).conn_hit);
  EXPECT_EQ(filter.QueueLength(low), 2u);

  // Raising `high` above it must redirect the flow — a stored verdict that
  // survived this would mis-deliver even though `low`'s filter still accepts.
  ASSERT_TRUE(filter.SetFilter(high, SocketFilter(35, 200)).ok);
  filter.Demux(pftest::MakePupFrame(8, 35));
  EXPECT_EQ(filter.QueueLength(low), 2u);
  EXPECT_EQ(filter.QueueLength(high), 1u);
}

// Setting a strategy or busy reordering to its current value changes
// nothing the walk does, so it must not stale stored flow verdicts: an
// established flow keeps hitting.
TEST(DemuxFlowCacheTest, NoOpSettersKeepStoredVerdicts) {
  PacketFilter filter;
  filter.SetStrategy(pf::Strategy::kIndexed);
  filter.EnableConnTracking();
  const PortId a = filter.OpenPort();
  const PortId b = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(a, SocketFilter(35, 10)).ok);
  ASSERT_TRUE(filter.SetFilter(b, SocketFilter(36, 10)).ok);
  const auto hits = [&] { return filter.Demux(pftest::MakePupFrame(8, 35)).conn_hit; };
  EXPECT_FALSE(hits());  // establishes the flow
  EXPECT_TRUE(hits());
  filter.SetStrategy(pf::Strategy::kIndexed);
  EXPECT_TRUE(hits()) << "after SetStrategy(current)";
  filter.SetBusyReordering(false);
  EXPECT_TRUE(hits()) << "after SetBusyReordering(current)";
  EXPECT_EQ(filter.QueueLength(a), 4u);
  EXPECT_EQ(filter.flow_cache_stats().stale_epoch, 0u);
}

TEST(DemuxFlowCacheTest, DeliverToLowerPortsBypassTheCache) {
  PacketFilter filter;
  filter.EnableConnTracking();
  const PortId monitor = filter.OpenPort();
  const PortId app = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(monitor, AcceptAll(255)).ok);
  ASSERT_TRUE(filter.SetFilter(app, SocketFilter(35, 10)).ok);
  filter.SetDeliverToLower(monitor, true);

  for (int i = 0; i < 4; ++i) {
    const auto r = filter.Demux(pftest::MakePupFrame(8, 35));
    EXPECT_EQ(r.deliveries, 2u) << "copy-all must reach both ports, packet " << i;
    EXPECT_TRUE(r.conn_lookup);
    EXPECT_FALSE(r.conn_hit);
  }
  // Monitor-only traffic: the sole acceptor delivers-to-lower, so the flow
  // must not be recorded either.
  filter.Demux(pftest::MakePupFrame(8, 99));
  EXPECT_EQ(filter.flow_cache_stats().hits, 0u);
  EXPECT_EQ(filter.flow_cache_stats().created, 0u);
  EXPECT_EQ(filter.conndb()->live(), 0u);
  EXPECT_EQ(filter.QueueLength(monitor), 5u);
  EXPECT_EQ(filter.QueueLength(app), 4u);
}

TEST(DemuxFlowCacheTest, CapacityBoundsAndDisable) {
  PacketFilter filter;
  for (uint32_t socket = 1; socket <= 4; ++socket) {
    const PortId port = filter.OpenPort();
    ASSERT_TRUE(filter.SetFilter(port, SocketFilter(socket, 10)).ok);
  }
  pf::ConnDB::Config config;
  config.capacity = 2;
  filter.EnableConnTracking(config);
  for (uint32_t socket = 1; socket <= 4; ++socket) {
    filter.Demux(pftest::MakePupFrame(8, socket));
  }
  EXPECT_LE(filter.conndb()->live(), 2u);
  EXPECT_TRUE(filter.conndb()->IdentityHolds());

  filter.DisableConnTracking();  // no table, no lookups
  EXPECT_EQ(filter.conndb(), nullptr);
  const uint64_t lookups_before = filter.flow_cache_stats().lookups;
  const auto r = filter.Demux(pftest::MakePupFrame(8, 1));
  EXPECT_TRUE(r.accepted);
  EXPECT_FALSE(r.conn_lookup);
  EXPECT_EQ(filter.flow_cache_stats().lookups, lookups_before);
}

TEST(DemuxTest, DeviceInfoRoundTrips) {
  pf::DeviceInfo info;
  info.datalink_type = 1;
  info.addr_len = 6;
  info.header_len = 14;
  info.max_packet = 1514;
  PacketFilter filter(info);
  EXPECT_EQ(filter.device_info().max_packet, 1514u);
  EXPECT_EQ(filter.device_info().addr_len, 6);
}

// ------------------------------------------------- drop-reason taxonomy

// A frame whose link header parses but whose Pup words are cut off: every
// socket filter faults with kOutOfPacket on it.
std::vector<uint8_t> TruncatedFrame() {
  std::vector<uint8_t> frame = pftest::MakePupFrame(8, 35);
  frame.resize(8);
  return frame;
}

// A filter that divides by the dst-socket low word: socket 0 traffic makes
// it fail with kDivideByZero (the kFilterError reason).
Program DividingFilter(uint8_t priority) {
  FilterBuilder b(pf::LangVersion::kV2);  // DIV is a v2 extension op
  b.PushOne().PushWord(pfproto::kWordDstSocketLow).Op(BinaryOp::kDiv);
  return b.Build(priority);
}

TEST(DropReasonTest, EachReasonCountedOnce) {
  PacketFilter filter;
  const PortId p35 = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(p35, SocketFilter(35, 10)).ok);
  filter.SetQueueLimit(p35, 1);

  filter.Demux(pftest::MakePupFrame(8, 35));  // delivered
  filter.Demux(pftest::MakePupFrame(8, 35));  // accepted, queue full -> overflow
  filter.Demux(pftest::MakePupFrame(8, 99));  // rejected everywhere -> no-match
  filter.Demux(TruncatedFrame());             // faulted everywhere -> short-packet

  const pf::FilterGlobalStats& global = filter.global_stats();
  using R = pf::DropReason;
  EXPECT_EQ(global.drops_by_reason[static_cast<size_t>(R::kQueueOverflow)], 1u);
  EXPECT_EQ(global.drops_by_reason[static_cast<size_t>(R::kNoMatch)], 1u);
  EXPECT_EQ(global.drops_by_reason[static_cast<size_t>(R::kShortPacket)], 1u);
  EXPECT_EQ(global.drops_by_reason[static_cast<size_t>(R::kFilterError)], 0u);
  EXPECT_EQ(global.drops_by_reason[static_cast<size_t>(R::kNoPorts)], 0u);

  const pf::PortStats* stats = filter.Stats(p35);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->dropped, pf::TotalDrops(stats->drops_by_reason));
  EXPECT_EQ(stats->drops_by_reason[static_cast<size_t>(R::kQueueOverflow)], 1u);
}

TEST(DropReasonTest, NoPortsAndFilterErrorReasons) {
  PacketFilter filter;
  filter.Demux(pftest::MakePupFrame(8, 35));  // nothing bound at all
  using R = pf::DropReason;
  EXPECT_EQ(filter.global_stats().drops_by_reason[static_cast<size_t>(R::kNoPorts)], 1u);

  const PortId port = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(port, DividingFilter(10)).ok);
  filter.Demux(pftest::MakePupFrame(8, 0));  // divide by zero -> filter-error
  EXPECT_EQ(filter.global_stats().drops_by_reason[static_cast<size_t>(R::kFilterError)], 1u);
  // Errors outrank short reads in classification only when one occurred;
  // the error run is also counted per port.
  EXPECT_EQ(filter.Stats(port)->filter_errors, 1u);
}

// Property test (the PR's accounting bar): over a randomized mixed stream,
// every packet is either enqueued somewhere or accounted to exactly one
// whole-packet drop reason, and every lost copy to kQueueOverflow:
//   packets_in == sum(enqueued) + sum(drops_by_reason)       (single-claim)
//   packets_unclaimed == no_match + no_ports + short + error
//   sum(per-port dropped) == drops_by_reason[kQueueOverflow]
// The legacy aggregate counters must agree with the new per-reason ones.
TEST(DropReasonTest, ReasonsDecomposeAllLosses) {
  PacketFilter filter;
  std::vector<PortId> ports;
  for (uint32_t socket = 1; socket <= 6; ++socket) {
    const PortId port = filter.OpenPort();
    ASSERT_TRUE(filter.SetFilter(port, SocketFilter(socket, 10)).ok);
    filter.SetQueueLimit(port, socket % 2 == 0 ? 1 : 4);
    ports.push_back(port);
  }

  uint32_t seed = 12345;
  const auto next = [&seed]() {
    seed = seed * 1664525u + 1013904223u;
    return seed >> 16;
  };
  for (int i = 0; i < 400; ++i) {
    switch (next() % 4) {
      case 0:
      case 1:
        filter.Demux(pftest::MakePupFrame(8, next() % 8 + 1));  // some unbound
        break;
      case 2:
        filter.Demux(pftest::MakePupFrame(8, 999));
        break;
      case 3:
        filter.Demux(TruncatedFrame());
        break;
    }
    if (next() % 8 == 0) {  // occasional reader keeps queues churning
      filter.Pop(ports[next() % ports.size()]);
    }
  }

  const pf::FilterGlobalStats& global = filter.global_stats();
  using R = pf::DropReason;
  const auto reason = [&global](R r) {
    return global.drops_by_reason[static_cast<size_t>(r)];
  };

  uint64_t enqueued = 0;
  uint64_t dropped = 0;
  uint64_t accepts = 0;
  for (const PortId port : ports) {
    const pf::PortStats* stats = filter.Stats(port);
    enqueued += stats->enqueued;
    dropped += stats->dropped;
    accepts += stats->accepts;
    EXPECT_EQ(stats->accepts, stats->enqueued + stats->dropped);
    EXPECT_EQ(stats->dropped, pf::TotalDrops(stats->drops_by_reason));
  }
  EXPECT_EQ(global.packets_in, global.packets_accepted + global.packets_unclaimed);
  EXPECT_EQ(global.packets_unclaimed, reason(R::kNoMatch) + reason(R::kNoPorts) +
                                          reason(R::kShortPacket) + reason(R::kFilterError));
  EXPECT_EQ(dropped, reason(R::kQueueOverflow));
  // Single-claim filters: accepted packets == accepted copies, so the
  // machine-wide identity holds packet-for-packet.
  EXPECT_EQ(global.packets_accepted, accepts);
  EXPECT_EQ(global.packets_in, enqueued + pf::TotalDrops(global.drops_by_reason));
  EXPECT_GT(reason(R::kQueueOverflow), 0u);
  EXPECT_GT(reason(R::kNoMatch), 0u);
  EXPECT_GT(reason(R::kShortPacket), 0u);
}

// ---------------------------------------------------- flight recorder

TEST(FlightRecorderTest, BoundedWithCorrectReasons) {
  PacketFilter filter;
  filter.SetFlightRecorder(4);
  const PortId port = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(port, SocketFilter(35, 10)).ok);
  filter.SetQueueLimit(port, 1);

  for (int i = 0; i < 10; ++i) {
    filter.Demux(pftest::MakePupFrame(8, 99), /*timestamp_ns=*/100 + i, /*flow_id=*/i);
  }
  filter.Demux(pftest::MakePupFrame(8, 35), 200, 50);  // delivered, not recorded
  filter.Demux(pftest::MakePupFrame(8, 35), 201, 51);  // overflow
  filter.Demux(TruncatedFrame(), 202, 52);             // short packet

  const pf::DropRecorder* recorder = filter.flight_recorder();
  ASSERT_NE(recorder, nullptr);
  EXPECT_EQ(recorder->capacity(), 4u);
  EXPECT_EQ(recorder->size(), 4u);  // bounded: only the newest 4 retained
  EXPECT_EQ(recorder->total_recorded(), 12u);

  const auto tail = recorder->Tail();
  ASSERT_EQ(tail.size(), 4u);
  // Oldest-to-newest: the two newest no-match drops, then overflow, short.
  EXPECT_EQ(tail[0].reason, pf::DropReason::kNoMatch);
  EXPECT_EQ(tail[1].reason, pf::DropReason::kNoMatch);
  EXPECT_EQ(tail[2].reason, pf::DropReason::kQueueOverflow);
  EXPECT_EQ(tail[2].port, port);
  EXPECT_EQ(tail[2].flow_id, 51u);
  EXPECT_EQ(tail[2].timestamp_ns, 201u);
  EXPECT_EQ(tail[2].pc, -1);  // no filter erred
  EXPECT_EQ(tail[3].reason, pf::DropReason::kShortPacket);
  EXPECT_GE(tail[3].pc, 0);  // where the faulting filter stopped
  EXPECT_EQ(tail[3].packet_bytes, 8u);
  EXPECT_EQ(tail[3].head_word_count, 4);

  const std::string text = recorder->ToText();
  EXPECT_NE(text.find("short-packet"), std::string::npos);
  EXPECT_NE(text.find("queue-overflow"), std::string::npos);
  const std::string json = recorder->ToJson();
  EXPECT_NE(json.find("\"total_recorded\":12"), std::string::npos);
  EXPECT_NE(json.find("\"reason\":\"queue-overflow\""), std::string::npos);
}

TEST(FlightRecorderTest, DisabledByDefaultAndClearable) {
  PacketFilter filter;
  EXPECT_EQ(filter.flight_recorder(), nullptr);  // off: drop path is a null check
  filter.Demux(pftest::MakePupFrame(8, 35));     // drops, nothing recorded

  filter.SetFlightRecorder(2);
  filter.Demux(pftest::MakePupFrame(8, 35));
  ASSERT_NE(filter.flight_recorder(), nullptr);
  EXPECT_EQ(filter.flight_recorder()->size(), 1u);

  filter.SetFlightRecorder(8);  // re-enabling clears previous records
  EXPECT_EQ(filter.flight_recorder()->size(), 0u);
  filter.SetFlightRecorder(0);
  EXPECT_EQ(filter.flight_recorder(), nullptr);
}

}  // namespace
