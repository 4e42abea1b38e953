// Connection-database tests (DESIGN.md §17): ConnDB lifecycle and the
// partition identity `created == live + expired + evicted + refused`, lazy
// TTL expiry, epoch staleness, LRU eviction order, overload watermarks with
// hysteresis, incremental GC, metrics parity, the demux conn fast path and
// its serve-soundness gates, and the filter extensions (ext.h) — including
// the property that the extended drop taxonomy stays an exact partition of
// every non-delivered packet and copy.
#include <gtest/gtest.h>

#include <vector>

#include "src/obs/flow_stats.h"
#include "src/obs/metrics.h"
#include "src/pf/builder.h"
#include "src/pf/conndb.h"
#include "src/pf/demux.h"
#include "src/pf/ext.h"
#include "src/util/rng.h"
#include "tests/test_packets.h"

namespace {

using pf::ConnDB;
using pf::FilterBuilder;
using pf::PacketFilter;
using pf::PortId;
using pf::Program;
using pf::RateLimitExt;
using pf::RndBlockExt;

Program SocketFilter(uint32_t socket, uint8_t priority) {
  FilterBuilder b;
  b.WordEqualsShortCircuit(pfproto::kWordDstSocketLow, static_cast<uint16_t>(socket & 0xffff))
      .WordEqualsShortCircuit(pfproto::kWordDstSocketHigh, static_cast<uint16_t>(socket >> 16))
      .WordEquals(pfproto::kWordEtherType, pfproto::kEtherTypePup);
  return b.Build(priority);
}

// Reads a word at or past the kFlowSignaturePrefix boundary, so binding it
// must make the whole filter set non-servable from connection state.
Program DeepFilter(uint8_t priority) {
  FilterBuilder b;
  b.WordEquals(static_cast<uint16_t>(pfobs::kFlowSignaturePrefix / 2), 0xabab);
  return b.Build(priority);
}

// --- ConnDB unit tests -----------------------------------------------------

TEST(ConnDBTest, EstablishLookupAccounting) {
  ConnDB db;
  EXPECT_EQ(db.Establish(42, 7, 1000, 1, 100), ConnDB::EstablishOutcome::kCreated);
  const ConnDB::Entry* hit = db.Lookup(42, 2000, 1, 60);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->port, 7u);
  EXPECT_EQ(hit->packets, 2u);  // the establishing packet + this hit
  EXPECT_EQ(hit->bytes, 160u);
  EXPECT_EQ(hit->created_ns, 1000u);
  EXPECT_EQ(hit->last_seen_ns, 2000u);
  EXPECT_EQ(db.live(), 1u);
  EXPECT_EQ(db.stats().lookups, 1u);
  EXPECT_EQ(db.stats().hits, 1u);
  EXPECT_EQ(db.stats().created, 1u);
  EXPECT_TRUE(db.IdentityHolds());

  // Unknown signature: a plain miss, nothing instantiated.
  EXPECT_EQ(db.Lookup(43, 2000, 1, 60), nullptr);
  EXPECT_EQ(db.stats().misses, 1u);
  EXPECT_TRUE(db.IdentityHolds());
}

TEST(ConnDBTest, SnapshotIsMostRecentlyTouchedFirst) {
  ConnDB db;
  db.Establish(1, 1, 100, 1, 10);
  db.Establish(2, 1, 200, 1, 10);
  db.Establish(3, 1, 300, 1, 10);
  db.Lookup(1, 400, 1, 10);  // 1 becomes most recent
  const auto snap = db.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].signature, 1u);
  EXPECT_EQ(snap[1].signature, 3u);
  EXPECT_EQ(snap[2].signature, 2u);
}

TEST(ConnDBTest, LazyTtlExpiryOnLookup) {
  ConnDB::Config cfg;
  cfg.ttl_ns = 1000;
  ConnDB db(cfg);
  db.Establish(42, 7, 0, 1, 10);
  // Within TTL: served.
  EXPECT_NE(db.Lookup(42, 1000, 1, 10), nullptr);
  // Idle past TTL: expired on the spot, reported as a miss.
  EXPECT_EQ(db.Lookup(42, 2500, 1, 10), nullptr);
  EXPECT_EQ(db.stats().expired_lazy, 1u);
  EXPECT_EQ(db.stats().misses, 1u);
  EXPECT_EQ(db.live(), 0u);
  EXPECT_EQ(db.Find(42), nullptr);
  EXPECT_TRUE(db.IdentityHolds());
}

TEST(ConnDBTest, StaleEpochIsMissButEntrySurvives) {
  ConnDB db;
  db.Establish(42, 7, 1000, 1, 10);
  // The filter configuration moved: the stored verdict must not be served,
  // but the entry stays for the full walk to restamp.
  EXPECT_EQ(db.Lookup(42, 2000, 2, 10), nullptr);
  EXPECT_EQ(db.stats().stale_epoch, 1u);
  EXPECT_EQ(db.stats().misses, 1u);
  ASSERT_NE(db.Find(42), nullptr);
  EXPECT_EQ(db.Find(42)->epoch, 1u);

  // The walk's Establish refreshes in place — kUpdated, not create/evict.
  EXPECT_EQ(db.Establish(42, 9, 3000, 2, 10), ConnDB::EstablishOutcome::kUpdated);
  EXPECT_EQ(db.stats().updated, 1u);
  EXPECT_EQ(db.stats().created, 1u);
  EXPECT_EQ(db.Find(42)->epoch, 2u);
  EXPECT_EQ(db.Find(42)->port, 9u);
  // Now current again.
  EXPECT_NE(db.Lookup(42, 4000, 2, 10), nullptr);
  EXPECT_TRUE(db.IdentityHolds());
}

TEST(ConnDBTest, EvictionAtBoundShedsLruTail) {
  ConnDB::Config cfg;
  cfg.capacity = 4;
  cfg.high_water_pct = 100;
  cfg.low_water_pct = 70;
  cfg.emergency_evict_batch = 1;
  ConnDB db(cfg);
  db.Establish(1, 1, 100, 1, 10);
  db.Establish(2, 1, 200, 1, 10);
  db.Establish(3, 1, 300, 1, 10);
  db.Establish(4, 1, 400, 1, 10);
  EXPECT_TRUE(db.emergency());  // high water == capacity
  // Touch 1 so the least-recently-touched entry is 2.
  EXPECT_NE(db.Lookup(1, 500, 1, 10), nullptr);
  db.Establish(5, 1, 600, 1, 10);
  EXPECT_EQ(db.Find(2), nullptr);  // LRU tail shed
  EXPECT_NE(db.Find(1), nullptr);
  EXPECT_NE(db.Find(5), nullptr);
  EXPECT_EQ(db.live(), 4u);
  EXPECT_EQ(db.stats().evicted(), 1u);
  EXPECT_EQ(db.stats().created, 5u);
  EXPECT_TRUE(db.IdentityHolds());
}

TEST(ConnDBTest, WatermarkHysteresisEngagesAndDisengages) {
  ConnDB::Config cfg;
  cfg.capacity = 10;
  cfg.high_water_pct = 80;  // engage at live >= 8
  cfg.low_water_pct = 50;   // disengage at live <= 5
  cfg.emergency_evict_batch = 1;
  ConnDB db(cfg);
  for (uint64_t sig = 1; sig <= 7; ++sig) {
    db.Establish(sig, 1, sig * 100, 1, 10);
  }
  EXPECT_FALSE(db.emergency());
  db.Establish(8, 1, 800, 1, 10);
  EXPECT_TRUE(db.emergency());
  EXPECT_EQ(db.stats().emergency_engaged, 1u);

  // In emergency each new instantiation first sheds one LRU-tail entry, so
  // live never grows past the high water mark.
  db.Establish(9, 1, 900, 1, 10);
  EXPECT_EQ(db.live(), 8u);
  EXPECT_EQ(db.stats().evicted_emergency, 1u);
  EXPECT_TRUE(db.emergency());  // 7 after the shed: still above low water

  // Drain into the hysteresis band: still in emergency until low water.
  db.Invalidate(9);
  db.Invalidate(8);
  EXPECT_TRUE(db.emergency());  // live == 6 > 5
  db.Invalidate(7);
  EXPECT_FALSE(db.emergency());  // live == 5 <= low water
  EXPECT_EQ(db.stats().emergency_disengaged, 1u);

  // And back up: re-engages at high water.
  for (uint64_t sig = 20; sig <= 22; ++sig) {
    db.Establish(sig, 1, 1000 + sig, 1, 10);
  }
  EXPECT_TRUE(db.emergency());
  EXPECT_EQ(db.stats().emergency_engaged, 2u);
  EXPECT_TRUE(db.IdentityHolds());
}

TEST(ConnDBTest, RefuseNewInEmergencyCountsRefusals) {
  ConnDB::Config cfg;
  cfg.capacity = 10;
  cfg.high_water_pct = 80;  // engage at 8
  cfg.low_water_pct = 10;   // disengage at 1 (the shed can't reach it)
  cfg.emergency_evict_batch = 1;
  cfg.refuse_new_in_emergency = true;
  ConnDB db(cfg);
  for (uint64_t sig = 1; sig <= 8; ++sig) {
    db.Establish(sig, 1, sig * 100, 1, 10);
  }
  ASSERT_TRUE(db.emergency());
  EXPECT_EQ(db.Establish(100, 1, 900, 1, 10), ConnDB::EstablishOutcome::kRefused);
  EXPECT_EQ(db.stats().refused, 1u);
  EXPECT_EQ(db.stats().evicted_emergency, 1u);  // the shed still happened
  EXPECT_EQ(db.Find(100), nullptr);
  EXPECT_EQ(db.live(), 7u);
  // created counts the refused attempt: 9 == 7 live + 1 evicted + 1 refused.
  EXPECT_EQ(db.stats().created, 9u);
  EXPECT_TRUE(db.IdentityHolds());

  // An established flow is still served while new state is refused —
  // graceful degradation, not a blackout. (Flow 1 was the LRU tail the
  // emergency shed removed; flow 8 is the freshest survivor.)
  EXPECT_EQ(db.Find(1), nullptr);
  EXPECT_NE(db.Lookup(8, 950, 1, 10), nullptr);
}

TEST(ConnDBTest, GcSweepIsIncrementalAndWraps) {
  ConnDB::Config cfg;
  cfg.capacity = 8;
  cfg.ttl_ns = 1000;
  cfg.gc_batch = 2;
  ConnDB db(cfg);
  for (uint64_t sig = 1; sig <= 6; ++sig) {
    db.Establish(sig, 1, sig, 1, 10);
  }
  // All idle past TTL: each sweep scans gc_batch slots, reclaiming as it
  // goes — bounded work per call, full reclamation across calls.
  EXPECT_EQ(db.GcSweep(5000), 2u);
  EXPECT_EQ(db.live(), 4u);
  EXPECT_EQ(db.GcSweep(5000), 2u);
  EXPECT_EQ(db.GcSweep(5000), 2u);
  EXPECT_EQ(db.live(), 0u);
  EXPECT_EQ(db.stats().expired_gc, 6u);
  EXPECT_EQ(db.stats().gc_sweeps, 3u);
  EXPECT_EQ(db.stats().gc_scanned, 6u);
  EXPECT_TRUE(db.IdentityHolds());

  // The cursor wraps: an empty table sweep scans but reclaims nothing.
  EXPECT_EQ(db.GcSweep(6000), 0u);
  EXPECT_EQ(db.stats().gc_scanned, 8u);

  // A fresh entry is never swept before its TTL.
  db.Establish(100, 1, 6000, 1, 10);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(db.GcSweep(6500), 0u);
  }
  EXPECT_EQ(db.live(), 1u);
  EXPECT_TRUE(db.IdentityHolds());
}

TEST(ConnDBTest, IdentityHoldsUnderRandomizedChurn) {
  for (const bool refuse : {false, true}) {
    ConnDB::Config cfg;
    cfg.capacity = 16;
    cfg.ttl_ns = 5'000;
    cfg.high_water_pct = 75;
    cfg.low_water_pct = 25;
    cfg.emergency_evict_batch = 2;
    cfg.gc_batch = 4;
    cfg.refuse_new_in_emergency = refuse;
    ConnDB db(cfg);
    pfutil::Rng rng(refuse ? 0xC0FFEE : 0xF10D);
    uint64_t now = 0;
    uint64_t epoch = 1;
    for (int i = 0; i < 20000; ++i) {
      now += rng.Below(500);
      if (rng.Below(100) == 0) {
        ++epoch;  // a simulated filter reconfiguration
      }
      const uint64_t sig = 1 + rng.Below(64);
      switch (rng.Below(8)) {
        case 0:
        case 1:
        case 2:
          db.Lookup(sig, now, epoch, 64);
          break;
        case 3:
        case 4:
        case 5:
          db.Establish(sig, 1 + static_cast<uint32_t>(rng.Below(4)), now, epoch, 64);
          break;
        case 6:
          db.GcSweep(now);
          break;
        default:
          db.Invalidate(sig);
          break;
      }
      ASSERT_TRUE(db.IdentityHolds())
          << "iteration " << i << ": created=" << db.stats().created
          << " live=" << db.live() << " expired=" << db.stats().expired()
          << " evicted=" << db.stats().evicted()
          << " refused=" << db.stats().refused;
      ASSERT_LE(db.live(), cfg.capacity);
      ASSERT_EQ(db.Snapshot().size(), db.live());
    }
    const ConnDB::Stats& st = db.stats();
    EXPECT_EQ(st.lookups, st.hits + st.misses);
    EXPECT_LE(st.stale_epoch, st.misses);
    EXPECT_GT(st.expired(), 0u);
    EXPECT_GT(st.evicted_emergency, 0u);
    EXPECT_EQ(st.refused > 0, refuse);
  }
}

TEST(ConnDBTest, MetricsMatchStatsBitExactly) {
  pfobs::MetricsRegistry registry;
  ConnDB::Config cfg;
  cfg.capacity = 8;
  cfg.ttl_ns = 2'000;
  cfg.high_water_pct = 75;
  cfg.low_water_pct = 25;
  cfg.emergency_evict_batch = 1;
  ConnDB db(cfg);
  db.AttachMetrics(&registry);

  pfutil::Rng rng(0xBEEF);
  uint64_t now = 0;
  for (int i = 0; i < 5000; ++i) {
    now += rng.Below(400);
    const uint64_t sig = 1 + rng.Below(32);
    const uint64_t epoch = 1 + rng.Below(2);
    switch (rng.Below(6)) {
      case 0:
      case 1:
        db.Lookup(sig, now, epoch, 64);
        break;
      case 2:
      case 3:
        db.Establish(sig, 1, now, epoch, 64);
        break;
      case 4:
        db.GcSweep(now);
        break;
      default:
        db.Invalidate(sig);
        break;
    }
  }

  const ConnDB::Stats& st = db.stats();
  const auto counter = [&](const char* name) {
    const pfobs::Counter* c = registry.FindCounter(name);
    return c == nullptr ? 0u : c->value();
  };
  EXPECT_EQ(counter("pf.conn.lookups"), st.lookups);
  EXPECT_EQ(counter("pf.conn.hits"), st.hits);
  EXPECT_EQ(counter("pf.conn.misses"), st.misses);
  EXPECT_EQ(counter("pf.conn.stale_epoch"), st.stale_epoch);
  EXPECT_EQ(counter("pf.conn.created"), st.created);
  EXPECT_EQ(counter("pf.conn.updated"), st.updated);
  EXPECT_EQ(counter("pf.conn.refused"), st.refused);
  EXPECT_EQ(counter("pf.conn.expired.lazy"), st.expired_lazy);
  EXPECT_EQ(counter("pf.conn.expired.gc"), st.expired_gc);
  EXPECT_EQ(counter("pf.conn.evicted.capacity"), st.evicted_capacity);
  EXPECT_EQ(counter("pf.conn.evicted.emergency"), st.evicted_emergency);
  EXPECT_EQ(counter("pf.conn.evicted.stale"), st.evicted_stale);
  EXPECT_EQ(counter("pf.conn.emergency.engaged"), st.emergency_engaged);
  EXPECT_EQ(counter("pf.conn.emergency.disengaged"), st.emergency_disengaged);
  EXPECT_EQ(counter("pf.conn.gc.sweeps"), st.gc_sweeps);
  EXPECT_EQ(counter("pf.conn.gc.scanned"), st.gc_scanned);
  EXPECT_EQ(counter("pf.conn.gc.reclaimed"), st.expired_gc);
  ASSERT_NE(registry.FindGauge("pf.conn.live"), nullptr);
  EXPECT_EQ(registry.FindGauge("pf.conn.live")->value(),
            static_cast<int64_t>(db.live()));
  EXPECT_EQ(registry.FindGauge("pf.conn.capacity")->value(),
            static_cast<int64_t>(cfg.capacity));
  EXPECT_EQ(registry.FindGauge("pf.conn.emergency")->value(), db.emergency() ? 1 : 0);
  EXPECT_TRUE(db.IdentityHolds());
}

// --- Demux integration -----------------------------------------------------

TEST(ConnDemuxTest, HitPathServesEstablishedFlow) {
  PacketFilter filter;
  const PortId p = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(p, SocketFilter(35, 10)).ok);
  ConnDB::Config cfg;
  cfg.capacity = 8;
  filter.EnableConnTracking(cfg);

  const auto frame = pftest::MakePupFrame(8, 35);
  const auto r1 = filter.Demux(frame, 1000);
  EXPECT_TRUE(r1.accepted);
  EXPECT_TRUE(r1.conn_lookup);
  EXPECT_FALSE(r1.conn_hit);  // first packet takes the walk and establishes

  const auto r2 = filter.Demux(frame, 2000);
  EXPECT_TRUE(r2.accepted);
  EXPECT_TRUE(r2.conn_hit);  // served from state, re-confirmed
  EXPECT_EQ(filter.QueueLength(p), 2u);

  const ConnDB* db = filter.conndb();
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(db->stats().created, 1u);
  EXPECT_EQ(db->stats().hits, 1u);
  const ConnDB::Entry* entry = db->Find(pfobs::FlowSignature::Of(frame));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->port, p);
  EXPECT_EQ(entry->packets, 2u);
  EXPECT_EQ(entry->bytes, 2 * frame.size());
  EXPECT_TRUE(db->IdentityHolds());
}

TEST(ConnDemuxTest, FilterReadingPastPrefixDisablesServing) {
  PacketFilter filter;
  const PortId app = filter.OpenPort();
  const PortId deep = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(app, SocketFilter(35, 10)).ok);
  ASSERT_TRUE(filter.SetFilter(deep, DeepFilter(5)).ok);
  filter.EnableConnTracking({});

  const auto frame = pftest::MakePupFrame(8, 35);
  const auto r1 = filter.Demux(frame, 1000);
  // A filter whose verdict depends on bytes beyond the hashed prefix makes
  // state untrustworthy for *every* flow: the DB is never consulted.
  EXPECT_FALSE(filter.conn_servable());
  EXPECT_FALSE(r1.conn_lookup);
  EXPECT_EQ(filter.conndb()->stats().lookups, 0u);

  // Unbinding the deep filter restores serving.
  filter.ClearFilter(deep);
  filter.Demux(frame, 2000);
  EXPECT_TRUE(filter.conn_servable());
  const auto r3 = filter.Demux(frame, 3000);
  EXPECT_TRUE(r3.conn_hit);
}

TEST(ConnDemuxTest, SetFilterBumpsEpochAndRestamps) {
  PacketFilter filter;
  const PortId p = filter.OpenPort();
  const PortId other = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(p, SocketFilter(35, 10)).ok);
  filter.EnableConnTracking({});

  const auto frame = pftest::MakePupFrame(8, 35);
  filter.Demux(frame, 1000);           // establish under the current epoch
  const uint64_t epoch_before = filter.conn_epoch();
  EXPECT_TRUE(filter.Demux(frame, 2000).conn_hit);

  // Any binding change stales every stored verdict.
  ASSERT_TRUE(filter.SetFilter(other, SocketFilter(36, 20)).ok);
  const auto r = filter.Demux(frame, 3000);
  EXPECT_GT(filter.conn_epoch(), epoch_before);
  EXPECT_FALSE(r.conn_hit);  // stale epoch: full walk re-ran
  EXPECT_TRUE(r.accepted);
  const ConnDB* db = filter.conndb();
  EXPECT_EQ(db->stats().stale_epoch, 1u);
  EXPECT_EQ(db->stats().updated, 1u);  // restamped in place, not re-created
  EXPECT_EQ(db->stats().created, 1u);
  const ConnDB::Entry* entry = db->Find(pfobs::FlowSignature::Of(frame));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->epoch, filter.conn_epoch());

  // Current again: the next packet is served from state.
  EXPECT_TRUE(filter.Demux(frame, 4000).conn_hit);
  EXPECT_TRUE(db->IdentityHolds());
}

TEST(ConnDemuxTest, DeliverToLowerNeverEntersState) {
  PacketFilter filter;
  const PortId monitor = filter.OpenPort();
  const PortId app = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(monitor, Program{255, pf::LangVersion::kV1, {}}).ok);
  ASSERT_TRUE(filter.SetFilter(app, SocketFilter(35, 10)).ok);
  filter.SetDeliverToLower(monitor, true);
  filter.EnableConnTracking({});

  const auto frame = pftest::MakePupFrame(8, 35);
  for (int i = 0; i < 3; ++i) {
    const auto r = filter.Demux(frame, 1000 * (i + 1));
    EXPECT_EQ(r.deliveries, 2u);
    EXPECT_FALSE(r.conn_hit);  // copy-all deliveries always take the walk
  }
  EXPECT_EQ(filter.conndb()->live(), 0u);
}

TEST(ConnDemuxTest, RefusedFlowsDegradeToStatelessWalk) {
  PacketFilter filter;
  const PortId p = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(p, SocketFilter(35, 10)).ok);
  ConnDB::Config cfg;
  cfg.capacity = 4;
  cfg.high_water_pct = 50;  // engage at live >= 2
  cfg.low_water_pct = 0;    // disengage only when the table fully drains
  cfg.emergency_evict_batch = 1;
  cfg.refuse_new_in_emergency = true;
  filter.EnableConnTracking(cfg);

  // Distinct flows (different src hosts) all claimed by the same port.
  uint64_t now = 0;
  for (uint8_t src = 1; src <= 6; ++src) {
    const auto frame = pftest::MakePupFrame(8, 35, 2, src);
    const auto r = filter.Demux(frame, now += 1000);
    EXPECT_TRUE(r.accepted);  // every packet still delivered
  }
  const ConnDB* db = filter.conndb();
  EXPECT_GT(db->stats().refused, 0u);
  EXPECT_TRUE(db->IdentityHolds());
  const auto* stats = filter.Stats(p);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->enqueued, 6u);  // refusal never cost a delivery
}

// --- Filter extensions -----------------------------------------------------

TEST(ExtensionTest, RateLimitTokenBucketMath) {
  RateLimitExt::Config cfg;
  cfg.rate_pps = 1000;  // one token per simulated millisecond
  cfg.burst = 2;
  RateLimitExt ext(cfg);

  // First sighting primes a full bucket: burst passes, then a veto.
  EXPECT_TRUE(ext.Inspect(1, 64, 0));
  EXPECT_TRUE(ext.Inspect(1, 64, 0));
  EXPECT_FALSE(ext.Inspect(1, 64, 0));
  // 1 ms at 1000 pps refills exactly one token.
  EXPECT_TRUE(ext.Inspect(1, 64, 1'000'000));
  EXPECT_FALSE(ext.Inspect(1, 64, 1'000'000));
  // A long idle period saturates at the burst cap, not beyond.
  EXPECT_TRUE(ext.Inspect(1, 64, 100'000'000));
  EXPECT_TRUE(ext.Inspect(1, 64, 100'000'000));
  EXPECT_FALSE(ext.Inspect(1, 64, 100'000'000));
  EXPECT_EQ(ext.inspected(), 8u);
  EXPECT_EQ(ext.vetoed(), 3u);
  EXPECT_EQ(ext.reason(), pf::DropReason::kRateLimited);
}

TEST(ExtensionTest, RateLimitPerFlowBucketsAndCoarseWipe) {
  RateLimitExt::Config cfg;
  cfg.rate_pps = 1;  // effectively no refill within the test
  cfg.burst = 1;
  cfg.per_flow = true;
  cfg.max_flows = 2;
  RateLimitExt ext(cfg);

  EXPECT_TRUE(ext.Inspect(1, 64, 0));   // flow 1: full bucket
  EXPECT_FALSE(ext.Inspect(1, 64, 0));  // flow 1: drained
  EXPECT_TRUE(ext.Inspect(2, 64, 0));   // flow 2: own bucket
  EXPECT_EQ(ext.tracked_flows(), 2u);
  // A third flow overflows the bounded map: coarse wipe, then re-enter.
  EXPECT_TRUE(ext.Inspect(3, 64, 0));
  EXPECT_EQ(ext.bucket_wipes(), 1u);
  // Flow 1 re-enters with a fresh full bucket (the documented coarseness).
  EXPECT_TRUE(ext.Inspect(1, 64, 0));
  EXPECT_EQ(ext.tracked_flows(), 2u);
  EXPECT_EQ(ext.vetoed(), 1u);
}

TEST(ExtensionTest, RndBlockIsSeedDeterministic) {
  RndBlockExt::Config cfg;
  cfg.drop_ppm = 500'000;
  cfg.seed = 7;
  RndBlockExt a(cfg);
  RndBlockExt b(cfg);
  uint64_t vetoed = 0;
  for (int i = 0; i < 4096; ++i) {
    const bool pass_a = a.Inspect(i, 64, 0);
    const bool pass_b = b.Inspect(i, 64, 0);
    ASSERT_EQ(pass_a, pass_b) << "diverged at packet " << i;
    vetoed += pass_a ? 0 : 1;
  }
  // ~50% +- a wide tolerance; the exact count is pinned by the seed.
  EXPECT_GT(vetoed, 4096u * 3 / 10);
  EXPECT_LT(vetoed, 4096u * 7 / 10);

  RndBlockExt never({0, 3});
  RndBlockExt always({1'000'000, 3});
  for (int i = 0; i < 256; ++i) {
    EXPECT_TRUE(never.Inspect(i, 64, 0));
    EXPECT_FALSE(always.Inspect(i, 64, 0));
  }
}

TEST(ExtensionTest, VetoCountsLikeOverflowAndReportsLoss) {
  PacketFilter filter;
  const PortId p = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(p, SocketFilter(35, 10)).ok);
  filter.AttachExtension(p, std::make_unique<RndBlockExt>(RndBlockExt::Config{1'000'000, 1}));

  const auto frame = pftest::MakePupFrame(8, 35);
  for (int i = 0; i < 3; ++i) {
    const auto r = filter.Demux(frame);
    EXPECT_TRUE(r.accepted);  // the claim stands; only the copy is vetoed
    EXPECT_EQ(r.deliveries, 0u);
  }
  const auto* stats = filter.Stats(p);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->accepts, 3u);
  EXPECT_EQ(stats->enqueued, 0u);
  EXPECT_EQ(stats->dropped, 3u);
  EXPECT_EQ(stats->drops_by_reason[static_cast<size_t>(pf::DropReason::kRndBlock)], 3u);

  // Detach: the next delivery reports the vetoed copies, exactly like
  // queue-overflow losses (§3.3's counted losses).
  filter.AttachExtension(p, nullptr);
  filter.Demux(frame);
  const auto got = filter.Pop(p);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->dropped_before, 3u);
}

TEST(ExtensionTest, VetoAppliesOnConnHitPathToo) {
  PacketFilter filter;
  const PortId p = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(p, SocketFilter(35, 10)).ok);
  filter.EnableConnTracking({});
  filter.AttachExtension(p, std::make_unique<RndBlockExt>(RndBlockExt::Config{1'000'000, 1}));

  const auto frame = pftest::MakePupFrame(8, 35);
  filter.Demux(frame, 1000);
  const auto r = filter.Demux(frame, 2000);
  EXPECT_TRUE(r.conn_hit);  // served from state...
  EXPECT_EQ(r.deliveries, 0u);  // ...and still vetoed before the enqueue
  const auto* stats = filter.Stats(p);
  EXPECT_EQ(stats->accepts, 2u);
  EXPECT_EQ(stats->dropped, 2u);
  EXPECT_EQ(stats->drops_by_reason[static_cast<size_t>(pf::DropReason::kRndBlock)], 2u);
}

// The taxonomy property: with extensions attached, queues overflowing, and
// unclaimed traffic mixed together, every non-delivered packet (and every
// non-delivered copy) still lands in exactly one DropReason.
TEST(ExtensionTest, DropTaxonomyStaysExhaustiveUnderMixedTraffic) {
  PacketFilter filter;
  const PortId limited = filter.OpenPort();
  const PortId blocked = filter.OpenPort();
  const PortId tiny = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(limited, SocketFilter(35, 10)).ok);
  ASSERT_TRUE(filter.SetFilter(blocked, SocketFilter(36, 10)).ok);
  ASSERT_TRUE(filter.SetFilter(tiny, SocketFilter(37, 10)).ok);
  RateLimitExt::Config rl;
  rl.rate_pps = 1;  // ~never refills at this packet rate
  rl.burst = 4;
  filter.AttachExtension(limited, std::make_unique<RateLimitExt>(rl));
  filter.AttachExtension(blocked,
                         std::make_unique<RndBlockExt>(RndBlockExt::Config{400'000, 99}));
  filter.SetQueueLimit(tiny, 2);

  pfutil::Rng rng(0xFA11);
  uint64_t now = 0;
  uint64_t sent = 0;
  for (int i = 0; i < 2000; ++i) {
    now += 1000;
    const uint32_t socket = 35 + static_cast<uint32_t>(rng.Below(4));  // 38 = unclaimed
    filter.Demux(pftest::MakePupFrame(8, socket), now);
    ++sent;
  }

  const auto& g = filter.global_stats();
  // Whole-packet partition: in == accepted + unclaimed, and the unclaimed
  // decompose exactly into the whole-packet reasons.
  EXPECT_EQ(g.packets_in, sent);
  EXPECT_EQ(g.packets_in, g.packets_accepted + g.packets_unclaimed);
  const auto reason = [&](pf::DropReason r) {
    return g.drops_by_reason[static_cast<size_t>(r)];
  };
  EXPECT_EQ(g.packets_unclaimed,
            reason(pf::DropReason::kNoMatch) + reason(pf::DropReason::kNoPorts) +
                reason(pf::DropReason::kShortPacket) + reason(pf::DropReason::kFilterError));

  // Per-copy partition: every accepted copy is enqueued or dropped, and
  // every dropped copy has exactly one reason (overflow or extension veto).
  uint64_t accepts = 0;
  uint64_t enqueued = 0;
  uint64_t dropped = 0;
  for (const PortId port : filter.Ports()) {
    const auto* st = filter.Stats(port);
    ASSERT_NE(st, nullptr);
    EXPECT_EQ(st->accepts, st->enqueued + st->dropped);
    EXPECT_EQ(st->dropped, pf::TotalDrops(st->drops_by_reason));
    accepts += st->accepts;
    enqueued += st->enqueued;
    dropped += st->dropped;
  }
  EXPECT_EQ(dropped, reason(pf::DropReason::kQueueOverflow) +
                         reason(pf::DropReason::kRateLimited) +
                         reason(pf::DropReason::kRndBlock));
  EXPECT_EQ(accepts, enqueued + dropped);
  // The mix actually exercised all three copy-drop reasons.
  EXPECT_GT(reason(pf::DropReason::kQueueOverflow), 0u);
  EXPECT_GT(reason(pf::DropReason::kRateLimited), 0u);
  EXPECT_GT(reason(pf::DropReason::kRndBlock), 0u);
  EXPECT_GT(reason(pf::DropReason::kNoMatch), 0u);
}

}  // namespace
