// Chaos harness: the user-level protocols (VMTP bulk transfer, BSP byte
// streams, RARP resolution) must survive every impairment the link can
// inject — independent and burst loss, corruption, duplication, reorder,
// truncation, and NIC RX-ring overflow — delivering byte-exact payloads
// within a bounded amount of simulated time, while every frame is accounted
// for by the conservation identities:
//
//   segment:  frames_offered + frames_duplicated == frames_carried + frames_lost
//   NIC:      frames_in == ring_overflow + crc_errors + truncated + frames_to_pf
//             (user-only protocol scenarios: no kernel handlers, tap off)
//
// The full grid at bench scale lives in bench/soak_chaos; these are the
// same cells at test scale.
#include <gtest/gtest.h>

#include <vector>

#include "src/kernel/machine.h"
#include "src/link/impair.h"
#include "src/obs/flow_stats.h"
#include "src/net/bsp.h"
#include "src/net/pup_endpoint.h"
#include "src/net/rarp.h"
#include "src/net/rto.h"
#include "src/net/vmtp.h"
#include "src/obs/metrics.h"
#include "src/pf/conndb.h"
#include "src/proto/ip.h"
#include "tests/test_packets.h"

namespace {

using pfkern::Machine;
using pflink::EthernetSegment;
using pflink::ImpairmentConfig;
using pflink::LinkType;
using pflink::MacAddr;
using pfproto::PupPort;
using pfsim::Milliseconds;
using pfsim::Seconds;
using pfsim::Simulator;
using pfsim::Task;

struct Cell {
  const char* name;
  ImpairmentConfig config;
  size_t rx_ring = 0;  // 0 = unbounded
};

std::vector<Cell> Grid() {
  std::vector<Cell> cells;
  cells.push_back({"baseline", {}});
  {
    Cell c{"loss10", {}};
    c.config.loss = 0.10;
    cells.push_back(c);
  }
  {
    Cell c{"loss30", {}};
    c.config.loss = 0.30;
    cells.push_back(c);
  }
  {
    // Mean burst length 2 (exit 0.5): long enough to kill whole exchanges,
    // short enough that stop-and-wait BSP survives within kMaxRetransmits.
    Cell c{"burst", {}};
    c.config.burst_enter = 0.04;
    c.config.burst_exit = 0.5;
    cells.push_back(c);
  }
  {
    Cell c{"corrupt10", {}};
    c.config.corrupt = 0.10;
    cells.push_back(c);
  }
  {
    Cell c{"duplicate10", {}};
    c.config.duplicate = 0.10;
    cells.push_back(c);
  }
  {
    Cell c{"reorder20", {}};
    c.config.reorder = 0.20;
    c.config.reorder_jitter = Milliseconds(3);
    cells.push_back(c);
  }
  {
    Cell c{"truncate10", {}};
    c.config.truncate = 0.10;
    cells.push_back(c);
  }
  {
    Cell c{"everything", {}};
    c.config.loss = 0.05;
    c.config.burst_enter = 0.02;
    c.config.corrupt = 0.05;
    c.config.duplicate = 0.05;
    c.config.truncate = 0.03;
    c.config.reorder = 0.10;
    cells.push_back(c);
  }
  {
    // A 12-packet VMTP response blast arrives faster than a single-slot
    // ring can be drained by the 400 us receive interrupt whenever the CPU
    // is busy with user-level protocol work, so overflow is guaranteed.
    Cell c{"ring1", {}};
    c.rx_ring = 1;
    cells.push_back(c);
  }
  return cells;
}

std::vector<uint8_t> Pattern(size_t n) {
  std::vector<uint8_t> data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = static_cast<uint8_t>(i * 13 + 5);
  }
  return data;
}

// One simulated network per cell: two machines on one segment with the
// cell's impairments, metrics attached to the wire.
class ChaosNet {
 public:
  explicit ChaosNet(const Cell& cell)
      : segment_(&sim_, LinkType::kEthernet10Mb),
        client_(&sim_, &segment_, MacAddr::Dix(2, 0, 0, 0, 0, 1),
                pfkern::MicroVaxUltrixCosts(), "client"),
        server_(&sim_, &segment_, MacAddr::Dix(2, 0, 0, 0, 0, 2),
                pfkern::MicroVaxUltrixCosts(), "server") {
    segment_.AttachMetrics(&wire_metrics_);
    if (cell.config.Any()) {
      segment_.SetImpairments(cell.config);
    }
    if (cell.rx_ring > 0) {
      client_.SetRxRing(cell.rx_ring);
    }
    // Per-flow accounting on both ends, deliberately tiny so every cell
    // exercises the LRU eviction fold that the conservation identities
    // below must survive (DESIGN.md §16).
    client_.pf().EnableFlowAccounting({.capacity = 4, .top_k = 8});
    server_.pf().EnableFlowAccounting({.capacity = 4, .top_k = 8});
  }

  // Runs until quiescent or the watchdog horizon; returns true iff the
  // scenario set `done` before the horizon (bounded completion time).
  bool Run(Task task, pfsim::Duration watchdog, const bool* done) {
    sim_.Spawn(std::move(task));
    sim_.RunUntil(pfsim::TimePoint{} + watchdog);
    return *done;
  }

  // Conservation identities, cross-checked against the metrics registry.
  void ExpectConservation() {
    const EthernetSegment::Stats& link = segment_.stats();
    EXPECT_EQ(link.frames_offered + link.frames_duplicated,
              link.frames_carried + link.frames_lost);
    EXPECT_EQ(link.frames_carried,
              static_cast<uint64_t>(wire_metrics_.FindCounter("link.frames_carried")->value()));
    EXPECT_EQ(link.frames_lost,
              static_cast<uint64_t>(wire_metrics_.FindCounter("link.frames_lost")->value()));
    const pflink::ImpairmentStats& impair = segment_.impairment_stats();
    EXPECT_EQ(impair.dropped(), link.frames_lost);

    // Every carried frame keeps a parseable link header (corruption and
    // truncation both spare it), so each is heard by its addressee — once
    // per carried frame if unicast, twice on this two-station segment if
    // broadcast (Pup traffic broadcasts at the link layer).
    uint64_t heard = 0;
    for (Machine* machine : {&client_, &server_}) {
      const Machine::NicStats& nic = machine->nic_stats();
      heard += nic.frames_in;
      EXPECT_EQ(nic.frames_in,
                nic.ring_overflow + nic.crc_errors + nic.truncated + nic.frames_to_pf)
          << machine->name();
      EXPECT_EQ(nic.ring_overflow,
                static_cast<uint64_t>(
                    machine->metrics().FindCounter("nic.rx.ring_overflow")->value()))
          << machine->name();
      // One wakeup per enqueued copy: every frame wakes exactly the ports
      // its demux reached, whatever the cell did to the frames' timing.
      EXPECT_EQ(machine->metrics().FindCounter("pfdev.wakeups")->value(),
                machine->metrics().FindCounter("pf.demux.deliveries")->value())
          << machine->name();
    }
    EXPECT_GE(heard, link.frames_carried);
    EXPECT_LE(heard, 2 * link.frames_carried);
    // Damaged frames the wire delivered were rejected by a NIC.
    const uint64_t nic_damage_drops = client_.nic_stats().crc_errors +
                                      client_.nic_stats().truncated +
                                      server_.nic_stats().crc_errors +
                                      server_.nic_stats().truncated;
    EXPECT_GE(nic_damage_drops, impair.corrupted > 0 || impair.truncated > 0 ? 1u : 0u);

    // Per-flow accounting (DESIGN.md §16): on each machine the FlowTable's
    // stream totals equal the demux core's own counters bit-exactly, and
    // the live entries plus the eviction fold conserve every count —
    // whatever loss, duplication, reorder, or overflow the cell injected.
    for (Machine* machine : {&client_, &server_}) {
      const pfobs::FlowTable* flows = machine->pf().FlowStats();
      ASSERT_NE(flows, nullptr) << machine->name();
      const pfobs::FlowTable::Totals& totals = flows->totals();
      const pf::FilterGlobalStats& global = machine->pf().core().global_stats();
      EXPECT_EQ(totals.packets, global.packets_in) << machine->name();
      EXPECT_EQ(totals.drops, pf::TotalDrops(global.drops_by_reason)) << machine->name();
      for (size_t i = 0; i < pf::kDropReasonCount; ++i) {
        EXPECT_EQ(totals.drops_by_slot[i], global.drops_by_reason[i])
            << machine->name() << " " << pf::ToString(static_cast<pf::DropReason>(i));
      }
      uint64_t live_packets = 0;
      uint64_t live_bytes = 0;
      uint64_t live_deliveries = 0;
      uint64_t live_drops = 0;
      for (const pfobs::FlowTable::Entry& entry : flows->Snapshot()) {
        live_packets += entry.packets;
        live_bytes += entry.bytes;
        live_deliveries += entry.deliveries;
        live_drops += entry.drops;
      }
      EXPECT_EQ(live_packets + totals.evicted_packets, totals.packets) << machine->name();
      EXPECT_EQ(live_bytes + totals.evicted_bytes, totals.bytes) << machine->name();
      EXPECT_EQ(live_deliveries + totals.evicted_deliveries, totals.deliveries)
          << machine->name();
      EXPECT_EQ(live_drops + totals.evicted_drops, totals.drops) << machine->name();
      EXPECT_EQ(flows->sketch().total_weight(), totals.packets) << machine->name();
    }
  }

  Simulator sim_;
  pfobs::MetricsRegistry wire_metrics_;
  EthernetSegment segment_;
  Machine client_;
  Machine server_;
};

// --- RTO estimator unit behaviour the harness relies on ---------------------

TEST(RtoTest, BackoffIsMonotoneNonDecreasingAndCapped) {
  pfnet::RtoConfig config;
  config.initial = Milliseconds(200);
  config.max_rto = Seconds(2);
  pfnet::RtoEstimator rto(config);
  rto.OnSample(Milliseconds(30), /*retransmitted=*/false);

  pfsim::Duration prev{};
  for (int i = 0; i < 12; ++i) {
    const pfsim::Duration interval = rto.NextTimeout();
    EXPECT_GE(interval, prev) << "attempt " << i;
    EXPECT_LE(interval, config.max_rto);
    prev = interval;
    rto.OnTimeout();
  }
  EXPECT_EQ(rto.NextTimeout(), config.max_rto);  // deep backoff saturates
  EXPECT_GE(rto.stats().max_backoff_exponent, 4u);

  // A clean sample collapses the backoff.
  rto.OnSample(Milliseconds(30), /*retransmitted=*/false);
  EXPECT_EQ(rto.backoff_exponent(), 0u);
  EXPECT_LT(rto.NextTimeout(), Milliseconds(200));
}

TEST(RtoTest, KarnDiscardsAmbiguousSamplesAndKeepsBackoff) {
  pfnet::RtoEstimator rto{pfnet::RtoConfig{}};
  rto.OnSample(Milliseconds(10), false);
  rto.OnTimeout();
  rto.OnTimeout();
  EXPECT_EQ(rto.backoff_exponent(), 2u);
  rto.OnSample(Milliseconds(500), /*retransmitted=*/true);
  EXPECT_EQ(rto.backoff_exponent(), 2u);  // backoff retained
  EXPECT_EQ(rto.stats().karn_discards, 1u);
  EXPECT_EQ(rto.stats().samples, 1u);  // the ambiguous RTT never entered srtt
  EXPECT_LT(rto.srtt(), Milliseconds(20));
}

// --- VMTP bulk across the grid ----------------------------------------------

TEST(ChaosTest, VmtpBulkIsByteExactAcrossImpairmentGrid) {
  constexpr size_t kBulk = 16000;  // 12 packets: overflows the ring4 cell
  constexpr int kTransactions = 3;
  for (const Cell& cell : Grid()) {
    SCOPED_TRACE(cell.name);
    ChaosNet net(cell);
    int intact = 0;
    bool done = false;
    std::unique_ptr<pfnet::UserVmtpServer> server;
    std::unique_ptr<pfnet::UserVmtpClient> client;
    auto scenario = [&]() -> Task {
      server = co_await pfnet::UserVmtpServer::Create(&net.server_, net.server_.NewPid(),
                                                      0xab01, /*batching=*/true);
      client = co_await pfnet::UserVmtpClient::Create(&net.client_, net.client_.NewPid(),
                                                      0xab02, /*batching=*/true);
      auto serve = [](Machine* machine, pfnet::UserVmtpServer* srv) -> Task {
        const int pid = machine->NewPid();
        for (;;) {
          auto request = co_await srv->ReceiveRequest(pid, Seconds(60));
          if (!request.has_value()) {
            co_return;
          }
          co_await srv->SendResponse(pid, *request, Pattern(kBulk));
        }
      };
      net.sim_.Spawn(serve(&net.server_, server.get()));
      const int pid = net.client_.NewPid();
      for (int i = 0; i < kTransactions; ++i) {
        std::vector<uint8_t> request = {'R'};
        auto response = co_await client->Transact(pid, net.server_.link_addr(), 0xab01,
                                                  std::move(request), Seconds(5));
        if (response.has_value() && *response == Pattern(kBulk)) {
          ++intact;
        }
      }
      done = true;
    };
    EXPECT_TRUE(net.Run(scenario(), Seconds(600), &done)) << "watchdog expired";
    EXPECT_EQ(intact, kTransactions);
    net.ExpectConservation();
    // Cells that destroy frames must have forced retransmission; pure
    // duplication/reorder cells are absorbed by the have-mask without one.
    const bool destroys_frames = cell.config.loss > 0 || cell.config.burst_enter > 0 ||
                                 cell.config.corrupt > 0 || cell.config.truncate > 0 ||
                                 cell.rx_ring > 0;
    if (destroys_frames) {
      EXPECT_GT(client->stats().retransmits, 0u);
    } else if (!cell.config.Any()) {
      EXPECT_EQ(client->stats().retransmits, 0u);
    }
    if (cell.rx_ring > 0) {
      EXPECT_GT(net.client_.nic_stats().ring_overflow, 0u);
    }
  }
}

// --- BSP byte streams across the grid ---------------------------------------

TEST(ChaosTest, BspTransferIsByteExactAcrossImpairmentGrid) {
  constexpr size_t kPayload = 4096;  // 8 stop-and-wait chunks
  for (const Cell& cell : Grid()) {
    SCOPED_TRACE(cell.name);
    ChaosNet net(cell);
    std::vector<uint8_t> received;
    bool sent_ok = false;
    bool done = false;
    pfnet::RtoStats client_rto;
    auto scenario = [&]() -> Task {
      auto server = [](ChaosNet* n, std::vector<uint8_t>* out) -> Task {
        const int pid = n->server_.NewPid();
        auto listener =
            co_await pfnet::BspListener::Create(&n->server_, pid, PupPort{0, 2, 0x100});
        auto stream = co_await listener->Accept(pid, Seconds(120));
        if (stream == nullptr) {
          co_return;
        }
        while (!stream->eof()) {
          const auto chunk = co_await stream->Recv(pid, 4096, Seconds(30));
          if (chunk.empty() && !stream->eof()) {
            co_return;
          }
          out->insert(out->end(), chunk.begin(), chunk.end());
        }
      };
      net.sim_.Spawn(server(&net, &received));
      const int pid = net.client_.NewPid();
      auto stream = co_await pfnet::BspStream::Connect(&net.client_, pid, PupPort{0, 1, 0x777},
                                                       PupPort{0, 2, 0x100}, Seconds(60));
      if (stream != nullptr) {
        sent_ok = co_await stream->Send(pid, Pattern(kPayload));
        co_await stream->Close(pid);
        client_rto = stream->rto().stats();
      }
      done = true;
    };
    EXPECT_TRUE(net.Run(scenario(), Seconds(600), &done)) << "watchdog expired";
    EXPECT_TRUE(sent_ok);
    EXPECT_EQ(received, Pattern(kPayload));
    net.ExpectConservation();
    if (cell.config.loss >= 0.2) {
      // Heavy loss must show up as exponential backoff in the estimator.
      EXPECT_GT(client_rto.backoffs, 0u);
      EXPECT_GE(client_rto.max_backoff_exponent, 1u);
    }
    if (!cell.config.Any() && cell.rx_ring == 0) {
      EXPECT_EQ(client_rto.backoffs, 0u);
      EXPECT_EQ(client_rto.karn_discards, 0u);
    }
  }
}

// --- RARP across the grid -----------------------------------------------------

TEST(ChaosTest, RarpResolvesAcrossImpairmentGrid) {
  const uint32_t kAssigned = pfproto::MakeIpv4(10, 9, 8, 7);
  for (const Cell& cell : Grid()) {
    SCOPED_TRACE(cell.name);
    ChaosNet net(cell);
    std::optional<uint32_t> resolved;
    bool done = false;
    auto scenario = [&]() -> Task {
      pfnet::RarpServer::AddressTable table;
      table[net.client_.link_addr().bytes] = kAssigned;
      auto server = co_await pfnet::RarpServer::Create(&net.server_, net.server_.NewPid(),
                                                       std::move(table));
      server->Start();
      // Backed-off broadcasts: 200 ms, 400, 800, 1600, 1600... — even the
      // loss30 cell converges well inside eight attempts.
      resolved = co_await pfnet::RarpClient::Resolve(&net.client_, net.client_.NewPid(),
                                                     Milliseconds(200), /*attempts=*/8);
      done = true;
      co_await net.sim_.Delay(Seconds(1));
      (void)server;
    };
    EXPECT_TRUE(net.Run(scenario(), Seconds(120), &done)) << "watchdog expired";
    ASSERT_TRUE(resolved.has_value());
    EXPECT_EQ(*resolved, kAssigned);
    net.ExpectConservation();
  }
}

// --- RTT estimation convergence ----------------------------------------------

TEST(ChaosTest, RttEstimateConvergesToCleanPathRtt) {
  Cell baseline{"baseline", {}};
  ChaosNet net(baseline);
  pfnet::RtoStats rto_stats;
  pfsim::Duration srtt{};
  pfsim::Duration rto{};
  bool done = false;
  auto scenario = [&]() -> Task {
    auto server = [](ChaosNet* n) -> Task {
      const int pid = n->server_.NewPid();
      auto listener =
          co_await pfnet::BspListener::Create(&n->server_, pid, PupPort{0, 2, 0x100});
      auto stream = co_await listener->Accept(pid, Seconds(60));
      if (stream == nullptr) {
        co_return;
      }
      while (!stream->eof()) {
        const auto chunk = co_await stream->Recv(pid, 4096, Seconds(10));
        if (chunk.empty() && !stream->eof()) {
          co_return;
        }
      }
    };
    net.sim_.Spawn(server(&net));
    const int pid = net.client_.NewPid();
    auto stream = co_await pfnet::BspStream::Connect(&net.client_, pid, PupPort{0, 1, 0x777},
                                                     PupPort{0, 2, 0x100}, Seconds(10));
    EXPECT_NE(stream, nullptr);
    if (stream == nullptr) {
      co_return;
    }
    co_await stream->Send(pid, Pattern(16 * pfnet::BspStream::kMaxData));
    co_await stream->Close(pid);
    rto_stats = stream->rto().stats();
    srtt = stream->rto().srtt();
    rto = stream->rto().Rto();
    done = true;
  };
  EXPECT_TRUE(net.Run(scenario(), Seconds(120), &done));
  // Sixteen clean data/ack samples: the estimate has converged onto the
  // few-millisecond stop-and-wait RTT and no timer ever expired. The
  // *armed* timer stays clamped to the legacy 200 ms floor — the clean-path
  // guarantee that adaptation can only lengthen the wait — so convergence
  // shows up in srtt, not in Rto().
  EXPECT_GE(rto_stats.samples, 16u);
  EXPECT_EQ(rto_stats.backoffs, 0u);
  EXPECT_EQ(rto_stats.karn_discards, 0u);
  EXPECT_GT(srtt, pfsim::Duration::zero());
  EXPECT_LT(srtt, Milliseconds(20));
  EXPECT_EQ(rto, pfnet::BspStream::kAckTimeout);
}

// --- Connection-database flood churn (DESIGN.md §17) -------------------------

// A flow flood far past the conndb's capacity, with the wire itself
// misbehaving: whatever the impairments drop or duplicate, the partition
// identity `created == live + expired + evicted + refused` must hold, the
// watermarks must engage under pressure and disengage once the flood
// drains, the "pf.conn.*" metrics must equal the DB's own counters
// bit-exactly, and the cost ledger must show exactly one conndb charge per
// consulting packet and one GC charge per sweep.
TEST(ChaosTest, ConnDbFloodChurnHoldsIdentityAndReconcilesLedger) {
  struct FloodCell {
    const char* name;
    ImpairmentConfig config;
    bool refuse;
  };
  std::vector<FloodCell> cells;
  cells.push_back({"baseline", {}, false});
  {
    FloodCell c{"loss20", {}, false};
    c.config.loss = 0.20;
    cells.push_back(c);
  }
  {
    FloodCell c{"duplicate15_refuse", {}, true};
    c.config.duplicate = 0.15;
    cells.push_back(c);
  }

  for (const FloodCell& cell : cells) {
    SCOPED_TRACE(cell.name);
    Simulator sim;
    EthernetSegment segment(&sim, LinkType::kExperimental3Mb);
    Machine sender(&sim, &segment, MacAddr::Experimental(1),
                   pfkern::MicroVaxUltrixCosts(), "sender");
    Machine receiver(&sim, &segment, MacAddr::Experimental(2),
                     pfkern::MicroVaxUltrixCosts(), "receiver");
    if (cell.config.Any()) {
      segment.SetImpairments(cell.config);
    }

    bool sent_all = false;
    auto rx_setup = [&]() -> Task {
      const int pid = receiver.NewPid();
      pf::ConnDB::Config cfg;
      cfg.capacity = 16;  // tiny on purpose: the flood dwarfs it
      cfg.ttl_ns = 80'000'000;
      cfg.high_water_pct = 75;
      cfg.low_water_pct = 25;
      cfg.emergency_evict_batch = 2;
      cfg.refuse_new_in_emergency = cell.refuse;
      cfg.gc_batch = 8;
      co_await receiver.pf().EnableConnTracking(pid, cfg);
      const pf::PortId port = co_await receiver.pf().Open(pid);
      co_await receiver.pf().SetFilter(pid, port, pfnet::MakePupSocketFilter(35, 10));
      // Nobody reads during the flood: the queue overflows too, so the
      // copy-drop taxonomy churns alongside the connection state.
      receiver.pf().core().SetQueueLimit(port, 4);
    };
    auto tx_flood = [&]() -> Task {
      const int pid = sender.NewPid();
      co_await sim.Delay(Milliseconds(5));
      for (int i = 0; i < 240; ++i) {
        // Four "elephant" flows revisited every few milliseconds (they stay
        // near the LRU front and keep hitting) interleaved with a stream of
        // one-shot flood flows — the churn that drives the table through
        // high water and keeps the emergency shed busy.
        const bool flood = (i % 3) == 2;
        const uint8_t src = flood ? static_cast<uint8_t>(100 + i / 3)
                                  : static_cast<uint8_t>(3 + (i % 4));
        co_await sender.pf().Write(pid, pftest::MakePupFrame(8, 35, 2, src));
      }
      sent_all = true;
    };
    sim.Spawn(rx_setup());
    sim.Spawn(tx_flood());
    // Runs to quiescence: once the flood drains and the GC reclaims the
    // last entry, the worker timer disarms and the event queue runs dry.
    sim.RunUntil(pfsim::TimePoint{} + Seconds(60));
    ASSERT_TRUE(sent_all);

    const pf::ConnDB* db = receiver.pf().ConnDb();
    ASSERT_NE(db, nullptr);
    const pf::ConnDB::Stats& st = db->stats();
    EXPECT_TRUE(db->IdentityHolds())
        << "created=" << st.created << " live=" << db->live()
        << " expired=" << st.expired() << " evicted=" << st.evicted()
        << " refused=" << st.refused;
    EXPECT_GT(st.created, static_cast<uint64_t>(db->capacity()));
    EXPECT_GT(st.hits, 0u);
    EXPECT_GT(st.emergency_engaged, 0u);
    EXPECT_EQ(st.refused > 0, cell.refuse);
    // The flood drained: GC reclaimed everything, emergency disengaged.
    EXPECT_EQ(db->live(), 0u);
    EXPECT_FALSE(db->emergency());
    EXPECT_EQ(st.emergency_engaged, st.emergency_disengaged);
    EXPECT_GT(st.expired_gc, 0u);

    // Metrics reconcile bit-exactly with the DB's own counters.
    pfobs::MetricsRegistry& metrics = receiver.metrics();
    EXPECT_EQ(metrics.FindCounter("pf.conn.lookups")->value(), st.lookups);
    EXPECT_EQ(metrics.FindCounter("pf.conn.hits")->value(), st.hits);
    EXPECT_EQ(metrics.FindCounter("pf.conn.created")->value(), st.created);
    EXPECT_EQ(metrics.FindCounter("pf.conn.refused")->value(), st.refused);
    EXPECT_EQ(metrics.FindCounter("pf.conn.expired.gc")->value(), st.expired_gc);
    EXPECT_EQ(metrics.FindCounter("pf.conn.evicted.emergency")->value(),
              st.evicted_emergency);
    EXPECT_EQ(metrics.FindCounter("pf.conn.emergency.engaged")->value(),
              st.emergency_engaged);
    EXPECT_EQ(metrics.FindCounter("pf.conn.gc.sweeps")->value(), st.gc_sweeps);

    // Ledger reconciliation: one kConnDb charge per packet that consulted
    // the DB, one kConnGc charge per sweep the worker ran.
    EXPECT_EQ(receiver.ledger().count(pfkern::Cost::kConnDb), st.lookups);
    EXPECT_EQ(receiver.ledger().count(pfkern::Cost::kConnGc), st.gc_sweeps);
  }
}

}  // namespace
