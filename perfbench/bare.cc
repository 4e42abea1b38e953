// The two bare-demux workloads: a pf::PacketFilter under kIndexed with no
// simulator, fed packet by packet from a pre-generated stream and drained by
// PopBatch. All host time goes to the demux walk, filter execution, the
// conn fast path and delivery, so the spans around those calls split it.
//
//   demux_ports: 256 Pup-socket conjunction filters plus four lowest-
//     priority non-conjunction filters (OR-shaped and indirect-load), so the
//     index cannot cover every filter and no fast path serves. Minimum-size
//     frames, Zipf over all sockets, plus unmatched and runt packets.
//   conn_churn: 256 prefix-only conjunction filters with conn tracking on.
//     Long-lived Zipf flows mixed with single-packet flows that overrun the
//     table; a filter is rebound or re-prioritised about once per thousand
//     packets, each write timed with the Demux that follows it.
#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "perfbench/common.h"
#include "perfbench/replay.h"
#include "src/kernel/cost_model.h"
#include "src/kernel/ledger.h"
#include "src/link/frame.h"
#include "src/net/pup_endpoint.h"
#include "src/obs/flow_stats.h"
#include "src/pf/builder.h"
#include "src/pf/demux.h"
#include "src/proto/ethertypes.h"
#include "src/proto/pup.h"

namespace pfperf {

pf::PacketBuf PupFrame(uint32_t dst_socket, uint32_t identifier, size_t data_bytes,
                       uint32_t flow_id) {
  pfproto::PupHeader header;
  header.type = static_cast<uint8_t>(pfproto::PupType::kData);
  header.identifier = identifier;
  header.dst = {0, 2, dst_socket};
  header.src = {0, 1, 0x99};
  std::vector<uint8_t> data(data_bytes, 0x5a);
  for (size_t i = 0; i < data_bytes && i < 4; ++i) {
    data[i] = static_cast<uint8_t>(flow_id >> (24 - 8 * i));
  }
  const auto pup = pfproto::BuildPup(header, data);
  pflink::LinkHeader link;
  link.dst = pflink::MacAddr::Experimental(2);
  link.src = pflink::MacAddr::Experimental(1);
  link.ether_type = pfproto::kEtherTypePup;
  return pflink::BuildFrame(pflink::LinkType::kExperimental3Mb, link, *pup)->bytes;
}

namespace {

constexpr size_t kDemuxPortsPackets = 16384;  // per repetition
constexpr size_t kConnChurnPackets = 65536;
constexpr size_t kBatch = 64;           // packets demuxed between drains
constexpr size_t kQueueLimit = 4096;    // never reached: drains keep queues short
constexpr size_t kReplayPackets = 65536;

// Four filters the index cannot serve: two OR-shaped, two indirect loads.
// None matches the generated traffic.
std::vector<pf::Program> FallbackFilters(uint8_t priority) {
  std::vector<pf::Program> out;
  pf::FilterBuilder type_or;
  type_or.PushWord(pfproto::kWordPupType)
      .ConstOp(pf::StackAction::kPush00FF, pf::BinaryOp::kAnd)
      .Lit(pf::BinaryOp::kEq, 200)
      .PushWord(pfproto::kWordPupType)
      .ConstOp(pf::StackAction::kPush00FF, pf::BinaryOp::kAnd)
      .Lit(pf::BinaryOp::kEq, 201)
      .Op(pf::BinaryOp::kOr);
  out.push_back(type_or.Build(priority));
  pf::FilterBuilder ether_or;
  ether_or.PushWord(pfproto::kWordEtherType)
      .Lit(pf::BinaryOp::kEq, 0x0800)
      .PushWord(pfproto::kWordEtherType)
      .Lit(pf::BinaryOp::kEq, 0x0806)
      .Op(pf::BinaryOp::kOr);
  out.push_back(ether_or.Build(priority));
  pf::FilterBuilder host_ind(pf::LangVersion::kV2);
  host_ind.PushLit(12).IndOp().Lit(pf::BinaryOp::kEq, 0x7777);
  out.push_back(host_ind.Build(priority));
  pf::FilterBuilder type_ind(pf::LangVersion::kV2);
  type_ind.PushLit(2).IndOp().Lit(pf::BinaryOp::kEq, 0x0600);
  out.push_back(type_ind.Build(priority));
  return out;
}

// The inputs of one bare workload, built once per run from the seed.
struct BareInputs {
  std::vector<pf::Program> programs;  // port i (open order) binds programs[i]
  std::vector<pf::PacketBuf> frames;  // distinct frames
  struct Packet {
    uint32_t frame;
    int32_t port;  // expected claiming port index; -1 = expected unclaimed
  };
  std::vector<Packet> stream;
  struct Write {
    uint32_t before;  // stream position the write precedes
    uint32_t port;
    bool flip_priority;  // else: rebind the same program
  };
  std::vector<Write> writes;
  struct Probe {
    uint32_t port;
    uint32_t frame;
  };
  std::vector<Probe> reconfig;  // post-traffic writes (demux_ports)
  bool conn = false;
  pf::ConnDB::Config conn_config;
  uint64_t tick_ns = 0;  // synthetic clock per packet (conn TTL and GC)
  size_t gc_every = 0;
  Metrics mix;
};

// Modeled per-packet demux charges: the simulated kernel's rule (the pf
// device charges exactly these per HandlePacket), applied to a bare
// filter's results. These are simulated µs, never host time.
struct Modeled {
  pfkern::CostModel costs = pfkern::MicroVaxUltrixCosts();
  double ns[static_cast<size_t>(pfkern::Cost::kCount)] = {};
  void Charge(pfkern::Cost cost, pfsim::Duration d) {
    ns[static_cast<size_t>(cost)] += static_cast<double>(d.count());
  }
  void Packet(const pf::DemuxResult& r) {
    Charge(pfkern::Cost::kFilterEval, costs.FilterCost(r.exec));
    Charge(pfkern::Cost::kIndexProbe,
           costs.index_probe * static_cast<int64_t>(r.exec.index_probes));
    if (r.cache_lookup) {
      Charge(pfkern::Cost::kFlowCache, costs.flow_cache_lookup);
    }
    if (r.conn_lookup) {
      Charge(pfkern::Cost::kConnDb, costs.conn_lookup);
    }
    Charge(pfkern::Cost::kPfBookkeeping, costs.pf_bookkeeping * r.deliveries);
  }
  double total() const {
    double sum = 0;
    for (double v : ns) {
      sum += v;
    }
    return sum;
  }
};

Metrics MixOf(const BareInputs& in, size_t unmatched, size_t runts) {
  Metrics mix;
  std::unordered_set<uint64_t> seen;
  size_t repeats = 0;
  double bytes = 0;
  for (const BareInputs::Packet& p : in.stream) {
    const pf::PacketBuf& frame = in.frames[p.frame];
    repeats += seen.insert(pfobs::FlowSignature::Of(frame.span())).second ? 0 : 1;
    bytes += static_cast<double>(frame.size());
  }
  const double n = static_cast<double>(in.stream.size());
  mix["distinct_flows"] = static_cast<double>(seen.size());
  mix["flow_repeat_share"] = static_cast<double>(repeats) / n;
  mix["unmatched_share"] = static_cast<double>(unmatched) / n;
  mix["runt_share"] = static_cast<double>(runts) / n;
  mix["mean_frame_bytes"] = bytes / n;
  mix["writes_per_kpkt"] = static_cast<double>(in.writes.size()) / (n / 1000.0);
  mix["offered_sim_pps"] = in.tick_ns > 0 ? 1e9 / static_cast<double>(in.tick_ns) : 0.0;
  return mix;
}

BareInputs GenerateDemuxPorts(uint64_t seed) {
  // 256, not more: with 1024 the walk's per-port state outgrows the L1
  // cache, and another process sharing the vCPU then slowed every Demux by
  // 13% (each time slice refills it), while at 256 it moved Demux latency
  // by under 1%.
  constexpr uint32_t kPorts = 256;
  BareInputs in;
  for (uint32_t i = 0; i < kPorts; ++i) {
    in.programs.push_back(pfnet::MakePupSocketFilter(0x100 + i, 10));
  }
  for (pf::Program& p : FallbackFilters(1)) {
    in.programs.push_back(std::move(p));
  }
  Rng rng(seed);
  const Zipf zipf(kPorts, 0.9);
  // 0.2% runts at seeded positions but a fixed count (a runt walks every
  // filter, so its count would dominate the seed-to-seed spread), and 2%
  // unmatched packets drawn per packet.
  constexpr size_t kRunts = kDemuxPortsPackets / 500;
  std::vector<uint8_t> kind(kDemuxPortsPackets, 0);
  std::fill(kind.begin(), kind.begin() + kRunts, 1);
  for (size_t i = kind.size() - 1; i > 0; --i) {
    std::swap(kind[i], kind[rng.Below(i + 1)]);
  }
  size_t unmatched = 0;
  for (uint8_t& k : kind) {
    if (k == 0 && rng.Uniform() < 0.02) {
      k = 2;
      ++unmatched;
    }
  }
  // The frame pool: one frame per socket (index = port), then 64 frames to
  // unbound sockets and 64 runts (link header + part of the Pup header).
  constexpr uint32_t kOddFrames = 64;
  for (uint32_t port = 0; port < kPorts; ++port) {
    in.frames.push_back(PupFrame(0x100 + port, port, 0, 0));
  }
  for (uint32_t k = 0; k < kOddFrames; ++k) {
    in.frames.push_back(PupFrame(0x8000 + static_cast<uint32_t>(rng.Below(4096)), k, 0, 0));
  }
  for (uint32_t k = 0; k < kOddFrames; ++k) {
    pf::PacketBuf runt = PupFrame(0x100 + static_cast<uint32_t>(rng.Below(kPorts)), k, 0, 0);
    runt.Truncate(10);
    in.frames.push_back(std::move(runt));
  }
  for (uint32_t i = 0; i < kDemuxPortsPackets; ++i) {
    const auto odd = static_cast<uint32_t>(rng.Below(kOddFrames));
    if (kind[i] == 1) {
      in.stream.push_back({kPorts + kOddFrames + odd, -1});
    } else if (kind[i] == 2) {
      in.stream.push_back({kPorts + odd, -1});
    } else {
      // Popularity rank -> port by a fixed scatter, so popular sockets sit
      // all along the walk order whatever the seed.
      const auto port = static_cast<uint32_t>((zipf.Sample(rng) * 617) % kPorts);
      in.stream.push_back({port, static_cast<int32_t>(port)});
    }
  }
  for (uint32_t k = 0; k < 16; ++k) {
    const auto port = static_cast<uint32_t>(rng.Below(kPorts));
    in.reconfig.push_back({port, port});
  }
  in.mix = MixOf(in, unmatched, kRunts);
  return in;
}

BareInputs GenerateConnChurn(uint64_t seed) {
  constexpr uint32_t kPorts = 256;
  constexpr uint32_t kLongFlows = 512;
  BareInputs in;
  for (uint32_t i = 0; i < kPorts; ++i) {
    in.programs.push_back(pfnet::MakePupSocketFilter(0x200 + i, 10));
  }
  in.conn = true;
  in.conn_config.capacity = 1536;
  in.conn_config.ttl_ns = 8'000'000;
  in.conn_config.high_water_pct = 90;
  in.conn_config.low_water_pct = 70;
  in.conn_config.emergency_evict_batch = 8;
  in.conn_config.refuse_new_in_emergency = false;
  in.conn_config.gc_batch = 64;
  in.tick_ns = 1000;
  in.gc_every = 256;

  std::vector<uint32_t> long_port(kLongFlows);
  for (uint32_t f = 0; f < kLongFlows; ++f) {
    long_port[f] = (f * 37) % kPorts;
    in.frames.push_back(PupFrame(0x200 + long_port[f], 0x0c0c0c0c, 8, f));
  }
  Rng rng(seed);
  const Zipf zipf(kLongFlows, 1.1);
  uint32_t next_new = 0x01000000;
  size_t unmatched = 0;
  uint32_t next_write = 500 + static_cast<uint32_t>(rng.Below(1001));
  for (uint32_t i = 0; i < kConnChurnPackets; ++i) {
    if (i == next_write) {
      in.writes.push_back({i, static_cast<uint32_t>(rng.Below(kPorts)), rng.Below(2) == 0});
      next_write += 500 + static_cast<uint32_t>(rng.Below(1001));
    }
    const double u = rng.Uniform();
    if (u < 0.8) {
      const auto f = static_cast<uint32_t>(zipf.Sample(rng));
      in.stream.push_back({f, static_cast<int32_t>(long_port[f])});
    } else if (u < 0.81) {
      // 1% scans of unbound sockets: the conn path never serves them.
      in.stream.push_back({static_cast<uint32_t>(in.frames.size()), -1});
      in.frames.push_back(PupFrame(0x8000 + static_cast<uint32_t>(rng.Below(4096)), 0x0c0c0c0c,
                                   8, next_new++));
      ++unmatched;
    } else {
      const auto port = static_cast<uint32_t>(rng.Below(kPorts));
      in.stream.push_back({static_cast<uint32_t>(in.frames.size()), static_cast<int32_t>(port)});
      in.frames.push_back(PupFrame(0x200 + port, 0x0c0c0c0c, 8, next_new++));
    }
  }
  in.mix = MixOf(in, unmatched, 0);
  return in;
}

class BareWorkload : public Workload {
 public:
  explicit BareWorkload(BareInputs inputs) : in_(std::move(inputs)) {}

  Metrics MixProperties() const override { return in_.mix; }

  RepSample RunRep(Tracer* tracer) override {
    RepSample s;
    Span rep_span(tracer, Layer::kRep);
    pf::PacketFilter filter;
    std::vector<pf::PortId> ids;

    // --- Set-up: open ports, bind every filter, first (lazy-rebuild) pass.
    const double setup_start = ThreadCpuNs();
    {
      Span span(tracer, Layer::kSetup);
      filter.SetStrategy(pf::Strategy::kIndexed);
      if (in_.conn) {
        filter.EnableConnTracking(in_.conn_config);
      }
      for (const pf::Program& program : in_.programs) {
        const pf::PortId id = filter.OpenPort();
        ids.push_back(id);
        filter.SetQueueLimit(id, kQueueLimit);
        const uint64_t t0 = Ticks();
        bool ok = false;
        {
          Span bind(tracer, Layer::kBind);
          ok = filter.SetFilter(id, program).ok;
        }
        s.bind_ns.push_back(TicksToNs(Ticks() - t0));
        if (!ok) {
          s.violations.push_back("a generated filter failed validation");
        }
      }
      filter.Demux(in_.frames[in_.stream[0].frame]);
      for (const pf::PortId id : ids) {
        filter.PopBatch(id);
      }
    }
    s.setup_ns = ThreadCpuNs() - setup_start;

    // --- Traffic.
    const pf::FilterGlobalStats before = filter.global_stats();
    const pf::ConnDB::Stats conn_before =
        in_.conn ? filter.conndb()->stats() : pf::ConnDB::Stats{};
    const std::array<double, kLayerCount> spans_before =
        tracer != nullptr ? tracer->self_ns() : std::array<double, kLayerCount>{};
    std::vector<uint8_t> priority(in_.programs.size(), 0);
    for (size_t i = 0; i < in_.programs.size(); ++i) {
      priority[i] = in_.programs[i].priority;
    }
    std::vector<std::vector<uint32_t>> expected(in_.programs.size());
    std::vector<uint32_t> batch_ports;
    Modeled modeled;
    uint64_t fast_hits = 0;
    uint64_t gc_sweeps = 0;
    size_t live_peak = 0;
    size_t next_write = 0;
    double write_ns = -1;
    uint64_t now_ns = 0;

    auto drain = [&]() {
      for (const uint32_t port : batch_ports) {
        std::vector<pf::ReceivedPacket> got;
        {
          Span span(tracer, Layer::kDelivery);
          got = filter.PopBatch(ids[port]);
        }
        ++s.delivery_calls;
        s.delivery_packets += got.size();
        Span verify(tracer, Layer::kVerify);
        const std::vector<uint32_t>& want = expected[port];
        for (size_t k = 0; k < got.size(); ++k) {
          if (k < want.size() && got[k].bytes == in_.frames[want[k]]) {
            ++s.packets;
            s.bytes += got[k].bytes.size();
          } else {
            ++s.failed;  // misdelivered or corrupted
          }
        }
        if (got.size() < want.size()) {
          s.failed += want.size() - got.size();  // lost
        }
        expected[port].clear();
      }
      batch_ports.clear();
      if (in_.conn) {
        live_peak = std::max(live_peak, filter.conndb()->live());
      }
    };

    const double traffic_start = ThreadCpuNs();
    {
      Span traffic(tracer, Layer::kTraffic);
      for (size_t i = 0; i < in_.stream.size(); ++i) {
        if (next_write < in_.writes.size() && in_.writes[next_write].before == i) {
          const BareInputs::Write& w = in_.writes[next_write++];
          pf::Program program = in_.programs[w.port];
          if (w.flip_priority) {
            priority[w.port] = priority[w.port] == 10 ? 11 : 10;
          }
          program.priority = priority[w.port];
          const uint64_t t0 = Ticks();
          {
            Span bind(tracer, Layer::kBind);
            filter.SetFilter(ids[w.port], std::move(program));
          }
          write_ns = TicksToNs(Ticks() - t0);
          s.bind_ns.push_back(write_ns);
        }
        const BareInputs::Packet& p = in_.stream[i];
        now_ns += in_.tick_ns;
        pf::DemuxResult r;
        const uint64_t t0 = Ticks();
        {
          Span demux(tracer, Layer::kDemux, i);
          r = filter.Demux(in_.frames[p.frame], now_ns);
        }
        const double ns = TicksToNs(Ticks() - t0);
        if (write_ns >= 0) {
          s.reconfig_ns.push_back(write_ns + ns);
          s.first_demux_ns.push_back(ns);
          write_ns = -1;
        } else {
          s.demux_ns.push_back(ns);
        }
        ++s.attempted;
        modeled.Packet(r);
        fast_hits += (r.conn_hit || r.cache_hit) ? 1 : 0;
        if (p.port < 0) {
          s.failed += r.accepted ? 1 : 0;  // should have been unclaimed
        } else if (!r.accepted || r.deliveries != 1) {
          ++s.failed;
        } else {
          std::vector<uint32_t>& want = expected[static_cast<size_t>(p.port)];
          if (want.empty()) {
            batch_ports.push_back(static_cast<uint32_t>(p.port));
          }
          want.push_back(p.frame);
        }
        if (in_.conn && (i + 1) % in_.gc_every == 0) {
          Span gc(tracer, Layer::kConnGc);
          filter.conndb()->GcSweep(now_ns);
          ++gc_sweeps;
        }
        if ((i + 1) % kBatch == 0) {
          drain();
        }
      }
      drain();
    }
    s.traffic_ns = ThreadCpuNs() - traffic_start;
    if (tracer != nullptr) {
      for (size_t l = 0; l < kLayerCount; ++l) {
        s.traffic_layer_ns[l] = tracer->self_ns()[l] - spans_before[l];
      }
    }

    // --- Invariants of the traffic phase.
    const pf::FilterGlobalStats& after = filter.global_stats();
    for (const pf::PortId id : ids) {
      const pf::PortStats* st = filter.Stats(id);
      if (st->accepts != st->enqueued + st->dropped) {
        s.violations.push_back("accepts != enqueued + dropped on a port");
      }
      s.failed += filter.QueueLength(id);  // left behind: delivered to the wrong port
    }
    if (after.packets_in != after.packets_accepted + after.packets_unclaimed) {
      s.violations.push_back("packets_in != accepted + unclaimed");
    }
    if (in_.conn && !filter.conndb()->IdentityHolds()) {
      s.violations.push_back("conndb partition identity broken");
    }
    const double demuxed = static_cast<double>(after.packets_in - before.packets_in);
    if (demuxed != static_cast<double>(in_.stream.size())) {
      s.violations.push_back("demux count differs from the stream length");
    }

    // --- Exact outputs (modeled cost and counts, identical every rep).
    const double delivered = static_cast<double>(std::max<uint64_t>(s.packets, 1));
    modeled.Charge(pfkern::Cost::kConnGc,
                   modeled.costs.conn_gc_sweep * static_cast<int64_t>(gc_sweeps));
    s.exact["sim_us_per_packet"] = modeled.total() / 1000.0 / delivered;
    for (size_t c = 0; c < static_cast<size_t>(pfkern::Cost::kCount); ++c) {
      if (modeled.ns[c] > 0) {
        s.exact["kernel.sim_us." + pfkern::ToSlug(static_cast<pfkern::Cost>(c))] =
            modeled.ns[c] / 1000.0 / delivered;
      }
    }
    const pf::ExecTelemetry& e = after.exec;
    const pf::ExecTelemetry& b = before.exec;
    s.exact["pf.engine.work_per_packet"] =
        static_cast<double>((e.insns_executed - b.insns_executed) +
                            (e.tree_probes - b.tree_probes) +
                            (e.index_probes - b.index_probes)) /
        demuxed;
    s.exact["pf.engine.filters_run_per_packet"] =
        static_cast<double>(e.filters_run - b.filters_run) / demuxed;
    s.exact["pf.fastpath.hit_ratio"] = static_cast<double>(fast_hits) / demuxed;
    s.exact["n.delivered"] = static_cast<double>(s.packets);
    s.exact["n.demuxed"] = demuxed;
    if (in_.conn) {
      const pf::ConnDB::Stats& c = filter.conndb()->stats();
      s.exact["pf.conndb.evictions_per_kpkt"] =
          static_cast<double>(c.evicted() - conn_before.evicted()) / (demuxed / 1000.0);
      s.exact["pf.conndb.live_peak"] = static_cast<double>(live_peak);
    }

    // --- Reconfiguration phase (writes outside the traffic stream).
    for (const BareInputs::Probe& probe : in_.reconfig) {
      Span span(tracer, Layer::kReconfig);
      const uint64_t t0 = Ticks();
      {
        Span bind(tracer, Layer::kBind);
        filter.SetFilter(ids[probe.port], in_.programs[probe.port]);
      }
      const uint64_t t1 = Ticks();
      pf::DemuxResult r;
      {
        Span demux(tracer, Layer::kDemux);
        r = filter.Demux(in_.frames[probe.frame], now_ns);
      }
      const uint64_t t2 = Ticks();
      s.bind_ns.push_back(TicksToNs(t1 - t0));
      s.reconfig_ns.push_back(TicksToNs(t2 - t0));
      s.first_demux_ns.push_back(TicksToNs(t2 - t1));
      ++s.attempted;
      const std::vector<pf::ReceivedPacket> got = filter.PopBatch(ids[probe.port]);
      if (!r.accepted || got.size() != 1 || !(got[0].bytes == in_.frames[probe.frame])) {
        ++s.failed;
      }
    }
    return s;
  }

  void PerLayer(const std::vector<RepSample>& traced, Metrics& out) override {
    std::vector<double> first;
    std::vector<double> steady;
    std::vector<double> bind;
    double demux_ns = 0;
    double delivery_ns = 0;
    uint64_t popped = 0;
    for (const RepSample& s : traced) {
      first.push_back(s.first_demux_p50_ns);
      steady.push_back(s.demux_p50_ns);
      bind.push_back(s.bind_p50_ns);
      demux_ns += s.traffic_layer_ns[static_cast<size_t>(Layer::kDemux)];
      delivery_ns += s.traffic_layer_ns[static_cast<size_t>(Layer::kDelivery)];
      popped += s.delivery_packets;
    }
    // Exact counts are the same in every repetition.
    const double reps = static_cast<double>(traced.size());
    const double demuxed = traced.front().exact.at("n.demuxed") * reps;
    const double delivered = traced.front().exact.at("n.delivered") * reps;
    out["pf.demux.ns_per_packet"] = demux_ns / demuxed;
    out["pf.delivery.ns_per_packet"] = popped > 0 ? delivery_ns / static_cast<double>(popped) : 0;
    out["pf.bind.us_per_call"] = Median(bind) / 1000.0;
    out["pf.rebuild.us"] = (Median(first) - Median(steady)) / 1000.0;

    std::vector<pf::Program> walk = in_.programs;  // opened in walk order
    std::vector<pf::PacketBuf> frames;
    for (size_t i = 0; i < in_.stream.size() && i < kReplayPackets; ++i) {
      frames.push_back(in_.frames[in_.stream[i].frame]);
    }
    const EngineReplay engine = ReplayEngine(walk, pf::Strategy::kIndexed, frames);
    out["pf.engine.ns_per_pass"] = engine.ns_per_pass;
    out["pf.engine.ns_per_filter"] = engine.ns_per_filter;
    if (in_.conn) {
      out["pf.conndb.ns_per_lookup"] =
          ReplayConnDb(frames, in_.conn_config, in_.tick_ns, in_.gc_every);
    }

    std::map<std::string, double> layer_ns;
    layer_ns["pf.demux"] = demux_ns;
    layer_ns["pf.delivery"] = delivery_ns;
    for (const RepSample& s : traced) {
      layer_ns["pf.bind"] += s.traffic_layer_ns[static_cast<size_t>(Layer::kBind)];
      layer_ns["pf.conndb"] += s.traffic_layer_ns[static_cast<size_t>(Layer::kConnGc)];
    }
    FinishShares(traced, layer_ns, delivered, out);
  }

 private:
  BareInputs in_;
};

}  // namespace

std::unique_ptr<Workload> MakeDemuxPorts(uint64_t seed) {
  return std::make_unique<BareWorkload>(GenerateDemuxPorts(seed));
}

std::unique_ptr<Workload> MakeConnChurn(uint64_t seed) {
  return std::make_unique<BareWorkload>(GenerateConnChurn(seed));
}

}  // namespace pfperf
