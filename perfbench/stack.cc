// The two simulated-stack workloads: Machines on one EthernetSegment, run by
// the Simulator. Host time here is spread over the simulator, the link,
// the kernel, the packet filter and the user-level protocols; the benchmark
// can only wrap Simulator::Step from outside, so the per-layer split comes
// from replays of the recorded inputs (replay.h) and a per-call Demux probe
// on each receiver's live filter set after the simulation ends.
//
//   stack_small: one sender process writes minimum-size Pup frames through
//     its pf device, open loop at a fixed Poisson rate below the receiver's
//     simulated capacity; 32 receiver processes read their own port with
//     batching, under the kernel's default kFast strategy.
//   vmtp_bulk: one closed-loop user-level VMTP client reads cached file
//     segments of 12-16 KB from a user-level file server over packet-filter
//     ports, read batching on (the table 6-3 scenario, run for many MB).
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <vector>

#include "perfbench/common.h"
#include "perfbench/replay.h"
#include "src/kernel/cost_model.h"
#include "src/kernel/ledger.h"
#include "src/kernel/machine.h"
#include "src/kernel/pf_device.h"
#include "src/link/frame.h"
#include "src/link/segment.h"
#include "src/net/pup_endpoint.h"
#include "src/net/vmtp.h"
#include "src/proto/ethertypes.h"
#include "src/proto/vmtp.h"
#include "src/sim/simulator.h"

namespace pfperf {
namespace {

constexpr size_t kReconfigWrites = 16;
constexpr size_t kSchedReplayEvents = 400'000;
constexpr size_t kFcsReplayBytes = 8u << 20;
// Upper bound on events one simulated run may execute (a hang guard).
constexpr uint64_t kMaxSteps = 50'000'000;

// Counters of one machine, snapshotted at the start of the measured phase.
struct MachineMark {
  uint64_t copies = 0;
  uint64_t packets_in = 0;
  uint64_t enqueued = 0;
  pf::ExecTelemetry exec;
  uint64_t fast_hits = 0;
};

MachineMark Mark(pfkern::Machine& m) {
  MachineMark mark;
  pf::PacketFilter& core = m.pf().core();
  mark.copies = m.copies();
  mark.packets_in = core.global_stats().packets_in;
  mark.exec = core.global_stats().exec;
  mark.fast_hits = core.flow_cache_stats().hits;
  for (const pf::PortId id : core.Ports()) {
    mark.enqueued += core.Stats(id)->enqueued;
  }
  return mark;
}

// Checks the demux identities of `m` over the phase since `mark`, and that
// the ledger charged one kPfBookkeeping per delivered packet.
void CheckMachine(pfkern::Machine& m, const MachineMark& mark, RepSample& s) {
  pf::PacketFilter& core = m.pf().core();
  uint64_t enqueued = 0;
  for (const pf::PortId id : core.Ports()) {
    const pf::PortStats* st = core.Stats(id);
    if (st->accepts != st->enqueued + st->dropped) {
      s.violations.push_back(m.name() + ": accepts != enqueued + dropped on a port");
    }
    enqueued += st->enqueued;
  }
  const pf::FilterGlobalStats& g = core.global_stats();
  if (g.packets_in != g.packets_accepted + g.packets_unclaimed) {
    s.violations.push_back(m.name() + ": packets_in != accepted + unclaimed");
  }
  if (m.ledger().count(pfkern::Cost::kPfBookkeeping) != enqueued - mark.enqueued) {
    s.violations.push_back(m.name() + ": ledger pf_bookkeeping charges != packets enqueued");
  }
}

// Kernel ledger metrics per delivered packet over `machines` (ledgers reset
// at the start of the measured phase).
void LedgerMetrics(std::initializer_list<pfkern::Machine*> machines,
                   std::initializer_list<const MachineMark*> marks, double delivered,
                   RepSample& s) {
  double total_ns = 0;
  double syscalls = 0;
  double switches = 0;
  double copies = 0;
  double demuxed = 0;
  double work = 0;
  double filters = 0;
  double fast = 0;
  std::vector<double> by_cost(static_cast<size_t>(pfkern::Cost::kCount), 0.0);
  auto mark = marks.begin();
  for (pfkern::Machine* m : machines) {
    const pfkern::Ledger& ledger = m->ledger();
    total_ns += static_cast<double>(ledger.grand_total().count());
    syscalls += static_cast<double>(ledger.count(pfkern::Cost::kSyscall));
    switches += static_cast<double>(ledger.count(pfkern::Cost::kContextSwitch));
    for (size_t c = 0; c < by_cost.size(); ++c) {
      by_cost[c] += static_cast<double>(ledger.total(static_cast<pfkern::Cost>(c)).count());
    }
    copies += static_cast<double>(m->copies() - (*mark)->copies);
    const pf::FilterGlobalStats& g = m->pf().core().global_stats();
    const pf::ExecTelemetry& e = g.exec;
    const pf::ExecTelemetry& b = (*mark)->exec;
    demuxed += static_cast<double>(g.packets_in - (*mark)->packets_in);
    work += static_cast<double>((e.insns_executed - b.insns_executed) +
                                (e.tree_probes - b.tree_probes) +
                                (e.index_probes - b.index_probes));
    filters += static_cast<double>(e.filters_run - b.filters_run);
    fast += static_cast<double>(m->pf().core().flow_cache_stats().hits - (*mark)->fast_hits);
    ++mark;
  }
  s.exact["sim_us_per_packet"] = total_ns / 1000.0 / delivered;
  s.exact["kernel.syscalls_per_packet"] = syscalls / delivered;
  s.exact["kernel.ctx_switches_per_packet"] = switches / delivered;
  s.exact["kernel.copies_per_packet"] = copies / delivered;
  for (size_t c = 0; c < by_cost.size(); ++c) {
    if (by_cost[c] > 0) {
      s.exact["kernel.sim_us." + pfkern::ToSlug(static_cast<pfkern::Cost>(c))] =
          by_cost[c] / 1000.0 / delivered;
    }
  }
  s.exact["pf.engine.work_per_packet"] = work / demuxed;
  s.exact["pf.engine.filters_run_per_packet"] = filters / demuxed;
  s.exact["pf.fastpath.hit_ratio"] = fast / demuxed;
  s.exact["n.demuxed"] = demuxed;
}

// Steps `sim` until `done()` or the queue drains, sampling the queue depth.
void StepUntil(pfsim::Simulator& sim, const std::function<bool()>& done, double* depth_sum,
               uint64_t* depth_samples) {
  uint64_t steps = 0;
  while (!done() && steps < kMaxSteps && sim.Step()) {
    if (depth_sum != nullptr && (++steps & 63) == 0) {
      *depth_sum += static_cast<double>(sim.pending_events());
      ++*depth_samples;
    }
  }
}

// Per-call Demux probe on a receiver's live filter set after its simulation
// ended: each frame demuxed and timed, queues drained by PopBatch and the
// deliveries verified. `port_of[i]` is frame i's expected port id; queues
// are drained every `batch` frames, below the smallest port queue limit.
void Probe(pf::PacketFilter& core, const std::vector<pf::PacketBuf>& frames,
           const std::vector<pf::PortId>& port_of, size_t batch, Tracer* tracer, RepSample& s) {
  std::vector<pf::PortId> batch_ports;
  std::vector<std::vector<size_t>> expected;
  std::vector<pf::PortId> slot_port;
  auto slot_of = [&](pf::PortId port) -> std::vector<size_t>& {
    for (size_t k = 0; k < slot_port.size(); ++k) {
      if (slot_port[k] == port) {
        return expected[k];
      }
    }
    slot_port.push_back(port);
    expected.emplace_back();
    return expected.back();
  };
  const std::array<double, kLayerCount> before =
      tracer != nullptr ? tracer->self_ns() : std::array<double, kLayerCount>{};
  // The timed pass (spans on) follows an untimed one, so the probe measures
  // warm caches rather than whatever the simulation left behind.
  Tracer* pass_tracer = nullptr;
  bool timed = false;
  auto drain = [&]() {
    for (const pf::PortId port : batch_ports) {
      std::vector<pf::ReceivedPacket> got;
      {
        Span span(pass_tracer, Layer::kDelivery);
        got = core.PopBatch(port);
      }
      if (timed) {
        ++s.delivery_calls;
        s.delivery_packets += got.size();
      }
      std::vector<size_t>& want = slot_of(port);
      for (size_t k = 0; k < got.size(); ++k) {
        s.failed += (k < want.size() && got[k].bytes == frames[want[k]]) ? 0 : 1;
      }
      if (got.size() < want.size()) {
        s.failed += want.size() - got.size();
      }
      want.clear();
    }
    batch_ports.clear();
  };
  auto pass = [&]() {
    Span probe(pass_tracer, Layer::kProbe);
    for (size_t i = 0; i < frames.size(); ++i) {
      pf::DemuxResult r;
      const uint64_t t0 = Ticks();
      {
        Span span(pass_tracer, Layer::kDemux, i);
        r = core.Demux(frames[i]);
      }
      if (timed) {
        s.demux_ns.push_back(TicksToNs(Ticks() - t0));
      }
      ++s.attempted;
      if (!r.accepted || r.deliveries != 1) {
        ++s.failed;
      } else {
        std::vector<size_t>& want = slot_of(port_of[i]);
        if (want.empty()) {
          batch_ports.push_back(port_of[i]);
        }
        want.push_back(i);
      }
      if ((i + 1) % batch == 0) {
        drain();
      }
    }
    drain();
  };
  pass();
  pass_tracer = tracer;
  timed = true;
  pass();
  if (tracer != nullptr) {
    for (size_t l = 0; l < kLayerCount; ++l) {
      s.probe_layer_ns[l] += tracer->self_ns()[l] - before[l];
    }
  }
}

// Writes on a receiver's live filter set: SetFilter (rebinding the port's
// program) plus the first Demux after it, where the lazy rebuild lands.
void Reconfigure(pf::PacketFilter& core, pf::PortId port, const pf::Program& program,
                 const pf::PacketBuf& frame, Tracer* tracer, RepSample& s) {
  Span span(tracer, Layer::kReconfig);
  const uint64_t t0 = Ticks();
  {
    Span bind(tracer, Layer::kBind);
    core.SetFilter(port, program);
  }
  const uint64_t t1 = Ticks();
  pf::DemuxResult r;
  {
    Span demux(tracer, Layer::kDemux);
    r = core.Demux(frame);
  }
  const uint64_t t2 = Ticks();
  s.bind_ns.push_back(TicksToNs(t1 - t0));
  s.reconfig_ns.push_back(TicksToNs(t2 - t0));
  s.first_demux_ns.push_back(TicksToNs(t2 - t1));
  ++s.attempted;
  const std::vector<pf::ReceivedPacket> got = core.PopBatch(port);
  if (!r.accepted || got.size() != 1 || !(got[0].bytes == frame)) {
    ++s.failed;
  }
}

// Per-layer metrics shared by both stack workloads: replay-based host
// estimates for the traffic phase, multiplied by the traffic's own counts.
void StackPerLayer(const std::vector<RepSample>& traced, const std::vector<pf::PacketBuf>& wire,
                   const std::vector<pf::Program>& walk, const std::vector<pf::PacketBuf>& walk_frames,
                   Metrics& out) {
  std::vector<double> demux;
  std::vector<double> mean;
  std::vector<double> first;
  std::vector<double> bind;
  double delivery_ns = 0;
  uint64_t popped = 0;
  for (const RepSample& s : traced) {
    demux.push_back(s.demux_p50_ns);
    mean.push_back(s.demux_mean_ns);
    first.push_back(s.first_demux_p50_ns);
    bind.push_back(s.bind_p50_ns);
    delivery_ns += s.probe_layer_ns[static_cast<size_t>(Layer::kDelivery)];
    popped += s.delivery_packets;
  }
  const double depth = traced.front().exact.at("n.mean_pending_events");
  const double demux_mean = Median(mean);
  out["pf.demux.ns_per_packet"] = demux_mean;
  out["pf.delivery.ns_per_packet"] = popped > 0 ? delivery_ns / static_cast<double>(popped) : 0;
  out["pf.bind.us_per_call"] = Median(bind) / 1000.0;
  out["pf.rebuild.us"] = (Median(first) - Median(demux)) / 1000.0;
  out["sim.sched_ns_per_event"] =
      ReplaySchedNsPerEvent(static_cast<size_t>(depth + 0.5), kSchedReplayEvents);
  out["link.fcs_ns_per_kB"] = ReplayFcsNsPerKB(wire, kFcsReplayBytes);
  const EngineReplay engine = ReplayEngine(walk, pf::Strategy::kFast, walk_frames);
  out["pf.engine.ns_per_pass"] = engine.ns_per_pass;
  out["pf.engine.ns_per_filter"] = engine.ns_per_filter;

  // Host-time estimates for the traffic phase, per layer.
  const RepSample& x = traced.front();
  const double reps = static_cast<double>(traced.size());
  std::map<std::string, double> layer_ns;
  layer_ns["sim"] = out["sim.sched_ns_per_event"] * x.exact.at("n.events") * reps;
  layer_ns["link"] = out["link.fcs_ns_per_kB"] * x.exact.at("n.wire_bytes") / 1024.0 * reps;
  layer_ns["pf.demux"] = demux_mean * x.exact.at("n.demuxed") * reps;
  layer_ns["pf.delivery"] = out["pf.delivery.ns_per_packet"] * x.exact.at("n.delivered") * reps;
  FinishShares(traced, layer_ns, x.exact.at("n.delivered") * reps, out);
}

// ---------------------------------------------------------------------------
// stack_small

constexpr size_t kStackPackets = 4000;
constexpr uint32_t kReaders = 32;
constexpr double kOfferedPps = 150;  // receiver capacity is ~300/s simulated
constexpr int64_t kTrafficStartNs = 1'000'000'000;
// A packet not read this long after the last send is lost.
constexpr int64_t kLossTimeoutNs = 5'000'000'000;

struct StackInputs {
  std::vector<pf::Program> programs;  // reader r binds programs[r]
  std::vector<pf::PacketBuf> frames;  // packet i (identifier = i)
  std::vector<uint32_t> reader_of;    // packet i's reader
  std::vector<int64_t> due_ns;        // packet i's send time, from traffic start
  std::vector<uint32_t> per_reader;   // packets each reader expects
  std::vector<pf::PacketBuf> reconfig_frames;  // one per reader
  Metrics mix;
};

StackInputs GenerateStackSmall(uint64_t seed) {
  StackInputs in;
  for (uint32_t r = 0; r < kReaders; ++r) {
    in.programs.push_back(pfnet::MakePupSocketFilter(0x300 + r, 10));
    in.reconfig_frames.push_back(PupFrame(0x300 + r, 0xfffffff0u, 0, 0));
  }
  in.per_reader.assign(kReaders, 0);
  Rng rng(seed);
  double t = 0;
  double bytes = 0;
  for (uint32_t i = 0; i < kStackPackets; ++i) {
    t += rng.Exponential(1e9 / kOfferedPps);
    const auto reader = static_cast<uint32_t>(rng.Below(kReaders));
    in.frames.push_back(PupFrame(0x300 + reader, i, 0, 0));
    in.reader_of.push_back(reader);
    in.due_ns.push_back(static_cast<int64_t>(t));
    ++in.per_reader[reader];
    bytes += static_cast<double>(in.frames.back().size());
  }
  const double n = static_cast<double>(kStackPackets);
  in.mix["distinct_flows"] = n;  // the identifier differs per packet
  in.mix["flow_repeat_share"] = 0;
  in.mix["unmatched_share"] = 0;
  in.mix["runt_share"] = 0;
  in.mix["mean_frame_bytes"] = bytes / n;
  in.mix["writes_per_kpkt"] = 0;
  in.mix["offered_sim_pps"] = n / (t / 1e9);
  return in;
}

class StackSmall : public Workload {
 public:
  explicit StackSmall(StackInputs inputs) : in_(std::move(inputs)) {}

  Metrics MixProperties() const override { return in_.mix; }

  RepSample RunRep(Tracer* tracer) override {
    RepSample s;
    Span rep_span(tracer, Layer::kRep);
    run_ = Run{};
    run_.tracer = tracer;
    run_.sample = &s;

    const double setup_start = ThreadCpuNs();
    pfsim::Simulator sim;
    pflink::EthernetSegment segment(&sim, pflink::LinkType::kExperimental3Mb);
    pfkern::Machine sender(&sim, &segment, pflink::MacAddr::Experimental(1),
                           pfkern::MicroVaxUltrixCosts(), "sender");
    pfkern::Machine receiver(&sim, &segment, pflink::MacAddr::Experimental(2),
                             pfkern::MicroVaxUltrixCosts(), "receiver");
    run_.ports.assign(kReaders, pf::kInvalidPort);
    {
      Span span(tracer, Layer::kSetup);
      for (uint32_t r = 0; r < kReaders; ++r) {
        sim.Spawn(Reader(&receiver, r));
      }
      sim.Spawn(Sender(&sender));
      StepUntil(sim, [&] { return sim.NowNanos() >= kTrafficStartNs; }, nullptr, nullptr);
    }
    s.setup_ns = ThreadCpuNs() - setup_start;
    if (run_.ready != kReaders) {
      s.violations.push_back("stack_small: readers not configured before traffic");
      return s;
    }

    // --- Traffic: the simulation runs to quiescence.
    receiver.ledger().Reset();
    const MachineMark mark = Mark(receiver);
    const uint64_t events_before = sim.events_executed();
    const uint64_t carried_before = segment.stats().frames_carried;
    const uint64_t wire_before = segment.stats().bytes_carried;
    const std::array<double, kLayerCount> spans_before =
        tracer != nullptr ? tracer->self_ns() : std::array<double, kLayerCount>{};
    double depth_sum = 0;
    uint64_t depth_samples = 0;
    const double traffic_start = ThreadCpuNs();
    {
      Span traffic(tracer, Layer::kTraffic);
      Span run(tracer, Layer::kSim);
      StepUntil(sim, [] { return false; }, &depth_sum, &depth_samples);
    }
    s.traffic_ns = ThreadCpuNs() - traffic_start;
    if (tracer != nullptr) {
      for (size_t l = 0; l < kLayerCount; ++l) {
        s.traffic_layer_ns[l] = tracer->self_ns()[l] - spans_before[l];
      }
    }
    s.attempted += kStackPackets;
    if (run_.sent != kStackPackets) {
      s.violations.push_back("stack_small: the sender did not finish");
    }
    CheckMachine(receiver, mark, s);
    const double delivered = static_cast<double>(std::max<uint64_t>(s.packets, 1));
    if (receiver.ledger().count(pfkern::Cost::kTimestamp) != s.packets ||
        receiver.copies() - mark.copies != s.packets) {
      s.violations.push_back("stack_small: timestamp/copy charges != packets read");
    }
    LedgerMetrics({&receiver}, {&mark}, delivered, s);
    s.exact["kernel.sim_latency_p99_us"] = Quantile(run_.latency_ns, 0.99) / 1000.0;
    s.exact["sim.events_per_packet"] =
        static_cast<double>(sim.events_executed() - events_before) / delivered;
    s.exact["link.frames_per_packet"] =
        static_cast<double>(segment.stats().frames_carried - carried_before) / delivered;
    s.exact["n.events"] = static_cast<double>(sim.events_executed() - events_before);
    s.exact["n.wire_bytes"] = static_cast<double>(segment.stats().bytes_carried - wire_before);
    s.exact["n.delivered"] = static_cast<double>(s.packets);
    s.exact["n.mean_pending_events"] =
        depth_samples > 0 ? depth_sum / static_cast<double>(depth_samples) : 0.0;
    s.exact["n.sender_late_max_us"] = static_cast<double>(run_.late_max_ns) / 1000.0;
    s.exact["n.stranded_reads"] = static_cast<double>(run_.stranded_reads);

    // --- Probe and writes on the receiver's live filter set.
    std::vector<pf::PortId> port_of(in_.frames.size());
    for (size_t i = 0; i < in_.frames.size(); ++i) {
      port_of[i] = run_.ports[in_.reader_of[i]];
    }
    pf::PacketFilter& core = receiver.pf().core();
    Probe(core, in_.frames, port_of, 64, tracer, s);
    for (size_t k = 0; k < kReconfigWrites; ++k) {
      const uint32_t r = static_cast<uint32_t>((k * 7) % kReaders);
      Reconfigure(core, run_.ports[r], in_.programs[r], in_.reconfig_frames[r], tracer, s);
    }
    return s;
  }

  void PerLayer(const std::vector<RepSample>& traced, Metrics& out) override {
    StackPerLayer(traced, in_.frames, in_.programs, in_.frames, out);
  }

 private:
  struct Run {
    Tracer* tracer = nullptr;
    RepSample* sample = nullptr;
    std::vector<pf::PortId> ports;
    uint32_t ready = 0;
    uint32_t sent = 0;
    int64_t late_max_ns = 0;
    uint64_t stranded_reads = 0;
    std::vector<double> latency_ns;
  };

  pfsim::Task Reader(pfkern::Machine* m, uint32_t r) {
    const int pid = m->NewPid();
    const pf::PortId port = co_await m->pf().Open(pid);
    co_await m->pf().SetFilter(pid, port, in_.programs[r]);
    pfkern::PacketFilterDevice::PortOptions options;
    options.batching = true;
    options.timestamps = true;
    options.queue_limit = 256;
    co_await m->pf().Configure(pid, port, options);
    run_.ports[r] = port;
    ++run_.ready;
    uint32_t got = 0;
    while (got < in_.per_reader[r]) {
      std::vector<pf::ReceivedPacket> packets =
          co_await m->pf().Read(pid, port, pfsim::Seconds(1));
      RepSample& s = *run_.sample;
      if (packets.empty()) {
        // A blocking read can time out while its port holds a packet whose
        // wakeup never came (counted as a stranded read); poll once more.
        packets = co_await m->pf().Read(pid, port, pfsim::Duration::zero());
        if (packets.empty()) {
          if (run_.sent == in_.frames.size() &&
              m->sim()->NowNanos() > kTrafficStartNs + in_.due_ns.back() + kLossTimeoutNs) {
            s.failed += in_.per_reader[r] - got;  // lost
            break;
          }
          continue;
        }
        ++run_.stranded_reads;
      }
      Span verify(run_.tracer, Layer::kVerify);
      const int64_t now_ns = m->sim()->NowNanos();
      for (const pf::ReceivedPacket& p : packets) {
        ++got;
        uint32_t seq = UINT32_MAX;
        if (p.bytes.size() >= 12) {
          seq = (uint32_t{p.bytes[8]} << 24) | (uint32_t{p.bytes[9]} << 16) |
                (uint32_t{p.bytes[10]} << 8) | uint32_t{p.bytes[11]};
        }
        if (seq < in_.frames.size() && in_.reader_of[seq] == r && p.bytes == in_.frames[seq]) {
          ++s.packets;
          s.bytes += p.bytes.size();
          run_.latency_ns.push_back(static_cast<double>(now_ns) -
                                    static_cast<double>(p.timestamp_ns));
        } else {
          ++s.failed;  // misdelivered or corrupted
        }
      }
    }
  }

  pfsim::Task Sender(pfkern::Machine* m) {
    const int pid = m->NewPid();
    pfsim::Simulator* sim = m->sim();
    for (size_t i = 0; i < in_.frames.size(); ++i) {
      const int64_t due = kTrafficStartNs + in_.due_ns[i];
      const int64_t now = sim->NowNanos();
      if (now < due) {
        co_await sim->Delay(pfsim::Nanoseconds(due - now));
      } else {
        run_.late_max_ns = std::max(run_.late_max_ns, now - due);
      }
      co_await m->pf().Write(pid, in_.frames[i]);
      ++run_.sent;
    }
  }

  StackInputs in_;
  Run run_;
};

// ---------------------------------------------------------------------------
// vmtp_bulk

constexpr uint32_t kServerId = 0x5eef;
constexpr uint32_t kClientId = 0xc11e;
constexpr size_t kFileBytes = 65536;
constexpr size_t kTransactions = 64;
constexpr size_t kMinRead = 12288;
constexpr size_t kMaxRead = 16384;

struct VmtpInputs {
  std::vector<uint8_t> file;
  struct Read {
    uint32_t offset;
    uint32_t length;
  };
  std::vector<Read> reads;
  // Frames a transaction puts on the wire, rebuilt with the VMTP codec for
  // the replays: requests (to the server's port), responses (to the client's).
  std::vector<pf::PacketBuf> requests;
  std::vector<pf::PacketBuf> responses;
  std::vector<pf::Program> client_walk;
  Metrics mix;
};

std::vector<uint8_t> RequestBytes(const VmtpInputs::Read& read) {
  std::vector<uint8_t> out = {'R'};
  for (const uint32_t v : {read.offset, read.length}) {
    for (int shift = 24; shift >= 0; shift -= 8) {
      out.push_back(static_cast<uint8_t>(v >> shift));
    }
  }
  return out;
}

pf::PacketBuf VmtpFrame(pflink::MacAddr dst, pflink::MacAddr src, const pfproto::VmtpHeader& h,
                        std::span<const uint8_t> data) {
  pflink::LinkHeader link;
  link.dst = dst;
  link.src = src;
  link.ether_type = pfproto::kEtherTypeVmtp;
  return pflink::BuildFrame(pflink::LinkType::kEthernet10Mb, link, pfproto::BuildVmtp(h, data))
      ->bytes;
}

const pflink::MacAddr kClientMac = pflink::MacAddr::Dix(8, 0, 0, 0, 0, 1);
const pflink::MacAddr kServerMac = pflink::MacAddr::Dix(8, 0, 0, 0, 0, 2);

VmtpInputs GenerateVmtpBulk(uint64_t seed) {
  VmtpInputs in;
  Rng rng(seed);
  for (size_t i = 0; i < kFileBytes; ++i) {
    in.file.push_back(static_cast<uint8_t>(rng.Next()));
  }
  double bytes = 0;
  size_t frames = 0;
  for (size_t t = 0; t < kTransactions; ++t) {
    VmtpInputs::Read read;
    read.length = static_cast<uint32_t>(kMinRead + rng.Below(kMaxRead - kMinRead + 1));
    read.offset = static_cast<uint32_t>(rng.Below(kFileBytes - read.length + 1));
    in.reads.push_back(read);

    pfproto::VmtpHeader h;
    h.client = kClientId;
    h.server = kServerId;
    h.transaction = static_cast<uint32_t>(t + 2);  // after the warm-up
    h.func = pfproto::VmtpFunc::kRequest;
    const std::vector<uint8_t> request = RequestBytes(read);
    h.packet_count = 1;
    h.data_bytes = static_cast<uint16_t>(request.size());
    h.segment_bytes = static_cast<uint32_t>(request.size());
    in.requests.push_back(VmtpFrame(kServerMac, kClientMac, h, request));
    h.func = pfproto::VmtpFunc::kResponse;
    h.segment_bytes = read.length;
    h.packet_count = static_cast<uint16_t>((read.length + pfproto::kVmtpMaxPacketData - 1) /
                                           pfproto::kVmtpMaxPacketData);
    for (uint16_t k = 0; k < h.packet_count; ++k) {
      const size_t off = static_cast<size_t>(k) * pfproto::kVmtpMaxPacketData;
      const size_t n = std::min(pfproto::kVmtpMaxPacketData, size_t{read.length} - off);
      h.packet_index = k;
      h.data_bytes = static_cast<uint16_t>(n);
      in.responses.push_back(VmtpFrame(
          kClientMac, kServerMac, h,
          std::span<const uint8_t>(in.file.data() + read.offset + off, n)));
      bytes += static_cast<double>(in.responses.back().size());
    }
    bytes += static_cast<double>(in.requests.back().size());
    frames += 1 + h.packet_count;
  }
  in.client_walk.push_back(pfnet::MakeVmtpClientFilter(kClientId, 12));
  in.mix["distinct_flows"] = 2;  // one client, one server entity
  in.mix["flow_repeat_share"] = 1.0 - 2.0 / static_cast<double>(frames);
  in.mix["unmatched_share"] = 0;
  in.mix["runt_share"] = 0;
  in.mix["mean_frame_bytes"] = bytes / static_cast<double>(frames);
  in.mix["writes_per_kpkt"] = 0;
  in.mix["offered_sim_pps"] = 0;  // closed loop: the offered rate is the served rate
  return in;
}

class VmtpBulk : public Workload {
 public:
  explicit VmtpBulk(VmtpInputs inputs) : in_(std::move(inputs)) {}

  Metrics MixProperties() const override { return in_.mix; }

  RepSample RunRep(Tracer* tracer) override {
    RepSample s;
    Span rep_span(tracer, Layer::kRep);
    run_ = Run{};
    run_.tracer = tracer;
    run_.sample = &s;

    const double setup_start = ThreadCpuNs();
    pfsim::Simulator sim;
    pflink::EthernetSegment segment(&sim, pflink::LinkType::kEthernet10Mb);
    pfkern::Machine client(&sim, &segment, kClientMac, pfkern::MicroVaxUltrixCosts(), "client");
    pfkern::Machine server(&sim, &segment, kServerMac, pfkern::MicroVaxUltrixCosts(), "server");
    run_.client_machine = &client;
    run_.server_machine = &server;
    {
      Span span(tracer, Layer::kSetup);
      sim.Spawn(ClientTask());
      StepUntil(sim, [&] { return run_.ready; }, nullptr, nullptr);
    }
    s.setup_ns = ThreadCpuNs() - setup_start;
    if (!run_.ready) {
      s.violations.push_back("vmtp_bulk: endpoints not ready");
      return s;
    }

    const uint64_t events_before = sim.events_executed();
    const uint64_t carried_before = segment.stats().frames_carried;
    const uint64_t wire_before = segment.stats().bytes_carried;
    const std::array<double, kLayerCount> spans_before =
        tracer != nullptr ? tracer->self_ns() : std::array<double, kLayerCount>{};
    double depth_sum = 0;
    uint64_t depth_samples = 0;
    const double traffic_start = ThreadCpuNs();
    {
      Span traffic(tracer, Layer::kTraffic);
      Span run(tracer, Layer::kSim);
      StepUntil(sim, [&] { return run_.done; }, &depth_sum, &depth_samples);
    }
    s.traffic_ns = ThreadCpuNs() - traffic_start;
    if (tracer != nullptr) {
      for (size_t l = 0; l < kLayerCount; ++l) {
        s.traffic_layer_ns[l] = tracer->self_ns()[l] - spans_before[l];
      }
    }
    if (!run_.done) {
      s.violations.push_back("vmtp_bulk: the client did not finish");
      return s;
    }
    // Frames delivered to the two user-level endpoints during the bulk phase.
    const pfnet::UserVmtpStats& cs = run_.client->stats();
    const pfnet::UserVmtpStats& ss = run_.server->stats();
    const uint64_t frames_in = (cs.packets_received - run_.client_mark.packets_received) +
                               (ss.packets_received - run_.server_mark.packets_received);
    const uint64_t reads = (cs.reads - run_.client_mark.reads) + (ss.reads - run_.server_mark.reads);
    s.packets = frames_in;
    const double delivered = static_cast<double>(std::max<uint64_t>(frames_in, 1));
    LedgerMetrics({&client, &server}, {&run_.client_pf_mark, &run_.server_pf_mark}, delivered, s);
    // Let the server's idle read time out, so every process ends inside
    // this simulation.
    StepUntil(sim, [] { return false; }, nullptr, nullptr);
    CheckMachine(client, run_.client_pf_mark, s);
    CheckMachine(server, run_.server_pf_mark, s);
    s.exact["net.sim_goodput_kBps"] =
        static_cast<double>(s.bytes) / 1024.0 / (static_cast<double>(run_.bulk_sim_ns) / 1e9);
    s.exact["net.vmtp.reads_per_packet"] = static_cast<double>(reads) / delivered;
    s.exact["net.vmtp.retransmits"] = static_cast<double>(cs.retransmits + ss.retransmits);
    s.exact["sim.events_per_packet"] =
        static_cast<double>(run_.bulk_events - events_before) / delivered;
    s.exact["link.frames_per_packet"] =
        static_cast<double>(run_.bulk_carried - carried_before) / delivered;
    s.exact["n.events"] = static_cast<double>(run_.bulk_events - events_before);
    s.exact["n.wire_bytes"] = static_cast<double>(run_.bulk_wire - wire_before);
    s.exact["n.delivered"] = static_cast<double>(frames_in);
    s.exact["n.mean_pending_events"] =
        depth_samples > 0 ? depth_sum / static_cast<double>(depth_samples) : 0.0;
    s.exact["n.verified_bytes"] = static_cast<double>(s.bytes);

    // --- Probe and writes on both endpoints' live filter sets.
    pf::PacketFilter& server_core = server.pf().core();
    pf::PacketFilter& client_core = client.pf().core();
    const pf::PortId server_port = server_core.Ports().front();
    const pf::PortId client_port = client_core.Ports().front();
    // The client's port queue holds five packets (src/net/vmtp.cc).
    Probe(server_core, in_.requests, std::vector<pf::PortId>(in_.requests.size(), server_port),
          4, tracer, s);
    Probe(client_core, in_.responses, std::vector<pf::PortId>(in_.responses.size(), client_port),
          4, tracer, s);
    for (size_t k = 0; k < kReconfigWrites; ++k) {
      Reconfigure(client_core, client_port, in_.client_walk.front(),
                  in_.responses[k % in_.responses.size()], tracer, s);
    }
    return s;
  }

  void PerLayer(const std::vector<RepSample>& traced, Metrics& out) override {
    std::vector<pf::PacketBuf> wire = in_.requests;
    wire.insert(wire.end(), in_.responses.begin(), in_.responses.end());
    StackPerLayer(traced, wire, in_.client_walk, in_.responses, out);
  }

 private:
  struct Run {
    Tracer* tracer = nullptr;
    RepSample* sample = nullptr;
    pfkern::Machine* client_machine = nullptr;
    pfkern::Machine* server_machine = nullptr;
    std::unique_ptr<pfnet::UserVmtpClient> client;
    std::unique_ptr<pfnet::UserVmtpServer> server;
    bool ready = false;
    bool done = false;
    pfnet::UserVmtpStats client_mark;
    pfnet::UserVmtpStats server_mark;
    MachineMark client_pf_mark;
    MachineMark server_pf_mark;
    int64_t bulk_sim_ns = 0;
    uint64_t bulk_events = 0;
    uint64_t bulk_carried = 0;
    uint64_t bulk_wire = 0;
  };

  // The user-level file server: 'R' + offset + length reads the cached file.
  pfsim::Task FileServer(int pid) {
    pfnet::UserVmtpServer* server = run_.server.get();
    for (;;) {
      std::optional<pfkern::VmtpRequest> request =
          co_await server->ReceiveRequest(pid, pfsim::Seconds(10));
      if (!request.has_value()) {
        co_return;
      }
      std::vector<uint8_t> response;
      const std::vector<uint8_t>& d = request->data;
      if (d.size() == 9 && d[0] == 'R') {
        const uint32_t offset = (uint32_t{d[1]} << 24) | (uint32_t{d[2]} << 16) |
                                (uint32_t{d[3]} << 8) | uint32_t{d[4]};
        const uint32_t length = (uint32_t{d[5]} << 24) | (uint32_t{d[6]} << 16) |
                                (uint32_t{d[7]} << 8) | uint32_t{d[8]};
        if (offset <= in_.file.size() && length <= in_.file.size() - offset) {
          response.assign(in_.file.begin() + offset, in_.file.begin() + offset + length);
        }
      }
      co_await server->SendResponse(pid, *request, std::move(response));
    }
  }

  pfsim::Task ClientTask() {
    pfkern::Machine* client = run_.client_machine;
    pfkern::Machine* server = run_.server_machine;
    pfsim::Simulator* sim = client->sim();
    const int pid = client->NewPid();
    const int server_pid = server->NewPid();
    run_.server = co_await pfnet::UserVmtpServer::Create(server, server_pid, kServerId, true);
    sim->Spawn(FileServer(server_pid));
    run_.client = co_await pfnet::UserVmtpClient::Create(client, pid, kClientId, true);
    RepSample& s = *run_.sample;
    // Warm-up: a zero-length transaction, the first pass through both
    // endpoints' filters.
    ++s.attempted;
    std::vector<uint8_t> warm_up(1, 'Z');
    if (!co_await run_.client->Transact(pid, kServerMac, kServerId, std::move(warm_up),
                                        pfsim::Seconds(5))) {
      ++s.failed;
    }
    run_.ready = true;
    co_await sim->Delay(pfsim::Nanoseconds(1));  // hand control back to set-up

    client->ledger().Reset();
    server->ledger().Reset();
    run_.client_mark = run_.client->stats();
    run_.server_mark = run_.server->stats();
    run_.client_pf_mark = Mark(*client);
    run_.server_pf_mark = Mark(*server);
    const int64_t start_ns = sim->NowNanos();
    for (const VmtpInputs::Read& read : in_.reads) {
      ++s.attempted;
      const std::optional<std::vector<uint8_t>> response = co_await run_.client->Transact(
          pid, kServerMac, kServerId, RequestBytes(read), pfsim::Seconds(5));
      Span verify(run_.tracer, Layer::kVerify);
      if (response.has_value() && response->size() == read.length &&
          std::memcmp(response->data(), in_.file.data() + read.offset, read.length) == 0) {
        s.bytes += read.length;
      } else {
        ++s.failed;  // failed transaction or corrupted payload
      }
    }
    run_.bulk_sim_ns = sim->NowNanos() - start_ns;
    run_.bulk_events = sim->events_executed();
    run_.bulk_carried = run_.client_machine->segment()->stats().frames_carried;
    run_.bulk_wire = run_.client_machine->segment()->stats().bytes_carried;
    run_.done = true;
  }

  VmtpInputs in_;
  Run run_;
};

}  // namespace

std::unique_ptr<Workload> MakeStackSmall(uint64_t seed) {
  return std::make_unique<StackSmall>(GenerateStackSmall(seed));
}

std::unique_ptr<Workload> MakeVmtpBulk(uint64_t seed) {
  return std::make_unique<VmtpBulk>(GenerateVmtpBulk(seed));
}

}  // namespace pfperf
