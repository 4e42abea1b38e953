#include "src/kernel/pf_device.h"

#include <algorithm>
#include <array>

#include "src/kernel/machine.h"
#include "src/pf/disasm.h"

namespace pfkern {

PacketFilterDevice::PacketFilterDevice(Machine* machine) : machine_(machine) {
  // Populate the §3.3 device-information block from the link the device
  // sits on.
  const pflink::LinkProperties& props = machine_->link_properties();
  pf::DeviceInfo info;
  info.datalink_type = static_cast<uint16_t>(props.type);
  info.addr_len = props.addr_len;
  info.header_len = static_cast<uint8_t>(props.header_len);
  info.max_packet = props.header_len + props.mtu;
  info.local_addr = machine_->link_addr().bytes;
  info.broadcast_addr = props.broadcast.bytes;
  filter_.set_device_info(info);

  pfobs::MetricsRegistry& registry = machine_->metrics();
  registry.Expose("pfdev.reads", &reads_);
  registry.Expose("pfdev.read_packets", &read_packets_);
  registry.Expose("pfdev.writes", &writes_);
  registry.Expose("pfdev.wakeups", &wakeups_);
  registry.Expose("pfdev.ring.posts", &ring_posts_);
  registry.Expose("pfdev.ring.reaped", &ring_reaped_);
  registry.Expose("pfdev.ring.tx_posts", &ring_tx_posts_);
  for (const pf::Strategy strategy : pf::kAllStrategies) {
    filter_eval_hist_[static_cast<size_t>(strategy)] =
        registry.histogram("pf.filter_eval." + pf::ToString(strategy));
  }
  ring_post_hist_ = registry.histogram("pf.ring.post");
  ring_reap_hist_ = registry.histogram("pf.ring.reap");
  demux_latency_hist_ = registry.histogram("pf.demux.latency");

  // The kernel device always flies with its recorder on: losses are rare
  // enough that a bounded ring of recent drops costs nothing measurable,
  // and it is the only way to diagnose them after the fact.
  filter_.SetFlightRecorder(kFlightRecorderDepth);
}

PacketFilterDevice::PortExtra* PacketFilterDevice::Extra(pf::PortId port) {
  const auto it = extras_.find(port);
  return it == extras_.end() ? nullptr : it->second.get();
}

void PacketFilterDevice::SetRingDelivery(size_t slots) {
  ring_slots_ = slots;
  if (slots > 0) {
    for (const auto& entry : extras_) {
      filter_.SetQueueLimit(entry.first, slots);  // the descriptor ring's depth
    }
  }
}

void PacketFilterDevice::Sleep::await_suspend(std::coroutine_handle<> handle) {
  sleeper.handle = handle;
  for (const pf::PortId port : ports) {
    if (PortExtra* extra = device->Extra(port)) {
      extra->sleepers.push_back(&sleeper);
    }
  }
  if (timeout != pfsim::kForever) {
    sleeper.timer = device->machine_->sim()->ScheduleResume(timeout, handle);
  }
}

void PacketFilterDevice::Sleep::await_resume() {
  for (const pf::PortId port : ports) {
    if (PortExtra* extra = device->Extra(port)) {
      std::erase(extra->sleepers, &sleeper);
    }
  }
}

void PacketFilterDevice::Ring(PortExtra& extra) {
  for (Sleeper* sleeper : extra.sleepers) {
    if (!sleeper->settled) {  // else rung through another port, not yet resumed
      sleeper->settled = true;
      machine_->sim()->Cancel(sleeper->timer);
      machine_->sim()->ScheduleResume(pfsim::Duration(0), sleeper->handle);
    }
  }
  extra.sleepers.clear();
}

pfsim::ValueTask<pf::PortId> PacketFilterDevice::Open(int pid) {
  co_await machine_->Run(pid, Cost::kSyscall, machine_->costs().syscall);
  const pf::PortId port = filter_.OpenPort();
  if (ring_slots_ > 0) {
    filter_.SetQueueLimit(port, ring_slots_);
  }
  extras_.emplace(port, std::make_unique<PortExtra>());
  co_return port;
}

pfsim::ValueTask<void> PacketFilterDevice::Close(int pid, pf::PortId port) {
  co_await machine_->Run(pid, Cost::kSyscall, machine_->costs().syscall);
  if (PortExtra* extra = Extra(port)) {
    Ring(*extra);  // its sleepers wake to find the port gone
  }
  filter_.ClosePort(port);
  extras_.erase(port);
}

pfsim::ValueTask<pf::ValidationResult> PacketFilterDevice::SetFilter(int pid, pf::PortId port,
                                                                     pf::Program program) {
  // ioctl: crossing plus copy-in of the program words (§3: "at a cost
  // comparable to that of receiving a packet").
  const size_t program_bytes = program.words.size() * 2;
  const Machine::Charge charges[] = {{Cost::kSyscall, machine_->costs().syscall},
                                     machine_->CopyCharge(program_bytes)};
  co_await machine_->RunMulti(pid, charges);
  co_return filter_.SetFilter(port, std::move(program));
}

pfsim::ValueTask<void> PacketFilterDevice::Configure(int pid, pf::PortId port,
                                                     PortOptions options) {
  co_await machine_->Run(pid, Cost::kSyscall, machine_->costs().syscall);
  PortExtra* extra = Extra(port);
  if (extra == nullptr) {
    co_return;
  }
  if (options.deliver_to_lower.has_value()) {
    filter_.SetDeliverToLower(port, *options.deliver_to_lower);
  }
  if (options.timestamps.has_value()) {
    filter_.SetTimestamps(port, *options.timestamps);
  }
  if (options.batching.has_value()) {
    extra->batching = *options.batching;
  }
  if (options.queue_limit.has_value() && ring_slots_ == 0) {
    // On a ring device the descriptor ring *is* the input queue: its depth
    // (SetRingDelivery slots) governs, and the legacy mbuf-queue limit does
    // not apply.
    filter_.SetQueueLimit(port, *options.queue_limit);
  }
}

pfsim::ValueTask<std::vector<pf::ReceivedPacket>> PacketFilterDevice::Read(
    int pid, pf::PortId port, pfsim::Duration timeout) {
  pfobs::TraceSession* trace = machine_->trace();
  const int64_t read_start_ns = trace != nullptr ? machine_->sim()->NowNanos() : 0;
  ++reads_;
  // On a ring device a read is a reap (DESIGN.md §13): it crosses into the
  // kernel only to sleep on an empty ring, and reaps descriptors instead of
  // copying packets out.
  const bool ring = ring_slots_ > 0;
  bool crossed = !ring;
  if (!ring) {
    co_await machine_->Run(pid, Cost::kSyscall, machine_->costs().syscall);
  }

  const bool forever = timeout == pfsim::kForever;
  const pfsim::TimePoint deadline = pfsim::DeadlineAfter(machine_->sim(), timeout);
  std::vector<pf::ReceivedPacket> out;
  for (;;) {
    // Every suspension (the crossing, a sleep) may have closed the port.
    PortExtra* extra = Extra(port);
    if (extra == nullptr) {
      co_return out;
    }
    if (extra->batching) {
      out = filter_.PopBatch(port, kMaxBatch);
    } else if (auto packet = filter_.Pop(port)) {
      out.push_back(std::move(*packet));
    }
    if (!out.empty()) {
      extra->had_queued = filter_.QueueLength(port) > 0;  // SIGIO edge re-arm
      break;
    }
    if (timeout.count() == 0) {
      // Non-blocking poll (§3.3 "immediate return"); an empty ring polls
      // for free: no crossing, no copy.
      co_return out;
    }
    const pfsim::Duration remaining =
        forever ? pfsim::kForever : deadline - machine_->sim()->Now();
    if (!forever && remaining.count() <= 0) {
      // The only timeout exit, reached after one more pop: a packet queued
      // but not yet rung at the deadline is still returned.
      co_return out;  // §3: "the read call terminates and reports an error"
    }
    if (!crossed) {
      // The one crossing ring mode cannot avoid: going to sleep on an empty
      // ring is a syscall. A reaper that keeps up never pays it. A packet
      // queued during the crossing (no sleeper to ring) is the next pop's.
      crossed = true;
      co_await machine_->Run(pid, Cost::kSyscall, machine_->costs().syscall);
      machine_->MarkBlocked(pid);
      continue;
    }
    machine_->MarkBlocked(pid);
    co_await Sleep{this, std::span<const pf::PortId>(&port, 1), remaining};
  }

  // Copy each packet out to the process (§3.3's optional timestamping was
  // already charged at demux time) — or, on a ring, reap its descriptor:
  // a consumer-index update, no copy. The ReceivedPacket's PacketBuf view
  // is the mapped descriptor.
  std::array<Machine::Charge, kMaxBatch> charges;  // `out` holds at most kMaxBatch
  for (size_t i = 0; i < out.size(); ++i) {
    if (ring) {
      charges[i] = {Cost::kRingReap, machine_->costs().ring_reap};
      ring_reap_hist_->Record(machine_->costs().ring_reap.count());
    } else {
      charges[i] = machine_->CopyCharge(out[i].bytes.size());
    }
  }
  co_await machine_->RunMulti(pid, std::span(charges.data(), out.size()));
  if (ring) {
    ring_reaped_ += out.size();
  }
  read_packets_ += out.size();
  if (trace != nullptr) {
    const int64_t now_ns = machine_->sim()->NowNanos();
    const int track = machine_->trace_track();
    trace->Complete(track, "pf", ring ? "pf.reap" : "pf.read", read_start_ns, now_ns,
                    {{"packets", static_cast<int64_t>(out.size())},
                     {"port", static_cast<int64_t>(port)}});
    // Each packet's journey ends here: delivered into the user's buffer.
    for (const pf::ReceivedPacket& packet : out) {
      if (packet.flow_id != 0) {
        trace->Flow(pfobs::Phase::kFlowEnd, track, now_ns, packet.flow_id);
      }
    }
  }
  co_return out;
}

pfsim::ValueTask<bool> PacketFilterDevice::Write(int pid, std::vector<uint8_t> frame_bytes) {
  return Write(pid, pf::PacketBuf(std::move(frame_bytes)));
}

pfsim::ValueTask<bool> PacketFilterDevice::Write(int pid, pf::PacketBuf frame) {
  pfobs::TraceSession* trace = machine_->trace();
  const int64_t start_ns = trace != nullptr ? machine_->sim()->NowNanos() : 0;
  const int64_t bytes = static_cast<int64_t>(frame.size());
  ++writes_;
  const Machine::Charge charges[] = {{Cost::kSyscall, machine_->costs().syscall},
                                     TxCharge(frame.size())};
  co_await machine_->RunMulti(pid, charges);
  const bool sent = co_await machine_->TransmitBuf(pid, std::move(frame));
  if (trace != nullptr) {
    trace->Complete(machine_->trace_track(), "pf", "pf.write", start_ns,
                    machine_->sim()->NowNanos(),
                    {{"bytes", bytes}, {"sent", sent ? 1 : 0}});
  }
  co_return sent;
}

Machine::Charge PacketFilterDevice::TxCharge(size_t bytes) {
  if (ring_slots_ > 0) {
    // TX ring: the frame's block is already mapped into both domains, so
    // write() posts a descriptor instead of copying into a kernel buffer.
    ++ring_tx_posts_;
    ring_post_hist_->Record(machine_->costs().ring_post.count());
    return {Cost::kRingPost, machine_->costs().ring_post};
  }
  return machine_->CopyCharge(bytes);
}

pfsim::ValueTask<size_t> PacketFilterDevice::WriteMany(int pid,
                                                       std::vector<std::vector<uint8_t>> frames) {
  std::vector<Machine::Charge> charges;
  charges.emplace_back(Cost::kSyscall, machine_->costs().syscall);
  for (const auto& frame : frames) {
    charges.emplace_back(TxCharge(frame.size()));
  }
  co_await machine_->RunMulti(pid, charges);
  size_t accepted = 0;
  for (auto& frame : frames) {
    if (co_await machine_->TransmitRaw(pid, std::move(frame))) {
      ++accepted;
    }
  }
  co_return accepted;
}

void PacketFilterDevice::SetSignal(pf::PortId port, std::function<void()> handler) {
  if (PortExtra* extra = Extra(port)) {
    extra->signal_handler = std::move(handler);
  }
}

pfsim::ValueTask<pf::PortId> PacketFilterDevice::Select(int pid, std::vector<pf::PortId> ports,
                                                        pfsim::Duration timeout) {
  co_await machine_->Run(pid, Cost::kSyscall, machine_->costs().syscall);
  const bool forever = timeout == pfsim::kForever;
  const pfsim::TimePoint deadline = pfsim::DeadlineAfter(machine_->sim(), timeout);
  // The caller sleeps on every port's list; a ring on any of them, or the
  // timer, wakes it to re-scan (4.3BSD's selwakeup scheme).
  for (;;) {
    for (const pf::PortId port : ports) {
      if (Extra(port) == nullptr) {
        co_return pf::kInvalidPort;
      }
      if (filter_.QueueLength(port) > 0) {
        co_return port;
      }
    }
    const pfsim::Duration remaining =
        forever ? pfsim::kForever : deadline - machine_->sim()->Now();
    if (timeout.count() == 0 || (!forever && remaining.count() <= 0)) {
      co_return pf::kInvalidPort;
    }
    machine_->MarkBlocked(pid);
    co_await Sleep{this, ports, remaining};
  }
}

pf::DeviceInfo PacketFilterDevice::GetDeviceInfo() const { return filter_.device_info(); }

pfsim::ValueTask<void> PacketFilterDevice::SetProfiling(int pid, bool enabled) {
  co_await machine_->Run(pid, Cost::kSyscall, machine_->costs().syscall);
  filter_.SetProfiling(enabled);
}

pfsim::ValueTask<void> PacketFilterDevice::EnableConnTracking(int pid,
                                                              pf::ConnDB::Config config) {
  co_await machine_->Run(pid, Cost::kSyscall, machine_->costs().syscall);
  filter_.EnableConnTracking(config);
}

pfsim::ValueTask<void> PacketFilterDevice::AttachExtension(
    int pid, pf::PortId port, std::unique_ptr<pf::PortExtension> extension) {
  co_await machine_->Run(pid, Cost::kSyscall, machine_->costs().syscall);
  filter_.AttachExtension(port, std::move(extension));
}

void PacketFilterDevice::ArmConnGc() {
  if (conn_gc_armed_ || filter_.conndb() == nullptr) {
    return;
  }
  conn_gc_armed_ = true;
  machine_->sim()->Schedule(conn_gc_interval_, [this] { ConnGcTick(); });
}

void PacketFilterDevice::ConnGcTick() {
  conn_gc_armed_ = false;
  pf::ConnDB* db = filter_.conndb();
  if (db == nullptr) {
    return;
  }
  db->GcSweep(static_cast<uint64_t>(machine_->sim()->NowNanos()));
  // Worker context: the sweep's CPU is charged straight to the ledger (one
  // kConnGc per sweep, so ledger.conn_gc.charges == pf.conn.gc.sweeps —
  // micro_flood reconciles this bit-exactly).
  machine_->ledger().Charge(Cost::kConnGc, machine_->costs().conn_gc_sweep);
  // Keep sweeping while any state remains; disarm when the table drains so
  // the simulator's event queue can run dry.
  if (db->live() > 0) {
    ArmConnGc();
  }
}

const pf::ProgramProfile* PacketFilterDevice::Profile(pf::PortId port) const {
  return filter_.Profile(port);
}

std::string PacketFilterDevice::ProfileDump(pf::PortId port) const {
  const pf::ValidatedProgram* program = filter_.engine().Find(port);
  const pf::ProgramProfile* profile = filter_.Profile(port);
  if (program == nullptr || profile == nullptr) {
    return std::string();
  }
  return pf::DisassembleAnnotated(*program, *profile, machine_->costs().filter_insn.count());
}

pfsim::ValueTask<void> PacketFilterDevice::HandlePacket(const pf::PacketBuf& packet,
                                                        uint64_t timestamp_ns, uint64_t flow_id) {
  pfobs::TraceSession* trace = machine_->trace();
  const int64_t demux_start_ns = machine_->sim()->NowNanos();
  // The PacketBuf overload: every delivered copy is a refcount bump on the
  // frame's block, not a byte copy.
  const pf::DemuxResult result = filter_.Demux(packet, timestamp_ns, flow_id);
  // The ports to wake, copied before the first suspension: the next frame's
  // Demux reuses the core's list while this frame's charges run. A few fit
  // in this frame; only a copy-all demux reaching more spills to the heap.
  std::array<pf::PortId, 4> inline_ports;
  std::vector<pf::PortId> spilled_ports;
  std::span<const pf::PortId> reached = filter_.enqueued();
  if (reached.size() <= inline_ports.size()) {
    reached = {inline_ports.begin(),
               std::copy(reached.begin(), reached.end(), inline_ports.begin())};
  } else {
    spilled_ports.assign(reached.begin(), reached.end());
    reached = spilled_ports;
  }

  // Charge the interpretation + bookkeeping before waking any reader.
  std::array<Machine::Charge, 6> charges;  // at most one per category below
  size_t n = 0;
  const pfsim::Duration filter_cost = machine_->costs().FilterCost(result.exec);
  if (filter_cost.count() > 0) {
    charges[n++] = {Cost::kFilterEval, filter_cost};
    // Same condition as the Ledger charge above, so this histogram's sum
    // reconciles exactly with ledger.filter_eval.total_ns.
    filter_eval_hist_[static_cast<size_t>(filter_.strategy())]->Record(filter_cost.count());
  }
  const pfsim::Duration index_cost =
      machine_->costs().index_probe * static_cast<int64_t>(result.exec.index_probes);
  if (index_cost.count() > 0) {
    charges[n++] = {Cost::kIndexProbe, index_cost};
  }
  if (result.conn_lookup) {
    // One kConnDb charge per consulting packet (lookup, plus the establish
    // a miss performs under the same CPU acquisition), so
    // ledger.conn_db.charges == pf.conn.lookups bit-exactly.
    charges[n++] = {Cost::kConnDb, machine_->costs().conn_lookup};
  }
  if (result.deliveries > 0) {
    charges[n++] = {Cost::kPfBookkeeping, machine_->costs().pf_bookkeeping * result.deliveries};
    // §7: each timestamp costs a microtime() call.
    if (result.stamped > 0) {
      charges[n++] = {Cost::kTimestamp, machine_->costs().timestamp * result.stamped};
    }
    if (ring_slots_ > 0) {
      // Ring delivery: publish one mapped descriptor per copy (producer
      // index update) — the bytes themselves never move again.
      charges[n++] = {Cost::kRingPost, machine_->costs().ring_post * result.deliveries};
      ring_posts_ += result.deliveries;
      for (uint32_t i = 0; i < result.deliveries; ++i) {
        ring_post_hist_->Record(machine_->costs().ring_post.count());
      }
    }
  }
  if (n > 0) {
    co_await machine_->RunMulti(Machine::kInterruptContext, std::span(charges.data(), n));
  }
  const int64_t demux_latency_ns = machine_->sim()->NowNanos() - demux_start_ns;
  demux_latency_hist_->Record(demux_latency_ns);
  // Arm the conndb GC worker whenever tracked state exists (idempotent; the
  // worker disarms itself once the table drains).
  if (const pf::ConnDB* db = filter_.conndb(); db != nullptr && db->live() > 0) {
    ArmConnGc();
  }
  // Per-flow latency: the demux already keyed this packet's flow signature
  // when flow accounting is on; fold the same simulated latency sample in,
  // so pf.flow.latency.count/sum reconcile exactly with pf.demux.latency.
  if (pfobs::FlowTable* flows = filter_.flow_stats();
      flows != nullptr && result.flow_sig != 0) {
    flows->RecordLatency(result.flow_sig, demux_latency_ns);
  }
  if (trace != nullptr) {
    trace->Complete(machine_->trace_track(), "pf", "pf.demux", demux_start_ns,
                    machine_->sim()->NowNanos(),
                    {{"deliveries", static_cast<int64_t>(result.deliveries)},
                     {"drops", static_cast<int64_t>(result.drops)},
                     {"insns", static_cast<int64_t>(result.exec.insns_executed)},
                     {"flow", static_cast<int64_t>(flow_id)}});
  }

  // Now wake the sleepers of every port this frame reached.
  if (!reached.empty()) {
    wakeups_ += reached.size();
    if (trace != nullptr) {
      trace->Instant(machine_->trace_track(), "pf", "pf.wakeup",
                     machine_->sim()->NowNanos(),
                     {{"readers", static_cast<int64_t>(reached.size())}});
    }
  }
  for (const pf::PortId port : reached) {
    if (PortExtra* extra = Extra(port)) {
      Ring(*extra);
      if (extra->signal_handler && !extra->had_queued) {
        extra->signal_handler();  // SIGIO edge: queue went non-empty
      }
      extra->had_queued = filter_.QueueLength(port) > 0;
    }
  }
}

}  // namespace pfkern
