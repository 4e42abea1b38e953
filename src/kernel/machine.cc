#include "src/kernel/machine.h"

#include "src/kernel/pf_device.h"
#include "src/obs/flow_stats.h"

namespace pfkern {

Machine::Machine(pfsim::Simulator* sim, pflink::EthernetSegment* segment, pflink::MacAddr addr,
                 CostModel costs, std::string name)
    : sim_(sim),
      segment_(segment),
      addr_(addr),
      costs_(costs),
      name_(std::move(name)) {
  metrics_.Expose("nic.frames_in", &nic_stats_.frames_in);
  metrics_.Expose("nic.frames_out", &nic_stats_.frames_out);
  metrics_.Expose("nic.frames_to_kernel", &nic_stats_.frames_to_kernel);
  metrics_.Expose("nic.frames_to_pf", &nic_stats_.frames_to_pf);
  metrics_.Expose("nic.rx.ring_overflow", &nic_stats_.ring_overflow);
  metrics_.Expose("nic.rx.crc_errors", &nic_stats_.crc_errors);
  metrics_.Expose("nic.rx.truncated", &nic_stats_.truncated);
  metrics_.Expose("nic.poll.kicks", &nic_stats_.poll_kicks);
  metrics_.Expose("nic.poll.rounds", &nic_stats_.poll_rounds);
  metrics_.Expose("nic.poll.frames", &nic_stats_.poll_frames);
  metrics_.Expose("pf.copy.count", &copies_);
  metrics_.Expose("pf.copy.bytes", &copy_bytes_);
  taps_.set_linktype(segment_->properties().type == pflink::LinkType::kEthernet10Mb
                         ? pfutil::PcapWriter::kLinktypeEthernet
                         : pfutil::PcapWriter::kLinktypeUser0);
  pf_device_ = std::make_unique<PacketFilterDevice>(this);
  pf_device_->core().AttachMetrics(&metrics_);
  pf_device_->core().AttachTaps(&taps_);
  segment_->Attach(this);
}

Machine::~Machine() { segment_->Detach(this); }

void Machine::AttachTrace(pfobs::TraceSession* session) {
  trace_ = session;
  trace_track_ = session != nullptr ? session->RegisterTrack(name_) : 0;
}

std::string Machine::SnapshotText() {
  ledger_.ExportTo(&metrics_);
  std::string out = "=== " + name_ + " ===\nledger:\n" + ledger_.Format() + "metrics:\n" +
                    metrics_.ToText();
  const pf::DropRecorder* recorder = pf_device_->FlightRecorder();
  if (recorder != nullptr && recorder->size() > 0) {
    out += "recent drops (" + std::to_string(recorder->size()) + " of " +
           std::to_string(recorder->total_recorded()) + "):\n" + recorder->ToText();
  }
  return out;
}

std::string Machine::SnapshotJson() {
  ledger_.ExportTo(&metrics_);
  // Machine names are plain identifiers; no escaping needed.
  std::string out = "{\"machine\":\"" + name_ + "\",\"metrics\":" + metrics_.ToJson();
  const pf::DropRecorder* recorder = pf_device_->FlightRecorder();
  if (recorder != nullptr) {
    out += ",\"flight_recorder\":" + recorder->ToJson();
  }
  return out + "}";
}

pfsim::Duration Machine::Account(int ctx, std::span<const Charge> charges) {
  pfsim::Duration total{};
  if (ctx != kInterruptContext && cpu_owner_ != ctx) {
    ledger_.Charge(Cost::kContextSwitch, costs_.context_switch);
    total += costs_.context_switch;
    cpu_owner_ = ctx;
  }
  for (const Charge& charge : charges) {
    if (charge.second.count() > 0) {
      ledger_.Charge(charge.first, charge.second);
      total += charge.second;
    }
  }
  return total;
}

bool Machine::Acquire::await_ready() {
  if (machine->cpu_locked_) {
    return false;
  }
  total = machine->Account(ctx, list());
  machine->cpu_locked_ = holds = total.count() > 0;  // zero work takes no event
  return !holds;
}

void Machine::ReleaseCpu() {
  if (cpu_waiters_.empty()) {
    cpu_locked_ = false;
    return;
  }
  // The CPU stays locked. The grant captures two pointers, so std::function
  // stores it in place.
  Acquire* next = cpu_waiters_.front();
  cpu_waiters_.pop_front();
  next->holds = true;
  sim_->Schedule(pfsim::Duration(0), [this, next] {
    const pfsim::Duration total = Account(next->ctx, next->list());
    if (total.count() > 0) {
      sim_->ScheduleResume(total, next->handle);
    } else {
      next->handle.resume();
    }
  });
}

void Machine::MarkBlocked(int ctx) {
  if (cpu_owner_ == ctx) {
    cpu_owner_ = kIdleContext;
  }
}

Machine::Charge Machine::CopyCharge(size_t bytes) {
  ++copies_;
  copy_bytes_ += bytes;
  return {Cost::kCopy, costs_.CopyCost(bytes)};
}

void Machine::SetPollMode(bool enabled, size_t budget) {
  poll_mode_ = enabled;
  poll_budget_ = budget == 0 ? 1 : budget;
}

std::optional<pflink::MacAddr> Machine::Resolve(uint32_t ip) const {
  const auto it = neighbors_.find(ip);
  if (it == neighbors_.end()) {
    return std::nullopt;
  }
  return it->second;
}

pfsim::ValueTask<bool> Machine::TransmitRaw(int ctx, std::vector<uint8_t> frame_bytes) {
  return TransmitBuf(ctx, pf::PacketBuf(std::move(frame_bytes)));
}

pfsim::ValueTask<bool> Machine::TransmitBuf(int ctx, pf::PacketBuf buf) {
  const pflink::LinkProperties& props = link_properties();
  if (buf.size() < props.header_len || buf.size() > props.header_len + props.mtu) {
    co_return false;
  }
  pflink::Frame frame;
  frame.bytes = std::move(buf);
  frame.flow_id = segment_->NextFlowId();
  const int64_t start_ns = trace_ != nullptr ? sim_->NowNanos() : 0;
  co_await Run(ctx, Cost::kDriverSend, costs_.driver_send);
  ++nic_stats_.frames_out;
  if (trace_ != nullptr) {
    const int64_t now_ns = sim_->NowNanos();
    trace_->Complete(trace_track_, "kernel", "driver.send", start_ns, now_ns,
                     {{"bytes", static_cast<int64_t>(frame.size())},
                      {"flow", static_cast<int64_t>(frame.flow_id)}});
    // The packet's flow starts where it leaves the sending driver.
    trace_->Flow(pfobs::Phase::kFlowStart, trace_track_, now_ns, frame.flow_id);
  }
  segment_->Transmit(this, std::move(frame));
  co_return true;
}

pfsim::ValueTask<bool> Machine::TransmitFrame(int ctx, pflink::MacAddr dst, uint16_t ether_type,
                                              std::vector<uint8_t> payload) {
  pflink::LinkHeader header;
  header.dst = dst;
  header.src = addr_;
  header.ether_type = ether_type;
  auto frame = pflink::BuildFrame(link_properties().type, header, payload);
  if (!frame.has_value()) {
    co_return false;
  }
  co_return co_await TransmitBuf(ctx, std::move(frame->bytes));
}

void Machine::RegisterKernelProtocol(uint16_t ether_type, FrameHandler handler) {
  kernel_handlers_[ether_type] = std::move(handler);
}

void Machine::RecordNicDrop(pf::DropReason reason, const pflink::Frame& frame) {
  switch (reason) {
    case pf::DropReason::kRingOverflow:
      ++nic_stats_.ring_overflow;
      break;
    case pf::DropReason::kBadCrc:
      ++nic_stats_.crc_errors;
      break;
    case pf::DropReason::kTruncated:
      ++nic_stats_.truncated;
      break;
    default:
      break;
  }
  const uint64_t now_ns = static_cast<uint64_t>(sim_->Now().time_since_epoch().count());
  const bool tap_drop = taps_.stage_active(pf::TapStage::kDrop);
  pf::DropRecorder* recorder = pf_device_->core().flight_recorder();
  uint64_t sig = 0;
  if (recorder != nullptr || tap_drop) {
    // The same flow identity the demux stamps, so NIC-level losses
    // cross-reference flow-table rows and tap captures too.
    sig = pfobs::FlowSignature::Of(frame.AsSpan());
  }
  if (recorder != nullptr) {
    pf::DropRecord record;
    record.timestamp_ns = now_ns;
    record.flow_id = frame.flow_id;
    record.flow_sig = sig;
    record.reason = reason;
    recorder->RecordPacket(record, frame.AsSpan());
  }
  if (tap_drop) {
    pf::TapPacketMeta meta;
    meta.timestamp_ns = now_ns;
    meta.flow_id = frame.flow_id;
    meta.flow_sig = sig;
    meta.drop_reason = static_cast<int>(reason);
    taps_.Offer(pf::TapStage::kDrop, frame.AsSpan(), meta);
  }
}

void Machine::OnFrameDelivered(const pflink::Frame& frame, pfsim::TimePoint at) {
  (void)at;
  ++nic_stats_.frames_in;
  if (taps_.stage_active(pf::TapStage::kNicRx)) {
    // Post-impairment, pre-FCS-verification: the frame exactly as the NIC
    // heard it, corrupted bytes and all — including frames about to be
    // lost to a full ring below.
    pf::TapPacketMeta meta;
    meta.timestamp_ns = static_cast<uint64_t>(sim_->Now().time_since_epoch().count());
    meta.flow_id = frame.flow_id;
    meta.flow_sig = pfobs::FlowSignature::Of(frame.AsSpan());
    taps_.Offer(pf::TapStage::kNicRx, frame.AsSpan(), meta);
  }
  if (rx_ring_capacity_ > 0 && rx_pending_ >= rx_ring_capacity_) {
    // Ring full: the frame is dropped before DMA completes. No CPU is
    // charged — the loss is invisible until a higher layer times out.
    RecordNicDrop(pf::DropReason::kRingOverflow, frame);
    return;
  }
  ++rx_pending_;
  if (poll_mode_) {
    // Arrivals land in the ring; the poller (kicked by one interrupt when
    // idle) drains them in budget-sized rounds.
    poll_queue_.push_back(frame);
    if (!poll_active_) {
      poll_active_ = true;
      sim_->Spawn(PollTask());
    }
    return;
  }
  sim_->Spawn(ReceiveTask(frame));
}

pfsim::Task Machine::ReceiveTask(pflink::Frame frame) {
  const int64_t arrive_ns = trace_ != nullptr ? sim_->NowNanos() : 0;
  if (trace_ != nullptr && frame.flow_id != 0) {
    trace_->Flow(pfobs::Phase::kFlowStep, trace_track_, arrive_ns, frame.flow_id);
  }
  co_await Run(kInterruptContext, Cost::kInterrupt, costs_.recv_interrupt);
  // The interrupt handler has copied the frame out; its ring slot is free.
  if (rx_pending_ > 0) {
    --rx_pending_;
  }
  if (trace_ != nullptr) {
    trace_->Complete(trace_track_, "kernel", "interrupt", arrive_ns, sim_->NowNanos(),
                     {{"bytes", static_cast<int64_t>(frame.size())},
                      {"flow", static_cast<int64_t>(frame.flow_id)}});
  }
  co_await ProcessFrame(std::move(frame));
}

pfsim::Task Machine::PollTask() {
  // The rearm interrupt: one per idle->busy transition, not one per frame.
  ++nic_stats_.poll_kicks;
  co_await Run(kInterruptContext, Cost::kInterrupt, costs_.recv_interrupt);
  while (!poll_queue_.empty()) {
    const size_t n = std::min(poll_budget_, poll_queue_.size());
    const int64_t round_start_ns = trace_ != nullptr ? sim_->NowNanos() : 0;
    co_await Run(kInterruptContext, Cost::kPollLoop,
                 costs_.poll_round + costs_.poll_per_frame * static_cast<int64_t>(n));
    ++nic_stats_.poll_rounds;
    nic_stats_.poll_frames += n;
    if (trace_ != nullptr) {
      trace_->Complete(trace_track_, "kernel", "poll.round", round_start_ns, sim_->NowNanos(),
                       {{"frames", static_cast<int64_t>(n)}});
    }
    for (size_t i = 0; i < n; ++i) {
      pflink::Frame frame = std::move(poll_queue_.front());
      poll_queue_.pop_front();
      if (rx_pending_ > 0) {
        --rx_pending_;  // the poll round pulled it off the ring
      }
      if (trace_ != nullptr && frame.flow_id != 0) {
        trace_->Flow(pfobs::Phase::kFlowStep, trace_track_, sim_->NowNanos(), frame.flow_id);
      }
      co_await ProcessFrame(std::move(frame));
    }
  }
  poll_active_ = false;  // ring empty: re-arm the kick interrupt
}

pfsim::ValueTask<void> Machine::ProcessFrame(pflink::Frame frame) {
  // Hardware FCS check: frames damaged in flight (impair.h) never reach the
  // protocol stacks. Truncation is distinguishable (length mismatch) from
  // payload corruption (CRC mismatch at full length).
  if (frame.Truncated()) {
    RecordNicDrop(pf::DropReason::kTruncated, frame);
    co_return;
  }
  if (!frame.FcsIntact()) {
    RecordNicDrop(pf::DropReason::kBadCrc, frame);
    co_return;
  }

  bool claimed = false;
  const auto header = pflink::ParseHeader(link_properties().type, frame.AsSpan());
  if (header.has_value()) {
    const auto it = kernel_handlers_.find(header->ether_type);
    if (it != kernel_handlers_.end()) {
      ++nic_stats_.frames_to_kernel;
      co_await it->second(frame, *header);
      claimed = true;
    }
  }
  // §4: "The packet filter is called from the network interface drivers
  // upon receipt of packets not destined for kernel-resident protocols."
  // (Or for every packet when the fig. 3-3 tap is on.)
  if (!claimed || tap_all_to_pf_) {
    ++nic_stats_.frames_to_pf;
    co_await pf_device_->HandlePacket(frame.bytes,
                                      static_cast<uint64_t>(sim_->Now().time_since_epoch().count()),
                                      frame.flow_id);
  }
}

}  // namespace pfkern
