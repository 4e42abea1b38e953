#include "src/pf/demux.h"

#include <algorithm>
#include <cassert>

namespace pf {

namespace {

// Conndb serve-soundness: the FlowSignature hashes the first
// kFlowSignaturePrefix bytes, so stored verdicts are only trustworthy when
// every bound filter's verdict is a function of that prefix — no indirect
// addressing, and no word read at or past the prefix boundary (16-bit
// words: word index w reads bytes 2w..2w+1).
bool ConnServable(const ValidationResult& meta) {
  return !meta.uses_indirect &&
         2 * (static_cast<size_t>(meta.max_word_index) + 1) <= pfobs::kFlowSignaturePrefix;
}

}  // namespace

PacketFilter::PacketFilter(DeviceInfo info) : info_(info) {}

PacketFilter::PortState* PacketFilter::Find(PortId id) {
  const auto it = ports_.find(id);
  return it == ports_.end() ? nullptr : it->second.get();
}

const PacketFilter::PortState* PacketFilter::Find(PortId id) const {
  const auto it = ports_.find(id);
  return it == ports_.end() ? nullptr : it->second.get();
}

PortId PacketFilter::OpenPort() {
  const PortId id = next_port_id_++;
  auto state = std::make_unique<PortState>();
  state->id = id;
  state->open_seq = next_open_seq_++;
  ports_.emplace(id, std::move(state));
  order_dirty_ = true;
  return id;
}

bool PacketFilter::ClosePort(PortId id) {
  const auto it = ports_.find(id);
  if (it == ports_.end()) {
    return false;
  }
  unservable_ports_ -= it->second->has_filter && it->second->unservable ? 1 : 0;
  ports_.erase(it);
  engine_.Unbind(id);
  order_dirty_ = true;
  return true;
}

ValidationResult PacketFilter::SetFilter(PortId id, Program program) {
  PortState* port = Find(id);
  if (port == nullptr) {
    ValidationResult r;
    r.ok = false;
    return r;
  }
  ValidationResult meta = Validate(program);
  if (!meta.ok) {
    return meta;  // keep the previous filter
  }
  auto validated = ValidatedProgram::Create(std::move(program));
  const bool rebind = port->has_filter;
  const uint8_t old_priority = port->priority;
  unservable_ports_ -= rebind && port->unservable ? 1 : 0;
  port->has_filter = true;
  port->priority = validated->priority();
  port->unservable = !ConnServable(meta);
  unservable_ports_ += port->unservable ? 1 : 0;
  engine_.Bind(id, std::move(*validated));
  if (!rebind || order_dirty_ || busy_reordering_) {
    // A new member of the walk, a rebuild already pending, or an order that
    // reads live accept counts: the next Demux rebuilds the order.
    order_dirty_ = true;
    return meta;
  }
  // A re-bind: the engine kept the binding (so port->binding) and its rank,
  // so at most this one port moves in the walk.
  if (port->priority != old_priority) {
    Reposition(port);
  }
  ++conn_epoch_;
  return meta;
}

void PacketFilter::Reposition(PortState* port) {
  const auto from = ordered_.begin() + port->binding->rank;
  assert(*from == port);
  order_keys_.erase(order_keys_.begin() + (from - ordered_.begin()));
  ordered_.erase(from);
  const auto to = std::lower_bound(ordered_.begin(), ordered_.end(), port,
                                   [this](const PortState* a, const PortState* b) {
                                     return WalksBefore(*a, *b);
                                   });
  order_keys_.insert(order_keys_.begin() + (to - ordered_.begin()), port->id);
  ordered_.insert(to, port);
  engine_.SetOrder(order_keys_);
}

bool PacketFilter::WalksBefore(const PortState& a, const PortState& b) const {
  if (a.priority != b.priority) {
    return a.priority > b.priority;  // decreasing priority (fig. 4-1)
  }
  if (busy_reordering_ && a.stats.accepts != b.stats.accepts) {
    // §3.2: "the interpreter may occasionally reorder such filters to
    // place the busier ones first".
    return a.stats.accepts > b.stats.accepts;
  }
  return a.open_seq < b.open_seq;
}

void PacketFilter::ClearFilter(PortId id) {
  if (PortState* port = Find(id)) {
    unservable_ports_ -= port->has_filter && port->unservable ? 1 : 0;
    port->has_filter = false;
    port->priority = 0;
    engine_.Unbind(id);
    order_dirty_ = true;
  }
}

void PacketFilter::SetDeliverToLower(PortId id, bool enabled) {
  if (PortState* port = Find(id)) {
    port->deliver_to_lower = enabled;
    // Copy-all semantics change who receives an already-established flow (a
    // newly copy-all high-priority port must see its copies), and this does
    // not dirty the priority order — stale the stored verdicts directly.
    ++conn_epoch_;
  }
}

void PacketFilter::SetQueueLimit(PortId id, size_t limit) {
  if (PortState* port = Find(id)) {
    port->queue_limit = limit;
  }
}

void PacketFilter::SetTimestamps(PortId id, bool enabled) {
  if (PortState* port = Find(id)) {
    port->timestamps = enabled;
  }
}

uint8_t PacketFilter::PortPriority(PortId id) const {
  const PortState* port = Find(id);
  return port != nullptr && port->has_filter ? port->priority : 0;
}

void PacketFilter::SetBusyReordering(bool enabled) {
  if (busy_reordering_ == enabled) {
    return;  // no-op: keep the order and the stored flow verdicts
  }
  busy_reordering_ = enabled;
  order_dirty_ = true;
}

void PacketFilter::SetStrategy(Strategy strategy) {
  if (strategy == engine_.strategy()) {
    return;  // no-op: keep the index and the stored flow verdicts
  }
  engine_.set_strategy(strategy);
  // Verdicts do not depend on the strategy; the bump keeps the rule that
  // every configuration change re-walks established flows free of
  // exceptions, at the price of one walk per flow after a rare switch.
  ++conn_epoch_;
}

void PacketFilter::SetProfiling(bool enabled) { engine_.SetProfiling(enabled); }

void PacketFilter::SetFlightRecorder(size_t capacity) {
  recorder_ = capacity == 0 ? nullptr : std::make_unique<DropRecorder>(capacity);
}

void PacketFilter::EnableFlowStats(pfobs::FlowTable::Config config) {
  flow_table_ = std::make_unique<pfobs::FlowTable>(config);
  if (registry_ != nullptr) {
    flow_table_->AttachMetrics(registry_);
  }
}

void PacketFilter::DisableFlowStats() { flow_table_.reset(); }

std::vector<PortId> PacketFilter::Ports() const {
  std::vector<PortId> ids;
  ids.reserve(ports_.size());
  for (const auto& [id, port] : ports_) {
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

void PacketFilter::EnableConnTracking(ConnDB::Config config) {
  tracking_ = true;
  flows_.Reconfigure(config);
  flows_.AttachMetrics(registry_);
  // Entries stored before the last disable must not be served. (No order
  // rebuild: conn_servable() is kept current by every write, and a rebuild
  // would re-sort busy ports when the walk alone would not.)
  ++conn_epoch_;
}

void PacketFilter::DisableConnTracking() {
  tracking_ = false;
  flows_.AttachMetrics(nullptr);
  ++conn_epoch_;
}

void PacketFilter::AttachExtension(PortId id, std::unique_ptr<PortExtension> extension) {
  if (PortState* port = Find(id)) {
    port->extension = std::move(extension);
  }
}

const PortExtension* PacketFilter::Extension(PortId id) const {
  const PortState* port = Find(id);
  return port == nullptr ? nullptr : port->extension.get();
}

void PacketFilter::AttachMetrics(pfobs::MetricsRegistry* registry) {
  if (registry_ != nullptr) {
    registry_->Retire(global_stats_);
  }
  registry_ = registry;
  if (flow_table_ != nullptr) {
    flow_table_->AttachMetrics(registry);
  }
  if (registry != nullptr) {
    registry->Expose("pf.demux.packets_in", &global_stats_.packets_in);
    registry->Expose("pf.demux.accepted", &global_stats_.packets_accepted);
    registry->Expose("pf.demux.unclaimed", &global_stats_.packets_unclaimed);
    registry->Expose("pf.demux.deliveries", &global_stats_.deliveries);
    registry->Expose("pf.demux.drops", &global_stats_.drops);
    registry->Expose("pf.demux.filter_errors", &global_stats_.filter_errors);
    for (size_t i = 0; i < kDropReasonCount; ++i) {
      registry->Expose("pf.drop." + ToSlug(static_cast<DropReason>(i)),
                       &global_stats_.drops_by_reason[i]);
    }
  }
  flows_.AttachMetrics(tracking_ ? registry : nullptr);
  engine_.AttachMetrics(registry);
}

void PacketFilter::RebuildOrder() {
  ordered_.clear();
  ordered_.reserve(ports_.size());
  for (auto& [id, port] : ports_) {
    port->binding = nullptr;
    if (port->has_filter) {
      ordered_.push_back(port.get());
    }
  }
  std::sort(ordered_.begin(), ordered_.end(), [this](const PortState* a, const PortState* b) {
    return WalksBefore(*a, *b);
  });
  // The engine ranks its candidates in this order, so the walk can map a
  // rank straight back to ordered_[rank].
  order_keys_.resize(ordered_.size());
  for (size_t rank = 0; rank < ordered_.size(); ++rank) {
    order_keys_[rank] = ordered_[rank]->id;
  }
  engine_.SetOrder(order_keys_);
  for (uint32_t rank = 0; rank < ordered_.size(); ++rank) {
    ordered_[rank]->binding = engine_.BindingAt(rank);
  }
  order_dirty_ = false;
}

void PacketFilter::CountDrop(PortState* port, DropReason reason, std::span<const uint8_t> packet,
                             uint64_t timestamp_ns, uint64_t flow_id, int32_t pc) {
  const size_t index = static_cast<size_t>(reason);
  if (port != nullptr) {
    ++port->stats.drops_by_reason[index];
  }
  ++global_stats_.drops_by_reason[index];
  // The flow signature is the cross-reference between the flight recorder,
  // the per-flow accounting, and any drop-path capture tap — compute it
  // once if any of them is listening.
  const bool tap_drop = taps_ != nullptr && taps_->stage_active(TapStage::kDrop);
  uint64_t sig = 0;
  if (recorder_ != nullptr || flow_table_ != nullptr || tap_drop) {
    sig = SigOf(packet);
  }
  if (flow_table_ != nullptr) {
    flow_table_->RecordDrop(sig, index, timestamp_ns);
  }
  if (recorder_ != nullptr) {
    DropRecord record;
    record.timestamp_ns = timestamp_ns;
    record.flow_id = flow_id;
    record.flow_sig = sig;
    record.reason = reason;
    record.port = port != nullptr ? port->id : 0;
    record.pc = pc;
    recorder_->RecordPacket(record, packet);
  }
  if (tap_drop) {
    TapPacketMeta meta;
    meta.timestamp_ns = timestamp_ns;
    meta.flow_id = flow_id;
    meta.flow_sig = sig;
    meta.port = port != nullptr ? port->id : 0;
    meta.drop_reason = static_cast<int>(index);
    taps_->Offer(TapStage::kDrop, packet, meta);
  }
}

void PacketFilter::DeliverTo(PortState& port, std::span<const uint8_t> packet,
                             const PacketBuf* buf, uint64_t timestamp_ns, uint64_t flow_id,
                             DemuxResult* result) {
  ++port.stats.accepts;
  // Extension veto (ext.h): the claim stands — the copy is accounted
  // exactly like a queue overflow, just under the extension's reason —
  // so `accepts == enqueued + dropped` survives unchanged.
  if (port.extension != nullptr &&
      !port.extension->Inspect(SigOf(packet), packet.size(), timestamp_ns)) {
    ++port.stats.dropped;
    ++port.lost_since_enqueue;
    ++result->drops;
    CountDrop(&port, port.extension->reason(), packet, timestamp_ns, flow_id, /*pc=*/-1);
    assert(port.stats.accepts == port.stats.enqueued + port.stats.dropped);
    assert(port.stats.dropped == TotalDrops(port.stats.drops_by_reason));
    return;
  }
  if (port.queue.size() >= port.queue_limit) {
    ++port.stats.dropped;
    ++port.lost_since_enqueue;
    ++result->drops;
    CountDrop(&port, DropReason::kQueueOverflow, packet, timestamp_ns, flow_id, /*pc=*/-1);
    assert(port.stats.accepts == port.stats.enqueued + port.stats.dropped);
    assert(port.stats.dropped == TotalDrops(port.stats.drops_by_reason));
    return;
  }
  ReceivedPacket rp;
  // The heart of zero-copy delivery: a PacketBuf caller's copy is a
  // refcount bump; only span callers (whose storage is transient) pay a
  // real copy into a fresh block.
  rp.bytes = buf != nullptr ? *buf : PacketBuf::CopyOf(packet);
  rp.timestamp_ns = port.timestamps ? timestamp_ns : 0;
  rp.dropped_before = port.lost_since_enqueue;
  rp.flow_id = flow_id;
  port.lost_since_enqueue = 0;
  port.queue.push_back(std::move(rp));
  enqueued_.push_back(port.id);
  ++port.stats.enqueued;
  ++result->deliveries;
  result->stamped += port.timestamps ? 1 : 0;
  assert(port.stats.accepts == port.stats.enqueued + port.stats.dropped);
  if (taps_ != nullptr && taps_->stage_active(TapStage::kDeliver)) {
    TapPacketMeta meta;
    meta.timestamp_ns = timestamp_ns;
    meta.flow_id = flow_id;
    meta.flow_sig = SigOf(packet);
    meta.port = port.id;
    taps_->Offer(TapStage::kDeliver, packet, meta);
  }
}

DemuxResult PacketFilter::Demux(std::span<const uint8_t> packet, uint64_t timestamp_ns,
                                uint64_t flow_id) {
  return DemuxImpl(packet, nullptr, timestamp_ns, flow_id);
}

DemuxResult PacketFilter::Demux(const PacketBuf& packet, uint64_t timestamp_ns,
                                uint64_t flow_id) {
  return DemuxImpl(packet.span(), &packet, timestamp_ns, flow_id);
}

DemuxResult PacketFilter::DemuxImpl(std::span<const uint8_t> packet, const PacketBuf* buf,
                                    uint64_t timestamp_ns, uint64_t flow_id) {
  DemuxResult result;
  ++global_stats_.packets_in;
  ++demux_count_;
  cur_sig_ = 0;  // new packet: SigOf() recomputes on first use
  enqueued_.clear();
  if (taps_ != nullptr && taps_->stage_active(TapStage::kDemuxIn)) {
    TapPacketMeta meta;
    meta.timestamp_ns = timestamp_ns;
    meta.flow_id = flow_id;
    meta.flow_sig = SigOf(packet);
    taps_->Offer(TapStage::kDemuxIn, packet, meta);
  }
  if (order_dirty_ || (busy_reordering_ && demux_count_ % kReorderInterval == 0)) {
    // Any change that dirtied the order (SetFilter / ClearFilter /
    // ClosePort / a priority change) — and any busy-reordering shuffle that
    // actually moved a port while the table holds entries — makes stored
    // flow verdicts stale.
    const bool was_dirty = order_dirty_;
    std::vector<PortState*> previous;
    if (!was_dirty && tracking_ && flows_.live() > 0) {
      previous = ordered_;
    }
    RebuildOrder();
    if (was_dirty || (!previous.empty() && previous != ordered_)) {
      ++conn_epoch_;
    }
  }

  // Drop classification inputs: what went wrong while testing filters, and
  // where the first erroring filter stopped (the flight recorder's pc).
  bool saw_short = false;
  bool saw_other_error = false;
  int32_t error_pc = -1;
  const auto note_status = [&](PortState* port, const Verdict& verdict) {
    if (verdict.status == ExecStatus::kOk) {
      return;
    }
    ++port->stats.filter_errors;
    ++global_stats_.filter_errors;
    (verdict.status == ExecStatus::kOutOfPacket ? saw_short : saw_other_error) = true;
    if (error_pc < 0 && verdict.insns_executed > 0) {
      error_pc = static_cast<int32_t>(verdict.insns_executed) - 1;
    }
  };

  // Flow-state fast path (connection tracking): if the FlowSignature
  // determines every bound filter's verdict and this flow has an
  // epoch-current entry, re-confirm with the stored port's own filter and
  // skip the priority walk.
  result.conn_lookup = tracking_ && conn_servable() && !ordered_.empty();
  const uint64_t key = result.conn_lookup ? SigOf(packet) : 0;
  bool served = false;
  if (result.conn_lookup) {
    const ConnDB::Entry* entry = flows_.Lookup(key, timestamp_ns, conn_epoch_, packet.size());
    if (entry != nullptr) {
      PortState* port = Find(entry->port);
      if (port != nullptr && port->has_filter && !port->deliver_to_lower) {
        // Only the stored port's filter runs: no engine pass, so no index
        // probe. Every accept still comes from a filter run.
        const Verdict verdict = engine_.Confirm(*port->binding, packet, &result.exec);
        note_status(port, verdict);
        if (verdict.accept) {
          DeliverTo(*port, packet, buf, timestamp_ns, flow_id, &result);
          result.accepted = true;
          result.conn_hit = true;
          served = true;
        }
      }
      if (!served) {
        // Key collision (the stored port's filter rejected the actual
        // bytes): the entry is wrong for this flow — drop it and take the
        // full walk.
        flows_.Invalidate(key);
      }
    }
  }

  if (!served) {
    // One engine pass per packet: under kIndexed its construction probes
    // the hash index once. The walk visits only the candidates — ports in
    // priority order whose filter could accept — and the strategies
    // evaluate lazily, so breaking out early skips the remaining filters'
    // work.
    Engine::MatchPass pass = engine_.Match(packet);
    uint32_t accepts = 0;
    PortState* claimer = nullptr;
    for (const uint32_t rank : pass.candidates()) {
      PortState* port = ordered_[rank];
      const Verdict verdict = pass.TestRank(rank);
      note_status(port, verdict);
      if (!verdict.accept) {
        continue;
      }
      DeliverTo(*port, packet, buf, timestamp_ns, flow_id, &result);
      result.accepted = true;
      ++accepts;
      claimer = port;
      if (!port->deliver_to_lower) {
        break;  // first accepting filter claims the packet (§3.2)
      }
    }
    result.exec += pass.telemetry();

    // Record the flow only when exactly one port took the packet and it
    // claimed exclusively — copy-all (deliver_to_lower) deliveries must
    // keep taking the full walk. The table may refuse (emergency mode) —
    // then this flow simply keeps taking the stateless walk.
    if (result.conn_lookup && accepts == 1 && !claimer->deliver_to_lower) {
      flows_.Establish(key, claimer->id, timestamp_ns, conn_epoch_, packet.size());
    }
  }

  global_stats_.exec += result.exec;
  engine_.RecordPass(result.exec);
  if (result.accepted) {
    ++global_stats_.packets_accepted;
  } else {
    ++global_stats_.packets_unclaimed;
    // Exactly one reason per unclaimed packet. Errors take precedence over
    // short reads (both reject, but a run-time error is the sharper
    // diagnosis), short reads over a clean no-match.
    DropReason reason = DropReason::kNoMatch;
    if (ordered_.empty()) {
      reason = DropReason::kNoPorts;
    } else if (saw_other_error) {
      reason = DropReason::kFilterError;
    } else if (saw_short) {
      reason = DropReason::kShortPacket;
    }
    CountDrop(nullptr, reason, packet, timestamp_ns, flow_id,
              reason == DropReason::kFilterError || reason == DropReason::kShortPacket
                  ? error_pc
                  : -1);
    assert(global_stats_.packets_unclaimed ==
           global_stats_.drops_by_reason[static_cast<size_t>(DropReason::kNoMatch)] +
               global_stats_.drops_by_reason[static_cast<size_t>(DropReason::kNoPorts)] +
               global_stats_.drops_by_reason[static_cast<size_t>(DropReason::kShortPacket)] +
               global_stats_.drops_by_reason[static_cast<size_t>(DropReason::kFilterError)]);
  }
  global_stats_.deliveries += result.deliveries;
  global_stats_.drops += result.drops;
  // Per-flow accounting: exactly one Record per demuxed packet, so
  // pf.flow.packets == pf.demux.packets_in and pf.flow.deliveries ==
  // pf.demux.deliveries bit-exactly (drops were folded in by CountDrop).
  if (flow_table_ != nullptr) {
    flow_table_->Record(SigOf(packet), packet.size(), result.deliveries, timestamp_ns);
  }
  result.flow_sig = cur_sig_;
  return result;
}

std::optional<ReceivedPacket> PacketFilter::Pop(PortId id) {
  PortState* port = Find(id);
  if (port == nullptr || port->queue.empty()) {
    return std::nullopt;
  }
  ReceivedPacket packet = std::move(port->queue.front());
  port->queue.pop_front();
  return packet;
}

std::vector<ReceivedPacket> PacketFilter::PopBatch(PortId id, size_t max) {
  std::vector<ReceivedPacket> out;
  PortState* port = Find(id);
  if (port == nullptr) {
    return out;
  }
  out.reserve(std::min(max, port->queue.size()));
  while (!port->queue.empty() && out.size() < max) {
    out.push_back(std::move(port->queue.front()));
    port->queue.pop_front();
  }
  return out;
}

size_t PacketFilter::QueueLength(PortId id) const {
  const PortState* port = Find(id);
  return port == nullptr ? 0 : port->queue.size();
}

const PortStats* PacketFilter::Stats(PortId id) const {
  const PortState* port = Find(id);
  return port == nullptr ? nullptr : &port->stats;
}

}  // namespace pf
