// The kernel-resident packet demultiplexer (§3.2, §4).
//
// PacketFilter manages a set of ports, each with a bound filter program and
// a bounded input queue. Demux() implements the paper's fig. 4-1 loop:
// filters are applied in order of decreasing priority until one accepts; a
// port may opt to let its packets also reach lower-priority filters
// ("copy-all", used by monitors and multicast-style delivery). Per-port
// queues overflow by dropping (counted, and reported on the next delivered
// packet, per §3.3), and packets can be timestamped at demux time.
//
// Filter *policy* (ordering, claiming, queueing) lives here; filter
// *execution* is delegated entirely to pf::Engine (engine.h), which owns
// the bound programs and evaluates them under the selected Strategy.
// Demux() reports exactly what work the engine did (an ExecTelemetry) so a
// host can charge costs.
//
// This class is pure mechanism — no threads, no simulated time, no I/O — so
// it can be embedded both in the simulated kernel (src/kernel/) and used
// directly (examples/filter_lab, the wall-clock microbenchmarks).
#ifndef SRC_PF_DEMUX_H_
#define SRC_PF_DEMUX_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/obs/flow_stats.h"
#include "src/pf/conndb.h"
#include "src/pf/drop.h"
#include "src/pf/engine.h"
#include "src/pf/ext.h"
#include "src/pf/packet_buf.h"
#include "src/pf/program.h"
#include "src/pf/tap.h"
#include "src/pf/validate.h"

namespace pf {

using PortId = uint32_t;
inline constexpr PortId kInvalidPort = 0;

// §3.3 "information provided by the packet filter to programs".
struct DeviceInfo {
  uint16_t datalink_type = 0;
  uint8_t addr_len = 0;
  uint8_t header_len = 0;
  uint32_t max_packet = 0;
  std::array<uint8_t, 6> local_addr{};
  std::array<uint8_t, 6> broadcast_addr{};
};

struct ReceivedPacket {
  // Refcounted view of the frame (DESIGN.md §13): every copy enqueued by a
  // copy-all demux, every ring descriptor, and every pipe hop shares one
  // block. The payload is immutable from here on, so sharing is safe; the
  // bytes stay alive as long as any holder keeps the view (in particular, a
  // reaped ring descriptor outliving its port).
  PacketBuf bytes;
  uint64_t timestamp_ns = 0;      // 0 unless timestamps are enabled
  uint32_t dropped_before = 0;    // queue-overflow losses since the previous
                                  // packet enqueued on this port
  uint64_t flow_id = 0;           // tracing flow id (src/obs); 0 = untracked
};

struct PortStats {
  uint64_t enqueued = 0;
  uint64_t dropped = 0;        // queue-overflow losses
  // Filter matches. Every accepted packet is either enqueued or dropped,
  // so `accepts == enqueued + dropped` always holds (asserted in demux.cc,
  // covered in demux_test.cc).
  uint64_t accepts = 0;
  uint64_t filter_errors = 0;  // interpreter errors while testing packets
  // Per-reason decomposition of this port's losses. A port's copies are
  // lost to kQueueOverflow or to an extension veto (kRateLimited /
  // kRndBlock — ext.h), so `dropped == TotalDrops(drops_by_reason)`
  // (asserted in demux.cc).
  DropCounts drops_by_reason{};
};

struct DemuxResult {
  bool accepted = false;       // at least one port took the packet
  uint32_t deliveries = 0;     // copies enqueued
  uint32_t drops = 0;          // copies lost to full queues
  bool cache_lookup = false;   // always false; read only by perfbench/bare.cc
  bool cache_hit = false;      // always false; read only by perfbench/bare.cc
  // Connection tracking (PacketFilter::EnableConnTracking) sets this pair;
  // the host charges each lookup to Cost::kConnDb.
  bool conn_lookup = false;    // the connection database was consulted
  bool conn_hit = false;       // delivery served from conndb state (re-confirmed)
  uint64_t flow_sig = 0;       // the packet's flow signature, when flow
                               // accounting / taps / the recorder needed it
                               // (0 = never computed); the kernel device
                               // keys per-flow latency on this
  ExecTelemetry exec;          // what the engine did for this packet
};

struct FilterGlobalStats {
  uint64_t packets_in = 0;
  uint64_t packets_accepted = 0;
  uint64_t packets_unclaimed = 0;  // rejected by every filter (fig. 4-1 Drop)
  ExecTelemetry exec;              // accumulated engine telemetry
  // Every non-delivered packet (and every non-delivered copy) accounted to
  // exactly one reason: the whole-packet reasons decompose
  // `packets_unclaimed`, kQueueOverflow counts dropped copies. Invariants
  // (asserted in demux.cc, property-tested in demux_test.cc):
  //   packets_unclaimed == sum of the non-overflow reasons
  //   sum of per-port dropped == drops_by_reason[kQueueOverflow]
  DropCounts drops_by_reason{};
};

class PacketFilter {
 public:
  explicit PacketFilter(DeviceInfo info = {});

  // --- Port lifecycle ---
  PortId OpenPort();
  bool ClosePort(PortId id);
  size_t open_port_count() const { return ports_.size(); }

  // --- Port control (the ioctl surface of §3.3) ---
  // Binding a filter validates it; on failure the port keeps its previous
  // filter. "A new filter can be bound at any time."
  ValidationResult SetFilter(PortId id, Program program);
  void ClearFilter(PortId id);
  // Accepted packets continue to lower-priority filters (§3.2's monitoring /
  // group-communication option). Multiple copies may be delivered.
  void SetDeliverToLower(PortId id, bool enabled);
  // Maximum input-queue length; overflow drops and counts.
  void SetQueueLimit(PortId id, size_t limit);
  void SetTimestamps(PortId id, bool enabled);
  // Invoked after each enqueue on the port (the host's wakeup hook).
  void SetEnqueueCallback(PortId id, std::function<void()> callback);

  // --- Demultiplexing (fig. 4-1) ---
  // `flow_id` (if non-zero) is stamped onto every delivered copy so the
  // packet can be followed through the read path (src/obs tracing).
  DemuxResult Demux(std::span<const uint8_t> packet, uint64_t timestamp_ns = 0,
                    uint64_t flow_id = 0);
  // Zero-copy overload: delivered copies share `packet`'s block instead of
  // duplicating the bytes (the span overload must copy — its storage is the
  // caller's). This is the path the simulated kernel takes.
  DemuxResult Demux(const PacketBuf& packet, uint64_t timestamp_ns = 0, uint64_t flow_id = 0);

  // --- Port-side dequeue (the read() surface) ---
  std::optional<ReceivedPacket> Pop(PortId id);
  // Removes up to `max` queued packets: the §3 batch read.
  std::vector<ReceivedPacket> PopBatch(PortId id, size_t max = SIZE_MAX);
  size_t QueueLength(PortId id) const;

  // --- Introspection ---
  const PortStats* Stats(PortId id) const;
  const FilterGlobalStats& global_stats() const { return global_stats_; }
  const DeviceInfo& device_info() const { return info_; }
  void set_device_info(const DeviceInfo& info) { info_ = info; }
  // Priority of the port's current filter (0 if none).
  uint8_t PortPriority(PortId id) const;
  // Every open port id, ascending (for dump tooling like examples/pfstat).
  std::vector<PortId> Ports() const;

  // --- Filter-program profiling (engine.h / profile.h) ---
  // Opt-in per-pc profiles for every bound filter; zero-overhead (one
  // branch per filter test) when off. See Engine::SetProfiling.
  void SetProfiling(bool enabled);
  bool profiling() const { return engine_.profiling(); }
  // The profile for the filter bound at `id`, or nullptr.
  const ProgramProfile* Profile(PortId id) const { return engine_.Profile(id); }

  // --- Drop-reason flight recorder (drop.h) ---
  // Keeps the last `capacity` DropRecords (0 — the default — disables it;
  // the drop path then only pays a null check). Re-enabling with a new
  // capacity clears previous records.
  void SetFlightRecorder(size_t capacity);
  // The recorder, or nullptr when disabled. The mutable overload lets the
  // NIC driver record its pre-filter drops (bad CRC, truncation, ring
  // overflow) into the same flight ring as the demux drops.
  const DropRecorder* flight_recorder() const { return recorder_.get(); }
  DropRecorder* flight_recorder() { return recorder_.get(); }

  // --- Execution strategy (benchmarked in bench/micro_*) ---
  void SetStrategy(Strategy strategy);
  Strategy strategy() const { return engine_.strategy(); }
  // The engine executing this demultiplexer's filters (index introspection,
  // bound-program lookup).
  const Engine& engine() const { return engine_; }
  // Periodically move busier filters first within equal priority (§3.2).
  void SetBusyReordering(bool enabled);

  // --- Observability (src/obs) ---
  // Registers the demultiplexer's counters ("pf.demux.*") and the engine's
  // per-strategy metrics into `registry`. Counter pointers are cached, so
  // with no registry attached (the default — e.g. the wall-clock
  // microbenchmarks) each hook is a null check.
  void AttachMetrics(pfobs::MetricsRegistry* registry);

  // --- Per-flow accounting (src/obs/flow_stats.h, DESIGN.md §16) ---
  // Opt-in: every demuxed packet is accounted to its flow signature
  // (pfobs::FlowSignature over the header prefix — strategy-independent,
  // so accounting is identical across engine backends). Off (the default)
  // the hot path pays one null check. The table registers "pf.flow.*"
  // metrics when a registry is attached.
  void EnableFlowStats(pfobs::FlowTable::Config config = {});
  void DisableFlowStats();
  pfobs::FlowTable* flow_stats() { return flow_table_.get(); }
  const pfobs::FlowTable* flow_stats() const { return flow_table_.get(); }

  // --- Stateful connection tracking (conndb.h, DESIGN.md §17) ---
  // Opt-in, and the only way Demux() skips the fig. 4-1 walk: Demux()
  // remembers "this flow was claimed by this port" in one ConnDB table
  // configured by `config` (verdict + accounting + TTL expiry + overload
  // watermarks), keyed by the strategy-independent pfobs::FlowSignature
  // (FNV over the first 64 bytes) and charged to Cost::kConnDb, so repeated
  // packets of an established flow skip the priority walk. Soundness: state
  // is only consulted when every bound filter's verdict is determined by
  // that prefix — `conn_servable()`: every filter has uses_indirect == false
  // and max_word_index within the prefix; the stored port's own filter
  // re-confirms every hit; deliver_to_lower ports are never served from (or
  // entered into) the table; and every filter/port/priority/strategy/
  // copy-all change — and every busy reorder that moves a port — bumps
  // conn_epoch(), so older entries are never served. When the DB refuses
  // state (emergency mode), the flow simply stays on the stateless
  // priority-walk path — graceful degradation, never blocking. Disabled
  // (the default), every packet takes the walk and the table is never
  // consulted.
  void EnableConnTracking(ConnDB::Config config = {});
  void DisableConnTracking();
  // The table, only while tracking (the kernel's GC worker keys on this).
  ConnDB* conndb() { return tracking_ ? &flows_ : nullptr; }
  const ConnDB* conndb() const { return tracking_ ? &flows_ : nullptr; }
  // The table's counters, tracking on or off; they span the filter's
  // lifetime, so they never decrease. Named for perfbench/stack.cc, its
  // reader.
  const ConnDB::Stats& flow_cache_stats() const { return flows_.stats(); }
  uint64_t conn_epoch() const { return conn_epoch_; }
  // True when the current filter set's verdicts are all determined by the
  // hashed prefix. Always current: every write keeps the count of bound
  // filters that fail the test.
  bool conn_servable() const { return unservable_ports_ == 0; }

  // --- Filter extensions (ext.h) ---
  // Attaches per-port accept-path policy: the extension inspects every
  // accepted copy before it is enqueued and may veto it (counted under the
  // extension's DropReason, reported via dropped_before like an overflow).
  // Null detaches. The port owns the extension.
  void AttachExtension(PortId id, std::unique_ptr<PortExtension> extension);
  const PortExtension* Extension(PortId id) const;

  // --- Capture taps (tap.h) ---
  // Attaches the stage-tap registry this demux offers packets to
  // (kDemuxIn / kDeliver / kDrop; the NIC offers kNicRx). Null detaches;
  // detached costs one null check per stage.
  void AttachTaps(TapSet* taps) { taps_ = taps; }
  TapSet* taps() { return taps_; }

 private:
  struct PortState {
    PortId id = kInvalidPort;
    uint64_t open_seq = 0;  // application order among equal priorities
    bool has_filter = false;
    uint8_t priority = 0;   // cached from the bound program for ordering
    // The bound filter reads past the FlowSignature prefix or indirectly
    // (counted in unservable_ports_; meaningful while has_filter).
    bool unservable = false;
    bool deliver_to_lower = false;
    bool timestamps = false;
    size_t queue_limit = kDefaultQueueLimit;
    std::deque<ReceivedPacket> queue;
    uint32_t lost_since_enqueue = 0;
    std::function<void()> on_enqueue;
    // Accept-path policy hook (ext.h); null = no extension (one null check
    // per accepted copy).
    std::unique_ptr<PortExtension> extension;
    PortStats stats;
    // Cached engine binding handle (refreshed by RebuildOrder), so the
    // fast path's re-confirmation does no hash lookup. nullptr when no
    // filter is bound.
    const Engine::Binding* binding = nullptr;
  };

  static constexpr size_t kDefaultQueueLimit = 32;
  static constexpr uint64_t kReorderInterval = 256;

  PortState* Find(PortId id);
  const PortState* Find(PortId id) const;
  void RebuildOrder();
  // The fig. 4-1 walk order: priority desc, [busy: accepts desc], open order.
  bool WalksBefore(const PortState& a, const PortState& b) const;
  // Moves a re-bound port whose priority changed to its new place in
  // ordered_ and hands the order to the engine, which re-ranks only what
  // moved. Needs a current order and busy reordering off.
  void Reposition(PortState* port);
  // The current packet's flow signature, computed on first use per Demux
  // pass (cur_sig_ is reset at DemuxImpl entry; 0 = not yet computed).
  uint64_t SigOf(std::span<const uint8_t> packet) {
    if (cur_sig_ == 0) {
      cur_sig_ = pfobs::FlowSignature::Of(packet);
    }
    return cur_sig_;
  }
  DemuxResult DemuxImpl(std::span<const uint8_t> packet, const PacketBuf* buf,
                        uint64_t timestamp_ns, uint64_t flow_id);
  // `buf` non-null = share its block; null = copy `packet` (span callers).
  void DeliverTo(PortState& port, std::span<const uint8_t> packet, const PacketBuf* buf,
                 uint64_t timestamp_ns, uint64_t flow_id, DemuxResult* result);
  void CountDrop(PortState* port, DropReason reason, std::span<const uint8_t> packet,
                 uint64_t timestamp_ns, uint64_t flow_id, int32_t pc);

  DeviceInfo info_;
  Engine engine_;
  std::unordered_map<PortId, std::unique_ptr<PortState>> ports_;
  // By WalksBefore; index = the engine's rank.
  std::vector<PortState*> ordered_;
  bool order_dirty_ = false;
  bool busy_reordering_ = false;
  PortId next_port_id_ = 1;
  uint64_t next_open_seq_ = 0;
  uint64_t demux_count_ = 0;
  FilterGlobalStats global_stats_;

  // Connection tracking is on (the table, flows_, is below).
  bool tracking_ = false;
  uint64_t conn_epoch_ = 1;
  size_t unservable_ports_ = 0;  // bound filters that are not conn-servable

  // Flight recorder (null = disabled, the default).
  std::unique_ptr<DropRecorder> recorder_;

  // Per-flow accounting (null = disabled, the default).
  std::unique_ptr<pfobs::FlowTable> flow_table_;
  // Capture taps (null = detached, the default). Not owned.
  TapSet* taps_ = nullptr;
  // The registry last attached (so EnableFlowStats after AttachMetrics
  // still registers "pf.flow.*").
  pfobs::MetricsRegistry* registry_ = nullptr;
  uint64_t cur_sig_ = 0;  // see SigOf()

  struct DemuxMetrics {
    pfobs::Counter* packets_in = nullptr;
    pfobs::Counter* accepted = nullptr;
    pfobs::Counter* unclaimed = nullptr;
    pfobs::Counter* deliveries = nullptr;
    pfobs::Counter* drops = nullptr;
    pfobs::Counter* filter_errors = nullptr;
    // "pf.drop.<reason>", indexed by DropReason.
    pfobs::Counter* drop_reasons[kDropReasonCount] = {};
  };
  DemuxMetrics metrics_;

  // The flow-state fast path's table, consulted only while tracking_. After
  // the per-packet fields above, so that they share as few cache lines as
  // they did without it.
  ConnDB flows_;

  // Write-path state, off the per-packet cache lines.
  std::vector<Engine::Key> order_keys_;  // ordered_'s port ids, for SetOrder
};

}  // namespace pf

#endif  // SRC_PF_DEMUX_H_
