// The packet-filter pseudodevice driver (§4): the pf::PacketFilter core
// wrapped with the Unix character-device surface — open/close/read/write/
// ioctl with their domain-crossing and copy costs, blocking reads with
// timeout, read batching, and wakeups of blocked readers.
//
// The split mirrors the paper's implementation: "the packet filter is
// layered above network interface device drivers" — Machine's receive path
// calls HandlePacket() for frames not claimed by kernel-resident protocols
// (or for all frames when the fig. 3-3 tap is enabled).
#ifndef SRC_KERNEL_PF_DEVICE_H_
#define SRC_KERNEL_PF_DEVICE_H_

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/kernel/ledger.h"
#include "src/obs/metrics.h"
#include "src/pf/demux.h"
#include "src/sim/sim_time.h"
#include "src/sim/simulator.h"
#include "src/sim/value_task.h"

namespace pfkern {

class Machine;

class PacketFilterDevice {
 public:
  explicit PacketFilterDevice(Machine* machine);

  // Direct access to the demultiplexer core (for tests, stats, and
  // strategy knobs; no costs charged).
  pf::PacketFilter& core() { return filter_; }

  // --- User-facing surface (costs charged to `pid`) ---
  pfsim::ValueTask<pf::PortId> Open(int pid);
  pfsim::ValueTask<void> Close(int pid, pf::PortId port);

  // Binding a filter is an ioctl whose cost is "comparable to that of
  // receiving a packet" (§3): a syscall plus the program copy-in.
  pfsim::ValueTask<pf::ValidationResult> SetFilter(int pid, pf::PortId port,
                                                   pf::Program program);

  struct PortOptions {
    std::optional<bool> deliver_to_lower;
    std::optional<bool> timestamps;
    std::optional<bool> batching;  // §3: return all pending packets per read
    std::optional<size_t> queue_limit;
  };
  pfsim::ValueTask<void> Configure(int pid, pf::PortId port, PortOptions options);

  // --- Shared-memory ring delivery (DESIGN.md §13) ---
  // 0 (the default) keeps the legacy read() path: every Read charges a
  // syscall crossing plus one kCopy per packet. `slots` > 0 switches every
  // port (current and future) to a mapped descriptor ring of that depth:
  // demux posts a descriptor (kRingPost) instead of queueing bytes for a
  // read-time copy, and Read becomes a reap (kRingReap per descriptor, a
  // syscall only when it must block on an empty ring). The refcounted
  // PacketBuf keeps a reaped descriptor's bytes alive past port close.
  void SetRingDelivery(size_t slots);
  size_t ring_slots() const { return ring_slots_; }

  // Blocking read. Returns one packet (or, with batching, all pending
  // packets, up to kMaxBatch). Empty result = timeout, the paper's "read
  // call terminates and reports an error". A zero timeout polls; kForever
  // blocks indefinitely (§3.3). On a ring port this is a reap (see
  // SetRingDelivery); the call surface is identical.
  pfsim::ValueTask<std::vector<pf::ReceivedPacket>> Read(int pid, pf::PortId port,
                                                         pfsim::Duration timeout);

  // write(): the buffer is a complete frame including the data-link header;
  // control returns once the packet is queued for transmission (§3).
  pfsim::ValueTask<bool> Write(int pid, std::vector<uint8_t> frame_bytes);
  // PacketBuf form: the user->kernel copy is still *charged* (a 1987 write
  // really copies), but the frame adopts the caller's block — re-sending a
  // built frame (RARP retries, VMTP runs) shares one buffer. On a
  // ring-enabled device (SetRingDelivery) the copy charge is replaced by a
  // TX descriptor post (kRingPost): the block is already mapped into both
  // domains, so nothing needs copying in either direction.
  pfsim::ValueTask<bool> Write(int pid, pf::PacketBuf frame);

  // §7's "write-batching option (to send several packets in one system
  // call)": one crossing, one copy per frame. Returns frames accepted.
  pfsim::ValueTask<size_t> WriteMany(int pid, std::vector<std::vector<uint8_t>> frames);

  // §3.3: "the signal, if any, to be delivered upon packet reception" — an
  // interrupt-like notification. The handler task is spawned once per
  // wakeup edge (queue transitions from empty), like a SIGIO; the process
  // then drains the port with zero-timeout reads.
  void SetSignal(pf::PortId port, std::function<void()> handler);

  // §3's "the 4.3BSD select system call": blocks until one of `ports` has
  // queued packets (returns it) or the timeout expires (returns
  // kInvalidPort). Ports must belong to this device; a port that is not
  // open, or closes during the wait, ends it with kInvalidPort (EBADF).
  pfsim::ValueTask<pf::PortId> Select(int pid, std::vector<pf::PortId> ports,
                                      pfsim::Duration timeout);

  // §3.3 status information; free (a cheap ioctl, not on any hot path).
  pf::DeviceInfo GetDeviceInfo() const;
  // Callers asleep in Read or Select on `port` (0 once it is closed).
  size_t sleepers(pf::PortId port) const {
    const auto it = extras_.find(port);
    return it == extras_.end() ? 0 : it->second->sleepers.size();
  }

  // --- Introspection ioctls (profiler + flight recorder, src/pf) ---
  // Toggles per-filter profiling in the demux core (one syscall charge).
  pfsim::ValueTask<void> SetProfiling(int pid, bool enabled);
  // The collected per-pc profile of `port`'s filter, or nullptr. Free, like
  // GetDeviceInfo: cheap status ioctls off the hot paths.
  const pf::ProgramProfile* Profile(pf::PortId port) const;
  // Annotated disassembly of `port`'s filter, cost-scaled by this machine's
  // per-instruction filter cost. Empty when no filter or profile exists.
  std::string ProfileDump(pf::PortId port) const;
  // The demux flight recorder: the kernel device always keeps the last
  // kFlightRecorderDepth drops (a simulated tcpdump for losses).
  const pf::DropRecorder* FlightRecorder() const { return filter_.flight_recorder(); }

  // Per-flow accounting (DESIGN.md §16): opt-in like profiling — a status
  // ioctl off the hot paths, so nothing is charged. Once enabled, every
  // demuxed packet is accounted to its flow signature and HandlePacket
  // folds per-flow demux latency in.
  void EnableFlowAccounting(pfobs::FlowTable::Config config = {}) {
    filter_.EnableFlowStats(config);
  }
  const pfobs::FlowTable* FlowStats() const { return filter_.flow_stats(); }

  // --- Stateful connection tracking (DESIGN.md §17) ---
  // Enables the pf::ConnDB in the demux core (one syscall charge — this
  // ioctl changes demux behavior, unlike the status ioctls above) and
  // starts the npf_worker-style GC: a simulated-clock timer that calls
  // ConnDB::GcSweep once per interval while the table holds state, charging
  // Cost::kConnGc per sweep. The timer is armed lazily from HandlePacket
  // and disarms itself when the table drains, so an idle machine's event
  // queue still runs dry (the simulation terminates).
  pfsim::ValueTask<void> EnableConnTracking(int pid, pf::ConnDB::Config config = {});
  const pf::ConnDB* ConnDb() const { return filter_.conndb(); }
  // GC sweep cadence (simulated time); takes effect at the next (re)arm.
  void SetConnGcInterval(pfsim::Duration interval) { conn_gc_interval_ = interval; }

  // Attaches a filter extension (ext.h) to `port`'s accept path — the
  // npf extension-module ioctl (one syscall charge).
  pfsim::ValueTask<void> AttachExtension(int pid, pf::PortId port,
                                         std::unique_ptr<pf::PortExtension> extension);

  static constexpr size_t kFlightRecorderDepth = 64;

  // --- Kernel-side entry, interrupt context ---
  // `flow_id` (0 = untracked) is the frame's tracing flow id; it is stamped
  // onto delivered copies so Read() can close the flow (src/obs).
  pfsim::ValueTask<void> HandlePacket(const pf::PacketBuf& packet, uint64_t timestamp_ns,
                                      uint64_t flow_id = 0);

  static constexpr size_t kMaxBatch = 32;

 private:
  // One caller asleep in Read or Select (DESIGN.md §2), in its Sleep awaiter;
  // its ports' lists point at it. A ring settles it and cancels its timer.
  struct Sleeper {
    std::coroutine_handle<> handle;
    pfsim::EventId timer;
    bool settled = false;
  };
  struct PortExtra {
    // The callers asleep on this port: a blocked Read, and a blocked Select
    // on each of its ports.
    std::vector<Sleeper*> sleepers;
    bool batching = false;
    std::function<void()> signal_handler;  // SIGIO-style notification
    bool had_queued = false;               // edge detection for the signal
  };

  // `co_await Sleep{this, ports, timeout}` sleeps on every open port of
  // `ports` until a frame or Close rings one of them or `timeout` elapses;
  // then looks the ports up again to take the sleeper down. The awaiter
  // lives in the caller's frame, and a sleep allocates nothing.
  struct Sleep {
    PacketFilterDevice* device;
    std::span<const pf::PortId> ports;
    pfsim::Duration timeout;
    Sleeper sleeper = {};
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> handle);
    void await_resume();
  };
  // Wakes every caller asleep on the port: each resumes after the running
  // event, at the same instant.
  void Ring(PortExtra& extra);

  PortExtra* Extra(pf::PortId port);
  // The conndb GC worker (see EnableConnTracking): arm-if-idle and the
  // per-tick sweep body.
  void ArmConnGc();
  void ConnGcTick();
  // One written frame's user->kernel transfer, as Write and WriteMany
  // charge it: a TX descriptor post on a ring device, else a copy-in.
  std::pair<Cost, pfsim::Duration> TxCharge(size_t bytes);

  Machine* machine_;
  pf::PacketFilter filter_;
  std::unordered_map<pf::PortId, std::unique_ptr<PortExtra>> extras_;
  size_t ring_slots_ = 0;  // ring depth of every port (0 = legacy reads)
  pfsim::Duration conn_gc_interval_ = pfsim::Milliseconds(10);
  bool conn_gc_armed_ = false;

  // Observability (src/obs): the "pfdev.*" counts, exposed in the machine's
  // registry at construction, and histograms registered there once and
  // recorded by pointer on the hot paths. The per-strategy filter-eval
  // histograms sample the *simulated* FilterCost per packet, so their sums
  // reconcile exactly with the Ledger's kFilterEval charge.
  uint64_t reads_ = 0;
  uint64_t read_packets_ = 0;
  uint64_t writes_ = 0;
  uint64_t wakeups_ = 0;
  uint64_t ring_posts_ = 0;     // RX descriptors posted
  uint64_t ring_reaped_ = 0;    // RX descriptors reaped
  uint64_t ring_tx_posts_ = 0;  // TX descriptors posted
  pfobs::Histogram* filter_eval_hist_[pf::kStrategyCount] = {};
  // One sample per descriptor posted/reaped; sums reconcile exactly with
  // ledger.ring_post.* / ledger.ring_reap.* (asserted in obs_test and the
  // micro_zerocopy --check gate).
  pfobs::Histogram* ring_post_hist_ = nullptr;
  pfobs::Histogram* ring_reap_hist_ = nullptr;
  // End-to-end simulated latency of HandlePacket (demux + charges) per
  // frame — the "p99 demux latency" pfstat renders.
  pfobs::Histogram* demux_latency_hist_ = nullptr;
};

}  // namespace pfkern

#endif  // SRC_KERNEL_PF_DEVICE_H_
