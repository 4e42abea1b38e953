// A simulated host: one CPU with context-switch accounting, a network
// interface on an Ethernet segment, the packet-filter pseudodevice, and
// registration points for kernel-resident protocol stacks.
//
// The execution model mirrors the paper's analysis (§6.5.1):
//   * All work is charged to the single CPU, granted in FIFO order:
//     interrupt handlers, kernel protocol input, and user processes serialize.
//   * Each charge carries an execution context. When a non-interrupt
//     context acquires the CPU and the previous owner differs, a context
//     switch is charged (0.4 ms on the MicroVAX). Interrupt handlers borrow
//     the current context — they never charge a switch.
//   * A process that is about to block calls MarkBlocked(); the CPU owner
//     becomes "idle", so its next charge pays a switch — while a process
//     that kept running (e.g. batch-reading a busy port) pays none. That is
//     exactly the paper's "in the best case the receiving process will
//     never be suspended, and no context switches take place".
#ifndef SRC_KERNEL_MACHINE_H_
#define SRC_KERNEL_MACHINE_H_

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/kernel/cost_model.h"
#include "src/kernel/ledger.h"
#include "src/link/frame.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/link/segment.h"
#include "src/pf/drop.h"
#include "src/pf/tap.h"
#include "src/sim/sim_time.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"
#include "src/sim/value_task.h"

namespace pfkern {

class PacketFilterDevice;

class Machine : public pflink::Station {
 public:
  // Execution contexts. Non-negative values are process ids from NewPid().
  static constexpr int kInterruptContext = -1;
  static constexpr int kIdleContext = -2;

  Machine(pfsim::Simulator* sim, pflink::EthernetSegment* segment, pflink::MacAddr addr,
          CostModel costs, std::string name);
  ~Machine() override;
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // --- Station ---
  void OnFrameDelivered(const pflink::Frame& frame, pfsim::TimePoint at) override;
  pflink::MacAddr link_addr() const override { return addr_; }
  bool promiscuous() const override { return promiscuous_; }

  // --- Accessors ---
  pfsim::Simulator* sim() { return sim_; }
  pflink::EthernetSegment* segment() { return segment_; }
  const pflink::LinkProperties& link_properties() const { return segment_->properties(); }
  const CostModel& costs() const { return costs_; }
  Ledger& ledger() { return ledger_; }
  const std::string& name() const { return name_; }
  PacketFilterDevice& pf() { return *pf_device_; }

  // --- Observability (src/obs) ---
  // Every machine owns a metrics registry; the demux, engine, device, and
  // protocol stacks expose their counts and register their histograms in
  // it at construction time.
  pfobs::MetricsRegistry& metrics() { return metrics_; }
  const pfobs::MetricsRegistry& metrics() const { return metrics_; }
  // Tracing is opt-in: attach a (shared, per-simulation) session and this
  // machine emits spans/flow events onto its own track. Null detaches.
  void AttachTrace(pfobs::TraceSession* session);
  pfobs::TraceSession* trace() { return trace_; }
  int trace_track() const { return trace_track_; }

  // Full observability snapshot of this machine: ledger ("gprof" profile)
  // bridged into the registry, then the registry dumped. Text form for
  // humans, JSON for tooling (`{"machine":...,"ledger":...,"metrics":...}`).
  std::string SnapshotText();
  std::string SnapshotJson();

  // NIC hears every frame on the segment (monitor use, §5.4).
  void SetPromiscuous(bool enabled) { promiscuous_ = enabled; }
  // Bounds the NIC receive ring: at most `capacity` frames may be awaiting
  // interrupt service; further arrivals are dropped at the ring (counted as
  // ring_overflow, charged nothing — the DMA engine had nowhere to put
  // them). 0 (the default) models an unbounded ring, preserving the ideal
  // clean-path behavior.
  void SetRxRing(size_t capacity) { rx_ring_capacity_ = capacity; }
  size_t rx_pending() const { return rx_pending_; }
  // Frames claimed by kernel stacks are *also* offered to the packet filter
  // (the coexistence of fig. 3-3, needed to monitor kernel protocols).
  void SetTapAllToPf(bool enabled) { tap_all_to_pf_ = enabled; }

  // --- Capture taps (src/pf/tap.h, DESIGN.md §16) ---
  // The machine-wide tap registry: the NIC offers kNicRx (every frame
  // heard, post-impairment, pre-FCS-check) and NIC-level drops; the demux
  // core (wired at construction) offers kDemuxIn / kDeliver / kDrop. The
  // pcapng stream the taps share lives here (taps().WriteFile(path)).
  pf::TapSet& taps() { return taps_; }
  const pf::TapSet& taps() const { return taps_; }

  // --- Poll-mode receive (DESIGN.md §13) ---
  // Off (the default): every frame takes a receive interrupt — the 1987
  // path. On: the first frame of an idle period takes one interrupt to kick
  // the poller; the poller then drains the rx ring in rounds of up to
  // `budget` frames, charging kPollLoop (poll_round + poll_per_frame × n)
  // per round with interrupts left masked, and re-arms when the ring goes
  // empty. Per-frame interrupt cost disappears exactly under load.
  void SetPollMode(bool enabled, size_t budget = 16);
  bool poll_mode() const { return poll_mode_; }

  // --- Processes ---
  int NewPid() { return next_pid_++; }
  void Spawn(pfsim::Task task) { sim_->Spawn(std::move(task)); }

  // --- CPU accounting ---
  using Charge = std::pair<Cost, pfsim::Duration>;
  // What Run and RunMulti return, in the awaiting frame (DESIGN.md §2): a
  // free CPU is taken in await_ready, a busy one queues the caller until
  // ReleaseCpu grants it, and await_resume releases it.
  struct [[nodiscard]] Acquire {
    Machine* machine;
    int ctx;
    std::span<const Charge> charges;  // empty: Run's one charge, `single`
    Charge single = {};
    pfsim::Duration total = {};
    std::coroutine_handle<> handle = nullptr;
    bool holds = false;  // this acquisition holds the CPU

    std::span<const Charge> list() const {
      return charges.empty() ? std::span(&single, 1) : charges;
    }
    bool await_ready();
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      if (holds) {
        machine->sim_->ScheduleResume(total, h);
      } else {
        machine->cpu_waiters_.push_back(this);
      }
    }
    void await_resume() {
      if (holds) {
        machine->ReleaseCpu();
      }
    }
  };
  // Acquires the CPU as `ctx`, charges a context switch if the owner
  // changed (never for interrupt context), consumes `work`, releases. One
  // acquisition is one simulator event: the ledger steps when the CPU is
  // acquired and the caller resumes once the whole charge has elapsed
  // (DESIGN.md §2). Zero work by the current owner schedules no event.
  Acquire Run(int ctx, Cost category, pfsim::Duration work) {
    return Acquire{this, ctx, {}, {category, work}};
  }
  // Same, with several charges under one CPU acquisition (so an interrupt's
  // multi-part cost is not preempted between parts): each non-zero charge
  // is its own ledger entry, and one event covers their sum. `charges` is
  // read at acquisition; the caller's frame keeps it alive meanwhile.
  Acquire RunMulti(int ctx, std::span<const Charge> charges) {
    return Acquire{this, ctx, charges};
  }
  // Declares that `ctx` is about to block; the CPU owner becomes idle, so
  // its next acquisition pays a context switch.
  void MarkBlocked(int ctx);
  int cpu_owner() const { return cpu_owner_; }

  // The ledger charge for one kernel<->user copy of `bytes` bytes, counted
  // in the "pf.copy.*" metric family as it is built. Every kCopy charge in
  // the kernel goes through here, so `pf.copy.count == ledger(kCopy).charges`
  // and the before/after copy elimination is directly observable
  // (NetworkMonitor::Summary, pfstat).
  Charge CopyCharge(size_t bytes);
  uint64_t copies() const { return copies_; }
  uint64_t copy_bytes() const { return copy_bytes_; }

  // --- Static neighbor table (IP -> link address) ---
  // The kernel stack resolves next hops here; examples/rarp_daemon shows the
  // dynamic path via RARP.
  void AddNeighbor(uint32_t ip, pflink::MacAddr mac) { neighbors_[ip] = mac; }
  std::optional<pflink::MacAddr> Resolve(uint32_t ip) const;

  // --- Transmit paths ---
  // Raw frame (the packet filter's write(): the user supplies the complete
  // packet including the data-link header). Charges driver_send.
  pfsim::ValueTask<bool> TransmitRaw(int ctx, std::vector<uint8_t> frame_bytes);
  // Kernel-stack convenience: builds the link header around `payload`.
  pfsim::ValueTask<bool> TransmitFrame(int ctx, pflink::MacAddr dst, uint16_t ether_type,
                                       std::vector<uint8_t> payload);
  // Zero-copy form: the frame adopts `buf`'s block (BuildFrame output, or a
  // buffer already owned by protocol code).
  pfsim::ValueTask<bool> TransmitBuf(int ctx, pf::PacketBuf buf);

  // --- Kernel protocol dispatch ---
  // Handler runs in interrupt context; it must charge its own costs via
  // Run()/RunMulti() *before* waking user processes.
  using FrameHandler =
      std::function<pfsim::ValueTask<void>(const pflink::Frame&, const pflink::LinkHeader&)>;
  void RegisterKernelProtocol(uint16_t ether_type, FrameHandler handler);

  struct NicStats {
    // Conservation: frames_in == ring_overflow + crc_errors + truncated +
    // frames delivered up the stack (to_kernel and/or to_pf, or neither if
    // no kernel handler claimed the frame and the tap is off). Asserted in
    // the chaos harness.
    uint64_t frames_in = 0;       // every frame the NIC heard
    uint64_t frames_out = 0;
    uint64_t frames_to_kernel = 0;
    uint64_t frames_to_pf = 0;
    uint64_t ring_overflow = 0;   // dropped: receive ring full
    uint64_t crc_errors = 0;      // dropped: FCS mismatch (corruption)
    uint64_t truncated = 0;       // dropped: shorter than transmitted
    // Poll mode only (SetPollMode). poll_kicks counts the rearm interrupts;
    // poll_frames counts frames drained by the poller, so in poll mode
    // poll_frames == frames_in - ring_overflow.
    uint64_t poll_kicks = 0;
    uint64_t poll_rounds = 0;
    uint64_t poll_frames = 0;
  };
  const NicStats& nic_stats() const { return nic_stats_; }

 private:
  // The ledger side of one CPU acquisition by `ctx`: the context switch
  // (making `ctx` the owner) and every non-zero charge. Returns the time
  // the acquisition holds the CPU.
  pfsim::Duration Account(int ctx, std::span<const Charge> charges);
  // Frees the CPU, or hands it to the first queued acquisition with one
  // zero-delay grant event that accounts it and resumes it after the total.
  void ReleaseCpu();

  pfsim::Task ReceiveTask(pflink::Frame frame);
  // NAPI-style poller: drains poll_queue_ in budget-sized rounds, then
  // re-arms (poll_active_ = false). Exactly one instance runs at a time.
  pfsim::Task PollTask();
  // The post-driver receive path shared by both modes: FCS/truncation
  // verification, kernel-protocol dispatch, packet-filter tap.
  pfsim::ValueTask<void> ProcessFrame(pflink::Frame frame);
  // Counts + flight-records a frame the NIC driver rejected before any
  // demultiplexing (ring overflow, bad CRC, truncation).
  void RecordNicDrop(pf::DropReason reason, const pflink::Frame& frame);

  pfsim::Simulator* sim_;
  pflink::EthernetSegment* segment_;
  pflink::MacAddr addr_;
  CostModel costs_;
  std::string name_;
  Ledger ledger_;
  pfobs::MetricsRegistry metrics_;
  pfobs::TraceSession* trace_ = nullptr;
  int trace_track_ = 0;

  bool cpu_locked_ = false;
  std::deque<Acquire*> cpu_waiters_;  // FIFO
  int cpu_owner_ = kIdleContext;
  int next_pid_ = 1;
  bool promiscuous_ = false;
  bool tap_all_to_pf_ = false;

  std::unordered_map<uint16_t, FrameHandler> kernel_handlers_;
  std::unordered_map<uint32_t, pflink::MacAddr> neighbors_;
  pf::TapSet taps_;
  std::unique_ptr<PacketFilterDevice> pf_device_;
  NicStats nic_stats_;
  size_t rx_ring_capacity_ = 0;  // 0 = unbounded
  size_t rx_pending_ = 0;        // frames awaiting interrupt service

  // Poll-mode receive state (SetPollMode).
  bool poll_mode_ = false;
  size_t poll_budget_ = 16;
  bool poll_active_ = false;              // a PollTask is draining
  std::deque<pflink::Frame> poll_queue_;  // the rx ring, poller's view

  // pf.copy.* (see CopyCharge).
  uint64_t copies_ = 0;
  uint64_t copy_bytes_ = 0;
};

}  // namespace pfkern

#endif  // SRC_KERNEL_MACHINE_H_
