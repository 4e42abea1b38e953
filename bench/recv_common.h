// Shared receive-path measurement for tables 6-8, 6-9, and 6-10.
//
// A synthetic load (frames injected directly at the receiver's NIC, so
// arrival times are exact) is processed by either
//   * a process reading its own packet-filter port (kernel demultiplexing,
//     fig. 2-2), or
//   * a demultiplexing process forwarding through a pipe to the destination
//     process (user-level demultiplexing, fig. 2-1),
// and the mean elapsed time from frame arrival to the destination process
// holding the packet is reported per packet.
//
// Packets arrive in bursts of `burst` (1 = the unbatched scenario); bursts
// are spaced far apart so every burst finds the receiver blocked — the
// wakeup context switch is part of what the paper measures.
#ifndef BENCH_RECV_COMMON_H_
#define BENCH_RECV_COMMON_H_

#include <functional>
#include <memory>
#include <vector>

#include "bench/harness.h"
#include "src/kernel/pipe.h"
#include "src/net/demux_process.h"
#include "src/obs/trace.h"
#include "src/pf/engine.h"
#include "src/pf/program.h"

namespace pfbench {

struct RecvConfig {
  size_t frame_total = 128;  // on-wire frame size in bytes
  int burst = 1;             // frames per burst
  int bursts = 50;
  bool batching = false;     // batched reads on the destination port
  bool user_demux = false;   // insert demux process + pipe (fig. 2-1)
  // Filter bound to the receiving port; empty program = accept all.
  pf::Program filter;
  // Execution strategy of the kernel demultiplexer's engine.
  pf::Strategy strategy = pf::Strategy::kFast;
  // Enable the per-filter profiler (src/pf/profile.h) on the receiver.
  bool profile = false;
  // Optional tracing (src/obs): attached to the receiver machine, so the
  // run emits interrupt/pf.demux/pf.read spans and per-packet flow events.
  pfobs::TraceSession* trace = nullptr;
  // Called after the run with the receiver machine still alive — snapshot
  // its metrics registry / ledger here (tables 6-10's reconciliation dump).
  std::function<void(pfkern::Machine&)> inspect;
  // Zero-copy delivery knobs (DESIGN.md §13). ring_slots > 0 switches the
  // receiver's pf device to shared-memory ring delivery; poll switches the
  // NIC from per-frame interrupts to budgeted poll rounds.
  size_t ring_slots = 0;
  bool poll = false;
  size_t poll_budget = 16;
};

// Returns the mean per-packet receive cost in milliseconds, measured as
// total receiver CPU time (ledger) divided by packets received. With widely
// spaced bursts nothing overlaps, so CPU time per packet equals the elapsed
// time the paper reports (a receive loop's period includes the next read's
// entry crossing, which an arrival-to-completion window would miss).
inline double MeasureReceivePerPacketMs(const RecvConfig& config) {
  pfsim::Simulator sim;
  pflink::EthernetSegment segment(&sim, pflink::LinkType::kEthernet10Mb);
  pfkern::Machine receiver(&sim, &segment, pflink::MacAddr::Dix(8, 0, 0, 0, 0, 2),
                           pfkern::MicroVaxUltrixCosts(), "receiver");
  receiver.pf().core().SetStrategy(config.strategy);
  if (config.ring_slots > 0) {
    receiver.pf().SetRingDelivery(config.ring_slots);
  }
  if (config.poll) {
    receiver.SetPollMode(true, config.poll_budget);
  }
  if (config.profile) {
    receiver.pf().core().SetProfiling(true);
  }
  if (config.trace != nullptr) {
    receiver.AttachTrace(config.trace);
  }

  // The injected frame: addressed to the receiver, private EtherType.
  pflink::LinkHeader link;
  link.dst = receiver.link_addr();
  link.src = pflink::MacAddr::Dix(8, 0, 0, 0, 0, 1);
  link.ether_type = 0x3333;
  const std::vector<uint8_t> payload(config.frame_total - 14, 0xa5);
  const pflink::Frame frame =
      *pflink::BuildFrame(pflink::LinkType::kEthernet10Mb, link, payload);

  const int total_packets = config.burst * config.bursts;
  int consumed = 0;

  std::unique_ptr<pfkern::MessagePipe> pipe;
  std::unique_ptr<pfnet::UserDemuxProcess> demux;

  // Destination process: consumes packets, accumulating busy time.
  auto destination = [&]() -> pfsim::Task {
    const int pid = receiver.NewPid();
    pf::PortId port = pf::kInvalidPort;
    if (config.user_demux) {
      pipe = std::make_unique<pfkern::MessagePipe>(&receiver, 256);
      demux = co_await pfnet::UserDemuxProcess::Create(&receiver, config.filter,
                                                       config.batching, pipe.get());
      demux->Start();
    } else {
      port = co_await receiver.pf().Open(pid);
      co_await receiver.pf().SetFilter(pid, port, config.filter);
      pfkern::PacketFilterDevice::PortOptions options;
      options.batching = config.batching;
      if (config.ring_slots == 0) {
        options.queue_limit = 512;  // ring mode sizes the queue to its slots
      }
      co_await receiver.pf().Configure(pid, port, options);
    }
    auto read_once = [&]() -> pfsim::ValueTask<size_t> {
      if (config.user_demux && config.batching) {
        co_return (co_await pipe->ReadBatch(pid, pfsim::Seconds(30))).size();
      }
      if (config.user_demux) {
        const auto message = co_await pipe->Read(pid, pfsim::Seconds(30));
        co_return message.has_value() ? 1 : 0;
      }
      co_return (co_await receiver.pf().Read(pid, port, pfsim::Seconds(30))).size();
    };
    consumed = co_await DrainPackets(total_packets, read_once);
  };

  // Load generator: a sim event injects each burst directly at the NIC.
  // Setup costs (open/ioctls) fall before the ledger reset.
  auto inject = [&]() -> pfsim::Task {
    co_await sim.Delay(pfsim::Milliseconds(100));  // let port setup finish
    receiver.ledger().Reset();
    for (int b = 0; b < config.bursts; ++b) {
      for (int i = 0; i < config.burst; ++i) {
        // Each injected frame gets its own flow id so a traced run can
        // follow individual packets arrival -> read.
        pflink::Frame tagged = frame;
        tagged.flow_id = segment.NextFlowId();
        receiver.OnFrameDelivered(tagged, sim.Now());
      }
      // Far enough apart that the previous burst fully drains and the
      // destination blocks again.
      co_await sim.Delay(pfsim::Milliseconds(200));
    }
  };

  sim.Spawn(destination());
  sim.Spawn(inject());
  sim.RunUntil(pfsim::TimePoint{} + pfsim::Seconds(120));
  if (config.inspect) {
    config.inspect(receiver);
  }
  CaptureMachine(receiver);  // no-op outside a pfbench sweep
  if (consumed == 0) {
    return 0;
  }
  return pfsim::ToMilliseconds(receiver.ledger().grand_total()) / consumed;
}

}  // namespace pfbench

#endif  // BENCH_RECV_COMMON_H_
