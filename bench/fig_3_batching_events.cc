// Figures 3-4 / 3-5: per-packet overheads without and with received-packet
// batching — counted events (wakeup switches + read syscalls) for a burst
// of N packets delivered to one port.
// Two more rows count the same burst delivered over the DESIGN.md §13
// modes: shared-memory ring (copies collapse to zero) and ring + NIC poll
// mode.
#include <cmath>
#include <cstdio>

#include "bench/recv_common.h"

namespace {

struct Events {
  uint64_t switches = 0;
  uint64_t syscalls = 0;
  uint64_t copies = 0;
  int packets = 0;
};

Events CountBurst(bool batching, int burst, size_t ring_slots = 0, bool poll = false) {
  pfsim::Simulator sim;
  pflink::EthernetSegment segment(&sim, pflink::LinkType::kEthernet10Mb);
  pfkern::Machine receiver(&sim, &segment, pflink::MacAddr::Dix(8, 0, 0, 0, 0, 2),
                           pfkern::MicroVaxUltrixCosts(), "receiver");
  if (ring_slots > 0) {
    receiver.pf().SetRingDelivery(ring_slots);
  }
  if (poll) {
    receiver.SetPollMode(true);
  }
  pflink::LinkHeader link;
  link.dst = receiver.link_addr();
  link.src = pflink::MacAddr::Dix(8, 0, 0, 0, 0, 1);
  link.ether_type = 0x3333;
  const pflink::Frame frame = *pflink::BuildFrame(pflink::LinkType::kEthernet10Mb, link,
                                                  std::vector<uint8_t>(100, 1));
  Events events;
  auto destination = [&]() -> pfsim::Task {
    const int pid = receiver.NewPid();
    const pf::PortId port = co_await receiver.pf().Open(pid);
    co_await receiver.pf().SetFilter(pid, port, pf::Program{});
    pfkern::PacketFilterDevice::PortOptions options;
    options.batching = batching;
    if (ring_slots == 0) {
      options.queue_limit = 256;  // ring mode sizes the queue to its slots
    }
    co_await receiver.pf().Configure(pid, port, options);
    receiver.ledger().Reset();
    while (events.packets < burst) {
      const auto packets = co_await receiver.pf().Read(pid, port, pfsim::Seconds(10));
      if (packets.empty()) {
        break;
      }
      events.packets += static_cast<int>(packets.size());
    }
    events.switches = receiver.ledger().count(pfkern::Cost::kContextSwitch);
    events.syscalls = receiver.ledger().count(pfkern::Cost::kSyscall);
    events.copies = receiver.ledger().count(pfkern::Cost::kCopy);
  };
  sim.Spawn(destination());
  sim.Schedule(pfsim::Milliseconds(100), [&] {
    for (int i = 0; i < burst; ++i) {
      receiver.OnFrameDelivered(frame, sim.Now());
    }
  });
  sim.RunUntil(pfsim::TimePoint{} + pfsim::Seconds(60));
  pfbench::CaptureMachine(receiver);
  return events;
}

}  // namespace

static int BenchMain(int /*argc*/, char** /*argv*/) {
  constexpr int kBurst = 16;
  const Events without = CountBurst(false, kBurst);
  const Events with = CountBurst(true, kBurst);

  const double nan = std::nan("");
  const Events ring = CountBurst(true, kBurst, /*ring_slots=*/64);
  const Events ring_poll = CountBurst(true, kBurst, /*ring_slots=*/64, /*poll=*/true);
  const std::vector<pfbench::Row> rows = {
      {"without batching (fig. 3-4): context switches", nan,
       static_cast<double>(without.switches)},
      {"without batching (fig. 3-4): system calls", nan, static_cast<double>(without.syscalls)},
      {"without batching (fig. 3-4): copies", nan, static_cast<double>(without.copies)},
      {"with batching (fig. 3-5): context switches", nan, static_cast<double>(with.switches)},
      {"with batching (fig. 3-5): system calls", nan, static_cast<double>(with.syscalls)},
      {"with batching (fig. 3-5): copies", nan, static_cast<double>(with.copies)},
      {"batching + ring: context switches", nan, static_cast<double>(ring.switches)},
      {"batching + ring: system calls", nan, static_cast<double>(ring.syscalls)},
      {"batching + ring: copies", nan, static_cast<double>(ring.copies)},
      {"batching + ring + poll: context switches", nan, static_cast<double>(ring_poll.switches)},
      {"batching + ring + poll: system calls", nan, static_cast<double>(ring_poll.syscalls)},
      {"batching + ring + poll: copies", nan, static_cast<double>(ring_poll.copies)},
  };
  pfbench::PrintTable("Figs. 3-4/3-5: burst of 16 packets, without vs with batching",
                      "counted events on the receiver, one port", "events/burst", rows);
  pfbench::PrintNote(
      "batching \"can amortize the overhead of performing a system call over several "
      "packets\" (§3) — crossings collapse to ~1 per burst; copies remain per-packet.");
  return 0;
}

PFBENCH_MAIN("fig_3_batching_events", BenchMain)
