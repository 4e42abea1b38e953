// §6.1: "Kernel per-packet processing time" — the paper's gprof profile of
// a timesharing VAX, reproduced from the simulator's exact cost ledger.
//
// Workload mix as measured in the paper: 21% of received packets go to the
// packet filter (Pup traffic across 12 ports), 69% are IP (UDP), 10% are
// ARP. Reported:
//   * packet filter: mean kernel CPU per packet (paper: 1.57 ms), the share
//     spent evaluating filter predicates (paper: 41%), and the mean number
//     of predicates tested (paper: 6.3);
//   * the linear model t(n) = a + b*n for n predicates tested
//     (paper: 0.8 ms + 0.122 ms * n);
//   * kernel IP: full input cost per packet (paper: 1.77 ms) and the
//     IP-layer-only share (paper: 0.49 ms).
#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "src/kernel/kernel_ip.h"
#include "src/proto/arp_rarp.h"
#include "src/net/pup_endpoint.h"
#include "src/proto/ethertypes.h"
#include "src/util/rng.h"
#include "tests/test_packets.h"

namespace {

using pfkern::Cost;
using pfkern::Machine;

constexpr int kPorts = 12;

struct ProfileResult {
  double pf_ms_per_packet = 0;
  double filter_eval_share = 0;
  double predicates_per_packet = 0;
  double ip_full_ms = 0;
  double ip_layer_ms = 0;
  // Mean kernel CPU over *all* received packets (ledger grand total), the
  // figure the delivery-mode comparison reports.
  double kernel_ms_per_packet = 0;
};

// Runs `packets` frames against the receiver; fraction by type per the
// paper's profile. If `fixed_socket` > 0, all traffic is Pup to that socket
// (for the linear-model sweep). `ring`/`poll` select the DESIGN.md §13
// delivery modes.
ProfileResult RunProfile(int packets, int fixed_socket = 0, bool ring = false,
                         bool poll = false) {
  pfsim::Simulator sim;
  pflink::EthernetSegment segment(&sim, pflink::LinkType::kEthernet10Mb);
  Machine receiver(&sim, &segment, pflink::MacAddr::Dix(8, 0, 0, 0, 0, 2),
                   pfkern::MicroVaxUltrixCosts(), "timesharing-vax");
  if (ring) {
    receiver.pf().SetRingDelivery(128);
  }
  if (poll) {
    receiver.SetPollMode(true);
  }
  pfkern::KernelIpStack ip_stack(&receiver, pfproto::MakeIpv4(10, 0, 0, 2));
  ip_stack.BindUdp(9);
  // ARP is a kernel-resident protocol here (the 10% of §6.1's profile).
  receiver.RegisterKernelProtocol(
      pfproto::kEtherTypeArp,
      [&receiver](const pflink::Frame&, const pflink::LinkHeader&) -> pfsim::ValueTask<void> {
        co_await receiver.Run(Machine::kInterruptContext, Cost::kProtocolKernel,
                              pfsim::Microseconds(200));
      });

  // 12 packet-filter ports; socket k's filter is the k-th tested (strictly
  // descending priorities), so a packet to socket k costs k predicate
  // applications.
  auto setup_and_read = [&](int k) -> pfsim::Task {
    const int pid = receiver.NewPid();
    const pf::PortId port = co_await receiver.pf().Open(pid);
    co_await receiver.pf().SetFilter(
        pid, port,
        pfnet::MakePupSocketFilter(static_cast<uint32_t>(k), static_cast<uint8_t>(200 - k),
                                   pflink::LinkType::kEthernet10Mb));
    for (;;) {
      const auto got = co_await receiver.pf().Read(pid, port, pfsim::Seconds(60));
      if (got.empty()) {
        co_return;
      }
    }
  };
  for (int k = 1; k <= kPorts; ++k) {
    sim.Spawn(setup_and_read(k));
  }
  auto udp_reader = [&]() -> pfsim::Task {
    const int pid = receiver.NewPid();
    for (;;) {
      const auto got = co_await ip_stack.RecvUdp(pid, 9, pfsim::Seconds(60));
      if (!got.has_value()) {
        co_return;
      }
    }
  };
  sim.Spawn(udp_reader());

  // Pre-built frames. Pup frames use the DIX link header here, so the
  // socket filters' word offsets are the 10 Mb/s variants.
  auto pup_frame = [&](uint32_t socket) {
    pfproto::PupHeader header;
    header.type = 8;
    header.dst = {0, 2, socket};
    header.src = {0, 1, 0x99};
    const auto pup = pfproto::BuildPup(header, std::vector<uint8_t>(64, 1));
    pflink::LinkHeader link;
    link.dst = receiver.link_addr();
    link.src = pflink::MacAddr::Dix(8, 0, 0, 0, 0, 1);
    link.ether_type = pfproto::kEtherTypePup;
    return *pflink::BuildFrame(pflink::LinkType::kEthernet10Mb, link, *pup);
  };
  const auto udp_frame = [&] {
    const auto segment_bytes = pfproto::BuildUdp({7, 9}, 1, 2, std::vector<uint8_t>(64, 2));
    pfproto::IpHeader ip;
    ip.protocol = pfproto::kIpProtoUdp;
    ip.src = pfproto::MakeIpv4(10, 0, 0, 1);
    ip.dst = pfproto::MakeIpv4(10, 0, 0, 2);
    pflink::LinkHeader link;
    link.dst = receiver.link_addr();
    link.src = pflink::MacAddr::Dix(8, 0, 0, 0, 0, 1);
    link.ether_type = pfproto::kEtherTypeIp;
    return *pflink::BuildFrame(pflink::LinkType::kEthernet10Mb, link,
                               pfproto::BuildIp(ip, segment_bytes));
  }();
  const auto arp_frame = [&] {
    pflink::LinkHeader link;
    link.dst = receiver.link_addr();
    link.src = pflink::MacAddr::Dix(8, 0, 0, 0, 0, 1);
    link.ether_type = pfproto::kEtherTypeArp;
    return *pflink::BuildFrame(pflink::LinkType::kEthernet10Mb, link,
                               pfproto::BuildArp(pfproto::ArpPacket{}));
  }();

  int pf_packets = 0;
  int ip_packets = 0;
  auto inject = [&]() -> pfsim::Task {
    co_await sim.Delay(pfsim::Milliseconds(100));
    receiver.ledger().Reset();
    pfutil::Rng rng(0x61);
    for (int i = 0; i < packets; ++i) {
      if (fixed_socket > 0) {
        receiver.OnFrameDelivered(pup_frame(static_cast<uint32_t>(fixed_socket)), sim.Now());
        ++pf_packets;
      } else {
        const uint64_t roll = rng.Below(100);
        if (roll < 21) {
          receiver.OnFrameDelivered(
              pup_frame(static_cast<uint32_t>(rng.Range(1, kPorts))), sim.Now());
          ++pf_packets;
        } else if (roll < 90) {
          receiver.OnFrameDelivered(udp_frame, sim.Now());
          ++ip_packets;
        } else {
          receiver.OnFrameDelivered(arp_frame, sim.Now());
        }
      }
      co_await sim.Delay(pfsim::Milliseconds(20));
    }
  };
  sim.Spawn(inject());
  sim.RunUntil(pfsim::TimePoint{} + pfsim::Seconds(7200));

  ProfileResult result;
  const auto& ledger = receiver.ledger();
  result.kernel_ms_per_packet = pfsim::ToMilliseconds(ledger.grand_total()) / packets;
  if (pf_packets > 0) {
    // Kernel CPU attributable to the packet filter per PF packet: interrupt
    // + filter evaluation + bookkeeping (the paper's enf_* routines plus
    // driver input share).
    const double filter_ms = pfsim::ToMilliseconds(ledger.total(Cost::kFilterEval));
    const double pf_ms = filter_ms + pfsim::ToMilliseconds(ledger.total(Cost::kPfBookkeeping)) +
                         pfsim::ToMilliseconds(receiver.costs().recv_interrupt) * pf_packets;
    result.pf_ms_per_packet = pf_ms / pf_packets;
    result.filter_eval_share = filter_ms / pf_ms;
    const auto& g = receiver.pf().core().global_stats();
    result.predicates_per_packet =
        static_cast<double>(g.exec.filters_run) / static_cast<double>(g.packets_in);
  }
  if (ip_packets > 0) {
    result.ip_layer_ms = pfsim::ToMilliseconds(ledger.total(Cost::kIpInput)) / ip_packets;
    result.ip_full_ms =
        result.ip_layer_ms +
        (pfsim::ToMilliseconds(ledger.total(Cost::kTransportInput)) +
         pfsim::ToMilliseconds(receiver.costs().recv_interrupt) * ip_packets) /
            ip_packets;
  }
  return result;
}

}  // namespace

static int BenchMain(int /*argc*/, char** /*argv*/) {
  const ProfileResult mixed = RunProfile(2000);

  pfbench::PrintTable(
      "Sec. 6.1: Kernel per-packet processing time (mixed 21%/69%/10% profile)",
      "kernel CPU per received packet, §6.1", "",
      {
          {"packet filter, ms per packet", 1.57, mixed.pf_ms_per_packet},
          {"  share spent evaluating filters (%)", 41, mixed.filter_eval_share * 100},
          {"  predicates tested per packet", 6.3, mixed.predicates_per_packet},
          {"kernel IP input, ms per packet", 1.77, mixed.ip_full_ms},
          {"  IP layer only, ms per packet", 0.49, mixed.ip_layer_ms},
      });

  // Linear model: time per PF packet vs. predicates tested.
  const ProfileResult n1 = RunProfile(300, 1);
  const ProfileResult n12 = RunProfile(300, kPorts);
  const double slope = (n12.pf_ms_per_packet - n1.pf_ms_per_packet) / (kPorts - 1);
  const double base = n1.pf_ms_per_packet - slope;
  std::printf(
      "    linear model for PF packet cost vs predicates tested:\n"
      "      paper: 0.80 ms + 0.122 ms/predicate\n"
      "      ours:  %.2f ms + %.3f ms/predicate\n",
      base, slope);
  std::printf(
      "    (a mismatching fig. 3-9-style predicate costs 2 instructions thanks to the\n"
      "    short-circuit CAND; the paper's 0.122 ms average reflects longer filters.)\n");

  // DESIGN.md §13 delivery modes over the same mixed profile: the ring
  // removes the read-time copy, poll mode batches interrupt work.
  const ProfileResult ring = RunProfile(2000, 0, /*ring=*/true);
  const ProfileResult ring_poll = RunProfile(2000, 0, /*ring=*/true, /*poll=*/true);
  std::printf(
      "    zero-copy delivery, mean kernel CPU per received packet (all traffic):\n"
      "      legacy read(): %.3f ms   ring: %.3f ms   ring + poll: %.3f ms\n",
      mixed.kernel_ms_per_packet, ring.kernel_ms_per_packet, ring_poll.kernel_ms_per_packet);
  return 0;
}

PFBENCH_MAIN("sec_6_1_per_packet", BenchMain)
