// RARP client/server (§5.3) and network monitor (§5.4) tests, plus the
// fig. 3-3 coexistence scenario: kernel protocols, user-level protocols,
// and a monitor sharing one machine without disturbing each other.
#include <gtest/gtest.h>

#include "src/kernel/kernel_ip.h"
#include "src/kernel/machine.h"
#include "src/net/monitor.h"
#include "src/net/pup_endpoint.h"
#include "src/obs/metrics.h"
#include "src/net/rarp.h"
#include "src/proto/ethertypes.h"

namespace {

using pfkern::Cost;
using pfkern::Machine;
using pflink::EthernetSegment;
using pflink::LinkType;
using pflink::MacAddr;
using pfsim::Milliseconds;
using pfsim::Seconds;
using pfsim::Simulator;
using pfsim::Task;

class RarpTest : public ::testing::Test {
 protected:
  RarpTest()
      : segment_(&sim_, LinkType::kEthernet10Mb),
        server_machine_(&sim_, &segment_, MacAddr::Dix(8, 0, 0, 0, 0, 1),
                        pfkern::MicroVaxUltrixCosts(), "rarp-server"),
        diskless_(&sim_, &segment_, MacAddr::Dix(8, 0, 0, 0, 0, 2),
                  pfkern::MicroVaxUltrixCosts(), "diskless") {}

  Simulator sim_;
  EthernetSegment segment_;
  Machine server_machine_;
  Machine diskless_;
};

TEST_F(RarpTest, DisklessClientLearnsItsAddress) {
  const uint32_t kAssigned = pfproto::MakeIpv4(10, 1, 2, 3);
  std::optional<uint32_t> resolved;
  // Read while the scenario still owns the server; it is gone afterwards.
  std::optional<uint64_t> requests_seen;
  std::optional<uint64_t> replies_sent;
  auto scenario = [&]() -> Task {
    pfnet::RarpServer::AddressTable table;
    table[diskless_.link_addr().bytes] = kAssigned;
    auto server = co_await pfnet::RarpServer::Create(&server_machine_,
                                                     server_machine_.NewPid(), table);
    server->Start();
    resolved = co_await pfnet::RarpClient::Resolve(&diskless_, diskless_.NewPid(),
                                                   Milliseconds(500));
    co_await sim_.Delay(Seconds(1));
    requests_seen = server->requests_seen();
    replies_sent = server->replies_sent();
  };
  sim_.Spawn(scenario());
  sim_.RunUntil(pfsim::TimePoint{} + Seconds(30));
  ASSERT_TRUE(resolved.has_value());
  EXPECT_EQ(*resolved, kAssigned);
  EXPECT_EQ(requests_seen, 1u);
  EXPECT_EQ(replies_sent, 1u);
}

TEST_F(RarpTest, UnknownClientGetsNoReply) {
  std::optional<uint32_t> resolved = 1;  // sentinel
  auto scenario = [&]() -> Task {
    auto server = co_await pfnet::RarpServer::Create(&server_machine_,
                                                     server_machine_.NewPid(),
                                                     pfnet::RarpServer::AddressTable{});
    server->Start();
    resolved = co_await pfnet::RarpClient::Resolve(&diskless_, diskless_.NewPid(),
                                                   Milliseconds(100), /*attempts=*/2);
    co_await sim_.Delay(Seconds(1));
    (void)server;
  };
  sim_.Spawn(scenario());
  sim_.RunUntil(pfsim::TimePoint{} + Seconds(30));
  EXPECT_FALSE(resolved.has_value());
}

TEST_F(RarpTest, SurvivesLossViaRetry) {
  segment_.SetLossRate(0.3, 555);
  const uint32_t kAssigned = pfproto::MakeIpv4(10, 1, 2, 4);
  std::optional<uint32_t> resolved;
  auto scenario = [&]() -> Task {
    pfnet::RarpServer::AddressTable table;
    table[diskless_.link_addr().bytes] = kAssigned;
    auto server = co_await pfnet::RarpServer::Create(&server_machine_,
                                                     server_machine_.NewPid(), table);
    server->Start();
    resolved = co_await pfnet::RarpClient::Resolve(&diskless_, diskless_.NewPid(),
                                                   Milliseconds(200), /*attempts=*/20);
    co_await sim_.Delay(Seconds(1));
    (void)server;
  };
  sim_.Spawn(scenario());
  sim_.RunUntil(pfsim::TimePoint{} + Seconds(60));
  ASSERT_TRUE(resolved.has_value());
  EXPECT_EQ(*resolved, kAssigned);
}

TEST(MonitorTest, CapturesCoexistingTrafficWithoutStealing) {
  // Fig. 3-3: kernel UDP and user-level Pup traffic on one wire; a monitor
  // machine captures both; the real recipients still get their packets.
  Simulator sim;
  EthernetSegment segment(&sim, LinkType::kEthernet10Mb);
  Machine alice(&sim, &segment, MacAddr::Dix(8, 0, 0, 0, 0, 1),
                pfkern::MicroVaxUltrixCosts(), "alice");
  Machine bob(&sim, &segment, MacAddr::Dix(8, 0, 0, 0, 0, 2), pfkern::MicroVaxUltrixCosts(),
              "bob");
  Machine watcher(&sim, &segment, MacAddr::Dix(8, 0, 0, 0, 0, 9),
                  pfkern::MicroVaxUltrixCosts(), "watcher");

  const uint32_t alice_ip = pfproto::MakeIpv4(10, 0, 0, 1);
  const uint32_t bob_ip = pfproto::MakeIpv4(10, 0, 0, 2);
  pfkern::KernelIpStack alice_stack(&alice, alice_ip);
  pfkern::KernelIpStack bob_stack(&bob, bob_ip);
  alice.AddNeighbor(bob_ip, bob.link_addr());
  bob.AddNeighbor(alice_ip, alice.link_addr());
  bob_stack.BindUdp(7);

  // Owned outside the coroutine: the monitor must outlive sim.Run() so the
  // test can inspect its summary after the coroutine frame is destroyed.
  std::unique_ptr<pfnet::NetworkMonitor> monitor;
  int udp_received = 0;
  size_t pf_received = 0;

  auto monitor_task = [&]() -> Task {
    const int pid = watcher.NewPid();
    monitor = co_await pfnet::NetworkMonitor::Create(&watcher, pid);
    for (int i = 0; i < 50; ++i) {
      const size_t n = co_await monitor->Poll(pid, Milliseconds(200));
      if (n == 0 && i > 3) {
        break;  // traffic has stopped
      }
    }
  };

  auto udp_receiver = [&]() -> Task {
    const int pid = bob.NewPid();
    for (;;) {
      auto datagram = co_await bob_stack.RecvUdp(pid, 7, Seconds(2));
      if (!datagram.has_value()) {
        co_return;
      }
      ++udp_received;
    }
  };

  auto traffic = [&]() -> Task {
    const int pid = alice.NewPid();
    for (int i = 0; i < 3; ++i) {
      co_await alice_stack.SendUdp(pid, bob_ip, 100, 7, std::vector<uint8_t>(32, 1));
    }
    // User-level Pup datagrams from alice to bob.
    auto sender =
        co_await pfnet::PupEndpoint::Create(&alice, pid, pfproto::PupPort{0, 1, 0x10});
    for (int i = 0; i < 2; ++i) {
      std::vector<uint8_t> data = {9};
      // Pup-over-DIX is unusual but legal here: dst host byte maps into the
      // experimental addressing; use bob's last byte.
      co_await sender->Send(pid, pfproto::PupPort{0, 2, 0x20}, pfproto::PupType::kEchoMe, i,
                            std::move(data));
    }
    (void)sender;
  };

  auto pup_receiver = [&]() -> Task {
    const int pid = bob.NewPid();
    auto endpoint = co_await pfnet::PupEndpoint::Create(&bob, pid, pfproto::PupPort{0, 2, 0x20});
    for (;;) {
      auto packet = co_await endpoint->Recv(pid, Seconds(2));
      if (!packet.has_value()) {
        co_return;
      }
      ++pf_received;
    }
  };

  sim.Spawn(monitor_task());
  sim.Spawn(udp_receiver());
  sim.Spawn(pup_receiver());
  sim.Spawn(traffic());
  sim.RunUntil(pfsim::TimePoint{} + Seconds(120));

  EXPECT_EQ(udp_received, 3);   // kernel protocol undisturbed
  EXPECT_EQ(pf_received, 2u);   // user-level protocol undisturbed
  ASSERT_NE(monitor, nullptr);
  const pfnet::NetworkMonitor::Counters counters = monitor->Snapshot();
  EXPECT_EQ(counters.udp, 3u);
  EXPECT_EQ(counters.frames, 5u);
  EXPECT_EQ(monitor->capture().record_count(), 5u);
  // The capture rides the shared tap plane: the deliver-stage tap scoped to
  // the monitor's port recorded exactly the frames Poll() counted, and the
  // pcapng stream carries one interface per attached tap.
  ASSERT_NE(monitor->tap(), nullptr);
  EXPECT_EQ(monitor->tap()->stats().captured, counters.frames);
  EXPECT_EQ(monitor->tap()->stats().offered, monitor->tap()->stats().captured);
  EXPECT_GE(monitor->capture().interface_count(), 1u);
  EXPECT_NE(monitor->Summary().find("ip=3"), std::string::npos);

  // The monitor's counters are not private state: they live in the watcher
  // machine's metrics registry, so external tooling sees the same numbers.
  const pfobs::Counter* frames = watcher.metrics().FindCounter("monitor.frames");
  const pfobs::Counter* udp = watcher.metrics().FindCounter("monitor.udp");
  ASSERT_NE(frames, nullptr);
  ASSERT_NE(udp, nullptr);
  EXPECT_EQ(frames->value(), 5u);
  EXPECT_EQ(udp->value(), 3u);
  // The NIC-level counters agree that the promiscuous watcher heard
  // everything on the wire.
  const pfobs::Counter* nic_in = watcher.metrics().FindCounter("nic.frames_in");
  ASSERT_NE(nic_in, nullptr);
  EXPECT_GE(nic_in->value(), frames->value());
}

TEST(MonitorTest, DescribeFrameFormats) {
  // Pup frame description.
  pfproto::PupHeader pup_header;
  pup_header.type = 16;
  pup_header.dst = {0, 2, 35};
  pup_header.src = {0, 1, 65};
  pup_header.identifier = 5;
  const auto pup = pfproto::BuildPup(pup_header, std::vector<uint8_t>(3, 0));
  pflink::LinkHeader link;
  link.dst = MacAddr::Experimental(2);
  link.src = MacAddr::Experimental(1);
  link.ether_type = pfproto::kEtherTypePup;
  const auto frame = pflink::BuildFrame(LinkType::kExperimental3Mb, link, *pup);
  const std::string text =
      pfnet::NetworkMonitor::DescribeFrame(LinkType::kExperimental3Mb, frame->bytes);
  EXPECT_NE(text.find("pup type=16"), std::string::npos);
  EXPECT_NE(text.find(":35"), std::string::npos);

  EXPECT_EQ(pfnet::NetworkMonitor::DescribeFrame(LinkType::kEthernet10Mb,
                                                 std::vector<uint8_t>{1, 2}),
            "<truncated frame>");
}

}  // namespace
