// VMTP tests: kernel and user-level implementations against each other's
// structure — transactions, multi-packet groups, duplicate suppression,
// retransmission under loss, and the structural cost difference the paper
// measures (§6.3).
#include <gtest/gtest.h>

#include <memory>

#include "src/kernel/kernel_vmtp.h"
#include "src/kernel/machine.h"
#include "src/net/vmtp.h"

namespace {

using pfkern::Cost;
using pfkern::KernelVmtp;
using pfkern::Machine;
using pfkern::VmtpRequest;
using pflink::EthernetSegment;
using pflink::LinkType;
using pflink::MacAddr;
using pfsim::Milliseconds;
using pfsim::Seconds;
using pfsim::Simulator;
using pfsim::Task;

constexpr uint32_t kServerId = 0x5001;
constexpr uint32_t kClientId = 0xc001;

class VmtpTest : public ::testing::Test {
 protected:
  VmtpTest()
      : segment_(&sim_, LinkType::kEthernet10Mb),
        client_machine_(&sim_, &segment_, MacAddr::Dix(2, 0, 0, 0, 0, 1),
                        pfkern::MicroVaxUltrixCosts(), "client"),
        server_machine_(&sim_, &segment_, MacAddr::Dix(2, 0, 0, 0, 0, 2),
                        pfkern::MicroVaxUltrixCosts(), "server") {}

  Simulator sim_;
  EthernetSegment segment_;
  Machine client_machine_;
  Machine server_machine_;
};

// Kernel VMTP echo server: responds with the request data suffixed by '!'.
pfsim::Task KernelEchoServer(Machine* machine, KernelVmtp* vmtp, int transactions) {
  const int pid = machine->NewPid();
  for (int i = 0; i < transactions; ++i) {
    auto request = co_await vmtp->ReceiveRequest(pid, kServerId, pfsim::Seconds(60));
    if (!request.has_value()) {
      co_return;
    }
    std::vector<uint8_t> reply = request->data;
    reply.push_back('!');
    co_await vmtp->SendResponse(pid, *request, std::move(reply));
  }
}

TEST_F(VmtpTest, KernelTransactionRoundTrip) {
  KernelVmtp client_vmtp(&client_machine_);
  KernelVmtp server_vmtp(&server_machine_);
  server_vmtp.RegisterServer(kServerId);
  sim_.Spawn(KernelEchoServer(&server_machine_, &server_vmtp, 1));

  std::optional<std::vector<uint8_t>> response;
  auto client = [&]() -> Task {
    std::vector<uint8_t> request = {'p', 'i', 'n', 'g'};
    response = co_await client_vmtp.Transact(client_machine_.NewPid(), kClientId,
                                             server_machine_.link_addr(), kServerId,
                                             std::move(request), Seconds(5));
  };
  sim_.Spawn(client());
  sim_.Run();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(*response, (std::vector<uint8_t>{'p', 'i', 'n', 'g', '!'}));
  EXPECT_EQ(client_vmtp.stats().responses_delivered, 1u);
  EXPECT_EQ(server_vmtp.stats().requests_delivered, 1u);
}

TEST_F(VmtpTest, KernelBulkResponseUsesPacketGroup) {
  KernelVmtp client_vmtp(&client_machine_);
  KernelVmtp server_vmtp(&server_machine_);
  server_vmtp.RegisterServer(kServerId);

  const size_t kBulk = 16000;  // > 11 packets at 1450 bytes each
  auto server = [&]() -> Task {
    const int pid = server_machine_.NewPid();
    auto request = co_await server_vmtp.ReceiveRequest(pid, kServerId, Seconds(60));
    if (request.has_value()) {
      co_await server_vmtp.SendResponse(pid, *request, std::vector<uint8_t>(kBulk, 0x42));
    }
  };
  std::optional<std::vector<uint8_t>> response;
  uint64_t server_copies_before = 0;
  auto client = [&]() -> Task {
    std::vector<uint8_t> request = {'r'};
    response = co_await client_vmtp.Transact(client_machine_.NewPid(), kClientId,
                                             server_machine_.link_addr(), kServerId,
                                             std::move(request), Seconds(30));
  };
  (void)server_copies_before;
  sim_.Spawn(server());
  sim_.Spawn(client());
  sim_.Run();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->size(), kBulk);
  // The group crossed the wire as ceil(16000/1450) = 12 packets...
  EXPECT_GE(server_vmtp.stats().packets_out, 12u);
  // ...but the client process paid exactly ONE copy for the response (plus
  // one for its tiny request): the kernel-residency advantage.
  EXPECT_EQ(client_machine_.ledger().count(Cost::kCopy), 2u);
}

TEST_F(VmtpTest, KernelRetransmitsOnLossAndSuppressesDuplicates) {
  segment_.SetLossRate(0.25, 7);
  KernelVmtp client_vmtp(&client_machine_);
  KernelVmtp server_vmtp(&server_machine_);
  server_vmtp.RegisterServer(kServerId);
  sim_.Spawn(KernelEchoServer(&server_machine_, &server_vmtp, 10));

  int successes = 0;
  auto client = [&]() -> Task {
    const int pid = client_machine_.NewPid();
    for (int i = 0; i < 10; ++i) {
      std::vector<uint8_t> request = {static_cast<uint8_t>(i)};
      auto response = co_await client_vmtp.Transact(pid, kClientId,
                                                    server_machine_.link_addr(), kServerId,
                                                    std::move(request), Milliseconds(500), 10);
      if (response.has_value()) {
        ++successes;
        std::vector<uint8_t> expected = {static_cast<uint8_t>(i), '!'};
        EXPECT_EQ(*response, expected);
      }
    }
  };
  sim_.Spawn(client());
  sim_.RunUntil(pfsim::TimePoint{} + pfsim::Seconds(300));
  EXPECT_EQ(successes, 10);
  EXPECT_GT(client_vmtp.stats().client_retransmits, 0u);
  // Each transaction was executed once despite retransmissions: the server
  // delivered exactly 10 requests to the application.
  EXPECT_EQ(server_vmtp.stats().requests_delivered, 10u);
}

// User-level VMTP echo server task. Serves until the network goes quiet —
// a single-threaded user-level server must keep reading its port to answer
// duplicate requests whose responses were lost (the kernel implementation
// gets this for free because its input path is always active). The task
// owns the server: its last read waits out the quiet period, so the
// endpoint must live as long as this loop, not as long as the scenario.
pfsim::Task UserEchoServer(Machine* machine, std::unique_ptr<pfnet::UserVmtpServer> server) {
  const int pid = machine->NewPid();
  for (;;) {
    auto request = co_await server->ReceiveRequest(pid, pfsim::Seconds(5));
    if (!request.has_value()) {
      co_return;  // quiet period: the measurement is over
    }
    std::vector<uint8_t> reply = request->data;
    reply.push_back('!');
    co_await server->SendResponse(pid, *request, std::move(reply));
  }
}

TEST_F(VmtpTest, UserLevelTransactionRoundTrip) {
  std::optional<std::vector<uint8_t>> response;
  auto scenario = [&]() -> Task {
    auto server = co_await pfnet::UserVmtpServer::Create(&server_machine_,
                                                         server_machine_.NewPid(), kServerId,
                                                         /*batching=*/true);
    auto client = co_await pfnet::UserVmtpClient::Create(&client_machine_,
                                                         client_machine_.NewPid(), kClientId,
                                                         /*batching=*/true);
    sim_.Spawn(UserEchoServer(&server_machine_, std::move(server)));
    std::vector<uint8_t> request = {'h', 'e', 'y'};
    response = co_await client->Transact(client_machine_.NewPid(),
                                         server_machine_.link_addr(), kServerId,
                                         std::move(request), Seconds(10));
    // Keep the client alive until the simulation drains.
    co_await sim_.Delay(Seconds(1));
    (void)client;
  };
  sim_.Spawn(scenario());
  sim_.Run();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(*response, (std::vector<uint8_t>{'h', 'e', 'y', '!'}));
  // User-level implementation exercised the packet filter.
  EXPECT_GT(server_machine_.ledger().count(Cost::kFilterEval), 0u);
  EXPECT_GT(server_machine_.ledger().count(Cost::kProtocolUser), 0u);
}

TEST_F(VmtpTest, UserLevelSurvivesLoss) {
  segment_.SetLossRate(0.2, 99);
  int successes = 0;
  auto scenario = [&]() -> Task {
    auto server = co_await pfnet::UserVmtpServer::Create(&server_machine_,
                                                         server_machine_.NewPid(), kServerId,
                                                         true);
    auto client = co_await pfnet::UserVmtpClient::Create(&client_machine_,
                                                         client_machine_.NewPid(), kClientId,
                                                         true);
    sim_.Spawn(UserEchoServer(&server_machine_, std::move(server)));
    const int pid = client_machine_.NewPid();
    for (int i = 0; i < 5; ++i) {
      std::vector<uint8_t> request = {static_cast<uint8_t>(i)};
      auto response =
          co_await client->Transact(pid, server_machine_.link_addr(), kServerId,
                                    std::move(request), Milliseconds(800), 10);
      if (response.has_value()) {
        ++successes;
      }
    }
    co_await sim_.Delay(Seconds(1));
    (void)client;
  };
  sim_.Spawn(scenario());
  sim_.RunUntil(pfsim::TimePoint{} + pfsim::Seconds(300));
  EXPECT_EQ(successes, 5);
}

TEST_F(VmtpTest, UserLevelPaysPerPacketCrossings) {
  // The structural claim of §6.3: for a bulk response, the user-level
  // client pays one read+copy *per packet*, the kernel client one copy per
  // *message*.
  const size_t kBulk = 14500;  // 10 packets
  uint64_t user_copies = 0;
  auto scenario = [&]() -> Task {
    auto server = co_await pfnet::UserVmtpServer::Create(&server_machine_,
                                                         server_machine_.NewPid(), kServerId,
                                                         true);
    auto client = co_await pfnet::UserVmtpClient::Create(&client_machine_,
                                                         client_machine_.NewPid(), kClientId,
                                                         true);
    auto server_loop = [](Machine* machine, pfnet::UserVmtpServer* s,
                          size_t bulk) -> pfsim::Task {
      const int pid = machine->NewPid();
      auto request = co_await s->ReceiveRequest(pid, pfsim::Seconds(60));
      if (request.has_value()) {
        co_await s->SendResponse(pid, *request, std::vector<uint8_t>(bulk, 1));
      }
    };
    sim_.Spawn(server_loop(&server_machine_, server.get(), kBulk));

    const uint64_t copies_before = client_machine_.ledger().count(Cost::kCopy);
    std::vector<uint8_t> request = {'b'};
    auto response = co_await client->Transact(client_machine_.NewPid(),
                                              server_machine_.link_addr(), kServerId,
                                              std::move(request), Seconds(30));
    user_copies = client_machine_.ledger().count(Cost::kCopy) - copies_before;
    EXPECT_TRUE(response.has_value());
    co_await sim_.Delay(Seconds(1));
    (void)server;
    (void)client;
  };
  sim_.Spawn(scenario());
  sim_.Run();
  // >= 10 response-packet copies + request write copy + ack copy.
  EXPECT_GE(user_copies, 12u);
}

}  // namespace
