// Tests for the pseudodevice's §3/§3.3/§7 interface features beyond plain
// read/write: select across ports, signal-on-reception, write batching, the
// batched pipe operations the user-level demultiplexer relies on, and the
// wakeup path (a frame wakes every port its demux reached; Close wakes the
// port's sleepers; a timed-out read still returns what is queued).
#include <gtest/gtest.h>

#include "src/kernel/machine.h"
#include "src/kernel/pf_device.h"
#include "src/kernel/pipe.h"
#include "src/net/pup_endpoint.h"
#include "tests/test_packets.h"

namespace {

using pfkern::Cost;
using pfkern::Machine;
using pfsim::Milliseconds;
using pfsim::Seconds;
using pfsim::Task;

class PfDeviceTest : public ::testing::Test {
 protected:
  PfDeviceTest()
      : segment_(&sim_, pflink::LinkType::kExperimental3Mb),
        alice_(&sim_, &segment_, pflink::MacAddr::Experimental(1),
               pfkern::MicroVaxUltrixCosts(), "alice"),
        bob_(&sim_, &segment_, pflink::MacAddr::Experimental(2),
             pfkern::MicroVaxUltrixCosts(), "bob") {}

  pfsim::Simulator sim_;
  pflink::EthernetSegment segment_;
  Machine alice_;
  Machine bob_;
};

TEST_F(PfDeviceTest, SelectReturnsReadyPort) {
  pf::PortId ready = pf::kInvalidPort;
  pf::PortId port35 = pf::kInvalidPort;
  auto receiver = [&]() -> Task {
    const int pid = bob_.NewPid();
    port35 = co_await bob_.pf().Open(pid);
    const pf::PortId port36 = co_await bob_.pf().Open(pid);
    co_await bob_.pf().SetFilter(pid, port35, pfnet::MakePupSocketFilter(35, 10));
    co_await bob_.pf().SetFilter(pid, port36, pfnet::MakePupSocketFilter(36, 10));
    std::vector<pf::PortId> ports = {port36, port35};
    ready = co_await bob_.pf().Select(pid, std::move(ports), Seconds(5));
  };
  auto sender = [&]() -> Task {
    const int pid = alice_.NewPid();
    co_await sim_.Delay(Milliseconds(20));
    co_await alice_.pf().Write(pid, pftest::MakePupFrame(8, 35, 2));
  };
  sim_.Spawn(receiver());
  sim_.Spawn(sender());
  sim_.Run();
  EXPECT_EQ(ready, port35);
}

TEST_F(PfDeviceTest, SelectTimesOutWithNoTraffic) {
  pf::PortId ready = 1;
  pfsim::TimePoint finished;
  auto receiver = [&]() -> Task {
    const int pid = bob_.NewPid();
    const pf::PortId port = co_await bob_.pf().Open(pid);
    co_await bob_.pf().SetFilter(pid, port, pfnet::MakePupSocketFilter(35, 10));
    std::vector<pf::PortId> ports = {port};
    ready = co_await bob_.pf().Select(pid, std::move(ports), Milliseconds(40));
    finished = sim_.Now();
  };
  sim_.Spawn(receiver());
  sim_.Run();
  EXPECT_EQ(ready, pf::kInvalidPort);
  EXPECT_GE(finished.time_since_epoch().count(), Milliseconds(40).count());
}

TEST_F(PfDeviceTest, SelectZeroTimeoutPolls) {
  pf::PortId ready = 1;
  auto receiver = [&]() -> Task {
    const int pid = bob_.NewPid();
    const pf::PortId port = co_await bob_.pf().Open(pid);
    co_await bob_.pf().SetFilter(pid, port, pfnet::MakePupSocketFilter(35, 10));
    std::vector<pf::PortId> ports = {port};
    ready = co_await bob_.pf().Select(pid, std::move(ports), pfsim::Duration(0));
  };
  sim_.Spawn(receiver());
  sim_.Run();
  EXPECT_EQ(ready, pf::kInvalidPort);
}

TEST_F(PfDeviceTest, SignalFiresOncePerQueueEdge) {
  int signals = 0;
  auto scenario = [&]() -> Task {
    const int pid = bob_.NewPid();
    const pf::PortId port = co_await bob_.pf().Open(pid);
    co_await bob_.pf().SetFilter(pid, port, pfnet::MakePupSocketFilter(35, 10));
    bob_.pf().SetSignal(port, [&] { ++signals; });

    const int alice_pid = alice_.NewPid();
    // Three packets while nobody reads: one edge, one signal.
    for (int i = 0; i < 3; ++i) {
      co_await alice_.pf().Write(alice_pid, pftest::MakePupFrame(8, 35, 2));
    }
    co_await sim_.Delay(Milliseconds(100));
    EXPECT_EQ(signals, 1);

    // Drain, then one more packet: a new edge, a second signal.
    (void)co_await bob_.pf().Read(pid, port, pfsim::Duration(0));
    (void)co_await bob_.pf().Read(pid, port, pfsim::Duration(0));
    (void)co_await bob_.pf().Read(pid, port, pfsim::Duration(0));
    co_await alice_.pf().Write(alice_pid, pftest::MakePupFrame(8, 35, 2));
    co_await sim_.Delay(Milliseconds(100));
    EXPECT_EQ(signals, 2);
  };
  sim_.Spawn(scenario());
  sim_.Run();
  EXPECT_EQ(signals, 2);
}

// Two frames back to back at the device: the second frame's demux runs
// while the first frame's charges still hold the CPU. Each frame must wake
// the reader its own demux reached.
TEST_F(PfDeviceTest, BackToBackFramesWakeEveryBlockedReader) {
  constexpr pfsim::Duration kTimeout = Seconds(1);
  std::vector<pf::ReceivedPacket> got[2];
  pfsim::TimePoint returned[2];
  pfsim::TimePoint deadline[2];
  auto reader = [&](int i, uint32_t socket) -> Task {
    const int pid = bob_.NewPid();
    const pf::PortId port = co_await bob_.pf().Open(pid);
    co_await bob_.pf().SetFilter(pid, port, pfnet::MakePupSocketFilter(socket, 10));
    deadline[i] = sim_.Now() + kTimeout;
    got[i] = co_await bob_.pf().Read(pid, port, kTimeout);
    returned[i] = sim_.Now();
  };
  auto frame = [&](uint32_t socket) -> Task {
    co_await sim_.Delay(Milliseconds(50));
    const pf::PacketBuf packet(pftest::MakePupFrame(8, socket, 2));
    co_await bob_.pf().HandlePacket(packet, 0);
  };
  sim_.Spawn(reader(0, 35));
  sim_.Spawn(reader(1, 36));
  sim_.Spawn(frame(35));
  sim_.Spawn(frame(36));
  sim_.Run();
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(got[i].size(), 1u) << "reader " << i;
    EXPECT_LT(returned[i], deadline[i]) << "reader " << i;
  }
  EXPECT_EQ(bob_.metrics().FindCounter("pfdev.wakeups")->value(), 2);
}

// A Read whose deadline falls after the demux queued its packet but before
// the frame's charges end (and its ring) returns that packet, not the §3
// timeout error.
TEST_F(PfDeviceTest, TimedOutReadReturnsWhatIsQueued) {
  constexpr pfsim::Duration kTimeout = Milliseconds(10);
  std::vector<pf::ReceivedPacket> got;
  pfsim::TimePoint deadline;
  pfsim::TimePoint returned;
  pfsim::TimePoint rung;
  auto reader = [&]() -> Task {
    const int pid = bob_.NewPid();
    const pf::PortId port = co_await bob_.pf().Open(pid);
    co_await bob_.pf().SetFilter(pid, port, pfnet::MakePupSocketFilter(35, 10));
    // The process already owns the CPU, so the read charges one crossing
    // and then starts its clock.
    deadline = sim_.Now() + bob_.costs().syscall + kTimeout;
    got = co_await bob_.pf().Read(pid, port, kTimeout);
    returned = sim_.Now();
  };
  auto interrupt = [&]() -> Task {
    co_await sim_.Delay(Milliseconds(5));
    co_await sim_.Delay(deadline - sim_.Now() - pfsim::Nanoseconds(1));
    const pf::PacketBuf frame(pftest::MakePupFrame(8, 35, 2));
    co_await bob_.pf().HandlePacket(frame, 0);
    rung = sim_.Now();
  };
  sim_.Spawn(reader());
  sim_.Spawn(interrupt());
  sim_.Run();
  ASSERT_GT(rung, deadline);  // the ring came too late to wake the reader
  EXPECT_EQ(got.size(), 1u);
  EXPECT_GT(returned, deadline);  // timed out, then paid the copy-out
}

// Close wakes whoever sleeps on the port: a Read on a plain port, a Read on
// a ring port that is still crossing into the kernel to sleep, and a
// Select. Each returns at once, without touching the freed port state.
TEST_F(PfDeviceTest, CloseWakesABlockedReadPromptly) {
  pfsim::TimePoint returned;
  std::vector<pf::ReceivedPacket> got = {pf::ReceivedPacket{}};
  pf::PortId port = pf::kInvalidPort;
  auto reader = [&]() -> Task {
    const int pid = bob_.NewPid();
    port = co_await bob_.pf().Open(pid);
    co_await bob_.pf().SetFilter(pid, port, pfnet::MakePupSocketFilter(35, 10));
    got = co_await bob_.pf().Read(pid, port, Milliseconds(50));
    returned = sim_.Now();
  };
  auto closer = [&]() -> Task {
    co_await sim_.Delay(Milliseconds(10));
    EXPECT_EQ(bob_.pf().sleepers(port), 1u);
    co_await bob_.pf().Close(bob_.NewPid(), port);
  };
  sim_.Spawn(reader());
  sim_.Spawn(closer());
  sim_.Run();
  EXPECT_TRUE(got.empty());
  EXPECT_LT(returned, pfsim::TimePoint{} + Milliseconds(15));
}

TEST_F(PfDeviceTest, CloseDuringARingReadersSleepCrossingEndsTheRead) {
  bob_.pf().SetRingDelivery(8);
  pfsim::TimePoint returned;
  std::vector<pf::ReceivedPacket> got = {pf::ReceivedPacket{}};
  pf::PortId port = pf::kInvalidPort;
  const int reader_pid = bob_.NewPid();
  auto opener = [&]() -> Task {
    port = co_await bob_.pf().Open(reader_pid);
    co_await bob_.pf().SetFilter(reader_pid, port, pfnet::MakePupSocketFilter(35, 10));
  };
  // The closer takes the CPU first; the reader finds its ring empty and
  // queues behind it to cross into the kernel, and the port is gone by the
  // time the crossing ends.
  auto closer = [&]() -> Task {
    co_await sim_.Delay(Milliseconds(10));
    co_await bob_.pf().Close(bob_.NewPid(), port);
  };
  auto reader = [&]() -> Task {
    co_await sim_.Delay(Milliseconds(10) + pfsim::Microseconds(1));
    got = co_await bob_.pf().Read(reader_pid, port, Milliseconds(50));
    returned = sim_.Now();
  };
  sim_.Spawn(opener());
  sim_.Spawn(closer());
  sim_.Spawn(reader());
  sim_.Run();
  EXPECT_TRUE(got.empty());
  EXPECT_LT(returned, pfsim::TimePoint{} + Milliseconds(15));
  EXPECT_EQ(bob_.pf().core().open_port_count(), 0u);
}

TEST_F(PfDeviceTest, CloseWakesABlockedSelectPromptly) {
  pfsim::TimePoint returned;
  pf::PortId ready = 1;
  pf::PortId port = pf::kInvalidPort;
  auto selector = [&]() -> Task {
    const int pid = bob_.NewPid();
    port = co_await bob_.pf().Open(pid);
    const pf::PortId other = co_await bob_.pf().Open(pid);
    co_await bob_.pf().SetFilter(pid, port, pfnet::MakePupSocketFilter(35, 10));
    std::vector<pf::PortId> ports = {other, port};
    ready = co_await bob_.pf().Select(pid, std::move(ports), Milliseconds(50));
    returned = sim_.Now();
  };
  auto closer = [&]() -> Task {
    co_await sim_.Delay(Milliseconds(10));
    EXPECT_EQ(bob_.pf().sleepers(port), 1u);
    co_await bob_.pf().Close(bob_.NewPid(), port);
  };
  sim_.Spawn(selector());
  sim_.Spawn(closer());
  sim_.Run();
  EXPECT_EQ(ready, pf::kInvalidPort);
  EXPECT_LT(returned, pfsim::TimePoint{} + Milliseconds(15));
}

TEST_F(PfDeviceTest, WriteManyAmortizesTheSyscall) {
  size_t accepted = 0;
  uint64_t syscalls = 0;
  uint64_t copies = 0;
  auto sender = [&]() -> Task {
    const int pid = alice_.NewPid();
    std::vector<std::vector<uint8_t>> frames;
    for (int i = 0; i < 6; ++i) {
      frames.push_back(pftest::MakePupFrame(8, 35, 2));
    }
    frames.push_back(std::vector<uint8_t>(5000, 0));  // oversized: rejected
    const uint64_t syscalls_before = alice_.ledger().count(Cost::kSyscall);
    const uint64_t copies_before = alice_.ledger().count(Cost::kCopy);
    accepted = co_await alice_.pf().WriteMany(pid, std::move(frames));
    syscalls = alice_.ledger().count(Cost::kSyscall) - syscalls_before;
    copies = alice_.ledger().count(Cost::kCopy) - copies_before;
  };
  sim_.Spawn(sender());
  sim_.Run();
  EXPECT_EQ(accepted, 6u);
  EXPECT_EQ(syscalls, 1u);  // §7: several packets in one system call
  EXPECT_EQ(copies, 7u);    // copies stay per-frame
  EXPECT_EQ(alice_.nic_stats().frames_out, 6u);
  EXPECT_EQ(bob_.nic_stats().frames_in, 6u);
}

TEST_F(PfDeviceTest, PipeBatchOperationsPreserveOrderAndAmortize) {
  pfkern::MessagePipe pipe(&alice_, 16);
  const int writer = alice_.NewPid();
  const int reader = alice_.NewPid();
  std::vector<pf::PacketBuf> got;
  uint64_t reader_syscalls = 0;
  auto producer = [&]() -> Task {
    std::vector<pf::PacketBuf> batch;
    for (uint8_t i = 0; i < 5; ++i) {
      batch.push_back(pf::PacketBuf(std::vector<uint8_t>{i}));
    }
    co_await pipe.WriteBatch(writer, std::move(batch));
  };
  auto consumer = [&]() -> Task {
    co_await sim_.Delay(Milliseconds(50));
    const uint64_t before = alice_.ledger().count(Cost::kSyscall);
    got = co_await pipe.ReadBatch(reader, Seconds(1));
    reader_syscalls = alice_.ledger().count(Cost::kSyscall) - before;
  };
  sim_.Spawn(producer());
  sim_.Spawn(consumer());
  sim_.Run();
  ASSERT_EQ(got.size(), 5u);
  for (uint8_t i = 0; i < 5; ++i) {
    EXPECT_EQ(got[i], std::vector<uint8_t>{i});
  }
  EXPECT_EQ(reader_syscalls, 1u);
}

TEST_F(PfDeviceTest, PipeReadBatchTimesOutEmpty) {
  pfkern::MessagePipe pipe(&alice_, 4);
  std::vector<pf::PacketBuf> got = {pf::PacketBuf(std::vector<uint8_t>{1})};
  auto consumer = [&]() -> Task {
    got = co_await pipe.ReadBatch(alice_.NewPid(), Milliseconds(20));
  };
  sim_.Spawn(consumer());
  sim_.Run();
  EXPECT_TRUE(got.empty());
}

}  // namespace
