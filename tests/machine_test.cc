// Machine / PacketFilterDevice / MessagePipe tests: CPU accounting with
// context switches, the character-device surface (read with timeout and
// batching, write, ioctls), and the cost ledger.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/kernel/cost_model.h"
#include "src/kernel/machine.h"
#include "src/kernel/pf_device.h"
#include "src/kernel/pipe.h"
#include "src/pf/builder.h"
#include "src/net/pup_endpoint.h"
#include "tests/test_packets.h"

namespace {

using pfkern::Cost;
using pfkern::CostModel;
using pfkern::Machine;
using pflink::EthernetSegment;
using pflink::LinkType;
using pflink::MacAddr;
using pfsim::Duration;
using pfsim::Milliseconds;
using pfsim::Simulator;
using pfsim::Task;

class MachineTest : public ::testing::Test {
 protected:
  MachineTest()
      : segment_(&sim_, LinkType::kExperimental3Mb),
        alice_(&sim_, &segment_, MacAddr::Experimental(1), pfkern::MicroVaxUltrixCosts(),
               "alice"),
        bob_(&sim_, &segment_, MacAddr::Experimental(2), pfkern::MicroVaxUltrixCosts(), "bob") {}

  Simulator sim_;
  EthernetSegment segment_;
  Machine alice_;
  Machine bob_;
};

TEST_F(MachineTest, RunChargesWorkAndSwitches) {
  const int pid = alice_.NewPid();
  auto driver = [&]() -> Task {
    co_await alice_.Run(pid, Cost::kSyscall, Milliseconds(1));
    co_await alice_.Run(pid, Cost::kSyscall, Milliseconds(1));  // same ctx: no switch
  };
  sim_.Spawn(driver());
  sim_.Run();
  EXPECT_EQ(alice_.ledger().count(Cost::kSyscall), 2u);
  EXPECT_EQ(alice_.ledger().count(Cost::kContextSwitch), 1u);  // idle -> pid only
  EXPECT_EQ(sim_.Now().time_since_epoch(),
            Milliseconds(2) + alice_.costs().context_switch);
}

TEST_F(MachineTest, InterruptContextNeverChargesSwitch) {
  auto driver = [&]() -> Task {
    co_await alice_.Run(Machine::kInterruptContext, Cost::kInterrupt, Milliseconds(1));
    co_await alice_.Run(Machine::kInterruptContext, Cost::kInterrupt, Milliseconds(1));
  };
  sim_.Spawn(driver());
  sim_.Run();
  EXPECT_EQ(alice_.ledger().count(Cost::kContextSwitch), 0u);
}

TEST_F(MachineTest, SwitchChargedBetweenDifferentProcesses) {
  const int a = alice_.NewPid();
  const int b = alice_.NewPid();
  auto driver = [&]() -> Task {
    co_await alice_.Run(a, Cost::kSyscall, Milliseconds(1));
    co_await alice_.Run(b, Cost::kSyscall, Milliseconds(1));
    co_await alice_.Run(a, Cost::kSyscall, Milliseconds(1));
  };
  sim_.Spawn(driver());
  sim_.Run();
  EXPECT_EQ(alice_.ledger().count(Cost::kContextSwitch), 3u);
}

TEST_F(MachineTest, MarkBlockedForcesSwitchOnResume) {
  const int pid = alice_.NewPid();
  auto driver = [&]() -> Task {
    co_await alice_.Run(pid, Cost::kSyscall, Milliseconds(1));
    alice_.MarkBlocked(pid);
    co_await alice_.Run(pid, Cost::kSyscall, Milliseconds(1));
  };
  sim_.Spawn(driver());
  sim_.Run();
  EXPECT_EQ(alice_.ledger().count(Cost::kContextSwitch), 2u);
}

TEST_F(MachineTest, CpuSerializesConcurrentWork) {
  const int a = alice_.NewPid();
  const int b = alice_.NewPid();
  pfsim::TimePoint a_done;
  pfsim::TimePoint b_done;
  auto worker_a = [&]() -> Task {
    co_await alice_.Run(a, Cost::kProtocolUser, Milliseconds(10));
    a_done = sim_.Now();
  };
  auto worker_b = [&]() -> Task {
    co_await alice_.Run(b, Cost::kProtocolUser, Milliseconds(10));
    b_done = sim_.Now();
  };
  sim_.Spawn(worker_a());
  sim_.Spawn(worker_b());
  sim_.Run();
  // Serialized: total elapsed >= 20 ms + 2 switches.
  EXPECT_GE((b_done - a_done).count(), Milliseconds(10).count());
}

// One CPU acquisition is one simulator event (DESIGN.md §2): a context
// switch plus k non-zero charges advance the clock by their sum and resume
// the caller once, and the ledger counts each charge as its own entry.
TEST_F(MachineTest, RunMultiIsOneEventPerAcquisition) {
  const int pid = alice_.NewPid();
  const Machine::Charge charges[] = {{Cost::kSyscall, Milliseconds(1)},
                                     {Cost::kCopy, Milliseconds(2)},
                                     {Cost::kCopy, Duration(0)},  // not charged
                                     {Cost::kCopy, Milliseconds(3)},
                                     {Cost::kPfBookkeeping, Milliseconds(4)}};
  uint64_t events = 0;
  Duration elapsed{};
  auto process = [&]() -> Task {
    const uint64_t events_before = sim_.events_executed();
    const pfsim::TimePoint start = sim_.Now();
    co_await alice_.RunMulti(pid, charges);
    events = sim_.events_executed() - events_before;
    elapsed = sim_.Now() - start;
  };
  sim_.Spawn(process());
  sim_.Run();
  EXPECT_EQ(events, 1u);
  EXPECT_EQ(elapsed, alice_.costs().context_switch + Milliseconds(10));
  const pfkern::Ledger& ledger = alice_.ledger();
  EXPECT_EQ(ledger.count(Cost::kContextSwitch), 1u);
  EXPECT_EQ(ledger.total(Cost::kContextSwitch), alice_.costs().context_switch);
  EXPECT_EQ(ledger.count(Cost::kSyscall), 1u);
  EXPECT_EQ(ledger.total(Cost::kSyscall), Milliseconds(1));
  EXPECT_EQ(ledger.count(Cost::kCopy), 2u);
  EXPECT_EQ(ledger.total(Cost::kCopy), Milliseconds(5));
  EXPECT_EQ(ledger.count(Cost::kPfBookkeeping), 1u);
  EXPECT_EQ(ledger.total(Cost::kPfBookkeeping), Milliseconds(4));
  EXPECT_EQ(alice_.cpu_owner(), pid);
}

TEST_F(MachineTest, ZeroWorkRunSchedulesNoEvent) {
  const int pid = alice_.NewPid();
  uint64_t events = 1;
  auto process = [&]() -> Task {
    co_await alice_.Run(pid, Cost::kSyscall, Milliseconds(1));  // pid now owns the CPU
    const uint64_t events_before = sim_.events_executed();
    co_await alice_.Run(pid, Cost::kSyscall, Duration(0));
    co_await alice_.Run(Machine::kInterruptContext, Cost::kInterrupt, Duration(0));
    events = sim_.events_executed() - events_before;
  };
  sim_.Spawn(process());
  sim_.Run();
  EXPECT_EQ(events, 0u);
  EXPECT_EQ(alice_.ledger().count(Cost::kSyscall), 1u);
  EXPECT_EQ(alice_.ledger().count(Cost::kInterrupt), 0u);
}

// A contended CPU is granted in FIFO order (DESIGN.md §2). The first
// acquisition takes the free CPU and costs one delay event; each queued one
// costs one grant event and one delay event, and its charges start when the
// previous holder releases.
TEST_F(MachineTest, ContendedCpuIsGrantedInFifoOrder) {
  constexpr int kWorkers = 4;
  std::vector<int> order;
  std::vector<Duration> done_at;
  std::vector<uint64_t> events_at_done;
  auto worker = [&](int pid) -> Task {
    co_await alice_.Run(pid, Cost::kProtocolUser, Milliseconds(1));
    order.push_back(pid);
    done_at.push_back(sim_.Now().time_since_epoch());
    events_at_done.push_back(sim_.events_executed());
  };
  std::vector<int> pids;
  for (int i = 0; i < kWorkers; ++i) {
    pids.push_back(alice_.NewPid());
    sim_.Spawn(worker(pids.back()));
  }
  sim_.Run();
  EXPECT_EQ(order, pids);
  const Duration slice = alice_.costs().context_switch + Milliseconds(1);
  ASSERT_EQ(done_at.size(), static_cast<size_t>(kWorkers));
  for (int i = 0; i < kWorkers; ++i) {
    EXPECT_EQ(done_at[static_cast<size_t>(i)], slice * (i + 1));
    EXPECT_EQ(events_at_done[static_cast<size_t>(i)], static_cast<uint64_t>(1 + 2 * i));
  }
  EXPECT_EQ(alice_.ledger().count(Cost::kContextSwitch), static_cast<uint64_t>(kWorkers));
  EXPECT_EQ(alice_.cpu_owner(), pids.back());
}

// A sleeper is resumed by whichever of its ring and its timer comes first.
// A frame rings the reader well before its deadline; the ring cancels the
// timer, so no event is left pending and the run drains before the deadline.
TEST_F(MachineTest, SleepRungBeforeItsTimerResumesOnce) {
  constexpr Duration kTimeout = Milliseconds(50);
  const int pid = alice_.NewPid();
  int resumed = 0;
  size_t got = 0;
  size_t pending_after_read = 1;
  pfsim::TimePoint deadline;
  auto reader = [&]() -> Task {
    const pf::PortId port = co_await alice_.pf().Open(pid);
    co_await alice_.pf().SetFilter(pid, port, pfnet::MakePupSocketFilter(35, 10));
    deadline = sim_.Now() + alice_.costs().syscall + kTimeout;
    got = (co_await alice_.pf().Read(pid, port, kTimeout)).size();
    pending_after_read = sim_.pending_events();
    ++resumed;
    EXPECT_LT(sim_.Now(), deadline);
  };
  auto interrupt = [&]() -> Task {
    co_await sim_.Delay(Milliseconds(10));
    co_await alice_.pf().HandlePacket(pf::PacketBuf(pftest::MakePupFrame(8, 35, 1)), 0);
  };
  sim_.Spawn(reader());
  sim_.Spawn(interrupt());
  sim_.Run();
  EXPECT_EQ(resumed, 1);
  EXPECT_EQ(got, 1u);
  EXPECT_EQ(pending_after_read, 0u);
  EXPECT_LT(sim_.Now(), deadline);
}

// The ring and the timer at the same instant, the ring first: a frame whose
// demux charges nothing rings the reader in the event that precedes its
// timer. The reader resumes once, with the packet.
TEST_F(MachineTest, SleepRungAtItsDeadlineResumesOnce) {
  constexpr Duration kTimeout = Milliseconds(50);
  CostModel costs = pfkern::MicroVaxUltrixCosts();
  costs.filter_apply = Duration(0);
  costs.filter_insn = Duration(0);
  costs.pf_bookkeeping = Duration(0);
  Machine carol(&sim_, &segment_, MacAddr::Experimental(3), costs, "carol");
  const int pid = carol.NewPid();
  pf::PortId port = pf::kInvalidPort;
  int resumed = 0;
  size_t got = 0;
  size_t sleepers_at_ring = 0;
  auto interrupt = [&](Duration wait) -> Task {
    co_await sim_.Delay(wait);  // scheduled before the reader's timer
    sleepers_at_ring = carol.pf().sleepers(port);
    co_await carol.pf().HandlePacket(pf::PacketBuf(pftest::MakePupFrame(8, 35, 3)), 0);
  };
  auto reader = [&]() -> Task {
    port = co_await carol.pf().Open(pid);
    co_await carol.pf().SetFilter(pid, port, pfnet::MakePupSocketFilter(35, 10));
    sim_.Spawn(interrupt(carol.costs().syscall + kTimeout));
    got = (co_await carol.pf().Read(pid, port, kTimeout)).size();
    ++resumed;
  };
  sim_.Spawn(reader());
  sim_.Run();
  EXPECT_EQ(sleepers_at_ring, 1u);  // the timer had not fired yet
  EXPECT_EQ(resumed, 1);
  EXPECT_EQ(got, 1u);
  EXPECT_EQ(carol.pf().sleepers(port), 0u);
  EXPECT_EQ(carol.metrics().FindCounter("pfdev.wakeups")->value(), 1);
}

// Close rings a timed Select through one of its ports; a frame then rings
// the other. The select returns once, its sleeper is off every list before
// the second ring, and its timer was cancelled with the first.
TEST_F(MachineTest, CloseUnderATimedSelectThenARingOnItsOtherPort) {
  const int selector_pid = alice_.NewPid();
  const int closer_pid = alice_.NewPid();
  pf::PortId closed = pf::kInvalidPort;
  pf::PortId other = pf::kInvalidPort;
  pf::PortId selected = 0;
  int returned = 0;
  size_t sleepers_before_close = 0;
  auto selector = [&]() -> Task {
    closed = co_await alice_.pf().Open(selector_pid);
    other = co_await alice_.pf().Open(selector_pid);
    co_await alice_.pf().SetFilter(selector_pid, other, pfnet::MakePupSocketFilter(35, 10));
    std::vector<pf::PortId> ports = {closed, other};
    selected = co_await alice_.pf().Select(selector_pid, std::move(ports), pfsim::Seconds(1));
    ++returned;
  };
  auto closer = [&]() -> Task {
    co_await sim_.Delay(Milliseconds(100));
    sleepers_before_close = alice_.pf().sleepers(other);
    co_await alice_.pf().Close(closer_pid, closed);
    co_await alice_.pf().HandlePacket(pf::PacketBuf(pftest::MakePupFrame(8, 35, 1)), 0);
  };
  sim_.Spawn(selector());
  sim_.Spawn(closer());
  sim_.Run();
  EXPECT_EQ(sleepers_before_close, 1u);
  EXPECT_EQ(returned, 1);
  EXPECT_EQ(selected, pf::kInvalidPort);  // woken by Close
  EXPECT_EQ(alice_.pf().sleepers(other), 0u);
  EXPECT_EQ(alice_.metrics().FindCounter("pfdev.wakeups")->value(), 1);
  EXPECT_LT(sim_.Now().time_since_epoch(), pfsim::Seconds(1));
}

// The lists of a port hold pointers into its sleepers' frames. Tearing the
// simulation down while a timed Read sleeps touches neither the frames nor
// the lists, whichever of the Simulator and the Machine goes first.
TEST(MachineTeardownTest, TimedReadAsleepAtTeardown) {
  for (const bool simulator_first : {false, true}) {
    SCOPED_TRACE(simulator_first ? "simulator first" : "machine first");
    auto sim = std::make_unique<Simulator>();
    auto segment = std::make_unique<EthernetSegment>(sim.get(), LinkType::kExperimental3Mb);
    auto machine = std::make_unique<Machine>(sim.get(), segment.get(), MacAddr::Experimental(1),
                                             pfkern::MicroVaxUltrixCosts(), "dave");
    const int pid = machine->NewPid();
    pf::PortId port = pf::kInvalidPort;
    bool returned = false;
    auto reader = [&]() -> Task {
      port = co_await machine->pf().Open(pid);
      (void)co_await machine->pf().Read(pid, port, pfsim::Seconds(1));
      returned = true;
    };
    sim->Spawn(reader());
    sim->RunFor(Milliseconds(100));
    ASSERT_EQ(machine->pf().sleepers(port), 1u);
    EXPECT_EQ(sim->pending_events(), 1u);  // its timer
    if (simulator_first) {
      sim.reset();
      machine.reset();
    } else {
      machine.reset();
      sim.reset();
    }
    segment.reset();
    EXPECT_FALSE(returned);
  }
}

TEST_F(MachineTest, CopyCostModelMatchesPaperNumbers) {
  const CostModel costs = pfkern::MicroVaxUltrixCosts();
  // §6.5.2: 0.5 ms short packet; ~1 ms/KByte slope region.
  EXPECT_EQ(costs.CopyCost(128), pfsim::Microseconds(500));
  EXPECT_EQ(costs.CopyCost(1), pfsim::Microseconds(500));
  const double ms1500 = pfsim::ToMilliseconds(costs.CopyCost(1500));
  EXPECT_NEAR(ms1500, 2.2, 0.3);
}

TEST_F(MachineTest, PfWriteTransmitsFrame) {
  const int pid = alice_.NewPid();
  bool sent = false;
  auto sender = [&]() -> Task {
    sent = co_await alice_.pf().Write(pid, pftest::MakePupFrame(8, 35));
  };
  sim_.Spawn(sender());
  sim_.Run();
  EXPECT_TRUE(sent);
  EXPECT_EQ(alice_.nic_stats().frames_out, 1u);
  EXPECT_EQ(bob_.nic_stats().frames_in, 1u);
  EXPECT_EQ(alice_.ledger().count(Cost::kDriverSend), 1u);
  EXPECT_EQ(alice_.ledger().count(Cost::kSyscall), 1u);
  EXPECT_EQ(alice_.ledger().count(Cost::kCopy), 1u);
}

TEST_F(MachineTest, PfWriteRejectsOversizedFrame) {
  const int pid = alice_.NewPid();
  bool sent = true;
  auto sender = [&]() -> Task {
    sent = co_await alice_.pf().Write(pid, std::vector<uint8_t>(5000, 0));
  };
  sim_.Spawn(sender());
  sim_.Run();
  EXPECT_FALSE(sent);
  EXPECT_EQ(alice_.nic_stats().frames_out, 0u);
}

TEST_F(MachineTest, EndToEndPfDelivery) {
  // Bob binds a fig. 3-9-style filter; Alice writes a matching frame.
  const int bob_pid = bob_.NewPid();
  const int alice_pid = alice_.NewPid();
  std::vector<pf::ReceivedPacket> got;
  auto receiver = [&]() -> Task {
    const pf::PortId port = co_await bob_.pf().Open(bob_pid);
    co_await bob_.pf().SetFilter(bob_pid, port, pfnet::MakePupSocketFilter(35, 10));
    got = co_await bob_.pf().Read(bob_pid, port, pfsim::Seconds(5));
  };
  auto sender = [&]() -> Task {
    co_await sim_.Delay(Milliseconds(5));
    co_await alice_.pf().Write(alice_pid, pftest::MakePupFrame(8, 35, /*dst_host=*/2));
    co_await alice_.pf().Write(alice_pid, pftest::MakePupFrame(8, 99, 2));  // filtered out
  };
  sim_.Spawn(receiver());
  sim_.Spawn(sender());
  sim_.Run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].bytes, pftest::MakePupFrame(8, 35, 2));
  // The receive path charged interrupt, filter evaluation, bookkeeping,
  // a wakeup switch, the read syscall, and the copy out.
  EXPECT_GE(bob_.ledger().count(Cost::kInterrupt), 1u);
  EXPECT_GE(bob_.ledger().count(Cost::kFilterEval), 1u);
  EXPECT_EQ(bob_.ledger().count(Cost::kPfBookkeeping), 1u);
  EXPECT_GE(bob_.ledger().count(Cost::kContextSwitch), 1u);
}

TEST_F(MachineTest, ReadTimesOutEmpty) {
  const int pid = alice_.NewPid();
  std::vector<pf::ReceivedPacket> got;
  pfsim::TimePoint finished;
  auto reader = [&]() -> Task {
    const pf::PortId port = co_await alice_.pf().Open(pid);
    co_await alice_.pf().SetFilter(pid, port, pfnet::MakePupSocketFilter(35, 10));
    got = co_await alice_.pf().Read(pid, port, Milliseconds(50));
    finished = sim_.Now();
  };
  sim_.Spawn(reader());
  sim_.Run();
  EXPECT_TRUE(got.empty());
  EXPECT_GE(finished.time_since_epoch().count(), Milliseconds(50).count());
}

TEST_F(MachineTest, BatchedReadReturnsAllPending) {
  const int bob_pid = bob_.NewPid();
  const int alice_pid = alice_.NewPid();
  std::vector<pf::ReceivedPacket> got;
  uint64_t syscalls_for_read = 0;
  uint64_t copies_for_read = 0;
  auto scenario = [&]() -> Task {
    const pf::PortId port = co_await bob_.pf().Open(bob_pid);
    co_await bob_.pf().SetFilter(bob_pid, port, pfnet::MakePupSocketFilter(35, 10));
    pfkern::PacketFilterDevice::PortOptions options;
    options.batching = true;
    co_await bob_.pf().Configure(bob_pid, port, options);
    // Send 5 matching packets from alice.
    for (int i = 0; i < 5; ++i) {
      co_await alice_.pf().Write(alice_pid, pftest::MakePupFrame(8, 35, 2));
    }
    co_await sim_.Delay(Milliseconds(50));  // let them all arrive and queue
    const uint64_t syscalls_before = bob_.ledger().count(Cost::kSyscall);
    const uint64_t copies_before = bob_.ledger().count(Cost::kCopy);
    got = co_await bob_.pf().Read(bob_pid, port, pfsim::Seconds(1));
    syscalls_for_read = bob_.ledger().count(Cost::kSyscall) - syscalls_before;
    copies_for_read = bob_.ledger().count(Cost::kCopy) - copies_before;
  };
  sim_.Spawn(scenario());
  sim_.Run();
  EXPECT_EQ(got.size(), 5u);
  EXPECT_EQ(syscalls_for_read, 1u);  // fig. 3-5: one crossing for the batch
  EXPECT_EQ(copies_for_read, 5u);    // but still one copy each
}

TEST_F(MachineTest, TimestampingChargesMicrotime) {
  const int bob_pid = bob_.NewPid();
  const int alice_pid = alice_.NewPid();
  std::vector<pf::ReceivedPacket> got;
  auto scenario = [&]() -> Task {
    const pf::PortId port = co_await bob_.pf().Open(bob_pid);
    co_await bob_.pf().SetFilter(bob_pid, port, pfnet::MakePupSocketFilter(35, 10));
    pfkern::PacketFilterDevice::PortOptions options;
    options.timestamps = true;
    co_await bob_.pf().Configure(bob_pid, port, options);
    co_await alice_.pf().Write(alice_pid, pftest::MakePupFrame(8, 35, 2));
    got = co_await bob_.pf().Read(bob_pid, port, pfsim::Seconds(1));
  };
  sim_.Spawn(scenario());
  sim_.Run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_GT(got[0].timestamp_ns, 0u);
  EXPECT_EQ(bob_.ledger().count(Cost::kTimestamp), 1u);
}

TEST_F(MachineTest, DeviceInfoReflectsLink) {
  const pf::DeviceInfo info = alice_.pf().GetDeviceInfo();
  EXPECT_EQ(info.addr_len, 1);
  EXPECT_EQ(info.header_len, 4);
  EXPECT_EQ(info.max_packet, 604u);
  EXPECT_EQ(info.local_addr[0], 1);
  EXPECT_EQ(info.broadcast_addr[0], 0);
}

TEST_F(MachineTest, LedgerFormatsNonZeroCategories) {
  alice_.ledger().Charge(Cost::kCopy, Milliseconds(2));
  const std::string text = alice_.ledger().Format();
  EXPECT_NE(text.find("kernel<->user copy"), std::string::npos);
  EXPECT_NE(text.find("TOTAL"), std::string::npos);
  EXPECT_EQ(text.find("pipe transfer"), std::string::npos);
}

TEST_F(MachineTest, PipeTransfersMessagesWithCosts) {
  pfkern::MessagePipe pipe(&alice_, 4);
  const int writer_pid = alice_.NewPid();
  const int reader_pid = alice_.NewPid();
  std::vector<uint8_t> got;
  auto writer = [&]() -> Task {
    std::vector<uint8_t> message = {1, 2, 3};
    co_await pipe.Write(writer_pid, pf::PacketBuf(std::move(message)));
  };
  auto reader = [&]() -> Task {
    auto message = co_await pipe.Read(reader_pid, pfsim::Seconds(1));
    if (message.has_value()) {
      got = message->ToVector();
    }
  };
  sim_.Spawn(reader());
  sim_.Spawn(writer());
  sim_.Run();
  EXPECT_EQ(got, (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(alice_.ledger().count(Cost::kPipe), 1u);
  EXPECT_EQ(alice_.ledger().count(Cost::kCopy), 2u);  // in + out
  EXPECT_EQ(alice_.ledger().count(Cost::kSyscall), 2u);
}

TEST_F(MachineTest, PipeBlocksWhenFull) {
  pfkern::MessagePipe pipe(&alice_, 2);
  const int writer_pid = alice_.NewPid();
  const int reader_pid = alice_.NewPid();
  int written = 0;
  int read_count = 0;
  auto writer = [&]() -> Task {
    for (int i = 0; i < 6; ++i) {
      co_await pipe.Write(writer_pid,
                          pf::PacketBuf(std::vector<uint8_t>(8, static_cast<uint8_t>(i))));
      ++written;
    }
  };
  auto reader = [&]() -> Task {
    co_await sim_.Delay(Milliseconds(100));
    while (read_count < 6) {
      auto message = co_await pipe.Read(reader_pid, pfsim::Seconds(1));
      if (!message.has_value()) {
        break;
      }
      ++read_count;
    }
  };
  sim_.Spawn(writer());
  sim_.Spawn(reader());
  sim_.RunUntil(pfsim::TimePoint{} + pfsim::Seconds(10));
  EXPECT_EQ(written, 6);
  EXPECT_EQ(read_count, 6);
}

TEST_F(MachineTest, PipeReadTimesOut) {
  pfkern::MessagePipe pipe(&alice_, 2);
  const int pid = alice_.NewPid();
  bool timed_out = false;
  auto reader = [&]() -> Task {
    auto message = co_await pipe.Read(pid, Milliseconds(10));
    timed_out = !message.has_value();
  };
  sim_.Spawn(reader());
  sim_.Run();
  EXPECT_TRUE(timed_out);
}

}  // namespace
