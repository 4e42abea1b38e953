// The pf device's wakeup path under random operations. One simulated
// machine runs a seeded random interleaving of Open, SetFilter, Configure,
// Read, Select and Close calls from many processes, and of frames handed to
// the device's kernel entry (often several at once, so that one frame's
// demux runs while another frame's charges hold the CPU). Half the seeds
// run the device in ring-delivery mode. Two invariants are checked:
//
// * Wake: when a frame's charges end and it rings, no caller is left
//   asleep on any port the frame put a copy on. The ports a frame reached
//   are read from the per-port enqueue counters around its demux, not from
//   the device.
// * No stranded timeout: a Read that returns empty on an open port leaves
//   that port's queue empty, and so does a Select that times out.
//
// Non-vacuity counters (copies that landed on a port with a sleeper,
// timed-out reads, ready selects, closes under a sleeper) must all be
// non-zero over the run. The frame-conservation identity
// pfdev.wakeups == pf.demux.deliveries is checked at the end of each seed.
//
// Time-boxed: the first seed always runs to completion; further seeds run
// while the budget lasts (PF_DEVICE_WAKE_SECONDS, default 1; raise it for a
// soak). A failure names its seed; PF_DEVICE_WAKE_SEED=N
// PF_DEVICE_WAKE_SECONDS=0 replays exactly that seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/kernel/machine.h"
#include "src/kernel/pf_device.h"
#include "src/net/pup_endpoint.h"
#include "src/util/rng.h"
#include "tests/test_packets.h"

namespace {

using pf::PortId;
using pfkern::Machine;
using pfsim::Duration;
using pfsim::Task;

constexpr int kOpsPerSeed = 300;
constexpr uint32_t kSockets = 4;

struct Counters {
  uint64_t frames = 0;
  uint64_t copies = 0;
  uint64_t copies_to_sleepers = 0;  // a caller slept on the port as it landed
  uint64_t reads_with_data = 0;
  uint64_t empty_reads = 0;         // open port, nothing queued
  uint64_t selects_ready = 0;
  uint64_t select_timeouts = 0;
  uint64_t closes_with_sleepers = 0;
};

class WakeWorld {
 public:
  WakeWorld(uint64_t seed, Counters* counters)
      : rng_(seed),
        segment_(&sim_, pflink::LinkType::kExperimental3Mb),
        machine_(&sim_, &segment_, pflink::MacAddr::Experimental(2),
                 pfkern::MicroVaxUltrixCosts(), "m"),
        counters_(counters) {
    if (rng_.Chance(0.5)) {
      machine_.pf().SetRingDelivery(rng_.Range(1, 8));
    }
  }

  void Run() {
    for (int i = 0; i < 4; ++i) {
      sim_.Spawn(OpenOp(0));
    }
    // Distinct start times: no two frames demux at the same instant, so the
    // enqueue counters read just after a frame's demux are that frame's.
    int64_t at = 0;
    for (int i = 0; i < kOpsPerSeed; ++i) {
      at += static_cast<int64_t>(rng_.Range(50, 3000)) * 1000;
      const uint64_t kind = rng_.Below(100);
      if (kind < 10) {
        sim_.Spawn(OpenOp(at));
      } else if (kind < 18) {
        sim_.Spawn(SetFilterOp(at));
      } else if (kind < 26) {
        sim_.Spawn(ConfigureOp(at));
      } else if (kind < 56) {
        sim_.Spawn(ReadOp(at, RandomTimeout()));
      } else if (kind < 66) {
        sim_.Spawn(SelectOp(at, RandomTimeout()));
      } else if (kind < 72) {
        sim_.Spawn(CloseOp(at));
      } else {
        const int burst = static_cast<int>(rng_.Range(1, 3));
        for (int j = 0; j < burst; ++j) {
          sim_.Spawn(FrameOp(at + j, static_cast<uint32_t>(rng_.Range(1, kSockets))));
        }
      }
    }
    sim_.Run();
    const pfobs::MetricsRegistry& metrics = machine_.metrics();
    EXPECT_EQ(metrics.FindCounter("pfdev.wakeups")->value(),
              metrics.FindCounter("pf.demux.deliveries")->value());
  }

 private:
  pfkern::PacketFilterDevice& dev() { return machine_.pf(); }
  bool IsOpen(PortId port) const {
    return std::find(open_.begin(), open_.end(), port) != open_.end();
  }

  Duration RandomTimeout() {
    static constexpr int64_t kMillis[] = {0, 1, 3, 10, 30};
    return pfsim::Milliseconds(kMillis[rng_.Below(std::size(kMillis))]);
  }
  // An open port, or now and then one that is closed (or was never open).
  PortId RandomPort() {
    if (open_.empty() || rng_.Chance(0.05)) {
      return static_cast<PortId>(rng_.Range(1, next_guess_));
    }
    return open_[rng_.Below(open_.size())];
  }
  pf::Program RandomFilter() {
    static constexpr uint8_t kPriorities[] = {5, 10, 10, 20};
    return pfnet::MakePupSocketFilter(static_cast<uint32_t>(rng_.Range(1, kSockets)),
                                      kPriorities[rng_.Below(std::size(kPriorities))]);
  }

  Task OpenOp(int64_t at) {
    co_await sim_.Delay(pfsim::Nanoseconds(at));
    const int pid = machine_.NewPid();
    const PortId port = co_await dev().Open(pid);
    open_.push_back(port);
    next_guess_ = std::max<uint64_t>(next_guess_, port + 1);
    co_await dev().SetFilter(pid, port, RandomFilter());
  }

  Task SetFilterOp(int64_t at) {
    co_await sim_.Delay(pfsim::Nanoseconds(at));
    co_await dev().SetFilter(machine_.NewPid(), RandomPort(), RandomFilter());
  }

  Task ConfigureOp(int64_t at) {
    co_await sim_.Delay(pfsim::Nanoseconds(at));
    pfkern::PacketFilterDevice::PortOptions options;
    if (rng_.Chance(0.5)) {
      options.batching = rng_.Chance(0.5);
    }
    if (rng_.Chance(0.3)) {
      options.timestamps = rng_.Chance(0.5);
    }
    if (rng_.Chance(0.3)) {
      options.queue_limit = rng_.Range(1, 8);
    }
    if (rng_.Chance(0.3)) {
      options.deliver_to_lower = rng_.Chance(0.5);
    }
    co_await dev().Configure(machine_.NewPid(), RandomPort(), options);
  }

  Task ReadOp(int64_t at, Duration timeout) {
    co_await sim_.Delay(pfsim::Nanoseconds(at));
    const PortId port = RandomPort();
    const std::vector<pf::ReceivedPacket> got =
        co_await dev().Read(machine_.NewPid(), port, timeout);
    if (!got.empty()) {
      ++counters_->reads_with_data;
    } else if (IsOpen(port)) {
      // Returned empty in the event that popped nothing: still nothing.
      EXPECT_EQ(machine_.pf().core().QueueLength(port), 0u)
          << "read on port " << port << " returned empty with a packet queued";
      ++counters_->empty_reads;
    }
  }

  Task SelectOp(int64_t at, Duration timeout) {
    co_await sim_.Delay(pfsim::Nanoseconds(at));
    std::vector<PortId> ports;
    const uint64_t n = rng_.Range(1, 3);
    for (uint64_t i = 0; i < n; ++i) {
      ports.push_back(RandomPort());
    }
    const std::vector<PortId> asked = ports;
    const PortId ready = co_await dev().Select(machine_.NewPid(), std::move(ports), timeout);
    if (ready != pf::kInvalidPort) {
      EXPECT_GT(machine_.pf().core().QueueLength(ready), 0u);
      ++counters_->selects_ready;
      co_return;
    }
    if (std::all_of(asked.begin(), asked.end(), [&](PortId p) { return IsOpen(p); })) {
      for (const PortId port : asked) {
        EXPECT_EQ(machine_.pf().core().QueueLength(port), 0u)
            << "select timed out with a packet queued on port " << port;
      }
      ++counters_->select_timeouts;
    }
  }

  Task CloseOp(int64_t at) {
    co_await sim_.Delay(pfsim::Nanoseconds(at));
    const PortId port = RandomPort();
    if (dev().sleepers(port) > 0) {
      ++counters_->closes_with_sleepers;
    }
    co_await dev().Close(machine_.NewPid(), port);
    std::erase(open_, port);  // in the event that closed it, like Open's push
  }

  Task FrameOp(int64_t at, uint32_t socket) {
    co_await sim_.Delay(pfsim::Nanoseconds(at));
    const pf::PacketBuf packet(pftest::MakePupFrame(8, socket, 2));
    const pf::PacketFilter& core = machine_.pf().core();
    std::map<PortId, uint64_t> before;
    for (const PortId port : core.Ports()) {
      before[port] = core.Stats(port)->enqueued;
    }
    // Runs just after the demux below, at the same instant.
    auto reached = std::make_shared<std::vector<PortId>>();
    sim_.Schedule(Duration(0), [this, &core, before = std::move(before), reached] {
      for (const auto& [port, enqueued] : before) {
        const pf::PortStats* stats = core.Stats(port);
        if (stats != nullptr && stats->enqueued > enqueued) {
          reached->push_back(port);
          ++counters_->copies;
          if (dev().sleepers(port) > 0) {
            ++counters_->copies_to_sleepers;
          }
        }
      }
    });
    co_await dev().HandlePacket(packet, static_cast<uint64_t>(sim_.NowNanos()));
    ++counters_->frames;
    // The frame has rung: nobody may still sleep on a port it reached.
    for (const PortId port : *reached) {
      EXPECT_EQ(dev().sleepers(port), 0u)
          << "port " << port << " still has a sleeper after its frame rang";
    }
  }

  pfutil::Rng rng_;
  pfsim::Simulator sim_;
  pflink::EthernetSegment segment_;
  Machine machine_;
  Counters* counters_;
  std::vector<PortId> open_;
  uint64_t next_guess_ = 2;
};

TEST(DeviceWakeTest, EveryFrameWakesItsPortsAndNoReadStrandsAPacket) {
  const char* seconds_env = std::getenv("PF_DEVICE_WAKE_SECONDS");
  const char* seed_env = std::getenv("PF_DEVICE_WAKE_SEED");
  const double budget_s = seconds_env != nullptr ? std::atof(seconds_env) : 1.0;
  const uint64_t first_seed = seed_env != nullptr ? std::strtoull(seed_env, nullptr, 10) : 1;
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed_s = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };
  Counters counters;
  uint64_t seed = first_seed;
  do {
    SCOPED_TRACE("seed " + std::to_string(seed));
    WakeWorld world(seed, &counters);
    world.Run();
    if (::testing::Test::HasFailure()) {
      return;
    }
    ++seed;
  } while (elapsed_s() < budget_s);
  ::testing::Test::RecordProperty("seeds", static_cast<int>(seed - first_seed));
  // A check that never met its case proves nothing.
  EXPECT_GT(counters.frames, 0u);
  EXPECT_GT(counters.copies, 0u);
  EXPECT_GT(counters.copies_to_sleepers, 0u);
  EXPECT_GT(counters.reads_with_data, 0u);
  EXPECT_GT(counters.empty_reads, 0u);
  EXPECT_GT(counters.selects_ready, 0u);
  EXPECT_GT(counters.select_timeouts, 0u);
  EXPECT_GT(counters.closes_with_sleepers, 0u);
}

}  // namespace
