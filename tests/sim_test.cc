// Tests for the discrete-event simulator core: event ordering and
// cancellation, coroutine tasks and their frame pool, timers, queues with
// timeout, and wait queues.
//
// The ordering-parity test is generated and time-boxed: seeds run while
// the budget lasts (PF_SIM_ORDER_SECONDS, default 1; raise it for a soak).
// A failure names its seed; PF_SIM_ORDER_SEED=N PF_SIM_ORDER_SECONDS=0
// replays exactly that seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <coroutine>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/sim/frame_pool.h"
#include "src/sim/sim_time.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/sim/value_task.h"
#include "src/util/rng.h"

namespace {

using pfsim::Duration;
using pfsim::kForever;
using pfsim::Microseconds;
using pfsim::Milliseconds;
using pfsim::MsgQueue;
using pfsim::Nanoseconds;
using pfsim::Simulator;
using pfsim::Task;
using pfsim::TimePoint;

TEST(SimulatorTest, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now().time_since_epoch().count(), 0);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Milliseconds(3), [&] { order.push_back(3); });
  sim.Schedule(Milliseconds(1), [&] { order.push_back(1); });
  sim.Schedule(Milliseconds(2), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), TimePoint{} + Milliseconds(3));
}

TEST(SimulatorTest, SimultaneousEventsFireInInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(Milliseconds(5), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(SimulatorTest, NestedSchedulingAdvancesClock) {
  Simulator sim;
  TimePoint inner_fire_time{};
  sim.Schedule(Milliseconds(1), [&] {
    sim.Schedule(Milliseconds(1), [&] { inner_fire_time = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(inner_fire_time, TimePoint{} + Milliseconds(2));
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(Milliseconds(1), [&] { ++fired; });
  sim.Schedule(Milliseconds(10), [&] { ++fired; });
  sim.RunUntil(TimePoint{} + Milliseconds(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), TimePoint{} + Milliseconds(5));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, CancelBeforeFiringRemovesTheEvent) {
  Simulator sim;
  std::vector<int> order;
  const pfsim::EventId first = sim.Schedule(Milliseconds(1), [&] { order.push_back(1); });
  sim.Schedule(Milliseconds(2), [&] { order.push_back(2); });
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_TRUE(sim.Cancel(first));
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_FALSE(sim.Cancel(first));  // a second cancel is a no-op
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{2}));
  EXPECT_EQ(sim.events_executed(), 1u);
  EXPECT_EQ(sim.Now().time_since_epoch(), Milliseconds(2));
}

TEST(SimulatorTest, CancelOfARunOrReusedEventIsANoOp) {
  Simulator sim;
  std::vector<int> order;
  const pfsim::EventId ran = sim.Schedule(Duration(0), [&] { order.push_back(1); });
  sim.Run();
  EXPECT_FALSE(sim.Cancel(ran));  // already ran; its slot is free
  const pfsim::EventId later = sim.Schedule(Milliseconds(1), [&] { order.push_back(2); });
  ASSERT_EQ(later.slot, ran.slot);  // the slot now holds a later event
  EXPECT_FALSE(sim.Cancel(ran));
  EXPECT_FALSE(sim.Cancel(pfsim::EventId{}));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimulatorTest, RunUntilStopsAtDeadlineBehindACancelledTop) {
  Simulator sim;
  bool late_ran = false;
  const pfsim::EventId top = sim.Schedule(Milliseconds(1), [] { FAIL() << "cancelled"; });
  sim.Schedule(Milliseconds(5), [&] { late_ran = true; });
  ASSERT_TRUE(sim.Cancel(top));
  sim.RunUntil(TimePoint{} + Milliseconds(3));
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(sim.Now().time_since_epoch(), Milliseconds(3));
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(SimulatorTest, CancelReleasesCapturesAndResumesStaySuspended) {
  Simulator sim;
  auto capture = std::make_shared<int>(1);
  const std::weak_ptr<int> watch = capture;
  const pfsim::EventId id = sim.Schedule(Milliseconds(1), [capture] {});
  capture.reset();
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_TRUE(watch.expired());

  bool resumed = false;
  pfsim::EventId timer;
  auto sleeper = [&]() -> Task {
    struct Arm {
      Simulator* sim;
      pfsim::EventId* timer;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        *timer = sim->ScheduleResume(Milliseconds(1), h);
      }
      void await_resume() const noexcept {}
    };
    co_await Arm{&sim, &timer};
    resumed = true;
  };
  sim.Spawn(sleeper());
  EXPECT_TRUE(sim.Cancel(timer));
  sim.Run();
  EXPECT_FALSE(resumed);  // the frame is destroyed with the simulator
  EXPECT_EQ(sim.events_executed(), 0u);
}

// Dead keys outnumbering live ones are dropped in one pass; the survivors
// still fire in (time, insertion) order.
TEST(SimulatorTest, CompactionKeepsTheOrderOfLiveEvents) {
  Simulator sim;
  std::vector<int> order;
  std::vector<pfsim::EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(sim.Schedule(Microseconds(i % 7), [&order, i] { order.push_back(i); }));
  }
  std::vector<int> want;
  for (int i = 0; i < 100; ++i) {
    if (i % 5 == 0) {
      want.push_back(i);
    } else {
      EXPECT_TRUE(sim.Cancel(ids[static_cast<size_t>(i)]));
    }
  }
  EXPECT_EQ(sim.pending_events(), 20u);
  std::stable_sort(want.begin(), want.end(), [](int a, int b) { return a % 7 < b % 7; });
  sim.Run();
  EXPECT_EQ(order, want);
  EXPECT_EQ(sim.events_executed(), 20u);
}

TEST(SimulatorTest, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.Step());
  sim.Schedule(Duration(0), [] {});
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
}

Task DelayTwice(Simulator* sim, std::vector<int64_t>* times) {
  co_await sim->Delay(Milliseconds(1));
  times->push_back(sim->Now().time_since_epoch().count());
  co_await sim->Delay(Milliseconds(2));
  times->push_back(sim->Now().time_since_epoch().count());
}

TEST(TaskTest, CoroutineDelaysAdvanceSimTime) {
  Simulator sim;
  std::vector<int64_t> times;
  sim.Spawn(DelayTwice(&sim, &times));
  sim.Run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], Milliseconds(1).count());
  EXPECT_EQ(times[1], Milliseconds(3).count());
}

TEST(TaskTest, UnspawnedTaskNeverRuns) {
  Simulator sim;
  bool ran = false;
  auto make = [&]() -> Task {
    ran = true;
    co_return;
  };
  {
    Task t = make();
    EXPECT_FALSE(ran);  // initial_suspend is suspend_always
  }
  EXPECT_FALSE(ran);  // destroyed without running
}

TEST(TaskTest, SuspendedTaskIsDestroyedWithSimulator) {
  // A task parked on a queue that never delivers must be freed at simulator
  // teardown (no leak under ASan, destructor of locals runs).
  struct Guard {
    bool* flag;
    ~Guard() { *flag = true; }
  };
  bool destroyed = false;
  {
    Simulator sim;
    MsgQueue<int> queue(&sim);
    auto waiter = [&]() -> Task {
      Guard guard{&destroyed};
      co_await queue.Pop();
    };
    sim.Spawn(waiter());
    sim.Run();
    EXPECT_FALSE(destroyed);  // still parked
  }
  EXPECT_TRUE(destroyed);
}

Task PushLater(Simulator* sim, MsgQueue<int>* queue, Duration delay, int value) {
  co_await sim->Delay(delay);
  queue->TryPush(value);
}

Task PopInto(MsgQueue<int>* queue, std::vector<int>* out, int count) {
  for (int i = 0; i < count; ++i) {
    out->push_back(co_await queue->Pop());
  }
}

TEST(MsgQueueTest, PopBlocksUntilPush) {
  Simulator sim;
  MsgQueue<int> queue(&sim);
  std::vector<int> got;
  sim.Spawn(PopInto(&queue, &got, 2));
  sim.Spawn(PushLater(&sim, &queue, Milliseconds(1), 7));
  sim.Spawn(PushLater(&sim, &queue, Milliseconds(2), 8));
  sim.Run();
  EXPECT_EQ(got, (std::vector<int>{7, 8}));
}

TEST(MsgQueueTest, CapacityDropsAndCounts) {
  Simulator sim;
  MsgQueue<int> queue(&sim, 2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3));
  EXPECT_EQ(queue.dropped(), 1u);
  EXPECT_EQ(queue.size(), 2u);
  queue.ForcePush(4);  // ignores the bound
  EXPECT_EQ(queue.size(), 3u);
}

TEST(MsgQueueTest, PopWithTimeoutReturnsNulloptOnExpiry) {
  Simulator sim;
  MsgQueue<int> queue(&sim);
  std::optional<int> result = std::make_optional(99);
  int64_t finish_ns = -1;
  auto waiter = [&]() -> Task {
    result = co_await queue.PopWithTimeout(Milliseconds(5));
    finish_ns = sim.Now().time_since_epoch().count();
  };
  sim.Spawn(waiter());
  sim.Run();
  EXPECT_EQ(result, std::nullopt);
  EXPECT_EQ(finish_ns, Milliseconds(5).count());
}

TEST(MsgQueueTest, PopWithTimeoutDeliversValueBeforeExpiry) {
  Simulator sim;
  MsgQueue<int> queue(&sim);
  std::optional<int> result;
  auto waiter = [&]() -> Task { result = co_await queue.PopWithTimeout(Milliseconds(5)); };
  sim.Spawn(waiter());
  sim.Spawn(PushLater(&sim, &queue, Milliseconds(2), 42));
  sim.Run();
  EXPECT_EQ(result, 42);
  EXPECT_EQ(queue.waiter_count(), 0u);
  // The hand-off cancelled the timer: the run drained at the push, and no
  // event outlived it.
  EXPECT_EQ(sim.Now().time_since_epoch(), Milliseconds(2));
  EXPECT_EQ(sim.events_executed(), 2u);  // the pusher's delay, the waiter's resume
}

TEST(MsgQueueTest, TimerScheduledBeforeASameInstantPushTimesOut) {
  // The pop's timer and the push land at the same instant. Events at one
  // time run in (time, seq) order and the timer was scheduled first (the
  // waiter runs before PushLater is spawned), so the timer fires first: the
  // pop times out and the pushed value stays queued for the next reader.
  Simulator sim;
  MsgQueue<int> queue(&sim);
  std::optional<int> result = std::make_optional(0);
  auto waiter = [&]() -> Task { result = co_await queue.PopWithTimeout(Milliseconds(5)); };
  sim.Spawn(waiter());
  sim.Spawn(PushLater(&sim, &queue, Milliseconds(5), 1));
  sim.Run();
  EXPECT_EQ(result, std::nullopt);
  EXPECT_EQ(queue.size(), 1u);
}

TEST(MsgQueueTest, ZeroTimeoutPolls) {
  Simulator sim;
  MsgQueue<int> queue(&sim);
  std::optional<int> result = std::make_optional(1);
  auto poller = [&]() -> Task { result = co_await queue.PopWithTimeout(Duration(0)); };
  sim.Spawn(poller());
  sim.Run();
  EXPECT_EQ(result, std::nullopt);

  queue.TryPush(5);
  std::optional<int> result2;
  auto poller2 = [&]() -> Task { result2 = co_await queue.PopWithTimeout(Duration(0)); };
  sim.Spawn(poller2());
  sim.Run();
  EXPECT_EQ(result2, 5);
}

TEST(MsgQueueTest, DrainAllRespectsMax) {
  Simulator sim;
  MsgQueue<int> queue(&sim);
  for (int i = 0; i < 5; ++i) {
    queue.TryPush(i);
  }
  auto first = queue.DrainAll(3);
  EXPECT_EQ(first, (std::vector<int>{0, 1, 2}));
  auto rest = queue.DrainAll();
  EXPECT_EQ(rest, (std::vector<int>{3, 4}));
  EXPECT_TRUE(queue.empty());
}

TEST(MsgQueueTest, MultipleWaitersServedFifo) {
  Simulator sim;
  MsgQueue<int> queue(&sim);
  std::vector<std::pair<int, int>> got;  // (waiter, value)
  auto waiter = [&](int id) -> Task {
    const int v = co_await queue.Pop();
    got.emplace_back(id, v);
  };
  sim.Spawn(waiter(1));
  sim.Spawn(waiter(2));
  sim.Schedule(Milliseconds(1), [&] {
    queue.TryPush(10);
    queue.TryPush(20);
  });
  sim.Run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], std::make_pair(1, 10));
  EXPECT_EQ(got[1], std::make_pair(2, 20));
}

TEST(WaitQueueTest, NotifyOneWakesInFifoOrder) {
  Simulator sim;
  pfsim::WaitQueue wq(&sim);
  std::vector<int> woken;
  auto waiter = [&](int id) -> Task {
    co_await wq.Wait();
    woken.push_back(id);
  };
  sim.Spawn(waiter(1));
  sim.Spawn(waiter(2));
  sim.Spawn(waiter(3));
  EXPECT_EQ(wq.waiter_count(), 3u);
  wq.NotifyOne();
  sim.Run();
  EXPECT_EQ(woken, (std::vector<int>{1}));
  wq.NotifyAll();
  sim.Run();
  EXPECT_EQ(woken, (std::vector<int>{1, 2, 3}));
}

pfsim::ValueTask<int> AddLater(Simulator* sim, int a, int b) {
  co_await sim->Delay(Milliseconds(1));
  co_return a + b;
}

pfsim::ValueTask<int> Twice(Simulator* sim, int a, int b) {
  const int first = co_await AddLater(sim, a, b);
  const int second = co_await AddLater(sim, first, first);
  co_return second;
}

TEST(ValueTaskTest, NestedAwaitsPropagateValues) {
  Simulator sim;
  int result = 0;
  auto driver = [&]() -> Task { result = co_await Twice(&sim, 2, 3); };
  sim.Spawn(driver());
  sim.Run();
  EXPECT_EQ(result, 10);
  EXPECT_EQ(sim.Now(), TimePoint{} + Milliseconds(2));
}

pfsim::ValueTask<void> NoOp() { co_return; }

TEST(ValueTaskTest, VoidTaskCompletesSynchronously) {
  Simulator sim;
  bool done = false;
  auto driver = [&]() -> Task {
    co_await NoOp();
    done = true;
  };
  sim.Spawn(driver());
  sim.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.Now().time_since_epoch().count(), 0);
}

// --- Frame pool (frame_pool.h) ----------------------------------------------

constexpr const char* kPassthroughReason =
    "AddressSanitizer build: the frame pool passes every frame straight through to "
    "::operator new/delete, so frames are never reused";

// Hands the awaiting coroutine its own frame address without suspending.
struct FrameAddress {
  void* address = nullptr;
  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> h) noexcept {
    address = h.address();
    return false;
  }
  void* await_resume() const noexcept { return address; }
};

pfsim::ValueTask<void*> ValueFrame() { co_return co_await FrameAddress{}; }

Task SmallFrame() { co_return; }

// `bytes` live across a suspension, so they sit in the frame.
template <size_t kBytes>
Task FrameHolding(Simulator* sim, size_t* sum) {
  std::array<uint8_t, kBytes> bytes;
  bytes.fill(1);
  co_await sim->Delay(Nanoseconds(1));
  for (const uint8_t b : bytes) {
    *sum += b;
  }
}

TEST(FramePoolTest, FreedFrameIsReusedByTheNextOfItsClass) {
  if (pfsim::kFramePoolPassthrough) {
    GTEST_SKIP() << kPassthroughReason;
  }
  // A Task frame.
  auto first = SmallFrame().Release();
  void* const task_frame = first.address();
  first.destroy();
  auto second = SmallFrame().Release();
  EXPECT_EQ(second.address(), task_frame);  // the pool never frees a frame
  second.destroy();

  // A ValueTask frame: the second call's frame is the first call's.
  Simulator sim;
  std::vector<void*> frames;
  auto caller = [&]() -> Task {
    frames.push_back(co_await ValueFrame());
    frames.push_back(co_await ValueFrame());
  };
  sim.Spawn(caller());
  sim.Run();
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], frames[1]);
}

TEST(FramePoolTest, ClassesNeverShareStorage) {
  using pfsim::internal::AllocateFrame;
  using pfsim::internal::ReleaseFrame;
  // One freed block per class, each of its class's largest size.
  std::vector<void*> freed;
  for (size_t cls = 0; cls < pfsim::kFrameClasses; ++cls) {
    const size_t size = (cls + 1) * pfsim::kFrameClassBytes;
    void* block = AllocateFrame(size);
    std::fill_n(static_cast<uint8_t*>(block), size, 0xa5);  // the whole class is usable
    freed.push_back(block);
  }
  for (size_t cls = 0; cls < freed.size(); ++cls) {
    ReleaseFrame(freed[cls], (cls + 1) * pfsim::kFrameClassBytes);
  }
  // Each class's smallest size gets that class's block back (or a fresh one
  // under passthrough), never another class's.
  for (size_t cls = 0; cls < pfsim::kFrameClasses; ++cls) {
    const size_t size = cls * pfsim::kFrameClassBytes + 1;
    void* block = AllocateFrame(size);
    for (size_t other = 0; other < freed.size(); ++other) {
      if (other != cls) {
        EXPECT_NE(block, freed[other]) << "class " << cls << " got class " << other;
      }
    }
    if (!pfsim::kFramePoolPassthrough) {
      EXPECT_EQ(block, freed[cls]) << "class " << cls;
    }
    ReleaseFrame(block, size);
  }

  // Coroutines: a small frame, once freed, is not handed to a larger one.
  Simulator sim;
  size_t sum = 0;
  auto small = SmallFrame().Release();
  void* const small_frame = small.address();
  small.destroy();
  auto large = FrameHolding<512>(&sim, &sum).Release();
  EXPECT_NE(large.address(), small_frame);
  large.destroy();
}

TEST(FramePoolTest, FrameAboveTheTopClassRoundTripsThroughOperatorNew) {
  const uint64_t oversize = pfsim::oversize_frames();
  Simulator sim;
  size_t sum = 0;
  sim.Spawn(FrameHolding<2 * pfsim::kMaxPooledFrameBytes>(&sim, &sum));
  sim.Run();
  EXPECT_EQ(sum, 2 * pfsim::kMaxPooledFrameBytes);  // every byte of the frame was usable
  if (!pfsim::kFramePoolPassthrough) {
    EXPECT_EQ(pfsim::oversize_frames(), oversize + 1);
  }
}

// --- Ordering parity against a reference model ------------------------------
//
// One seeded mix generator makes every random decision; it runs once over
// a real Simulator and once over a reference model (a plain std::function
// priority queue keyed by (at, seq), with a set of the events not yet run
// or cancelled). Each backend logs every firing and every cancel with the
// clock and the queue counters, and the two logs must match entry for
// entry.

constexpr int64_t kFinish = -1;
constexpr int64_t kPark = -2;
constexpr int kMaxIdsPerSeed = 4000;
constexpr int kCheckpoint = -1;
constexpr int kCancelled = -2;    // a cancel that removed a pending event
constexpr int kCancelMissed = -3;  // a cancel of an event already run or cancelled

// One log entry: who fired (or kCheckpoint, kCancelled, kCancelMissed),
// when, and the queue counters at that moment. `intact` is false when a
// callback found its own callable destroyed while it ran, or a cancelled
// callback's callable outlived its cancel.
struct Firing {
  int id;
  int64_t now;
  size_t pending;
  uint64_t executed;
  bool intact;
  bool operator==(const Firing&) const = default;
};

// The operations the mix generator may perform, on either backend.
class Backend {
 public:
  Backend() = default;
  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;
  virtual ~Backend() = default;
  virtual int64_t Now() const = 0;
  virtual size_t Pending() const = 0;
  virtual uint64_t Executed() const = 0;
  // Schedule (relative `t`) or ScheduleAt (absolute `t`) a callback.
  virtual void Callback(int64_t t, bool absolute, int id) = 0;
  // ScheduleResume of a parked worker.
  virtual void Resume(int64_t delay, int worker) = 0;
  // Cancels the `ticket`-th event made by Callback or Resume; returns
  // whether it was still pending.
  virtual bool Cancel(size_t ticket) = 0;
  // Whether callback `id`'s callable has been destroyed.
  virtual bool CallableGone(int id) const = 0;
  virtual void Spawn(int worker) = 0;
  virtual bool Step() = 0;
  virtual void RunUntil(int64_t deadline) = 0;
};

// What the generated mix exercised, summed over seeds.
struct OrderCoverage {
  uint64_t zero_delays = 0;
  uint64_t equal_time_firings = 0;
  uint64_t bursts = 0;
  uint64_t resumes = 0;
  uint64_t spawns = 0;
  uint64_t absolute = 0;
  uint64_t cut_deadlines = 0;  // RunUntil returned with events still pending
  uint64_t cancels = 0;        // removed a pending event
  uint64_t stale_cancels = 0;  // named an event already run or cancelled
  uint64_t compactions = 0;    // sweeps that left more dead keys than live ones
};

class OrderMix {
 public:
  OrderMix(uint64_t seed, OrderCoverage* coverage) : rng_(seed), coverage_(coverage) {}

  void Attach(Backend* backend) { backend_ = backend; }
  std::vector<Firing>& log() { return log_; }

  // The top-level schedule: runs, steps and RunUntil deadlines interleaved
  // with fresh work, then a full drain.
  void Drive() {
    for (int round = 0; round < 200; ++round) {
      switch (rng_.Below(4)) {
        case 0:
          backend_->RunUntil(backend_->Now() + static_cast<int64_t>(rng_.Below(400)));
          if (backend_->Pending() > 0) {
            ++coverage_->cut_deadlines;
          }
          break;
        case 1:
          for (uint64_t k = rng_.Below(24); k > 0; --k) {
            backend_->Step();
          }
          break;
        default:
          Act();
          break;
      }
      Checkpoint();
    }
    backend_->RunUntil(backend_->Now() + 1'000'000);
    Checkpoint();
    while (backend_->Step()) {
    }
    Checkpoint();
  }

  // A callback fired; returns its log index.
  size_t CallbackFired(int id) {
    const size_t entry = Fired(id);
    Act();
    return entry;
  }

  // A worker woke (spawned, resumed, or its delay elapsed): it does some
  // work, then finishes, parks, or sleeps for the returned delay.
  int64_t WorkerWoke(int id) {
    Fired(id);
    Act();
    switch (rng_.Below(4)) {
      case 0:
        return kFinish;
      case 1:
        parked_.push_back(id);
        return kPark;
      default:
        return RandomDelay();
    }
  }

 private:
  int64_t RandomDelay() {
    switch (rng_.Below(4)) {
      case 0:
        ++coverage_->zero_delays;
        return 0;
      case 1:
        return static_cast<int64_t>(rng_.Below(3));  // ties are likely
      default:
        return static_cast<int64_t>(rng_.Below(500));
    }
  }

  size_t Fired(int id) {
    if (!log_.empty() && log_.back().now == backend_->Now() && log_.back().id >= 0) {
      ++coverage_->equal_time_firings;
    }
    log_.push_back({id, backend_->Now(), backend_->Pending(), backend_->Executed(), true});
    return log_.size() - 1;
  }

  void Checkpoint() {
    log_.push_back(
        {kCheckpoint, backend_->Now(), backend_->Pending(), backend_->Executed(), true});
  }

  bool CancelTicket(size_t t) {
    const bool removed = backend_->Cancel(t);
    const Ticket ticket = tickets_[t];
    bool intact = true;
    if (!removed) {
      ++coverage_->stale_cancels;
    } else if (ticket.worker >= 0) {
      parked_.push_back(ticket.worker);  // still suspended, resumable again
    } else {
      intact = backend_->CallableGone(ticket.callback_id);
    }
    coverage_->cancels += removed ? 1 : 0;
    log_.push_back({removed ? kCancelled : kCancelMissed, backend_->Now(), backend_->Pending(),
                    backend_->Executed(), intact});
    return removed;
  }

  // Cancels most of the recent events at once. Removing more than remain
  // pending makes dead keys outnumber live ones, whatever the heap held.
  void CancelSweep() {
    uint64_t removed = 0;
    for (size_t t = tickets_.size() > 256 ? tickets_.size() - 256 : 0; t < tickets_.size(); ++t) {
      if (rng_.Below(4) != 0 && CancelTicket(t)) {
        ++removed;
      }
    }
    if (removed > backend_->Pending()) {
      ++coverage_->compactions;
    }
  }

  // Random follow-up work: usually zero to two operations, sometimes a
  // burst that grows the slab from inside a running event, or a sweep of
  // cancels.
  void Act() {
    uint64_t n = rng_.Below(2);
    if (rng_.Below(16) == 0) {
      n = 16 + rng_.Below(48);
      ++coverage_->bursts;
    }
    if (rng_.Below(64) == 0) {
      CancelSweep();
    }
    for (; n > 0; --n) {
      switch (rng_.Below(6)) {
        case 0:
        case 1:
          if (next_id_ < kMaxIdsPerSeed) {
            tickets_.push_back({next_id_, -1});
            backend_->Callback(RandomDelay(), false, next_id_++);
          }
          break;
        case 2:
          if (next_id_ < kMaxIdsPerSeed) {
            ++coverage_->absolute;
            tickets_.push_back({next_id_, -1});
            backend_->Callback(backend_->Now() + RandomDelay(), true, next_id_++);
          }
          break;
        case 3:
          if (!parked_.empty()) {
            const size_t pick = rng_.Below(parked_.size());
            const int worker = parked_[pick];
            parked_.erase(parked_.begin() + static_cast<std::ptrdiff_t>(pick));
            ++coverage_->resumes;
            tickets_.push_back({-1, worker});
            backend_->Resume(RandomDelay(), worker);
          }
          break;
        case 4:
          if (!tickets_.empty()) {
            CancelTicket(rng_.Below(tickets_.size()));
          }
          break;
        default:
          // Spawn resumes inline; bound the nesting.
          if (next_id_ < kMaxIdsPerSeed && spawn_depth_ < 3) {
            ++coverage_->spawns;
            ++spawn_depth_;
            backend_->Spawn(next_id_++);
            --spawn_depth_;
          }
          break;
      }
    }
  }

  // What the ticket-th Callback or Resume scheduled: one of the two is -1.
  struct Ticket {
    int callback_id;
    int worker;
  };

  pfutil::Rng rng_;
  OrderCoverage* coverage_;
  Backend* backend_ = nullptr;
  std::vector<Firing> log_;
  std::vector<Ticket> tickets_;
  std::vector<int> parked_;
  int next_id_ = 0;
  int spawn_depth_ = 0;
};

// The reference: a std::function priority queue keyed by (at, seq).
class ModelBackend : public Backend {
 public:
  explicit ModelBackend(OrderMix* mix) : mix_(mix) {}

  int64_t Now() const override { return now_; }
  size_t Pending() const override { return live_.size(); }
  uint64_t Executed() const override { return executed_; }
  void Callback(int64_t t, bool absolute, int id) override {
    tickets_.push_back(At(absolute ? t : now_ + t, [this, id] { mix_->CallbackFired(id); }));
  }
  void Resume(int64_t delay, int worker) override {
    tickets_.push_back(At(now_ + delay, [this, worker] { Wake(worker); }));
  }
  bool Cancel(size_t ticket) override { return live_.erase(tickets_.at(ticket)) > 0; }
  bool CallableGone(int /*id*/) const override { return true; }
  void Spawn(int worker) override { Wake(worker); }
  bool Step() override {
    if (!DropCancelledTop()) {
      return false;
    }
    Event ev = queue_.top();
    queue_.pop();
    live_.erase(ev.seq);
    now_ = ev.at;
    ++executed_;
    ev.fn();
    return true;
  }
  void RunUntil(int64_t deadline) override {
    while (DropCancelledTop() && queue_.top().at <= deadline) {
      Step();
    }
    now_ = std::max(now_, deadline);
  }

 private:
  struct Event {
    int64_t at;
    uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  uint64_t At(int64_t at, std::function<void()> fn) {
    live_.insert(next_seq_);
    queue_.push(Event{at, next_seq_, std::move(fn)});
    return next_seq_++;
  }

  bool DropCancelledTop() {
    while (!queue_.empty() && !live_.contains(queue_.top().seq)) {
      queue_.pop();
    }
    return !queue_.empty();
  }

  // A worker coroutine, unrolled: a zero delay continues inline (Delay's
  // await_ready), a positive one is an event.
  void Wake(int worker) {
    for (;;) {
      const int64_t next = mix_->WorkerWoke(worker);
      if (next == kFinish || next == kPark) {
        return;
      }
      if (next > 0) {
        At(now_ + next, [this, worker] { Wake(worker); });
        return;
      }
    }
  }

  OrderMix* mix_;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::unordered_set<uint64_t> live_;  // seqs neither run nor cancelled
  std::vector<uint64_t> tickets_;
  int64_t now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
};

class RealBackend;

// Counts the live copies of callback `id`'s callable, so a callback can
// tell whether its own callable was destroyed while it ran.
class CallableToken {
 public:
  CallableToken(std::vector<int>* live, int id) : live_(live), id_(id) {
    if (live_->size() <= static_cast<size_t>(id_)) {
      live_->resize(static_cast<size_t>(id_) + 1, 0);
    }
    ++(*live_)[id_];
  }
  CallableToken(const CallableToken& other) : live_(other.live_), id_(other.id_) {
    if (id_ >= 0) {
      ++(*live_)[id_];
    }
  }
  CallableToken(CallableToken&& other) noexcept
      : live_(other.live_), id_(std::exchange(other.id_, -1)) {}
  CallableToken& operator=(const CallableToken&) = delete;
  ~CallableToken() {
    if (id_ >= 0) {
      --(*live_)[id_];
    }
  }
  bool alive() const { return id_ >= 0 && (*live_)[id_] > 0; }

 private:
  std::vector<int>* live_;
  int id_;
};

Task RealWorker(RealBackend* backend, OrderMix* mix, Simulator* sim, int id);

class RealBackend : public Backend {
 public:
  explicit RealBackend(OrderMix* mix) : mix_(mix) {}

  int64_t Now() const override { return sim_.NowNanos(); }
  size_t Pending() const override { return sim_.pending_events(); }
  uint64_t Executed() const override { return sim_.events_executed(); }
  void Callback(int64_t t, bool absolute, int id) override {
    auto fn = [mix = mix_, token = CallableToken(&live_, id), id] {
      const size_t entry = mix->CallbackFired(id);
      mix->log()[entry].intact = token.alive();
    };
    tickets_.push_back(absolute ? sim_.ScheduleAt(TimePoint{} + Nanoseconds(t), std::move(fn))
                                : sim_.Schedule(Nanoseconds(t), std::move(fn)));
  }
  void Resume(int64_t delay, int worker) override {
    tickets_.push_back(sim_.ScheduleResume(Nanoseconds(delay), parked_.at(worker)));
  }
  bool Cancel(size_t ticket) override { return sim_.Cancel(tickets_.at(ticket)); }
  bool CallableGone(int id) const override {
    return static_cast<size_t>(id) >= live_.size() || live_[static_cast<size_t>(id)] == 0;
  }
  void Spawn(int worker) override { sim_.Spawn(RealWorker(this, mix_, &sim_, worker)); }
  bool Step() override { return sim_.Step(); }
  void RunUntil(int64_t deadline) override { sim_.RunUntil(TimePoint{} + Nanoseconds(deadline)); }

  void Park(int worker, std::coroutine_handle<> h) { parked_[worker] = h; }

 private:
  OrderMix* mix_;
  std::vector<int> live_;
  std::unordered_map<int, std::coroutine_handle<>> parked_;
  std::vector<pfsim::EventId> tickets_;
  Simulator sim_;  // destroyed first: pending callbacks' tokens count into live_
};

Task RealWorker(RealBackend* backend, OrderMix* mix, Simulator* sim, int id) {
  struct Park {
    RealBackend* backend;
    int id;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { backend->Park(id, h); }
    void await_resume() const noexcept {}
  };
  for (;;) {
    const int64_t next = mix->WorkerWoke(id);
    if (next == kFinish) {
      co_return;
    }
    if (next == kPark) {
      co_await Park{backend, id};
    } else {
      co_await sim->Delay(Nanoseconds(next));
    }
  }
}

TEST(SimulatorOrderTest, GeneratedMixMatchesReferenceQueue) {
  const char* seconds_env = std::getenv("PF_SIM_ORDER_SECONDS");
  const char* seed_env = std::getenv("PF_SIM_ORDER_SEED");
  const double budget_s = seconds_env != nullptr ? std::atof(seconds_env) : 1.0;
  const uint64_t first_seed = seed_env != nullptr ? std::strtoull(seed_env, nullptr, 10) : 1;
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed_s = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };
  OrderCoverage coverage;
  OrderCoverage model_coverage;
  uint64_t seed = first_seed;
  do {
    SCOPED_TRACE("seed " + std::to_string(seed));
    OrderMix real_mix(seed, &coverage);
    OrderMix model_mix(seed, &model_coverage);
    {
      RealBackend real(&real_mix);
      real_mix.Attach(&real);
      real_mix.Drive();
    }
    ModelBackend model(&model_mix);
    model_mix.Attach(&model);
    model_mix.Drive();

    const std::vector<Firing>& got = real_mix.log();
    const std::vector<Firing>& want = model_mix.log();
    const size_t n = std::min(got.size(), want.size());
    for (size_t i = 0; i < n; ++i) {
      const Firing& g = got[i];
      const Firing& w = want[i];
      if (!(g == w)) {
        ADD_FAILURE() << "first divergence at log entry " << i << ": simulator fired id " << g.id
                      << " at " << g.now << " (pending " << g.pending << ", executed "
                      << g.executed << (g.intact ? "" : ", callable destroyed mid-run")
                      << "), reference fired id " << w.id << " at " << w.now << " (pending "
                      << w.pending << ", executed " << w.executed << ")";
        return;
      }
    }
    ASSERT_EQ(got.size(), want.size());
    ++seed;
  } while (elapsed_s() < budget_s);
  // The mix must have exercised what it exists to exercise.
  EXPECT_GT(coverage.zero_delays, 0u);
  EXPECT_GT(coverage.equal_time_firings, 0u);
  EXPECT_GT(coverage.bursts, 0u);
  EXPECT_GT(coverage.resumes, 0u);
  EXPECT_GT(coverage.spawns, 0u);
  EXPECT_GT(coverage.absolute, 0u);
  EXPECT_GT(coverage.cut_deadlines, 0u);
  EXPECT_GT(coverage.cancels, 0u);
  EXPECT_GT(coverage.stale_cancels, 0u);
  EXPECT_GT(coverage.compactions, 0u);
  ::testing::Test::RecordProperty("seeds", static_cast<int>(seed - first_seed));
}

// --- Teardown and frame reclamation -----------------------------------------

// Counts its own destruction; a moved-from instance does not count.
class CountsFree {
 public:
  explicit CountsFree(int* freed) : freed_(freed) {}
  CountsFree(CountsFree&& other) noexcept : freed_(std::exchange(other.freed_, nullptr)) {}
  CountsFree(const CountsFree&) = delete;
  CountsFree& operator=(const CountsFree&) = delete;
  ~CountsFree() {
    if (freed_ != nullptr) {
      ++*freed_;
    }
  }

 private:
  int* freed_;
};

Task SleepThenMark(Simulator* sim, CountsFree /*token*/, std::shared_ptr<int> /*capture*/,
                   bool* resumed) {
  co_await sim->Delay(Milliseconds(5));
  *resumed = true;
}

Task WaitThenMark(pfsim::WaitQueue* wq, CountsFree /*token*/, std::shared_ptr<int> /*capture*/,
                  bool* resumed) {
  co_await wq->Wait();
  *resumed = true;
}

TEST(SimulatorTest, TeardownDropsPendingCallbacksAndResumesUnrun) {
  auto capture = std::make_shared<int>(7);
  const std::weak_ptr<int> watch = capture;
  bool ran = false;
  bool resumed = false;
  int frames_freed = 0;
  {
    Simulator sim;
    pfsim::WaitQueue wq(&sim);
    for (int i = 0; i < 100; ++i) {
      sim.Schedule(Milliseconds(1 + i % 3), [capture, &ran] { ran = true; });
    }
    for (int i = 0; i < 50; ++i) {
      sim.Spawn(SleepThenMark(&sim, CountsFree(&frames_freed), capture, &resumed));
      sim.Spawn(WaitThenMark(&wq, CountsFree(&frames_freed), capture, &resumed));
    }
    wq.NotifyAll();  // 50 zero-delay resumes, pending but not yet run
    capture.reset();
    EXPECT_EQ(sim.pending_events(), 200u);
    EXPECT_EQ(frames_freed, 0);
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_FALSE(ran);
  EXPECT_FALSE(resumed);
  EXPECT_EQ(frames_freed, 100);
  EXPECT_TRUE(watch.expired());
}

Task ShortTask(Simulator* sim, CountsFree /*token*/, Duration sleep, int* completed) {
  if (sleep.count() > 0) {
    co_await sim->Delay(sleep);
  }
  ++*completed;
}

TEST(TaskTest, CompletedFramesStayWithinPruneBound) {
  // Completed frames are freed in batches from Spawn, never more than
  // max(64, 2 x live tasks) of them at once; ~Simulator frees the rest.
  constexpr int kTasks = 10000;
  int completed = 0;
  int freed = 0;
  size_t peak_live = 0;
  size_t peak_retained = 0;
  {
    Simulator sim;
    pfutil::Rng rng(10000);
    const auto check = [&](int spawned) {
      const size_t live = static_cast<size_t>(spawned - completed);
      const size_t retained = static_cast<size_t>(completed - freed);
      peak_live = std::max(peak_live, live);
      peak_retained = std::max(peak_retained, retained);
      ASSERT_LE(retained, std::max<size_t>(64, 2 * peak_live)) << "after " << spawned;
    };
    for (int i = 0; i < kTasks; ++i) {
      // A quarter finish inside Spawn; the rest sleep up to 40 us.
      const Duration sleep = Microseconds(static_cast<int64_t>(rng.Below(4)) * 10 +
                                          static_cast<int64_t>(rng.Below(10)));
      sim.Spawn(ShortTask(&sim, CountsFree(&freed), rng.Below(4) == 0 ? Duration(0) : sleep,
                          &completed));
      check(i + 1);
      if (rng.Below(100) == 0) {
        sim.Run();
        check(i + 1);
      }
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
    sim.Run();
    check(kTasks);
    EXPECT_EQ(completed, kTasks);
  }
  EXPECT_EQ(freed, kTasks);
  EXPECT_GT(peak_retained, 0u);  // frames really were retained, then freed
}

}  // namespace
