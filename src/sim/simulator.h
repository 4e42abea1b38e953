// Discrete-event simulator core: a virtual clock and an event queue, plus
// ownership of coroutine tasks (simulation processes).
//
// Events fire in (time, insertion-order) order, so simultaneous events are
// deterministic. Run() executes until the event queue drains; coroutines
// blocked on conditions (WaitQueue / MsgQueue) hold no events, so a
// simulation quiesces naturally once traffic stops.
//
// The queue is a binary heap of 24-byte {at, seq, slot} keys over a slab of
// slots, reused through a free list. A slot holds either a callback or a
// bare coroutine handle (a resume needs no callable), so a heap sift moves
// three words and never a type-erased callable. A cancelled event's key
// stays in the heap, dead, until it reaches the top or a compaction.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/sim/sim_time.h"
#include "src/sim/task.h"

namespace pfsim {

// Names one scheduled event for Cancel. An id whose event already ran or
// was cancelled names nothing, even after its slot is reused.
struct EventId {
  uint64_t seq = 0;
  uint32_t slot = UINT32_MAX;
};

class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  TimePoint Now() const { return now_; }
  // The clock as raw nanoseconds — the unit the observability layer
  // (src/obs) stamps trace events and histogram samples with.
  int64_t NowNanos() const { return now_.time_since_epoch().count(); }

  // Schedules `fn` to run `delay` from now (delay may be zero; never
  // negative). Templates, so a lambda becomes its slot's std::function
  // directly instead of being moved through by-value Callback parameters.
  template <typename F>
  EventId Schedule(Duration delay, F&& fn) {
    assert(delay.count() >= 0);
    return ScheduleAt(now_ + delay, std::forward<F>(fn));
  }
  template <typename F>
  EventId ScheduleAt(TimePoint at, F&& fn) {
    const EventId id = Push(at);
    slots_[id.slot].fn = std::forward<F>(fn);
    return id;
  }

  // Schedules a coroutine resumption `delay` from now.
  EventId ScheduleResume(Duration delay, std::coroutine_handle<> h);

  // Takes a pending event out: it never runs, and neither pending_events()
  // nor events_executed() counts it. False if `id` names no pending event.
  bool Cancel(EventId id);

  // Takes ownership of `task` and starts it (first resume happens
  // immediately, at the current simulated time).
  void Spawn(Task task);

  // Executes the next event. Returns false if the queue is empty.
  bool Step();

  // Runs until the event queue is empty.
  void Run();

  // Runs until the event queue is empty or simulated time would pass
  // `deadline`; the clock is left at min(deadline, drain time).
  void RunUntil(TimePoint deadline);
  void RunFor(Duration d) { RunUntil(now_ + d); }

  // Awaitable: suspend the current coroutine for `d` of simulated time.
  auto Delay(Duration d) {
    struct Awaiter {
      Simulator* sim;
      Duration d;
      bool await_ready() const noexcept { return d.count() <= 0; }
      void await_suspend(std::coroutine_handle<> h) { sim->ScheduleResume(d, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, d};
  }

  size_t pending_events() const { return heap_.size() - dead_; }
  uint64_t events_executed() const { return events_executed_; }

 private:
  // One pending event's place in the order; `slot` indexes slots_.
  struct Key {
    TimePoint at;
    uint64_t seq;
    uint32_t slot;
  };
  static_assert(sizeof(Key) == 24);
  // What a pending event does: `fn` or `resume` (neither while free). A key
  // whose seq is not `seq` (kFreeSeq once cancelled) is dead.
  struct Slot {
    Callback fn;
    std::coroutine_handle<> resume;
    uint64_t seq = kFreeSeq;
  };
  static constexpr uint64_t kFreeSeq = UINT64_MAX;

  // Claims a free slot and pushes its key at `at`.
  EventId Push(TimePoint at);
  bool Dead(const Key& key) const { return slots_[key.slot].seq != key.seq; }
  // Pops dead keys off the top; returns whether a live event is pending.
  bool DropDeadTop();
  void PruneDoneTasks();

  std::vector<std::coroutine_handle<Task::promise_type>> tasks_;
  // Spawn prunes completed frames once tasks_ reaches this size.
  size_t prune_at_ = kMinPruneAt;
  static constexpr size_t kMinPruneAt = 64;

  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  size_t dead_ = 0;  // cancelled keys still in heap_
  TimePoint now_{};
  uint64_t next_seq_ = 0;
  uint64_t events_executed_ = 0;
};

}  // namespace pfsim

#endif  // SRC_SIM_SIMULATOR_H_
