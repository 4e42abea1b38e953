#include "src/sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace pfsim {

namespace {

// Heap order for std::push_heap/pop_heap (a max-heap): the earliest
// (at, seq) must compare greatest.
struct Later {
  template <typename Key>
  bool operator()(const Key& a, const Key& b) const {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  }
};

}  // namespace

Simulator::~Simulator() {
  // Pending events never run: drop them first (callbacks may capture state
  // that refers to task frames), then free any still-suspended frames.
  heap_.clear();
  slots_.clear();
  for (auto h : tasks_) {
    h.destroy();
  }
}

Simulator::Slot& Simulator::Push(TimePoint at) {
  assert(at >= now_);
  uint32_t slot = static_cast<uint32_t>(slots_.size());
  if (free_slots_.empty()) {
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  heap_.push_back(Key{at, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return slots_[slot];
}

void Simulator::Schedule(Duration delay, Callback fn) {
  assert(delay.count() >= 0);
  ScheduleAt(now_ + delay, std::move(fn));
}

void Simulator::ScheduleAt(TimePoint at, Callback fn) {
  Push(at).fn = std::move(fn);
}

void Simulator::ScheduleResume(Duration delay, std::coroutine_handle<> h) {
  assert(delay.count() >= 0);
  Push(now_ + delay).resume = h;
}

void Simulator::Spawn(Task task) {
  if (!task.valid()) {
    return;
  }
  if (tasks_.size() >= prune_at_) {
    PruneDoneTasks();
  }
  auto h = task.Release();
  tasks_.push_back(h);
  h.resume();
}

void Simulator::PruneDoneTasks() {
  // Lazy cleanup: frames of completed tasks are freed here rather than at
  // completion, so a coroutine never frees its own frame mid-resume. The
  // geometric threshold keeps the scan amortized O(1) per Spawn while
  // retaining at most max(64, 2 x live-at-last-prune) frames.
  std::erase_if(tasks_, [](std::coroutine_handle<Task::promise_type> h) {
    if (h.done()) {
      h.destroy();
      return true;
    }
    return false;
  });
  prune_at_ = std::max(kMinPruneAt, 2 * tasks_.size());
}

bool Simulator::Step() {
  if (heap_.empty()) {
    return false;
  }
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key key = heap_.back();
  heap_.pop_back();
  now_ = key.at;
  ++events_executed_;
  // Empty the slot before running it: the event may schedule more, which
  // can reuse this slot or grow (and move) the slab.
  Slot& slot = slots_[key.slot];
  const std::coroutine_handle<> resume = std::exchange(slot.resume, nullptr);
  Callback fn;
  if (!resume) {
    fn.swap(slot.fn);
  }
  free_slots_.push_back(key.slot);
  if (resume) {
    resume.resume();
  } else {
    fn();
  }
  return true;
}

void Simulator::Run() {
  while (Step()) {
  }
}

void Simulator::RunUntil(TimePoint deadline) {
  while (!heap_.empty() && heap_.front().at <= deadline) {
    Step();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
}

}  // namespace pfsim
