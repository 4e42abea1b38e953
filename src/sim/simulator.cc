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

EventId Simulator::Push(TimePoint at) {
  assert(at >= now_);
  uint32_t slot = static_cast<uint32_t>(slots_.size());
  if (free_slots_.empty()) {
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const EventId id{next_seq_++, slot};
  slots_[slot].seq = id.seq;
  heap_.push_back(Key{at, id.seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return id;
}

EventId Simulator::ScheduleResume(Duration delay, std::coroutine_handle<> h) {
  assert(delay.count() >= 0);
  const EventId id = Push(now_ + delay);
  slots_[id.slot].resume = h;
  return id;
}

bool Simulator::Cancel(EventId id) {
  if (id.slot >= slots_.size() || slots_[id.slot].seq != id.seq ||
      !(slots_[id.slot].resume || slots_[id.slot].fn)) {
    return false;  // already ran or cancelled; the slot may hold a later event
  }
  // Free the slot first: the callback's captures die on return, and their
  // destructors may schedule events.
  Slot& slot = slots_[id.slot];
  Callback fn;
  fn.swap(slot.fn);
  slot.resume = nullptr;
  slot.seq = kFreeSeq;
  free_slots_.push_back(id.slot);
  // Drop every dead key once they outnumber the live ones (amortized O(1) per
  // cancel); (at, seq) is a total order, so live events keep their order.
  if (++dead_ > heap_.size() / 2) {
    std::erase_if(heap_, [this](const Key& key) { return Dead(key); });
    std::make_heap(heap_.begin(), heap_.end(), Later{});
    dead_ = 0;
  }
  return true;
}

bool Simulator::DropDeadTop() {
  while (dead_ > 0 && !heap_.empty() && Dead(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    --dead_;
  }
  return !heap_.empty();
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
  if (!DropDeadTop()) {
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
  while (DropDeadTop() && heap_.front().at <= deadline) {
    Step();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
}

}  // namespace pfsim
