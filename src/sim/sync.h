// Coroutine synchronization primitives over the discrete-event simulator:
//
//   * MsgQueue<T>  — bounded FIFO with asynchronous Pop and optional timeout.
//                    This is the shape of the paper's per-port input queue
//                    (§3.3: maximum queue length, blocking reads with
//                    timeout, immediate return, or indefinite blocking) and
//                    of driver/protocol hand-off queues.
//   * WaitQueue    — condition-variable-like wait/notify.
//
// Resumes are always *scheduled* (at the current time, after the running
// event) rather than performed inline, so producers never re-enter consumer
// code and event ordering stays deterministic.
#ifndef SRC_SIM_SYNC_H_
#define SRC_SIM_SYNC_H_

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "src/sim/sim_time.h"
#include "src/sim/simulator.h"

namespace pfsim {

template <typename T>
class MsgQueue {
 public:
  explicit MsgQueue(Simulator* sim, size_t capacity = SIZE_MAX)
      : sim_(sim), capacity_(capacity) {}
  MsgQueue(const MsgQueue&) = delete;
  MsgQueue& operator=(const MsgQueue&) = delete;

  // Enqueues `v`, or hands it directly to a blocked consumer. Returns false
  // (and counts a drop) if the queue is full — the paper's "packets lost due
  // to queue overflows" (§3.3).
  bool TryPush(T v) {
    if (DeliverToWaiter(v)) {
      return true;
    }
    if (items_.size() >= capacity_) {
      ++dropped_;
      return false;
    }
    items_.push_back(std::move(v));
    return true;
  }

  // Enqueues ignoring the capacity bound (control paths that must not drop).
  void ForcePush(T v) {
    if (DeliverToWaiter(v)) {
      return;
    }
    items_.push_back(std::move(v));
  }

  std::optional<T> TryPop() {
    if (items_.empty()) {
      return std::nullopt;
    }
    T v = std::move(items_.front());
    items_.pop_front();
    return v;
  }

  // Removes and returns up to `max` queued items without blocking — the
  // batch-read path of §3 ("all pending packets ... returned in a batch").
  std::vector<T> DrainAll(size_t max = SIZE_MAX) {
    std::vector<T> out;
    while (!items_.empty() && out.size() < max) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
    }
    return out;
  }

  // Awaitable: returns the next item, or nullopt if `timeout` elapses first.
  // A zero timeout means "immediate return"; kForever blocks indefinitely.
  auto PopWithTimeout(Duration timeout) { return PopAwaiter{this, timeout}; }

  // Awaitable: returns the next item; blocks indefinitely.
  auto Pop() { return PopForeverAwaiter{PopAwaiter{this, kForever}}; }

  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  size_t capacity() const { return capacity_; }
  uint64_t dropped() const { return dropped_; }
  size_t waiter_count() const { return waiters_.size(); }

 private:
  // A blocked Pop, in the caller's frame. A hand-off cancels its timer; a
  // timer that fires first resumes the caller, which leaves waiters_.
  struct PopAwaiter {
    MsgQueue* q;
    Duration timeout;
    std::optional<T> value = std::nullopt;
    std::coroutine_handle<> h = nullptr;  // set while blocked
    EventId timer = {};

    bool await_ready() {
      value = q->TryPop();
      return value.has_value() || timeout.count() == 0;  // zero: immediate return
    }

    void await_suspend(std::coroutine_handle<> handle) {
      h = handle;
      q->waiters_.push_back(this);
      if (timeout != kForever) {
        timer = q->sim_->ScheduleResume(timeout, handle);
      }
    }

    std::optional<T> await_resume() {
      if (h && !value.has_value()) {
        std::erase(q->waiters_, this);  // timed out
      }
      return std::move(value);
    }
  };

  bool DeliverToWaiter(T& v) {
    if (waiters_.empty()) {
      return false;
    }
    PopAwaiter* w = waiters_.front();
    waiters_.pop_front();
    w->value = std::move(v);
    sim_->Cancel(w->timer);
    sim_->ScheduleResume(Duration(0), w->h);
    return true;
  }

  struct PopForeverAwaiter {
    PopAwaiter inner;
    bool await_ready() { return inner.await_ready(); }
    void await_suspend(std::coroutine_handle<> h) { inner.await_suspend(h); }
    T await_resume() {
      std::optional<T> v = inner.await_resume();
      assert(v.has_value());  // kForever cannot time out
      return std::move(*v);
    }
  };

  Simulator* sim_;
  size_t capacity_;
  std::deque<T> items_;
  std::deque<PopAwaiter*> waiters_;
  uint64_t dropped_ = 0;
};

class WaitQueue {
 public:
  explicit WaitQueue(Simulator* sim) : sim_(sim) {}
  WaitQueue(const WaitQueue&) = delete;
  WaitQueue& operator=(const WaitQueue&) = delete;

  auto Wait() {
    struct Awaiter {
      WaitQueue* wq;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { wq->waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  void NotifyOne() {
    if (waiters_.empty()) {
      return;
    }
    auto h = waiters_.front();
    waiters_.pop_front();
    sim_->ScheduleResume(Duration(0), h);
  }

  void NotifyAll() {
    while (!waiters_.empty()) {
      NotifyOne();
    }
  }

  size_t waiter_count() const { return waiters_.size(); }

 private:
  Simulator* sim_;
  std::deque<std::coroutine_handle<>> waiters_;
};

}  // namespace pfsim

#endif  // SRC_SIM_SYNC_H_
