// Coroutine task type for simulation processes.
//
// A simulation "process" (the paper's user processes, protocol engines,
// traffic sources) is a C++20 coroutine returning pfsim::Task. Tasks are
// started and owned by the Simulator (Simulator::Spawn); they run to
// completion or remain suspended awaiting simulated events. The Simulator
// destroys any still-suspended frames when it is destroyed, so a Simulator
// must outlive every object its tasks reference.
#ifndef SRC_SIM_TASK_H_
#define SRC_SIM_TASK_H_

#include <coroutine>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <utility>

#include "src/sim/frame_pool.h"

namespace pfsim {

class [[nodiscard]] Task {
 public:
  struct promise_type {
    // Frames come from the per-thread frame pool (frame_pool.h).
    static void* operator new(size_t size) { return internal::AllocateFrame(size); }
    static void operator delete(void* p, size_t size) noexcept {
      internal::ReleaseFrame(p, size);
    }

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    // Spawn() performs the first resume; a Task that is never spawned never
    // runs (and its frame is freed by ~Task).
    std::suspend_always initial_suspend() noexcept { return {}; }
    // Suspend at the end so handle.done() is observable; the owning
    // Simulator frees the frame.
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept {
      // Simulation processes model kernel/protocol code, which has no
      // exception channel back to a caller; an escape is a bug in the model.
      std::fprintf(stderr, "pfsim::Task: unhandled exception escaped a simulation task\n");
      std::terminate();
    }
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Destroy(); }

  bool valid() const { return handle_ != nullptr; }
  bool done() const { return handle_ == nullptr || handle_.done(); }

  // Releases ownership of the raw handle (used by Simulator::Spawn).
  std::coroutine_handle<promise_type> Release() { return std::exchange(handle_, nullptr); }

 private:
  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

}  // namespace pfsim

#endif  // SRC_SIM_TASK_H_
