// ValueTask<T>: a lazily-started, awaitable coroutine returning a value.
//
// pfsim::Task is the fire-and-forget process type owned by the Simulator;
// ValueTask is the composable async *function* type: syscall veneers,
// protocol operations, and multi-step cost charging are written as
// ValueTask coroutines and awaited by callers:
//
//   pfsim::ValueTask<bool> Machine::Write(...) { co_await ...; co_return ok; }
//   ...
//   bool ok = co_await machine->Write(...);
//
// Completion resumes the awaiter by symmetric transfer. A ValueTask is owned
// by the co_await expression's temporary, so the inner frame lives exactly
// as long as the awaiting frame needs it (including destruction of the whole
// chain if the Simulator tears down a suspended process).
#ifndef SRC_SIM_VALUE_TASK_H_
#define SRC_SIM_VALUE_TASK_H_

#include <cassert>
#include <coroutine>
#include <cstdio>
#include <exception>
#include <optional>
#include <utility>

#include "src/sim/frame_pool.h"

namespace pfsim {

namespace internal {

struct PromiseBase {
  // Frames come from the per-thread frame pool (frame_pool.h).
  static void* operator new(size_t size) { return AllocateFrame(size); }
  static void operator delete(void* p, size_t size) noexcept { ReleaseFrame(p, size); }

  std::coroutine_handle<> continuation;

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept {
      std::coroutine_handle<> c = h.promise().continuation;
      return c ? c : std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() noexcept {
    std::fprintf(stderr, "pfsim::ValueTask: unhandled exception escaped\n");
    std::terminate();
  }
};

}  // namespace internal

template <typename T>
class [[nodiscard]] ValueTask {
 public:
  struct promise_type : internal::PromiseBase {
    std::optional<T> value;
    ValueTask get_return_object() {
      return ValueTask(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_value(T v) { value.emplace(std::move(v)); }
  };

  ValueTask(ValueTask&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  ValueTask(const ValueTask&) = delete;
  ValueTask& operator=(const ValueTask&) = delete;
  ValueTask& operator=(ValueTask&&) = delete;
  ~ValueTask() {
    if (handle_) {
      handle_.destroy();
    }
  }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiting) {
    handle_.promise().continuation = awaiting;
    return handle_;  // start the child; it resumes us at final_suspend
  }
  T await_resume() {
    assert(handle_.promise().value.has_value());
    return std::move(*handle_.promise().value);
  }

 private:
  explicit ValueTask(std::coroutine_handle<promise_type> h) : handle_(h) {}
  std::coroutine_handle<promise_type> handle_;
};

template <>
class [[nodiscard]] ValueTask<void> {
 public:
  struct promise_type : internal::PromiseBase {
    ValueTask get_return_object() {
      return ValueTask(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() noexcept {}
  };

  ValueTask(ValueTask&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  ValueTask(const ValueTask&) = delete;
  ValueTask& operator=(const ValueTask&) = delete;
  ValueTask& operator=(ValueTask&&) = delete;
  ~ValueTask() {
    if (handle_) {
      handle_.destroy();
    }
  }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiting) {
    handle_.promise().continuation = awaiting;
    return handle_;
  }
  void await_resume() const noexcept {}

 private:
  explicit ValueTask(std::coroutine_handle<promise_type> h) : handle_(h) {}
  std::coroutine_handle<promise_type> handle_;
};

}  // namespace pfsim

#endif  // SRC_SIM_VALUE_TASK_H_
