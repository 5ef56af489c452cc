// A coroutine that runs a callable every time it is resumed.
//
// EventQueue slots hold a coroutine handle or a plain function pointer,
// never a closure. Tests and micro-benchmarks that want an event to run
// arbitrary code (record the firing time, push onto a vector, schedule a
// follow-up) schedule a ResumeProbe's handle instead:
//
//   ResumeProbe probe([&] { seen = sim.now(); });
//   sim.schedule_in(from_ms(5.0), probe.handle());
//
// The probe may be scheduled any number of times; each firing runs the
// callable once. The probe owns its frame and must outlive its pending
// events.
#pragma once

#include <coroutine>
#include <exception>
#include <functional>
#include <utility>

namespace dohperf::netsim {

class ResumeProbe {
 public:
  explicit ResumeProbe(std::function<void()> fn)
      : handle_(run(std::move(fn)).h) {}

  ResumeProbe(ResumeProbe&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)) {}
  ResumeProbe& operator=(ResumeProbe&& other) noexcept {
    if (this != &other) {
      if (handle_) handle_.destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  ResumeProbe(const ResumeProbe&) = delete;
  ResumeProbe& operator=(const ResumeProbe&) = delete;
  ~ResumeProbe() {
    if (handle_) handle_.destroy();
  }

  /// The handle to schedule; resuming it runs the callable once.
  [[nodiscard]] std::coroutine_handle<> handle() const { return handle_; }

 private:
  struct Frame {
    struct promise_type {
      Frame get_return_object() {
        return {std::coroutine_handle<promise_type>::from_promise(*this)};
      }
      std::suspend_always initial_suspend() noexcept { return {}; }
      std::suspend_always final_suspend() noexcept { return {}; }
      void return_void() {}
      void unhandled_exception() { std::terminate(); }
    };
    std::coroutine_handle<promise_type> h;
  };

  static Frame run(std::function<void()> fn) {
    for (;;) {
      fn();
      co_await std::suspend_always{};
    }
  }

  std::coroutine_handle<> handle_;
};

}  // namespace dohperf::netsim
