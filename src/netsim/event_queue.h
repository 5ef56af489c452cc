// Time-ordered event queue for the discrete-event simulator.
//
// Implemented as a flat binary min-heap of (time, sequence, callback)
// slots. The callback is two words, a function pointer and its argument,
// so a slot is trivially copyable: every sift step is a plain 32-byte
// copy and nothing is ever allocated per event. The simulator's only
// event is a coroutine resumption, which fits the two words exactly.
#pragma once

#include <coroutine>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "netsim/time.h"

namespace dohperf::netsim {

/// A min-heap of (time, sequence, callback). Events at equal times fire in
/// insertion order, making simulations fully deterministic.
class EventQueue {
 public:
  /// A two-word, trivially copyable event: `fn(arg)`. Built from a
  /// coroutine handle (resumed when the event fires) or from any callable
  /// that converts to a plain function pointer (a capture-less lambda).
  class Callback {
   public:
    Callback() = default;

    Callback(std::coroutine_handle<> h) noexcept
        : fn_(&resume), arg_(h.address()) {}

    template <typename F>
      requires std::is_convertible_v<F, void (*)()>
    Callback(F f) noexcept
        : fn_(&call),
          arg_(reinterpret_cast<void*>(static_cast<void (*)()>(f))) {}

    void operator()() const { fn_(arg_); }

   private:
    static void resume(void* address) {
      std::coroutine_handle<>::from_address(address).resume();
    }
    static void call(void* fn) { reinterpret_cast<void (*)()>(fn)(); }

    void (*fn_)(void*) = nullptr;
    void* arg_ = nullptr;
  };
  static_assert(std::is_trivially_copyable_v<Callback>);

  /// Enqueues `fn` to fire at absolute time `at`.
  void push(SimTime at, Callback fn);

  /// True if no events remain.
  [[nodiscard]] bool empty() const { return heap_.empty(); }

  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Time of the earliest pending event. Requires !empty().
  [[nodiscard]] SimTime next_time() const { return heap_.front().at; }

  /// Removes and returns the earliest event's callback. Requires !empty().
  [[nodiscard]] Callback pop();

  /// Pre-sizes the slot array for an expected event population.
  void reserve(std::size_t n) { heap_.reserve(n); }

 private:
  struct Event {
    SimTime at;
    std::uint64_t seq;
    Callback fn;
  };

  /// True if `a` must fire strictly before `b`.
  static bool before(const Event& a, const Event& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  std::vector<Event> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace dohperf::netsim
