// Micro-benchmarks for the EventQueue flat binary heap, isolating the
// patterns the simulator produces: bulk build-then-drain, steady-state
// churn (one pop triggers one push, the shape of a sleep-heavy coroutine
// workload), and same-timestamp FIFO bursts (batched session launches).
#include <benchmark/benchmark.h>

#include <cstdint>

#include "netsim/event_queue.h"
#include "netsim/resume_probe.h"
#include "netsim/time.h"

namespace {

using namespace dohperf::netsim;

SimTime at_ms(std::int64_t ms) { return SimTime{} + from_ms(double(ms)); }

// Build a heap of n events in pseudo-random time order, then drain it.
void BM_BuildThenDrain(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    EventQueue queue;
    queue.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      queue.push(at_ms(static_cast<std::int64_t>((i * 7919) % n)), [] {});
    }
    while (!queue.empty()) queue.pop()();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BuildThenDrain)->Arg(1000)->Arg(10000)->Arg(100000);

// Steady state: a resident population of `n` events where every pop
// schedules a successor — the dominant pattern once a campaign batch is
// in flight. Slots are two words, so this does zero allocations per
// event.
void BM_SteadyStateChurn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  EventQueue queue;
  queue.reserve(n + 1);
  std::int64_t clock = 0;
  for (std::size_t i = 0; i < n; ++i) {
    queue.push(at_ms(static_cast<std::int64_t>(i)), [] {});
  }
  for (auto _ : state) {
    const SimTime now = queue.next_time();
    queue.pop()();
    clock += 1 + (clock * 2654435761u) % 23;
    queue.push(now + from_ms(double(clock % 37) + 1.0), [] {});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SteadyStateChurn)->Arg(256)->Arg(4096);

// Bursts of same-timestamp events (a drained batch relaunching): ordering
// falls back to the insertion sequence number, the heap's worst case for
// comparison locality.
void BM_SameTimeBurst(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t order_check = 0;
  const ResumeProbe count([&order_check] { ++order_check; });
  for (auto _ : state) {
    EventQueue queue;
    queue.reserve(n);
    for (std::size_t i = 0; i < n; ++i) queue.push(at_ms(5), count.handle());
    while (!queue.empty()) queue.pop()();
  }
  benchmark::DoNotOptimize(order_check);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SameTimeBurst)->Arg(1000)->Arg(10000);

}  // namespace
