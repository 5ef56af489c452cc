// Micro-benchmarks: simulator core (event queue, coroutine round trips,
// latency sampling, nearest-PoP search, RNG).
#include <benchmark/benchmark.h>

#include <vector>

#include "netsim/event_queue.h"
#include "netsim/netctx.h"
#include "netsim/simulator.h"
#include "netsim/task.h"
#include "world/world_model.h"

namespace {

using namespace dohperf::netsim;
namespace world = dohperf::world;
namespace geo = dohperf::geo;

void BM_EventQueuePushPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    EventQueue queue;
    for (std::size_t i = 0; i < n; ++i) {
      queue.push(SimTime{Duration(static_cast<std::int64_t>((i * 7919) % n))},
                 [] {});
    }
    while (!queue.empty()) queue.pop()();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1000)->Arg(10000);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_in(from_ms(static_cast<double>(i % 37)), [] {});
    }
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorEventThroughput);

Task<void> ping_pong(Simulator& sim, int hops) {
  for (int i = 0; i < hops; ++i) {
    co_await sim.sleep(from_ms(0.1));
  }
}

void BM_CoroutineHops(benchmark::State& state) {
  const int hops = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    auto task = ping_pong(sim, hops);
    sim.run();
    task.result();
  }
  state.SetItemsProcessed(state.iterations() * hops);
}
BENCHMARK(BM_CoroutineHops)->Arg(10)->Arg(100);

void BM_LatencySample(benchmark::State& state) {
  LatencyModel model;
  Rng rng(5);
  const Site a{{40.7, -74.0}, 5.0, 1.5, 0.1};
  const Site b{{51.5, -0.1}, 2.0, 1.2, 0.1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.one_way(a, b, 256, rng));
  }
}
BENCHMARK(BM_LatencySample);

/// Every exit position of the default world, and the world itself (its
/// providers own the nearest-site indexes).
struct ExitWorld {
  world::WorldModel model{world::WorldConfig{}};
  std::vector<geo::LatLon> exits;

  ExitWorld() {
    for (std::uint64_t id = 0; id < model.exit_count(); ++id) {
      exits.push_back(model.brightdata().find(id)->site.position);
    }
  }
};

ExitWorld& exit_world() {
  static ExitWorld w;
  return w;
}

/// One nearest-PoP query per (exit, provider), cycling through the world.
void BM_NearestPop(benchmark::State& state) {
  ExitWorld& w = exit_world();
  const auto providers = w.model.providers();
  std::size_t e = 0;
  for (auto _ : state) {
    for (const auto& provider : providers) {
      benchmark::DoNotOptimize(provider.router().sites().nearest(w.exits[e]));
    }
    if (++e == w.exits.size()) e = 0;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(providers.size()));
}
BENCHMARK(BM_NearestPop);

/// The detour ranking (neighborhood_k + 1 nearest) per (exit, provider).
void BM_RankedPop(benchmark::State& state) {
  ExitWorld& w = exit_world();
  const auto providers = w.model.providers();
  std::size_t e = 0;
  for (auto _ : state) {
    for (const auto& provider : providers) {
      benchmark::DoNotOptimize(provider.router().sites().ranked(
          w.exits[e], provider.config().routing.neighborhood_k + 1));
    }
    if (++e == w.exits.size()) e = 0;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(providers.size()));
}
BENCHMARK(BM_RankedPop);

void BM_RngLognormal(benchmark::State& state) {
  Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.lognormal_median(10.0, 0.3));
  }
}
BENCHMARK(BM_RngLognormal);

void BM_RngSplit(benchmark::State& state) {
  Rng rng(7);
  std::uint64_t tag = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.split(tag++));
  }
}
BENCHMARK(BM_RngSplit);

}  // namespace
