// The full measurement campaign (paper Sections 3 and 5.1).
//
// For every reachable exit node: cross-check BrightData's country label
// against the Maxmind-like geolocation service (discarding mismatches),
// then run `runs_per_client` sessions of 5 measurements each — one DoH
// resolution per studied provider plus one Do53 resolution via the
// client's default resolver. Do53 in the 11 Super Proxy countries is
// collected from the RIPE Atlas-like network instead (Section 3.5).
//
// Execution is sharded: the retained exit nodes (and the Atlas countries)
// are partitioned across worker threads, each with its own simulator,
// event queue, replicated server stack (world::SimContext), and slab
// arena for coroutine frames (netsim::Arena). Every session draws its
// randomness from a private substream keyed by a stable identifier
// ("shard-exit-<id>-run-<n>" / "shard-atlas-<iso2>-<i>"), never by shard
// index or scheduling order, and the per-shard results are merged in
// canonical order — so the output is bit-identical for every thread
// count, including the serial reference path.
//
// Two entry points share one engine body:
//   * run()           -> retained-rows Dataset (paper-scale analyses;
//     every record resident).
//   * run_streaming() -> StreamSink (million-session scale; rows folded
//     into sketches/bitsets/counters as sessions complete, O(world)
//     memory instead of O(sessions)).
// Both take the shard count: none = CampaignConfig::threads, 0 = the
// serial reference path.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "measure/dataset.h"
#include "measure/stream_sink.h"
#include "measure/warm.h"
#include "netsim/arena.h"
#include "netsim/faultplan.h"
#include "obs/attribution.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/series.h"
#include "obs/slo.h"
#include "world/world_model.h"

namespace dohperf::measure {

/// The observability stores a run can record, one bit each in
/// CampaignConfig::stores. obs::Metrics has no bit: its counters are the
/// checked statistics, so it is always recorded.
namespace store {
inline constexpr unsigned kSeries = 1u << 0;       ///< obs::MetricSeries
inline constexpr unsigned kAttribution = 1u << 1;  ///< obs::AttributionLedger
inline constexpr unsigned kSlo = 1u << 2;          ///< obs::SloTracker
inline constexpr unsigned kRecorder = 1u << 3;     ///< obs::FlightRecorder
inline constexpr unsigned kAll = kSeries | kAttribution | kSlo | kRecorder;
}  // namespace store

/// Campaign knobs.
struct CampaignConfig {
  int runs_per_client = 2;
  /// Per-(client, provider) probability that a DoH measurement fails
  /// (unreachable resolver, dropped tunnel, ...). This is why Table 3's
  /// per-provider client counts fall slightly below the Do53 total.
  double provider_failure_rate = 0.006;
  /// Atlas Do53 sample size per Super Proxy country (paper: >= 250 in
  /// the validation experiments).
  int atlas_measurements_per_country = 250;
  /// Measurement flows launched concurrently per simulator batch.
  std::size_t batch_size = 256;
  /// Worker shards executing the campaign concurrently. 0 = take
  /// DOHPERF_THREADS from the environment, falling back to the hardware
  /// concurrency. The dataset is bit-identical for every value.
  int threads = 0;
  /// Episodic fault injection (loss spikes, blackouts, brownouts,
  /// provider outages). Disabled by default; every probability is zero,
  /// in which case no fault plan is sampled and no session draws change,
  /// so datasets stay bit-identical to a fault-free build. Plans are
  /// sampled per session from the session's private RNG substream and
  /// windows are expressed relative to the session's own start, so the
  /// result is still bit-identical for every thread count.
  netsim::FaultPlanConfig faults;
  /// Width of the sim-time metric-series windows. Windows are indexed
  /// relative to each session's own start (the fault plans' time base),
  /// so the merged series is bit-identical for every thread count.
  netsim::Duration series_window = netsim::from_ms(250.0);
  /// Anomaly flight-recorder policy. When the recorder is among
  /// `stores` and the policy is enabled (the default), every flow is
  /// examined span-free (sim-time duration plus counter deltas), only
  /// anomalous flows are retained, and the replay pass rebuilds just the
  /// retained flows' span trees (see obs/flight_recorder.h for the
  /// predicate).
  obs::AnomalyPolicy anomalies;
  /// Streaming-sink tuning (run_streaming() only).
  StreamSinkConfig stream;
  /// Virtual campaign-time spacing between session slots. Each session's
  /// SLO window offset is slot * session_spacing plus its own sim time —
  /// a pure function of the slot, so the multi-day campaign axis exists
  /// without moving any shard's clock and without perturbing a single
  /// RNG draw (zero spacing, the default, collapses the axis). The
  /// recurring fault schedules in `faults` are windowed on this axis too.
  netsim::Duration session_spacing{};
  /// SLO objectives and burn-rate window geometry. Outcomes are recorded
  /// when the SLO tracker is among `stores`; `slo.enabled` gates alert
  /// evaluation and report outputs.
  obs::SloConfig slo;
  /// Shared PoP cache model ([cache]). Disabled by default: no model is
  /// built, no warm block runs, no session draw changes — datasets stay
  /// bit-identical to builds without the feature.
  resolver::SharedCacheConfig cache;
  /// Connection-reuse / warm-path knobs ([reuse]). Enabling either this
  /// or `cache` appends one warm DoH session per surviving provider and
  /// one warm Do53 session to every measurement session; their latencies
  /// land in per-query-index histograms and the *_warm series, never in
  /// the cold dataset rows (fig4/fig5 are untouched by construction).
  ReuseConfig reuse;
  /// Which observability stores the run records (`store::` bits). A
  /// store left out is never attached to a shard: it stays empty, costs
  /// no memory, and — for the flight recorder — no flow is examined and
  /// the replay pass does not run. No store feeds back into the
  /// simulation, so the dataset and obs::Metrics are identical for every
  /// value. scenario::run derives the set from the declared outputs.
  unsigned stores = store::kAll;
};

/// Per-shard self-profiling of one run: how the wall-clock work and the
/// event-queue pressure spread across workers (shard load imbalance is
/// invisible in the merged totals).
struct ShardProfile {
  int shard = 0;
  std::uint64_t sessions = 0;  ///< Sessions this shard executed.
  std::uint64_t events = 0;    ///< Simulator events this shard processed.
  double wall_seconds = 0.0;
  std::size_t queue_high_water = 0;  ///< Deepest event queue observed.
  /// Coroutine-frame arena counters for this shard (high-water, slab
  /// bytes, free-list reuse); see netsim/arena.h.
  netsim::ArenaStats arena;

  [[nodiscard]] double events_per_second() const {
    return wall_seconds > 0.0 ? static_cast<double>(events) / wall_seconds
                              : 0.0;
  }
};

/// Execution counters of the last Campaign run (used by the benches to
/// track the sharding speedup).
struct CampaignStats {
  int shards = 0;
  std::uint64_t sessions = 0;
  std::uint64_t events_processed = 0;
  double wall_seconds = 0.0;
  /// One entry per shard (the serial reference path reports one).
  std::vector<ShardProfile> shard_profiles;
};

/// The observability stores of one run. Each shard records into its own
/// bundle; the bundles merge in canonical shard order into the
/// campaign's (see Campaign::stores()).
struct ObsStores {
  explicit ObsStores(const CampaignConfig& config)
      : series(config.series_window),
        anomalies(config.anomalies),
        slo(config.slo) {}

  /// Folds `other` into this bundle and finalizes the flight recorder.
  /// Shards own disjoint slots, so finalizing after every merge keeps the
  /// same canonical-latest records as finalizing once after the last.
  void merge(const ObsStores& other);

  obs::Metrics metrics;
  obs::MetricSeries series;
  obs::FlightRecorder anomalies;
  obs::SloTracker slo;
  obs::AttributionLedger attribution;
};

/// Runs the campaign over an assembled world.
class Campaign {
 public:
  explicit Campaign(world::WorldModel& world, CampaignConfig config = {});

  /// Executes every session and returns the merged dataset. `shards`
  /// worker threads run the sessions (default: CampaignConfig::threads);
  /// 0 selects the serial reference path — every session on the world's
  /// own simulator and server stack, no replicas, no threads. The result
  /// is bit-identical for every value.
  [[nodiscard]] Dataset run(std::optional<int> shards = {});

  /// Streaming-sink mode: rows are folded into the per-shard sinks as
  /// sessions complete and never accumulate. Memory stays O(world);
  /// `shards` as for run().
  [[nodiscard]] StreamSink run_streaming(std::optional<int> shards = {});

  /// Counters of the most recent run.
  [[nodiscard]] const CampaignStats& stats() const { return stats_; }

  /// Observability stores of the most recent run: wire/query/handshake
  /// counters and per-provider latency histograms (metrics), sim-time
  /// series, the finalized anomaly flight recorder, SLO outcome cells and
  /// the phase-exact attribution ledger. Integer-only cells and
  /// canonical-order merges make every store bit-identical for every
  /// shard count (see DESIGN.md "Observability"). A store missing from
  /// CampaignConfig::stores is empty.
  [[nodiscard]] const ObsStores& stores() const { return stores_; }

  /// Moves the stores of the most recent run out of the campaign, so a
  /// caller that keeps them never holds two copies; stores() reads
  /// moved-from stores afterwards.
  [[nodiscard]] ObsStores release_stores() { return std::move(stores_); }

 private:
  /// The one engine body behind both entry points; exactly one of
  /// `retained` and `streamed` is set.
  void execute(std::optional<int> shards, Dataset* retained,
               StreamSink* streamed);

  world::WorldModel& world_;
  CampaignConfig config_;
  CampaignStats stats_;
  ObsStores stores_;
};

}  // namespace dohperf::measure
