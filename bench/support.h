// Shared environment for the reproduction benches: builds the world and
// runs the campaign once per process, driven by a scenario spec.
//
// The spec is scenario::paper_baseline_spec() unless DOHPERF_SPEC names
// a spec file; either way the DOHPERF_* environment applies on top as
// spec overrides (see scenario::apply_env_overrides):
//
// DOHPERF_SPEC    path to a scenario spec file replacing the paper
//                 baseline (sweep specs are rejected — benches run one
//                 campaign; use tools/campaign_run for sweeps).
// DOHPERF_SCALE   multiplies the spec's client scale (default 1.0 =
//                 paper scale, ~22k clients; use 0.1 for a quick look).
// DOHPERF_SEED    world seed (default 42).
// DOHPERF_THREADS campaign worker shards (default: hardware concurrency).
//                 The dataset is bit-identical for every value.
// DOHPERF_TRACE   when set, captures one fully-instrumented DoH-via-proxy
//                 flow after the campaign and writes a Chrome/Perfetto
//                 trace JSON to the given path (plus a JSONL span dump at
//                 <path>.jsonl). The campaign itself runs untraced, so
//                 datasets are unaffected.
// DOHPERF_TRACE_WARM
//                 like DOHPERF_TRACE but captures one warm-path DoH
//                 session (connection pool + shared cache enabled), so
//                 the trace carries the per-query "warm_query" spans and
//                 reuse/resumption phases.
// DOHPERF_METRICS / DOHPERF_SERIES / DOHPERF_OPENMETRICS /
// DOHPERF_ANOMALIES / DOHPERF_SUMMARY
//                 become the spec's [outputs] entries; files are written
//                 by scenario::write_outputs with the spec's content
//                 hash stamped into every artifact.
#pragma once

#include <memory>
#include <string>

#include "measure/campaign.h"
#include "measure/dataset.h"
#include "measure/regression.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "report/table.h"
#include "scenario/runner.h"
#include "stats/summary.h"
#include "world/world_model.h"

namespace dohperf::benchsupport {

/// Scale / seed from the environment (for benches that build their own
/// ablated worlds rather than riding the shared Env).
[[nodiscard]] double scale_from_env();
[[nodiscard]] std::uint64_t seed_from_env();

/// Lazily-built world + campaign dataset (shared by all queries in one
/// bench process).
class Env {
 public:
  static Env& instance();

  [[nodiscard]] world::WorldModel& world() { return *world_; }
  [[nodiscard]] const measure::Dataset& dataset() const { return dataset_; }
  [[nodiscard]] double scale() const { return spec_.world.client_scale; }
  /// The scenario this process ran, and its content hash (stamped into
  /// every artifact the run wrote).
  [[nodiscard]] const scenario::CampaignSpec& spec() const { return spec_; }
  [[nodiscard]] const std::string& spec_hash() const { return hash_; }
  /// Execution counters of the campaign run (shards, events, wall time).
  [[nodiscard]] const measure::CampaignStats& stats() const {
    return stats_;
  }
  /// Merged observability metrics of the campaign run (bit-identical for
  /// every DOHPERF_THREADS value).
  [[nodiscard]] const obs::Metrics& metrics() const { return metrics_; }
  /// Anomaly flight recorder, finalized after the merge (bit-identical
  /// for every DOHPERF_THREADS value). Empty unless the run kept it.
  [[nodiscard]] const obs::FlightRecorder& anomalies() const {
    return anomalies_;
  }
  /// The observability stores the run recorded (measure::store bits).
  [[nodiscard]] unsigned stores() const { return stores_; }

 private:
  Env();
  scenario::CampaignSpec spec_;
  std::string hash_;
  std::unique_ptr<world::WorldModel> world_;
  measure::Dataset dataset_;
  measure::CampaignStats stats_;
  obs::Metrics metrics_;
  obs::FlightRecorder anomalies_;
  unsigned stores_ = 0;
};

/// Prints the standard bench banner (scenario, scale, client counts,
/// runtime note).
void print_banner(const std::string& title);

/// Where generated artifacts (figure CSVs) belong: `out/<name>`, relative
/// to the working directory. Creates the directory on first use so bench
/// output never lands in (and dirties) the repository root.
[[nodiscard]] std::string out_path(const std::string& name);

}  // namespace dohperf::benchsupport
