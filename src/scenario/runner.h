// scenario::run — the single entry point that executes a CampaignSpec.
//
// Both sink modes, all observability surfaces, and every declared output
// funnel through here: benches, the campaign_run CLI, and the sweep
// driver all describe *what* to run as a spec and let the runner decide
// *how* (retained Dataset vs StreamSink, which files to produce). Every
// artifact the runner writes is stamped with the spec's content hash so
// it can be traced back to the exact scenario that produced it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "measure/campaign.h"
#include "report/csv.h"
#include "scenario/spec.h"

namespace dohperf::scenario {

/// Everything scenario::run() produces. The sink payload matching
/// `spec.sink` is populated (`dataset` for kRetained, `sink` for
/// kStreaming); the other stays empty. Headline aggregates are computed
/// by the runner so result-shaping code never re-implements them.
struct RunResult {
  CampaignSpec spec;  ///< The spec as executed.
  std::string hash;   ///< spec_hash(spec).
  /// The observability stores the run recorded (measure::store bits,
  /// declared_stores(spec)); the others below are empty.
  unsigned stores = 0;

  measure::CampaignStats stats;
  obs::Metrics metrics;
  obs::MetricSeries series;
  obs::FlightRecorder anomalies;
  obs::SloTracker slo;
  /// Phase-exact latency attribution ledger (merged across shards).
  obs::AttributionLedger attribution;
  /// Burn-rate alert events, evaluated post-merge when the spec's [slo]
  /// section is enabled (empty otherwise).
  std::vector<obs::SloAlert> slo_alerts;

  measure::Dataset dataset;  ///< Populated in retained mode.
  measure::StreamSink sink;  ///< Populated in streaming mode.

  /// Median DoH1 / Do53 across all rows: exact (type-7) medians in
  /// retained mode, sketch medians in streaming mode.
  double doh1_median_ms = 0.0;
  double do53_median_ms = 0.0;
  std::uint64_t failed_measurements = 0;
  std::uint64_t discarded_mismatch = 0;
  /// Data + handshake retransmits / exchanges that ran their budget dry
  /// (the fault-injection bench's headline counters).
  std::uint64_t retries = 0;
  std::uint64_t retry_timeouts = 0;

  /// Paths produced by write_outputs(), in write order.
  std::vector<std::string> written;
};

/// Runs `spec` against a caller-owned world (which must have been built
/// from `spec.world`; callers that sweep over campaign knobs reuse one
/// world across runs). Records only the stores declared_stores(spec)
/// names. Does not write outputs — see write_outputs().
[[nodiscard]] RunResult run(const CampaignSpec& spec,
                            world::WorldModel& world);

/// Builds the world from `spec.world`, then runs.
[[nodiscard]] RunResult run(const CampaignSpec& spec);

/// The figure 4 CDF series ("series,ms,cdf"; Do53 first, then per
/// provider DoH1 and DoHR in catalog order) — exact empirical CDFs from
/// the retained rows, sketch curves from a streaming sink. Formats match
/// bench/fig4_resolution_cdfs and the determinism suite byte-for-byte.
[[nodiscard]] report::CsvWriter fig4_csv(const measure::Dataset& data);
[[nodiscard]] report::CsvWriter fig4_csv(const measure::StreamSink& sink);

/// The figure 5 per-country DoH1 medians ("iso2,provider,median_doh1_ms"
/// over the analysis countries).
[[nodiscard]] report::CsvWriter fig5_csv(const measure::Dataset& data);
[[nodiscard]] report::CsvWriter fig5_csv(const measure::StreamSink& sink);

/// The "dohperf-scenario-summary-v1" JSON document for a finished run.
[[nodiscard]] std::string summary_json(const RunResult& result);

/// The one-line provenance stamp written at the top of every text
/// output ("# dohperf-spec name=<name> hash=<hash> sink=<sink>\n").
[[nodiscard]] std::string provenance_line(const RunResult& result);

/// The observability stores a run of `spec` must record: those some
/// declared output reads. obs::Metrics is always recorded and has no
/// bit. The map follows the writers in write_outputs():
///   series_csv                              -> series
///   openmetrics                             -> series + attribution
///   attribution_csv                         -> attribution
///   anomalies_dir                           -> flight recorder
///   availability_csv, slo_alerts_csv, or
///   [slo] enabled = true                    -> SLO tracker
/// No store feeds back into the simulation, so the dataset, the metrics
/// and every declared output are the same as with every store on.
[[nodiscard]] unsigned declared_stores(const CampaignSpec& spec);

/// Writes every output declared in `result.spec.outputs` (parent
/// directories created on demand), appending each produced path to
/// `result.written`. Throws std::runtime_error on I/O failure.
void write_outputs(RunResult& result);

}  // namespace dohperf::scenario
