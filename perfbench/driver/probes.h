// Micro-probes of single layers, timed on a finished run's own world and
// stores so that their inputs have the campaign's shapes and sizes.
//
// Each probe repeats its loop a few times and returns the median host
// nanoseconds per operation.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "netsim/latency.h"
#include "obs/attribution.h"
#include "obs/metrics.h"
#include "obs/series.h"
#include "world/world_model.h"

namespace perfbench {

/// A fixed integer and floating-point loop with no memory traffic: its
/// time per iteration tells a slower machine apart from slower code.
[[nodiscard]] double calibration_ns();

using SitePairs =
    std::vector<std::pair<dohperf::netsim::Site, dohperf::netsim::Site>>;

/// Every exit of the world paired with the front end of each provider's
/// nearest PoP.
[[nodiscard]] SitePairs site_pairs(dohperf::world::WorldModel& world);

/// LatencyModel::one_way over `pairs`.
[[nodiscard]] double one_way_ns(const dohperf::netsim::LatencyModel& model,
                                const SitePairs& pairs);

/// geo::distance_km over `pairs`.
[[nodiscard]] double distance_km_ns(const SitePairs& pairs);

/// One EventQueue push plus one pop at a steady depth of `depth` events.
[[nodiscard]] double queue_op_ns(std::size_t depth);

/// dns::wire_size over campaign-shaped queries and responses (cache-
/// buster names under the world's origin, provider bootstrap names).
[[nodiscard]] double wire_size_ns(dohperf::world::WorldModel& world);

/// MetricSeries::record_latency under the run's own latency label set.
[[nodiscard]] double series_record_ns(const dohperf::obs::MetricSeries& run);

/// AttributionLedger::record under the run's own cell labels.
[[nodiscard]] double attribution_record_ns(
    const dohperf::obs::AttributionLedger& run);

/// Metrics::histogram(string_view) over the run's own histogram names.
[[nodiscard]] double metrics_lookup_ns(const dohperf::obs::Metrics& run);

}  // namespace perfbench
