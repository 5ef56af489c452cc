// scenario::Sweep — expand a spec document's [sweep] axes into a grid
// of concrete CampaignSpecs and execute it in worker *processes*.
//
// Each cell is one fully-resolved spec: the base with one value from
// every axis applied (row-major, first axis slowest). Execution
// fork/execs the campaign_run CLI per cell — process isolation means a
// cell's allocator/RSS state cannot leak into its neighbours' numbers
// and a crash loses one cell, not the sweep. The default is one worker
// at a time (the container this grew up in has a single CPU);
// DOHPERF_SWEEP_PROCS or SweepOptions::processes raises it.
//
// Cell summaries ("dohperf-scenario-summary-v1" JSON, written by each
// child) are merged into one "dohperf-sweep-v1" report validated by
// tools/bench_schema_check.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "scenario/spec.h"

namespace dohperf::scenario {

/// One expanded grid cell.
struct SweepCell {
  std::size_t index = 0;
  /// (axis key, canonical value token) in axis declaration order.
  std::vector<std::pair<std::string, std::string>> assignment;
  CampaignSpec spec;  ///< Base spec with the assignment applied.
};

/// Expands axes into the full grid, row-major with the first declared
/// axis varying slowest. A document with no axes yields one cell (the
/// base spec). Axis values were validated at parse time, so expansion
/// cannot fail.
[[nodiscard]] std::vector<SweepCell> expand(const SpecDocument& doc);

/// DOHPERF_SWEEP_PROCS from the environment (default 1 when unset —
/// serial, respecting single-CPU hosts). A value that is not a positive
/// decimal integer is an error: returns nullopt with one diagnostic in
/// `*error`.
[[nodiscard]] std::optional<int> processes_from_env(std::string* error);

struct SweepOptions {
  /// Worker binary fork/exec'd per cell (invoked as
  /// `<runner> --no-env <cell.spec>`). Empty = this executable
  /// (/proc/self/exe), which is how campaign_run re-enters itself.
  std::string runner;
  /// Directory for per-cell spec files and summaries (created on
  /// demand).
  std::string work_dir = "out/sweep";
  /// Concurrent worker processes; 0 = processes_from_env().
  int processes = 0;
};

/// Runs every cell of `doc` and writes the merged "dohperf-sweep-v1"
/// report to `report_path`. Returns true on success; on failure (a cell
/// exiting nonzero, an unwritable work dir, a malformed child summary)
/// stores one diagnostic in `*error` and returns false.
bool run_sweep(const SpecDocument& doc, const SweepOptions& options,
               const std::string& report_path, std::string* error);

}  // namespace dohperf::scenario
