// campaign_run — execute a scenario spec file (single run or sweep).
//
//   campaign_run [options] <spec-file>
//
//   --print-canonical   parse, print the canonical text, and exit (CI
//                       verifies the example specs round-trip this way)
//   --hash              parse, print the document content hash, and exit
//   --no-env            do not apply DOHPERF_* environment overrides
//                       (the sweep driver passes this to its workers so
//                       an inherited DOHPERF_SCALE cannot apply twice)
//   --out PATH          single run: outputs.summary_json override;
//                       sweep: merged report path
//                       (default out/<name>-sweep.json)
//   --procs N           sweep: concurrent worker processes
//                       (default DOHPERF_SWEEP_PROCS, else 1)
//   --dataset DIR       single retained run: also save the dataset
//                       release ({clients,doh,do53,meta}.csv, loadable by
//                       `dohperf_cli summary --in DIR`)
//
// Any spec defect (unknown key, type mismatch, malformed value) is one
// line-numbered diagnostic on stderr and exit code 2 — never a silent
// default. So is a command-line defect: an unknown option, a missing or
// malformed value, or --dataset on a sweep or a streaming spec.
#include <charconv>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>
#include <string_view>

#include "measure/dataset_io.h"
#include "scenario/runner.h"
#include "scenario/sweep.h"

using namespace dohperf;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: campaign_run [--print-canonical] [--hash] [--no-env] "
               "[--out PATH] [--procs N] [--dataset DIR] <spec-file>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool print_canonical = false;
  bool print_hash = false;
  bool no_env = false;
  std::string out;
  std::string dataset_dir;
  int procs = 0;
  std::string spec_path;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--print-canonical") {
      print_canonical = true;
    } else if (arg == "--hash") {
      print_hash = true;
    } else if (arg == "--no-env") {
      no_env = true;
    } else if (arg == "--out") {
      if (++i >= argc) return usage();
      out = argv[i];
    } else if (arg == "--procs") {
      if (++i >= argc) return usage();
      const std::string_view value = argv[i];
      const auto [end, ec] =
          std::from_chars(value.data(), value.data() + value.size(), procs);
      if (ec != std::errc() || end != value.data() + value.size() ||
          procs < 1) {
        std::fprintf(stderr, "campaign_run: --procs expects a positive "
                             "integer, got \"%s\"\n", argv[i]);
        return usage();
      }
    } else if (arg == "--dataset") {
      if (++i >= argc) return usage();
      dataset_dir = argv[i];
    } else if (!arg.empty() && arg.front() == '-') {
      std::fprintf(stderr, "campaign_run: unknown option %s\n", argv[i]);
      return usage();
    } else if (spec_path.empty()) {
      spec_path = arg;
    } else {
      return usage();
    }
  }
  if (spec_path.empty()) return usage();

  scenario::SpecParseResult parsed = scenario::load_spec_file(spec_path);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.error.c_str());
    return 2;
  }
  scenario::SpecDocument& doc = parsed.doc;

  if (print_canonical) {
    std::fputs(scenario::canonical_text(doc).c_str(), stdout);
    return 0;
  }
  if (print_hash) {
    std::printf("%s\n", scenario::document_hash(doc).c_str());
    return 0;
  }
  if (!no_env) scenario::apply_env_overrides(doc.base);
  if (!dataset_dir.empty() &&
      (doc.is_sweep() || doc.base.sink != scenario::SinkMode::kRetained)) {
    std::fprintf(stderr,
                 "campaign_run: --dataset needs a single run with sink = "
                 "\"retained\"\n");
    return 2;
  }

  if (doc.is_sweep()) {
    // Resolve the worker count before anything runs: a malformed
    // DOHPERF_SWEEP_PROCS is a usage error, like a malformed --procs.
    if (procs == 0) {
      std::string error;
      const std::optional<int> from_env = scenario::processes_from_env(&error);
      if (!from_env) {
        std::fprintf(stderr, "campaign_run: %s\n", error.c_str());
        return 2;
      }
      procs = *from_env;
    }
    const std::string report_path =
        out.empty() ? "out/" + doc.base.name + "-sweep.json" : out;
    scenario::SweepOptions options;
    options.processes = procs;
    options.work_dir = report_path + ".cells";
    std::string error;
    if (!scenario::run_sweep(doc, options, report_path, &error)) {
      std::fprintf(stderr, "campaign_run: %s\n", error.c_str());
      return 1;
    }
    std::size_t cells = 1;
    for (const scenario::SweepAxis& axis : doc.axes) {
      cells *= axis.values.size();
    }
    std::printf("sweep %s: %zu cell(s) -> %s\n", doc.base.name.c_str(),
                cells, report_path.c_str());
    return 0;
  }

  if (!out.empty()) doc.base.outputs.summary_json = out;
  // A failed write (an unwritable output or --dataset path) is one
  // diagnostic and exit 1, not an abort.
  try {
    scenario::RunResult result = scenario::run(doc.base);
    scenario::write_outputs(result);
    std::printf(
        "run %s (hash %s, sink %s): %llu sessions | %d shard(s) | "
        "doh1 median %.3f ms | do53 median %.3f ms | %llu failed\n",
        result.spec.name.c_str(), result.hash.c_str(),
        std::string(scenario::to_string(result.spec.sink)).c_str(),
        static_cast<unsigned long long>(result.stats.sessions),
        result.stats.shards, result.doh1_median_ms, result.do53_median_ms,
        static_cast<unsigned long long>(result.failed_measurements));
    for (const std::string& path : result.written) {
      std::printf("wrote %s\n", path.c_str());
    }
    if (!dataset_dir.empty()) {
      measure::save_dataset(result.dataset, dataset_dir);
      std::printf("wrote %s/{clients,doh,do53,meta}.csv\n",
                  dataset_dir.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_run: %s\n", e.what());
    return 1;
  }
  return 0;
}
