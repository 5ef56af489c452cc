// One repetition of one benchmark workload, in a fresh process.
//
//   perfbench_driver --spec FILE --seed N --out DIR [--set key=value]...
//                    [--trace]
//
// Builds the world from the spec's [world] section once, in the fresh
// process's heap as the program does, runs the campaign through
// scenario::run and writes the declared outputs through
// scenario::write_outputs, all relative to DIR. Prints one JSON object:
// host times of each stage, the process's peak RSS, the simulated
// statistics the runner checks against its reference (digests of the
// written outputs among them), and the per-layer numbers. With --trace it
// also times single layers on the finished run (store re-merges, each
// report writer alone, micro-probes) and writes the spans as
// DIR/trace.json and the self-time table as DIR/layers.tsv. The peak RSS is read before any of that extra work.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/proc_stats.h"
#include "probes.h"
#include "report/anomalies.h"
#include "report/attribution.h"
#include "report/slo.h"
#include "report/timeseries.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "trace.h"
#include "world/world_model.h"

using namespace dohperf;
namespace fs = std::filesystem;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

struct Args {
  std::string spec;
  std::string seed = "42";
  std::string out = ".";
  std::vector<std::string> sets;
  bool trace = false;
};

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "perfbench_driver: %s\n", message.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) die("missing value after " + flag);
      return argv[++i];
    };
    if (flag == "--spec") {
      args.spec = value();
    } else if (flag == "--seed") {
      args.seed = value();
    } else if (flag == "--out") {
      args.out = value();
    } else if (flag == "--set") {
      args.sets.push_back(value());
    } else if (flag == "--trace") {
      args.trace = true;
    } else {
      die("unknown argument " + flag);
    }
  }
  if (args.spec.empty()) die("--spec is required");
  return args;
}

scenario::CampaignSpec load_spec(const Args& args) {
  const scenario::SpecParseResult parsed = scenario::load_spec_file(args.spec);
  if (!parsed.ok()) die(parsed.error);
  if (parsed.doc.is_sweep()) die(args.spec + " is a sweep, not one run");
  scenario::CampaignSpec spec = parsed.doc.base;
  std::vector<std::string> sets = args.sets;
  sets.insert(sets.begin(), "world.seed=" + args.seed);
  for (const std::string& set : sets) {
    const std::size_t eq = set.find('=');
    std::string error;
    if (eq == std::string::npos ||
        !scenario::set_key(spec, set.substr(0, eq), set.substr(eq + 1),
                           nullptr, &error)) {
      die("--set " + set + ": " + (error.empty() ? "expected key=value" : error));
    }
  }
  return spec;
}

double seconds_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// FNV-1a 64 over `text`, continuing from `h`.
std::uint64_t fnv1a(std::string_view text, std::uint64_t h = kFnvBasis) {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t bytes_under(const std::string& path) {
  std::error_code ec;
  if (fs::is_regular_file(path, ec)) return fs::file_size(path, ec);
  std::uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(path, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  if (!in) die("cannot read " + path.string());
  return text.str();
}

/// FNV-1a 64 over a written output: a file's content, or the relative
/// paths and contents of a directory's files in path order. Provenance
/// lines (which carry the spec hash, so the seed) are left out.
std::uint64_t output_digest(const fs::path& path) {
  const auto content = [](const fs::path& file, std::uint64_t h) {
    const std::string whole = read_file(file);
    std::string_view text = whole;
    if (text.starts_with("# dohperf-spec ")) {
      const std::size_t nl = text.find('\n');
      text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
    }
    return fnv1a(text, h);
  };
  if (!fs::is_directory(path)) return content(path, kFnvBasis);
  std::vector<fs::path> files;
  for (const auto& entry : fs::recursive_directory_iterator(path)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  std::uint64_t h = kFnvBasis;
  for (const fs::path& file : files) {
    h = fnv1a(fs::relative(file, path).generic_string() + '\n', h);
    h = content(file, h);
  }
  return h;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  if (!out) die("cannot write " + path);
}

/// An ordered list of JSON members rendered as one object.
class JsonObject {
 public:
  void num(const std::string& key, double v) {
    char buf[40];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof buf, "%.17g", v);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    raw(key, buf);
  }
  void count(const std::string& key, std::uint64_t v) {
    raw(key, std::to_string(v));
  }
  void str(const std::string& key, const std::string& v) {
    raw(key, "\"" + v + "\"");
  }
  void raw(const std::string& key, const std::string& json) {
    body_ += body_.empty() ? "" : ", ";
    body_ += "\"" + key + "\": " + json;
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Median host seconds of `n` calls of `fn`, where `fn` returns the
/// seconds it wants counted (so set-up and tear-down stay outside).
double median_seconds(int n, const std::function<double()>& fn) {
  std::vector<double> samples;
  for (int i = 0; i < n; ++i) samples.push_back(fn());
  std::nth_element(samples.begin(), samples.begin() + n / 2, samples.end());
  return samples[static_cast<std::size_t>(n / 2)];
}

/// Median time of merging `merged` into a fresh store made by `empty`
/// (and finalizing it, for the stores the campaign finalizes).
template <class Store>
double merge_seconds(const Store& merged, const std::function<Store()>& empty) {
  return median_seconds(3, [&] {
    Store target = empty();
    const std::int64_t t0 = perfbench::now_ns();
    target.merge(merged);
    if constexpr (requires { target.finalize(); }) target.finalize();
    return seconds_between(t0, perfbench::now_ns());
  });
}

/// The simulated statistics every repetition must reproduce, with a
/// digest of each declared output but the summary (which carries host
/// wall time and RSS).
std::string check_json(const scenario::RunResult& result) {
  const bool retained = result.spec.sink == scenario::SinkMode::kRetained;
  const std::string fig4 = retained ? scenario::fig4_csv(result.dataset).str()
                                    : scenario::fig4_csv(result.sink).str();
  const std::string fig5 = retained ? scenario::fig5_csv(result.dataset).str()
                                    : scenario::fig5_csv(result.sink).str();
  const obs::MetricCounters& c = result.metrics.counters;
  JsonObject o;
  o.count("sessions", result.stats.sessions);
  o.count("events", result.stats.events_processed);
  o.num("doh1_median_ms", result.doh1_median_ms);
  o.num("do53_median_ms", result.do53_median_ms);
  o.count("failed_measurements", result.failed_measurements);
  o.count("discarded_mismatch", result.discarded_mismatch);
  o.count("retries", result.retries);
  o.count("retry_timeouts", result.retry_timeouts);
  o.count("messages", c.messages);
  o.count("bytes_on_wire", c.bytes_on_wire);
  o.count("tcp_handshakes", c.tcp_handshakes);
  o.count("tls_handshakes", c.tls_handshakes);
  o.count("tls_resumptions", c.tls_resumptions);
  o.count("tunnels_established", c.tunnels_established);
  o.count("pool_cold", c.pool_cold);
  o.count("pool_reuses", c.pool_reuses);
  o.count("pool_resumptions", c.pool_resumptions);
  o.count("shared_cache_hits", c.shared_cache_hits);
  o.count("shared_cache_misses", c.shared_cache_misses);
  o.count("stub_cache_hits", c.stub_cache_hits);
  o.str("fig4_digest", hex64(fnv1a(fig4)));
  o.str("fig5_digest", hex64(fnv1a(fig5)));
  const scenario::OutputsSpec& outputs = result.spec.outputs;
  JsonObject written;
  for (const auto& [name, path] :
       {std::pair{"fig4_csv", outputs.fig4_csv},
        {"fig5_csv", outputs.fig5_csv},
        {"metrics_csv", outputs.metrics_csv},
        {"series_csv", outputs.series_csv},
        {"openmetrics", outputs.openmetrics},
        {"anomalies_dir", outputs.anomalies_dir},
        {"availability_csv", outputs.availability_csv},
        {"slo_alerts_csv", outputs.slo_alerts_csv},
        {"attribution_csv", outputs.attribution_csv}}) {
    if (!path.empty()) written.str(name, hex64(output_digest(path)));
  }
  o.raw("outputs", written.text());
  return o.text();
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

/// Per-layer numbers read from the counters the program exports.
void layer_counts(const scenario::RunResult& result, JsonObject& o) {
  const measure::CampaignStats& stats = result.stats;
  double busy = 0.0;
  double slowest = 0.0;
  std::uint64_t high_water = 0;
  netsim::ArenaStats arena;
  for (const measure::ShardProfile& p : stats.shard_profiles) {
    busy += p.wall_seconds;
    slowest = std::max(slowest, p.wall_seconds);
    high_water = std::max<std::uint64_t>(high_water, p.queue_high_water);
    arena += p.arena;
  }
  const double shards = static_cast<double>(stats.shard_profiles.size());
  o.num("measure.shard_busy_s", busy);
  o.num("measure.shard_imbalance",
        busy > 0.0 ? slowest / (busy / shards) : 0.0);
  o.num("measure.merge_s", stats.wall_seconds - slowest);
  o.num("measure.events_per_session",
        ratio(stats.events_processed, stats.sessions));
  o.count("netsim.events", stats.events_processed);
  o.num("netsim.ns_per_event",
        stats.events_processed == 0
            ? 0.0
            : busy * 1e9 / static_cast<double>(stats.events_processed));
  o.count("netsim.queue_high_water", high_water);
  o.num("netsim.arena_reuse_ratio", ratio(arena.reused, arena.allocations));
  o.num("netsim.arena_high_water_mib",
        static_cast<double>(arena.high_water_bytes) / kMiB);

  const obs::MetricCounters& c = result.metrics.counters;
  o.count("transport.messages", c.messages);
  o.count("transport.bytes_on_wire", c.bytes_on_wire);
  o.count("transport.tcp_handshakes", c.tcp_handshakes);
  o.count("transport.tls_handshakes", c.tls_handshakes);
  o.count("transport.tls_resumptions", c.tls_resumptions);
  o.count("proxy.tunnels", c.tunnels_established);
  o.num("client.pool_reuse_ratio",
        ratio(c.pool_reuses, c.pool_cold + c.pool_reuses + c.pool_resumptions));
  o.count("client.pool_resumptions", c.pool_resumptions);
  o.num("resolver.shared_cache_hit_ratio",
        ratio(c.shared_cache_hits, c.shared_cache_hits + c.shared_cache_misses));
  o.count("resolver.stub_cache_hits", c.stub_cache_hits);
  o.count("transport.retries", result.retries);
  o.count("transport.retry_timeouts", result.retry_timeouts);

  std::uint64_t slo_cells = 0;
  for (const auto& [key, windows] : result.slo.cells()) {
    slo_cells += windows.size();
  }
  o.count("obs.series_tracks",
          result.series.counters().size() + result.series.latencies().size());
  o.count("obs.attribution_cells", result.attribution.entries().size());
  o.count("obs.slo_cells", slo_cells);
  o.count("obs.anomalies_examined", result.anomalies.counts().flows);
  o.count("obs.anomalies_retained", result.anomalies.retained().size());
}

/// Times each report writer on its own, into DIR/alone/. A writer whose
/// output the spec does not declare is skipped, as write_outputs skips
/// it, and its time is that of the skipped step (tens of nanoseconds).
void time_writers(const scenario::RunResult& result, perfbench::Tracer& tracer,
                  JsonObject& o) {
  const scenario::OutputsSpec& outputs = result.spec.outputs;
  const fs::path dir = "alone";
  fs::create_directories(dir);
  const auto timed = [&](const char* name, bool declared,
                         const std::function<void()>& write) {
    const perfbench::Scope span(tracer, std::string(name));
    const std::int64_t t0 = perfbench::now_ns();
    if (declared) write();
    o.num(std::string(name) + "_s", seconds_between(t0, perfbench::now_ns()));
  };
  const bool retained = result.spec.sink == scenario::SinkMode::kRetained;
  timed("report.openmetrics", !outputs.openmetrics.empty(), [&] {
    std::string text = report::openmetrics_text(result.series);
    if (result.spec.campaign.slo.enabled) {
      text += report::slo_openmetrics_text(result.slo);
    }
    text += report::attribution_openmetrics_text(result.attribution);
    write_file((dir / "metrics.prom").string(), text);
  });
  timed("report.series_csv", !outputs.series_csv.empty(), [&] {
    write_file((dir / "series.csv").string(),
               report::timeseries_csv(result.series).str());
  });
  timed("report.attribution_csv", !outputs.attribution_csv.empty(), [&] {
    write_file((dir / "attribution.csv").string(),
               report::attribution_csv(result.attribution).str());
  });
  timed("report.anomalies_dir", !outputs.anomalies_dir.empty(), [&] {
    fs::create_directories(dir / "anomalies");
    (void)report::write_anomaly_dumps(result.anomalies,
                                      (dir / "anomalies").string());
  });
  timed("report.fig4_csv", !outputs.fig4_csv.empty(), [&] {
    write_file((dir / "fig4.csv").string(),
               retained ? scenario::fig4_csv(result.dataset).str()
                        : scenario::fig4_csv(result.sink).str());
  });
  fs::remove_all(dir);
}

/// Re-merges each merged store into an empty one.
void time_merges(const scenario::RunResult& result, perfbench::Tracer& tracer,
                 JsonObject& o) {
  const auto timed = [&](const char* name, const std::function<double()>& fn) {
    const perfbench::Scope span(tracer, std::string(name));
    o.num(std::string(name) + "_s", fn());
  };
  timed("obs.metrics_merge", [&] {
    return merge_seconds<obs::Metrics>(result.metrics,
                                       [] { return obs::Metrics{}; });
  });
  timed("obs.series_merge", [&] {
    return merge_seconds<obs::MetricSeries>(result.series, [&] {
      return obs::MetricSeries(result.series.window());
    });
  });
  timed("obs.recorder_merge", [&] {
    return merge_seconds<obs::FlightRecorder>(
        result.anomalies,
        [&] { return obs::FlightRecorder(result.anomalies.policy()); });
  });
  timed("obs.slo_merge", [&] {
    return merge_seconds<obs::SloTracker>(
        result.slo, [&] { return obs::SloTracker(result.slo.config()); });
  });
  timed("obs.attribution_merge", [&] {
    return merge_seconds<obs::AttributionLedger>(
        result.attribution, [] { return obs::AttributionLedger{}; });
  });
}

void run_probes(world::WorldModel& world, const scenario::RunResult& result,
                perfbench::Tracer& tracer, JsonObject& o) {
  std::size_t depth = 1;
  for (const measure::ShardProfile& p : result.stats.shard_profiles) {
    depth = std::max(depth, p.queue_high_water);
  }
  const auto timed = [&](const char* span, const char* metric,
                         const std::function<double()>& probe) {
    const perfbench::Scope scope(tracer, span);
    o.num(metric, probe());
  };
  perfbench::SitePairs pairs;
  {
    const perfbench::Scope scope(tracer, "bench.site_pairs");
    pairs = perfbench::site_pairs(world);
  }
  timed("netsim.one_way", "netsim.one_way_ns",
        [&] { return perfbench::one_way_ns(world.latency(), pairs); });
  timed("geo.distance_km", "geo.distance_km_ns",
        [&] { return perfbench::distance_km_ns(pairs); });
  timed("netsim.queue_op", "netsim.queue_op_ns",
        [&] { return perfbench::queue_op_ns(depth); });
  timed("dns.wire_size", "dns.wire_size_ns",
        [&] { return perfbench::wire_size_ns(world); });
  timed("obs.series_record", "obs.series_record_ns",
        [&] { return perfbench::series_record_ns(result.series); });
  timed("obs.attribution_record", "obs.attribution_record_ns",
        [&] { return perfbench::attribution_record_ns(result.attribution); });
  timed("obs.metrics_lookup", "obs.metrics_lookup_ns",
        [&] { return perfbench::metrics_lookup_ns(result.metrics); });
}

int run(const Args& args) {
  const scenario::CampaignSpec spec = load_spec(args);
  fs::create_directories(args.out);
  fs::current_path(args.out);

  perfbench::Tracer tracer(args.trace);
  const int root = tracer.begin("bench.rep");

  const std::int64_t t_build = perfbench::now_ns();
  const auto world = std::make_unique<world::WorldModel>(spec.world);
  const std::int64_t t_run = perfbench::now_ns();
  const double world_rss_mib =
      static_cast<double>(obs::current_rss_bytes()) / kMiB;

  scenario::RunResult result = scenario::run(spec, *world);
  const std::int64_t t_write = perfbench::now_ns();
  scenario::write_outputs(result);
  const std::int64_t t_done = perfbench::now_ns();
  const double peak_rss_mib =
      static_cast<double>(obs::peak_rss_bytes()) / kMiB;
  tracer.add("world.build", t_build, t_run, root);
  const int run_span = tracer.add("scenario.run", t_run, t_write, root);
  tracer.add("report.write", t_write, t_done, root);

  // The campaign's own stages, as the program reports them.
  const measure::CampaignStats& stats = result.stats;
  double slowest = 0.0;
  for (const auto& p : stats.shard_profiles) {
    slowest = std::max(slowest, p.wall_seconds);
  }
  const auto ns = [](double s) { return static_cast<std::int64_t>(s * 1e9); };
  const std::int64_t campaign_end =
      std::min(t_run + ns(stats.wall_seconds), t_write);
  const int campaign = tracer.add("measure.campaign", t_run, campaign_end,
                                  run_span);
  const int shards = tracer.add("measure.shards", t_run,
                                std::min(t_run + ns(slowest), campaign_end),
                                campaign);
  for (const auto& p : stats.shard_profiles) {
    tracer.arg(shards, "shard" + std::to_string(p.shard) + "_wall_s",
               std::to_string(p.wall_seconds));
  }
  tracer.add("measure.merge", std::min(t_run + ns(slowest), campaign_end),
             campaign_end, campaign);

  std::uint64_t report_bytes = 0;
  for (const std::string& path : result.written) {
    report_bytes += bytes_under(path);
  }

  JsonObject layers;
  layers.num("world.rss_mib", world_rss_mib);
  layers.count("world.exits", world->exit_count());
  layer_counts(result, layers);
  layers.num("scenario.post_s",
             seconds_between(t_run, t_write) - stats.wall_seconds);
  layers.num("report.write_s", seconds_between(t_write, t_done));
  layers.count("report.bytes", report_bytes);

  std::string check;
  {
    const perfbench::Scope span(tracer, "bench.check");
    check = check_json(result);
  }
  if (args.trace) {
    time_merges(result, tracer, layers);
    time_writers(result, tracer, layers);
    run_probes(*world, result, tracer, layers);
  }
  double calib = 0.0;
  {
    const perfbench::Scope span(tracer, "host.calib");
    calib = perfbench::calibration_ns();
  }
  tracer.end(root);

  JsonObject out;
  out.num("setup_s", seconds_between(t_build, t_run));
  out.num("run_s", seconds_between(t_run, t_done));
  out.num("campaign_s", stats.wall_seconds);
  out.count("sessions", stats.sessions);
  out.count("shards", static_cast<std::uint64_t>(stats.shards));
  out.num("peak_rss_mib", peak_rss_mib);
  out.num("calib_ns", calib);
  out.raw("check", check);
  out.raw("layers", layers.text());
  if (args.trace) {
    const std::string nesting = perfbench::check_nesting(tracer.spans());
    out.str("trace_nesting", nesting.empty() ? "ok" : nesting);
    JsonObject meta;
    meta.str("spec", spec.name);
    meta.str("spec_hash", result.hash);
    meta.count("seed", spec.world.seed);
    meta.str("compiler", PERFBENCH_COMPILER);
    meta.str("build_type", PERFBENCH_BUILD_TYPE);
    meta.count("shards", static_cast<std::uint64_t>(stats.shards));
    write_file("trace.json",
               perfbench::chrome_trace_json(tracer.spans(), meta.text()));
    write_file("layers.tsv", perfbench::layer_table_tsv(tracer.spans()));
  }
  out.str("compiler", PERFBENCH_COMPILER);
  out.str("build_type", PERFBENCH_BUILD_TYPE);
  std::printf("%s\n", out.text().c_str());
  // Tearing down the run's stores takes up to a second and is no part of
  // any metric; leave it to the process exit.
  std::fflush(stdout);
  std::_Exit(0);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    die(e.what());
  }
}
