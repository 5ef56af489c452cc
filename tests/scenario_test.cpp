// scenario::CampaignSpec — strict parsing, canonicalization, hashing,
// env overrides, sweep-grid expansion, and the declared-output store gate.
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "measure/campaign.h"
#include "netsim/time.h"
#include "obs/flight_recorder.h"
#include "obs/slo.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "scenario/sweep.h"
#include "world/world_model.h"

namespace {

using namespace dohperf;

scenario::SpecDocument parse_ok(const std::string& text) {
  const scenario::SpecParseResult result =
      scenario::parse_spec(text, "<memory>");
  EXPECT_TRUE(result.ok()) << result.error;
  return result.doc;
}

std::string parse_error(const std::string& text) {
  const scenario::SpecParseResult result =
      scenario::parse_spec(text, "<memory>");
  EXPECT_FALSE(result.ok());
  return result.error;
}

// RAII environment override so tests cannot leak into each other.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_.c_str(), saved_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string saved_;
  bool had_ = false;
};

TEST(ScenarioSpecTest, EmptyTextIsTheDefaultSpec) {
  const scenario::SpecDocument doc = parse_ok("");
  EXPECT_EQ(doc.base.name, "unnamed");
  EXPECT_EQ(doc.base.sink, scenario::SinkMode::kRetained);
  EXPECT_FALSE(doc.is_sweep());
  const scenario::CampaignSpec defaults;
  EXPECT_EQ(scenario::canonical_text(doc.base),
            scenario::canonical_text(defaults));
}

TEST(ScenarioSpecTest, CanonicalTextRoundTripsBitIdentically) {
  const std::string text = R"(# a kitchen-sink spec
name = "round-trip"
sink = "streaming"

[world]
seed = 18446744073709551615
client_scale = 0.1
only_countries = ["US", "DE", "JP"]
couple_infra = false
tls_version = "tls12"
mislabel_rate = 0.125

[campaign]
runs_per_client = 3
series_window_ms = 0.049
threads = 7

[faults]
loss_spike_probability = 0.3
spike_extra_loss = 0.45
spike_duration_ms = 1234.5

[anomalies]
slow_flow_ms = 1500.5

[stream]
client_stats = true

[outputs]
summary_json = "out/rt.json"
)";
  const scenario::SpecDocument doc = parse_ok(text);
  const std::string canon = scenario::canonical_text(doc);
  const scenario::SpecDocument again = parse_ok(canon);
  // Text fixpoint: canonicalizing the canonical text changes nothing.
  EXPECT_EQ(scenario::canonical_text(again), canon);
  // Value fixpoint, doubles included.
  EXPECT_EQ(again.base.world.seed, doc.base.world.seed);
  EXPECT_EQ(again.base.world.client_scale, doc.base.world.client_scale);
  EXPECT_EQ(again.base.campaign.series_window, doc.base.campaign.series_window);
  EXPECT_EQ(again.base.campaign.faults.spike_duration,
            doc.base.campaign.faults.spike_duration);
  // Hash is a function of the canonical text, so it must agree too.
  EXPECT_EQ(scenario::document_hash(again), scenario::document_hash(doc));
}

// Each named world variant (the README's preset table) is one [world]
// line. The defaults are the calibrated paper world.
world::WorldConfig world_of(const std::string& line) {
  return parse_ok("[world]\n" + line + "\n").base.world;
}

const char* const kWorldPresetLines[] = {
    "",
    "couple_infra = false",
    "perfect_anycast = true",
    "tls_version = \"tls12\"",
    "authority_city = \"Frankfurt\"",
    "authority_city = \"Singapore\"",
};

TEST(ScenariosTest, AllPresetsResolveAndBuild) {
  for (const char* line : kWorldPresetLines) {
    world::WorldConfig small = world_of(line);
    small.client_scale = 0.02;
    small.only_countries = {"SE"};
    EXPECT_NO_THROW(world::WorldModel world(small)) << line;
  }
  EXPECT_NE(parse_error("[world]\nno_such_scenario = true\n").find(
                "no_such_scenario"),
            std::string::npos);
}

TEST(ScenariosTest, PresetsCarryTheirSwitch) {
  const world::WorldConfig defaults;
  EXPECT_FALSE(world_of("couple_infra = false").couple_infra);
  EXPECT_TRUE(world_of("perfect_anycast = true").perfect_anycast);
  EXPECT_EQ(world_of("tls_version = \"tls12\"").tls_version,
            transport::TlsVersion::kTls12);
  EXPECT_EQ(world_of("authority_city = \"Frankfurt\"").authority_city,
            "Frankfurt");
  EXPECT_EQ(world_of("authority_city = \"Singapore\"").authority_city,
            "Singapore");
  EXPECT_TRUE(defaults.couple_infra);
  EXPECT_FALSE(defaults.perfect_anycast);
  EXPECT_EQ(defaults.tls_version, transport::TlsVersion::kTls13);
}

TEST(ScenarioSpecTest, SubMillisecondDurationSurvivesTheRoundTrip) {
  // 0.049 ms = 49 us; a truncating duration_cast of 0.048999... would
  // lose a microsecond and the canonical text would drift per cycle.
  const scenario::SpecDocument doc =
      parse_ok("[campaign]\nseries_window_ms = 0.049\n");
  EXPECT_EQ(doc.base.campaign.series_window.count(), 49);
  const scenario::SpecDocument again =
      parse_ok(scenario::canonical_text(doc));
  EXPECT_EQ(again.base.campaign.series_window.count(), 49);
}

TEST(ScenarioSpecTest, UnknownKeyIsOneLineNumberedDiagnostic) {
  const std::string error = parse_error(
      "name = \"x\"\n"
      "[faults]\n"
      "los_spike_probability = 0.5\n");
  EXPECT_NE(error.find("<memory>:3:"), std::string::npos) << error;
  EXPECT_NE(error.find("los_spike_probability"), std::string::npos) << error;
}

TEST(ScenarioSpecTest, UnknownSectionIsRejected) {
  const std::string error = parse_error("[fautls]\n");
  EXPECT_NE(error.find("<memory>:1:"), std::string::npos) << error;
}

TEST(ScenarioSpecTest, DuplicateKeyAndSectionAreRejected) {
  const std::string dup_key = parse_error(
      "[world]\nseed = 1\nseed = 2\n");
  EXPECT_NE(dup_key.find("<memory>:3:"), std::string::npos) << dup_key;
  const std::string dup_section = parse_error(
      "[world]\nseed = 1\n[campaign]\nthreads = 1\n[world]\n");
  EXPECT_NE(dup_section.find("<memory>:5:"), std::string::npos)
      << dup_section;
}

TEST(ScenarioSpecTest, TypeAndRangeDefectsAreDiagnosed) {
  EXPECT_NE(parse_error("[world]\nseed = -1\n").find("<memory>:2:"),
            std::string::npos);
  EXPECT_NE(parse_error("[world]\nclient_scale = 0\n").find("<memory>:2:"),
            std::string::npos);
  EXPECT_NE(parse_error("[faults]\nloss_spike_probability = 1.5\n")
                .find("<memory>:2:"),
            std::string::npos);
  EXPECT_NE(parse_error("sink = \"buffered\"\n").find("<memory>:1:"),
            std::string::npos);
}

TEST(ScenarioSpecTest, HashExcludesThreadsAndOutputs) {
  scenario::CampaignSpec a = scenario::paper_baseline_spec();
  scenario::CampaignSpec b = a;
  b.campaign.threads = 16;
  b.outputs.summary_json = "elsewhere/summary.json";
  b.outputs.anomalies_dir = "elsewhere/anomalies";
  EXPECT_EQ(scenario::spec_hash(a), scenario::spec_hash(b));
  // ...but result-bearing keys do move the hash.
  b.campaign.faults.loss_spike_probability = 0.5;
  EXPECT_NE(scenario::spec_hash(a), scenario::spec_hash(b));
}

TEST(ScenarioSpecTest, HashIsStableAcrossOriginalAndCanonicalText) {
  const std::string text =
      "name = \"h\"\n[world]\nclient_scale = 0.25\n"
      "[sweep]\nfaults.loss_spike_probability = [0, 0.5]\n";
  const scenario::SpecDocument doc = parse_ok(text);
  const scenario::SpecDocument canon =
      parse_ok(scenario::canonical_text(doc));
  EXPECT_EQ(scenario::document_hash(doc), scenario::document_hash(canon));
}

TEST(ScenarioSpecTest, SloSectionRoundTripsAndMovesTheHash) {
  const std::string text = R"(name = "slo"
[campaign]
session_spacing_ms = 60000

[faults]
provider_outage_period_ms = 21600000
provider_outage_duration_ms = 1800000
provider_outage_stagger_ms = 3600000
regional_blackout_period_ms = 43200000
regional_blackout_duration_ms = 900000
regional_blackout_radius_miles = 650.5

[slo]
enabled = true
window_ms = 300000
availability_objective = 0.9995
p99_objective_ms = 1250.5
fast_short_ms = 120000
fast_long_ms = 1800000
fast_burn = 10
slow_short_ms = 10800000
slow_long_ms = 86400000
slow_burn = 3.5

[outputs]
availability_csv = "out/availability.csv"
slo_alerts_csv = "out/alerts.csv"
)";
  const scenario::SpecDocument doc = parse_ok(text);
  const obs::SloConfig& slo = doc.base.campaign.slo;
  EXPECT_TRUE(slo.enabled);
  EXPECT_EQ(slo.window, netsim::from_ms(300'000.0));
  EXPECT_EQ(slo.availability_objective, 0.9995);
  EXPECT_EQ(slo.p99_objective_ms, 1250.5);
  EXPECT_EQ(slo.fast_short, netsim::from_ms(120'000.0));
  EXPECT_EQ(slo.slow_burn, 3.5);
  EXPECT_EQ(doc.base.campaign.session_spacing, netsim::from_ms(60'000.0));
  EXPECT_EQ(doc.base.campaign.faults.provider_outage_stagger,
            netsim::from_ms(3'600'000.0));
  EXPECT_EQ(doc.base.campaign.faults.regional_blackout_radius_miles, 650.5);
  EXPECT_EQ(doc.base.outputs.availability_csv, "out/availability.csv");
  EXPECT_EQ(doc.base.outputs.slo_alerts_csv, "out/alerts.csv");

  // Canonical fixpoint, [slo] included.
  const std::string canon = scenario::canonical_text(doc);
  const scenario::SpecDocument again = parse_ok(canon);
  EXPECT_EQ(scenario::canonical_text(again), canon);
  EXPECT_EQ(again.base.campaign.slo.window, slo.window);
  EXPECT_EQ(again.base.campaign.slo.availability_objective,
            slo.availability_objective);
  EXPECT_EQ(scenario::document_hash(again), scenario::document_hash(doc));

  // SLO keys are result-bearing (alerts, CSVs), so they move the hash;
  // the output paths do not.
  scenario::CampaignSpec plain = doc.base;
  plain.campaign.slo = obs::SloConfig{};
  EXPECT_NE(scenario::spec_hash(doc.base), scenario::spec_hash(plain));
  scenario::CampaignSpec moved_outputs = doc.base;
  moved_outputs.outputs.availability_csv = "elsewhere.csv";
  EXPECT_EQ(scenario::spec_hash(doc.base),
            scenario::spec_hash(moved_outputs));

  // Range defects in the new sections diagnose like every other key.
  EXPECT_NE(parse_error("[slo]\nwindow_ms = 0\n").find("<memory>:2:"),
            std::string::npos);
  EXPECT_NE(parse_error("[slo]\navailability_objective = 1.5\n")
                .find("<memory>:2:"),
            std::string::npos);
  EXPECT_NE(parse_error("[faults]\nprovider_outage_period_ms = -1\n")
                .find("<memory>:2:"),
            std::string::npos);
}

TEST(ScenarioSpecTest, SetKeyMatchesParser) {
  scenario::CampaignSpec spec;
  std::string canonical, error;
  ASSERT_TRUE(scenario::set_key(spec, "faults.spike_extra_loss", "0.75",
                                &canonical, &error))
      << error;
  EXPECT_EQ(spec.campaign.faults.spike_extra_loss, 0.75);
  EXPECT_EQ(canonical, "0.75");
  EXPECT_FALSE(scenario::set_key(spec, "faults.spike_extra_loss", "2",
                                 &canonical, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(
      scenario::set_key(spec, "no.such_key", "1", &canonical, &error));
}

TEST(ScenarioSpecTest, EnvOverridesBecomeSpecFields) {
  ScopedEnv seed("DOHPERF_SEED", "1234");
  ScopedEnv scale("DOHPERF_SCALE", "0.5");
  ScopedEnv summary("DOHPERF_SUMMARY", "out/env-summary.json");
  scenario::CampaignSpec spec = scenario::paper_baseline_spec();
  spec.world.client_scale = 0.25;
  scenario::apply_env_overrides(spec);
  EXPECT_EQ(spec.world.seed, 1234u);
  EXPECT_EQ(spec.world.client_scale, 0.125);  // multiplier, not override
  EXPECT_EQ(spec.outputs.summary_json, "out/env-summary.json");
}

TEST(ScenarioSweepTest, ExpansionIsRowMajorWithFirstAxisSlowest) {
  const scenario::SpecDocument doc = parse_ok(
      "[sweep]\n"
      "faults.loss_spike_probability = [0, 0.5]\n"
      "campaign.runs_per_client = [1, 2, 3]\n");
  const std::vector<scenario::SweepCell> cells = scenario::expand(doc);
  ASSERT_EQ(cells.size(), 6u);
  // First declared axis varies slowest.
  EXPECT_EQ(cells[0].assignment[0].second, "0");
  EXPECT_EQ(cells[2].assignment[0].second, "0");
  EXPECT_EQ(cells[3].assignment[0].second, "0.5");
  // Second axis cycles fastest.
  EXPECT_EQ(cells[0].assignment[1].second, "1");
  EXPECT_EQ(cells[1].assignment[1].second, "2");
  EXPECT_EQ(cells[2].assignment[1].second, "3");
  EXPECT_EQ(cells[3].assignment[1].second, "1");
  // The assignment is applied to each cell's spec.
  EXPECT_EQ(cells[5].spec.campaign.faults.loss_spike_probability, 0.5);
  EXPECT_EQ(cells[5].spec.campaign.runs_per_client, 3);
  // Cells are indexed in order.
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
  }
}

TEST(ScenarioSweepTest, NoAxesYieldsTheBaseSpecAsOneCell) {
  const scenario::SpecDocument doc = parse_ok("name = \"solo\"\n");
  const std::vector<scenario::SweepCell> cells = scenario::expand(doc);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_TRUE(cells[0].assignment.empty());
  EXPECT_EQ(cells[0].spec.name, "solo");
}

TEST(ScenarioSweepTest, ResultNeutralAndRepeatedAxesAreRejected) {
  EXPECT_NE(parse_error("[sweep]\ncampaign.threads = [1, 2]\n")
                .find("<memory>:2:"),
            std::string::npos);
  EXPECT_NE(
      parse_error("[sweep]\noutputs.summary_json = [\"a\", \"b\"]\n")
          .find("<memory>:2:"),
      std::string::npos);
  EXPECT_NE(parse_error("[sweep]\n"
                        "world.seed = [1, 2]\n"
                        "world.seed = [3]\n")
                .find("<memory>:3:"),
            std::string::npos);
}

TEST(ScenarioSpecTest, FormatDoubleIsShortestRoundTrip) {
  EXPECT_EQ(scenario::format_double(750.0), "750");
  EXPECT_EQ(scenario::format_double(0.1), "0.1");
  EXPECT_EQ(scenario::format_double(0.25), "0.25");
  for (const double v : {0.049, 1.0 / 3.0, 1e-9, 123456.789}) {
    const std::string text = scenario::format_double(v);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
  }
}

// ---- Store gate: each store is recorded only when an output reads it --

namespace store = measure::store;

/// Every [outputs] key and its field.
const std::vector<std::pair<std::string, std::string scenario::OutputsSpec::*>>&
output_fields() {
  static const std::vector<
      std::pair<std::string, std::string scenario::OutputsSpec::*>>
      fields = {
          {"summary_json", &scenario::OutputsSpec::summary_json},
          {"fig4_csv", &scenario::OutputsSpec::fig4_csv},
          {"fig5_csv", &scenario::OutputsSpec::fig5_csv},
          {"metrics_csv", &scenario::OutputsSpec::metrics_csv},
          {"series_csv", &scenario::OutputsSpec::series_csv},
          {"openmetrics", &scenario::OutputsSpec::openmetrics},
          {"anomalies_dir", &scenario::OutputsSpec::anomalies_dir},
          {"availability_csv", &scenario::OutputsSpec::availability_csv},
          {"slo_alerts_csv", &scenario::OutputsSpec::slo_alerts_csv},
          {"attribution_csv", &scenario::OutputsSpec::attribution_csv},
      };
  return fields;
}

TEST(ScenarioStoresTest, EachDeclaredOutputSelectsTheStoresItReads) {
  const std::map<std::string, unsigned> expected = {
      {"summary_json", 0},
      {"fig4_csv", 0},
      {"fig5_csv", 0},
      {"metrics_csv", 0},
      {"series_csv", store::kSeries},
      {"openmetrics", store::kSeries | store::kAttribution},
      {"anomalies_dir", store::kRecorder},
      {"availability_csv", store::kSlo},
      {"slo_alerts_csv", store::kSlo},
      {"attribution_csv", store::kAttribution},
  };
  scenario::CampaignSpec none;
  EXPECT_EQ(scenario::declared_stores(none), 0u);
  scenario::CampaignSpec all;
  for (const auto& [name, field] : output_fields()) {
    scenario::CampaignSpec one;
    one.outputs.*field = "out/" + name;
    all.outputs.*field = "out/" + name;
    EXPECT_EQ(scenario::declared_stores(one), expected.at(name)) << name;
    // [slo] enabled adds the SLO tracker to whatever the outputs need.
    one.campaign.slo.enabled = true;
    EXPECT_EQ(scenario::declared_stores(one), expected.at(name) | store::kSlo)
        << name;
  }
  EXPECT_EQ(scenario::declared_stores(all), store::kAll);
  none.campaign.slo.enabled = true;
  EXPECT_EQ(scenario::declared_stores(none), store::kSlo);
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// The summary minus the lines that differ by design between runs that
/// declare different outputs: host wall time and RSS, and the "stores"
/// and "outputs" arrays (which list what each run declared).
std::string summary_without_declared_lines(const std::string& summary) {
  std::istringstream in(summary);
  std::string line;
  std::string out;
  for (const char* key : {"\"wall_seconds\"", "\"peak_rss_bytes\"",
                          "\"stores\"", "\"outputs\""}) {
    EXPECT_NE(summary.find(key), std::string::npos) << key;
  }
  while (std::getline(in, line)) {
    if (line.find("\"wall_seconds\"") != std::string::npos ||
        line.find("\"peak_rss_bytes\"") != std::string::npos ||
        line.find("\"stores\"") != std::string::npos ||
        line.find("\"outputs\"") != std::string::npos) {
      continue;
    }
    out += line + "\n";
  }
  return out;
}

/// The files one output produced, by name relative to the output (one
/// entry for a file output, every file for anomalies_dir except
/// spec.txt, which echoes the declared outputs).
std::map<std::string, std::string> output_files(const std::string& key,
                                                const std::string& path) {
  std::map<std::string, std::string> files;
  if (key == "anomalies_dir") {
    for (const auto& entry : std::filesystem::directory_iterator(path)) {
      const std::string name = entry.path().filename().string();
      if (name != "spec.txt") files[name] = read_file(entry.path());
    }
  } else if (key == "summary_json") {
    files[key] = summary_without_declared_lines(read_file(path));
  } else {
    files[key] = read_file(path);
  }
  return files;
}

bool recorded(const scenario::RunResult& r, unsigned bit) {
  switch (bit) {
    case store::kSeries:
      return !r.series.empty();
    case store::kAttribution:
      return !r.attribution.empty();
    case store::kSlo:
      return !r.slo.empty();
    default:
      return r.anomalies.counts().flows > 0 || !r.anomalies.retained().empty();
  }
}

// The oracle for the gate: declaring one output at a time writes that
// output byte for byte as a run that declares every output, and a run
// that declares nothing keeps none of the optional stores while its
// checked statistics stay those of the all-declared run.
TEST(ScenarioStoresTest, GatedRunsWriteTheSameOutputsAndStatistics) {
  const scenario::SpecDocument doc = parse_ok(
      "name = \"store-gate\"\n"
      "[world]\n"
      "seed = 11\n"
      "client_scale = 0.05\n"
      "[campaign]\n"
      "runs_per_client = 1\n"
      "atlas_measurements_per_country = 10\n"
      "[faults]\n"
      "loss_spike_probability = 0.25\n"
      "brownout_probability = 0.1\n"
      "[cache]\n"
      "enabled = true\n"
      "[reuse]\n"
      "enabled = true\n"
      "think_time_ms = 3000\n"
      "idle_timeout_ms = 5000\n"
      "[slo]\n"
      "enabled = true\n");
  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) /
      ("dohperf-store-gate-" + std::to_string(::getpid()));
  std::filesystem::remove_all(root);
  world::WorldModel world(doc.base.world);

  for (const int threads : {1, 2}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const auto run_declaring = [&](const std::string& tag,
                                   const std::vector<std::string>& keys) {
      scenario::CampaignSpec spec = doc.base;
      spec.campaign.threads = threads;
      for (const auto& [name, field] : output_fields()) {
        for (const std::string& key : keys) {
          if (key == name) {
            spec.outputs.*field =
                (root / (std::to_string(threads) + "-" + tag) / name)
                    .string();
          }
        }
      }
      scenario::RunResult result = scenario::run(spec, world);
      scenario::write_outputs(result);
      return result;
    };

    std::vector<std::string> every;
    for (const auto& [name, field] : output_fields()) every.push_back(name);
    const scenario::RunResult all = run_declaring("all", every);
    EXPECT_EQ(all.stores, store::kAll);
    for (const unsigned bit : {store::kSeries, store::kAttribution,
                               store::kSlo, store::kRecorder}) {
      EXPECT_TRUE(recorded(all, bit)) << bit;
    }
    EXPECT_NE(read_file(all.spec.outputs.summary_json)
                  .find("\"stores\": [\"metrics\", \"series\", "
                        "\"attribution\", \"slo\", \"flight_recorder\"],"),
              std::string::npos);

    for (const auto& [name, field] : output_fields()) {
      SCOPED_TRACE(name);
      const scenario::RunResult one = run_declaring(name, {name});
      ASSERT_EQ(one.written.size(), 1u);
      EXPECT_EQ(one.stores, scenario::declared_stores(one.spec));
      for (const unsigned bit : {store::kSeries, store::kAttribution,
                                 store::kSlo, store::kRecorder}) {
        EXPECT_EQ(recorded(one, bit), (one.stores & bit) != 0) << bit;
      }
      const auto expected = output_files(name, all.spec.outputs.*field);
      const auto actual = output_files(name, one.spec.outputs.*field);
      EXPECT_FALSE(expected.empty());
      ASSERT_EQ(actual.size(), expected.size());
      for (const auto& [file, content] : expected) {
        ASSERT_EQ(actual.count(file), 1u) << file;
        EXPECT_TRUE(actual.at(file) == content) << file << " differs";
      }
      if (name == "summary_json") {
        EXPECT_NE(read_file(one.spec.outputs.*field)
                      .find("\"stores\": [\"metrics\", \"slo\"],"),
                  std::string::npos);
      }
    }

    // Nothing declared and [slo] off: no optional store is recorded.
    scenario::CampaignSpec bare = doc.base;
    bare.campaign.threads = threads;
    bare.campaign.slo.enabled = false;
    const scenario::RunResult none = scenario::run(bare, world);
    EXPECT_EQ(none.stores, 0u);
    EXPECT_TRUE(none.series.empty());
    EXPECT_TRUE(none.attribution.empty());
    EXPECT_TRUE(none.slo.empty());
    EXPECT_TRUE(none.slo_alerts.empty());
    EXPECT_EQ(none.anomalies.counts(), obs::AnomalyCounts{});
    EXPECT_TRUE(none.anomalies.retained().empty());
    EXPECT_TRUE(none.metrics.counters == all.metrics.counters);
    EXPECT_TRUE(none.metrics == all.metrics);
    EXPECT_EQ(scenario::fig4_csv(none.dataset).str(),
              scenario::fig4_csv(all.dataset).str());
    EXPECT_EQ(scenario::fig5_csv(none.dataset).str(),
              scenario::fig5_csv(all.dataset).str());
    EXPECT_EQ(none.doh1_median_ms, all.doh1_median_ms);
    EXPECT_EQ(none.do53_median_ms, all.do53_median_ms);
    EXPECT_EQ(none.retries, all.retries);
    EXPECT_EQ(none.retry_timeouts, all.retry_timeouts);
    EXPECT_EQ(none.failed_measurements, all.failed_measurements);
  }
  std::filesystem::remove_all(root);
}

}  // namespace
