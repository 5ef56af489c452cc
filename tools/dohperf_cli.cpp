// dohperf_cli — inspect a released dataset and validate the estimator.
//
//   dohperf_cli summary   --in DIR
//       Load a dataset written by `campaign_run --dataset DIR` and print
//       the headline summary.
//
//   dohperf_cli validate  [--country ISO2] [--seed N]
//       Ground-truth validation (paper Section 4) for one country.
//
// Campaigns run from spec files (tools/campaign_run); single lookups are
// tools/ddig. A flag without a value, an unknown flag, or a malformed
// number prints the usage and exits 2.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "measure/dataset_io.h"
#include "measure/groundtruth.h"
#include "measure/regression.h"
#include "report/table.h"
#include "stats/summary.h"
#include "world/world_model.h"

using namespace dohperf;

namespace {

/// A command-line defect: reported with the usage text, exit 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Strict "--key value" parser over the flags one command accepts.
class Args {
 public:
  Args(int argc, char** argv, std::map<std::string, std::string> defaults)
      : values_(std::move(defaults)) {
    for (int i = 2; i < argc; i += 2) {
      const auto it = values_.find(
          std::strncmp(argv[i], "--", 2) == 0 ? argv[i] + 2 : "");
      if (it == values_.end() || i + 1 >= argc) {
        throw UsageError(std::string("bad or incomplete flag ") + argv[i]);
      }
      it->second = argv[i + 1];
    }
  }

  /// The flag's value ("" when it has no default and was not given).
  [[nodiscard]] const std::string& get(const std::string& k) const {
    return values_.at(k);
  }
  [[nodiscard]] std::uint64_t get_u64(const std::string& k) const {
    const std::string& v = get(k);
    std::uint64_t out = 0;
    const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
    if (ec != std::errc() || end != v.data() + v.size()) {
      throw UsageError("--" + k + " expects an unsigned integer, got \"" +
                       v + "\"");
    }
    return out;
  }

 private:
  std::map<std::string, std::string> values_;
};

void print_summary(const measure::Dataset& data) {
  report::Table table("Dataset summary");
  table.header({"Metric", "Value"});
  table.row({"clients", std::to_string(data.clients().size())});
  table.row({"countries", std::to_string(data.clients_per_country().size())});
  table.row({"analysis countries (>=10 clients/provider)",
             std::to_string(data.analysis_countries(10).size())});
  table.row({"DoH measurements", std::to_string(data.doh().size())});
  table.row({"Do53 measurements", std::to_string(data.do53().size())});
  table.row({"median DoH1 (ms)",
             report::fmt(stats::median(data.tdoh_values()), 1)});
  table.row({"median Do53 (ms)",
             report::fmt(stats::median(data.do53_values()), 1)});
  for (const char* provider : {"Cloudflare", "Google", "NextDNS", "Quad9"}) {
    table.row({std::string(provider) + " median DoH1/DoHR (ms)",
               report::fmt(stats::median(data.tdoh_values(provider)), 0) +
                   " / " +
                   report::fmt(stats::median(data.tdohr_values(provider)),
                               0)});
  }
  const auto rows = measure::regression_rows(data);
  if (!rows.empty()) {
    const auto med = measure::multiplier_medians(rows);
    table.row({"median multipliers 1/10/100/1000",
               report::fmt(med.m1, 2) + " / " + report::fmt(med.m10, 2) +
                   " / " + report::fmt(med.m100, 2) + " / " +
                   report::fmt(med.m1000, 2)});
  }
  std::fputs(table.render().c_str(), stdout);
}

int cmd_summary(const Args& args) {
  const std::string& in = args.get("in");
  if (in.empty()) throw UsageError("summary requires --in DIR");
  print_summary(measure::load_dataset(in));
  return 0;
}

int cmd_validate(const Args& args) {
  const std::string& iso2 = args.get("country");
  world::WorldConfig config;
  config.seed = args.get_u64("seed");
  config.only_countries = {iso2};
  world::WorldModel world(config);
  measure::GroundTruthLab lab(world);

  const auto doh = lab.validate_doh(iso2, 0, 10);
  std::printf("DoH:  estimated %.1f ms vs truth %.1f ms (err %+.1f)\n",
              doh.estimated_tdoh_ms, doh.truth_tdoh_ms,
              doh.tdoh_error_ms());
  std::printf("DoHR: estimated %.1f ms vs truth %.1f ms (err %+.1f)\n",
              doh.estimated_tdohr_ms, doh.truth_tdohr_ms,
              doh.tdohr_error_ms());
  if (!proxy::resolves_dns_at_super_proxy(iso2)) {
    const auto do53 = lab.validate_do53(iso2, 10);
    std::printf("Do53: estimated %.1f ms vs truth %.1f ms (err %+.1f)\n",
                do53.estimated_ms, do53.truth_ms, do53.error_ms());
  } else {
    std::printf("Do53: not measurable via the proxy in %s (Super Proxy "
                "country)\n", iso2.c_str());
  }
  return 0;
}

int usage() {
  std::fputs(
      "usage: dohperf_cli <summary|validate> [--flag value]...\n"
      "  summary   --in DIR\n"
      "  validate  [--country ISO2] [--seed N]\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "summary") {
      return cmd_summary(Args(argc, argv, {{"in", ""}}));
    }
    if (command == "validate") {
      return cmd_validate(
          Args(argc, argv, {{"country", "SE"}, {"seed", "42"}}));
    }
    return usage();
  } catch (const UsageError& e) {
    std::fprintf(stderr, "dohperf_cli: %s\n", e.what());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
