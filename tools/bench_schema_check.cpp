// Validates dohperf JSON bench/scenario artifacts so CI fails loudly on
// malformed output instead of archiving junk. Dispatches on the
// document's "schema" tag:
//
//   dohperf-bench-scale-v1        bench/scale_campaign sweeps
//   dohperf-scenario-summary-v1   scenario::run() summaries
//   dohperf-sweep-v1              scenario sweep driver reports
//   dohperf-availability-v1       bench/ext_availability_slo summaries
//   dohperf-warm-ladder-v1        bench/ext_encrypted_dns_ladder warm runs
//   dohperf-attribution-v1        bench/ext_attribution phase waterfalls
//
//   bench_schema_check <path/to/artifact.json>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json.h"

using dohperf::obs::json::Value;

namespace {

int g_errors = 0;

void fail(const std::string& what) {
  std::fprintf(stderr, "bench_schema_check: %s\n", what.c_str());
  ++g_errors;
}

/// Requires `obj[key]` to be a number; with `nonneg`, >= 0 too.
void require_number(const Value& obj, const std::string& key,
                    const std::string& where, bool nonneg = true) {
  const Value* v = obj.get(key);
  if (v == nullptr || !v->is_number()) {
    fail(where + ": missing or non-numeric \"" + key + "\"");
    return;
  }
  if (nonneg && v->as_number() < 0.0) {
    fail(where + ": \"" + key + "\" is negative");
  }
}

/// Requires `obj[key]` to be a non-empty string.
void require_string(const Value& obj, const std::string& key,
                    const std::string& where) {
  const Value* v = obj.get(key);
  if (v == nullptr || !v->is_string() || v->as_string().empty()) {
    fail(where + ": missing or empty \"" + key + "\"");
  }
}

bool is_hex16(const std::string& s) {
  if (s.size() != 16) return false;
  for (const char c : s) {
    if ((c < '0' || c > '9') && (c < 'a' || c > 'f')) return false;
  }
  return true;
}

/// Requires `obj[key]` to be a 16-lowercase-hex-digit content hash.
void require_hash(const Value& obj, const std::string& key,
                  const std::string& where) {
  const Value* v = obj.get(key);
  if (v == nullptr || !v->is_string() || !is_hex16(v->as_string())) {
    fail(where + ": \"" + key + "\" is not a 16-hex-digit content hash");
  }
}

// ---- dohperf-bench-scale-v1 -------------------------------------------

void check_scale(const Value& doc) {
  require_hash(doc, "spec_hash", "document");

  const Value* world = doc.get("world");
  if (world == nullptr || !world->is_object()) {
    fail("missing \"world\" object");
  } else {
    require_number(*world, "scale", "world");
    require_number(*world, "seed", "world");
    require_number(*world, "exits", "world");
    if (world->number_or("exits", 0) <= 0) fail("world.exits must be > 0");
  }

  const Value* points = doc.get("points");
  if (points == nullptr || !points->is_array() || points->as_array().empty()) {
    fail("missing or empty \"points\" array");
    return;
  }

  double prev_sessions = 0;
  std::size_t index = 0;
  for (const Value& point : points->as_array()) {
    const std::string where = "points[" + std::to_string(index) + "]";
    if (!point.is_object()) {
      fail(where + ": not an object");
      ++index;
      continue;
    }
    for (const char* key :
         {"requested_sessions", "runs_per_client", "sessions", "shards",
          "events", "wall_seconds", "events_per_second", "doh_rows",
          "do53_rows", "atlas_rows", "failed_measurements", "doh_median_ms",
          "peak_rss_bytes", "current_rss_bytes"}) {
      require_number(point, key, where);
    }
    require_hash(point, "spec_hash", where);
    if (point.number_or("sessions", 0) <= 0) {
      fail(where + ": sessions must be > 0");
    }
    if (point.number_or("sessions", 0) < prev_sessions) {
      fail(where + ": sessions not ascending across the sweep");
    }
    prev_sessions = point.number_or("sessions", 0);

    const Value* arena = point.get("arena");
    if (arena == nullptr || !arena->is_object()) {
      fail(where + ": missing \"arena\" object");
    } else {
      for (const char* key : {"allocations", "reused", "fallbacks",
                              "slab_bytes", "high_water_bytes"}) {
        require_number(*arena, key, where + ".arena");
      }
      if (arena->number_or("reused", 0) > arena->number_or("allocations", 0)) {
        fail(where + ".arena: reused exceeds allocations");
      }
    }
    ++index;
  }
  if (g_errors == 0) {
    std::printf("bench_schema_check: dohperf-bench-scale-v1 OK "
                "(%zu sweep point(s))\n",
                points->as_array().size());
  }
}

// ---- dohperf-scenario-summary-v1 --------------------------------------

void check_summary(const Value& doc, const std::string& where) {
  require_string(doc, "name", where);
  require_hash(doc, "spec_hash", where);
  const std::string sink = doc.string_or("sink", "");
  if (sink != "retained" && sink != "streaming") {
    fail(where + ": \"sink\" is neither \"retained\" nor \"streaming\"");
  }
  const Value* world = doc.get("world");
  if (world == nullptr || !world->is_object()) {
    fail(where + ": missing \"world\" object");
  } else {
    require_number(*world, "seed", where + ".world");
    require_number(*world, "client_scale", where + ".world");
  }
  for (const char* key :
       {"sessions", "shards", "events", "wall_seconds", "doh1_median_ms",
        "do53_median_ms", "retries", "retry_timeouts",
        "failed_measurements", "discarded_mismatch", "peak_rss_bytes"}) {
    require_number(doc, key, where);
  }
  if (doc.number_or("sessions", 0) <= 0) {
    fail(where + ": sessions must be > 0");
  }
  // The observability stores the run recorded: a subset of the known
  // ones, "metrics" always among them.
  const Value* stores = doc.get("stores");
  if (stores == nullptr || !stores->is_array()) {
    fail(where + ": missing \"stores\" array");
  } else {
    bool has_metrics = false;
    for (const Value& store : stores->as_array()) {
      const std::string name = store.is_string() ? store.as_string() : "";
      if (name != "metrics" && name != "series" && name != "attribution" &&
          name != "slo" && name != "flight_recorder") {
        fail(where + ".stores: unknown store \"" + name + "\"");
      }
      has_metrics = has_metrics || name == "metrics";
    }
    if (!has_metrics) fail(where + ".stores: \"metrics\" is missing");
  }
  const Value* outputs = doc.get("outputs");
  if (outputs == nullptr || !outputs->is_array()) {
    fail(where + ": missing \"outputs\" array");
  }
}

// ---- dohperf-sweep-v1 -------------------------------------------------

void check_sweep(const Value& doc) {
  require_string(doc, "name", "document");
  require_hash(doc, "document_hash", "document");

  std::size_t expected_cells = 1;
  const Value* axes = doc.get("axes");
  if (axes == nullptr || !axes->is_array()) {
    fail("missing \"axes\" array");
  } else {
    std::size_t index = 0;
    for (const Value& axis : axes->as_array()) {
      const std::string where = "axes[" + std::to_string(index) + "]";
      if (!axis.is_object()) {
        fail(where + ": not an object");
      } else {
        require_string(axis, "key", where);
        const Value* values = axis.get("values");
        if (values == nullptr || !values->is_array() ||
            values->as_array().empty()) {
          fail(where + ": missing or empty \"values\" array");
        } else {
          expected_cells *= values->as_array().size();
        }
      }
      ++index;
    }
  }

  const Value* cells = doc.get("cells");
  if (cells == nullptr || !cells->is_array() || cells->as_array().empty()) {
    fail("missing or empty \"cells\" array");
    return;
  }
  if (axes != nullptr && axes->is_array() &&
      cells->as_array().size() != expected_cells) {
    fail("cells array has " + std::to_string(cells->as_array().size()) +
         " entries but the axes expand to " +
         std::to_string(expected_cells));
  }
  std::size_t index = 0;
  for (const Value& cell : cells->as_array()) {
    const std::string where = "cells[" + std::to_string(index) + "]";
    if (!cell.is_object()) {
      fail(where + ": not an object");
      ++index;
      continue;
    }
    require_number(cell, "cell", where);
    const Value* assignment = cell.get("axes");
    if (assignment == nullptr || !assignment->is_object()) {
      fail(where + ": missing \"axes\" object");
    }
    const Value* summary = cell.get("summary");
    if (summary == nullptr || !summary->is_object()) {
      fail(where + ": missing \"summary\" object");
    } else {
      if (summary->string_or("schema", "") != "dohperf-scenario-summary-v1") {
        fail(where + ".summary: schema tag is not "
                     "\"dohperf-scenario-summary-v1\"");
      }
      check_summary(*summary, where + ".summary");
    }
    ++index;
  }
  if (g_errors == 0) {
    std::printf("bench_schema_check: dohperf-sweep-v1 OK (%zu cell(s))\n",
                cells->as_array().size());
  }
}

// ---- dohperf-availability-v1 ------------------------------------------

/// One per-(provider | strategy) budget entry shared by both arrays of
/// the availability summary.
void check_budget_entry(const Value& entry, const std::string& where,
                        const char* name_key) {
  if (!entry.is_object()) {
    fail(where + ": not an object");
    return;
  }
  require_string(entry, name_key, where);
  for (const char* key :
       {"total", "errors", "availability", "error_budget_consumed"}) {
    require_number(entry, key, where);
  }
  if (entry.number_or("total", 0) <= 0) {
    fail(where + ": total must be > 0");
  }
  if (entry.number_or("errors", 0) > entry.number_or("total", 0)) {
    fail(where + ": errors exceeds total");
  }
  const double availability = entry.number_or("availability", -1.0);
  if (availability < 0.0 || availability > 1.0) {
    fail(where + ": availability outside [0, 1]");
  }
}

void check_availability(const Value& doc) {
  require_hash(doc, "spec_hash", "document");
  require_number(doc, "alerts", "document");
  require_number(doc, "windows", "document");
  const double objective = doc.number_or("availability_objective", -1.0);
  if (objective <= 0.0 || objective >= 1.0) {
    fail("\"availability_objective\" outside (0, 1)");
  }

  const Value* providers = doc.get("providers");
  if (providers == nullptr || !providers->is_array() ||
      providers->as_array().empty()) {
    fail("missing or empty \"providers\" array");
  } else {
    std::size_t index = 0;
    for (const Value& provider : providers->as_array()) {
      check_budget_entry(provider,
                         "providers[" + std::to_string(index) + "]",
                         "provider");
      ++index;
    }
  }

  const Value* strategies = doc.get("strategies");
  if (strategies == nullptr || !strategies->is_array() ||
      strategies->as_array().empty()) {
    fail("missing or empty \"strategies\" array");
  } else {
    std::size_t index = 0;
    for (const Value& strategy : strategies->as_array()) {
      check_budget_entry(strategy,
                         "strategies[" + std::to_string(index) + "]",
                         "strategy");
      ++index;
    }
  }

  if (g_errors == 0) {
    std::printf("bench_schema_check: dohperf-availability-v1 OK "
                "(%zu provider(s), %zu strateg(y/ies))\n",
                providers->as_array().size(),
                strategies->as_array().size());
  }
}

// ---- dohperf-warm-ladder-v1 -------------------------------------------

/// One side of a cold/warm median block.
void check_ladder_block(const Value& doc, const char* name,
                        bool want_shrink) {
  const Value* block = doc.get(name);
  const std::string where = name;
  if (block == nullptr || !block->is_object()) {
    fail("missing \"" + where + "\" object");
    return;
  }
  require_number(*block, "doh_median_ms", where);
  require_number(*block, "do53_median_ms", where);
  require_number(*block, "delta_ms", where, /*nonneg=*/false);
  if (want_shrink) {
    require_number(*block, "shrink", where, /*nonneg=*/false);
  }
}

void check_warm_ladder(const Value& doc) {
  require_hash(doc, "spec_hash", "document");
  check_ladder_block(doc, "cold", /*want_shrink=*/false);
  check_ladder_block(doc, "warm", /*want_shrink=*/true);

  const Value* counters = doc.get("counters");
  if (counters == nullptr || !counters->is_object()) {
    fail("missing \"counters\" object");
  } else {
    for (const char* key :
         {"doh_queries", "do53_queries", "shared_cache_hits",
          "stub_cache_hits", "pool_cold", "pool_reuses",
          "pool_resumptions"}) {
      require_number(*counters, key, "counters");
    }
    if (counters->number_or("doh_queries", 0) <= 0) {
      fail("counters.doh_queries must be > 0");
    }
  }

  const Value* curve = doc.get("curve");
  if (curve == nullptr || !curve->is_array() || curve->as_array().empty()) {
    fail("missing or empty \"curve\" array");
    return;
  }
  double prev_population = 0.0;
  double prev_rate = -1.0;
  std::size_t index = 0;
  for (const Value& point : curve->as_array()) {
    const std::string where = "curve[" + std::to_string(index) + "]";
    if (!point.is_object()) {
      fail(where + ": not an object");
      ++index;
      continue;
    }
    require_number(point, "population", where);
    require_number(point, "expected_hit_rate", where);
    const double population = point.number_or("population", 0.0);
    const double rate = point.number_or("expected_hit_rate", -1.0);
    if (population <= prev_population) {
      fail(where + ": populations not strictly ascending");
    }
    if (rate < 0.0 || rate > 1.0) {
      fail(where + ": expected_hit_rate outside [0, 1]");
    }
    if (rate < prev_rate) {
      fail(where + ": hit rate not monotone nondecreasing in population");
    }
    prev_population = population;
    prev_rate = rate;
    ++index;
  }

  if (g_errors == 0) {
    std::printf("bench_schema_check: dohperf-warm-ladder-v1 OK "
                "(%zu curve point(s))\n",
                curve->as_array().size());
  }
}

// ---- dohperf-attribution-v1 -------------------------------------------

/// Requires `obj[key]` to be the boolean literal `true` — the exactness
/// and contract flags are structural invariants, not free data.
void require_true(const Value& obj, const std::string& key,
                  const std::string& where) {
  const Value* v = obj.get(key);
  if (v == nullptr || !v->is_bool()) {
    fail(where + ": missing or non-boolean \"" + key + "\"");
    return;
  }
  if (!v->as_bool()) fail(where + ": \"" + key + "\" is false");
}

void check_attribution(const Value& doc) {
  require_hash(doc, "spec_hash", "document");

  const Value* comparisons = doc.get("comparisons");
  if (comparisons == nullptr || !comparisons->is_array() ||
      comparisons->as_array().empty()) {
    fail("missing or empty \"comparisons\" array");
    return;
  }
  std::size_t index = 0;
  for (const Value& comparison : comparisons->as_array()) {
    const std::string where = "comparisons[" + std::to_string(index) + "]";
    ++index;
    if (!comparison.is_object()) {
      fail(where + ": not an object");
      continue;
    }
    require_string(comparison, "name", where);
    require_string(comparison, "transport_a", where);
    require_string(comparison, "transport_b", where);
    require_number(comparison, "flows_a", where);
    require_number(comparison, "flows_b", where);
    if (comparison.number_or("flows_a", 0) <= 0 ||
        comparison.number_or("flows_b", 0) <= 0) {
      fail(where + ": flows must be > 0 on both sides");
    }
    require_number(comparison, "a_total_ms", where);
    require_number(comparison, "b_total_ms", where);
    require_number(comparison, "delta_ms", where, /*nonneg=*/false);
    require_number(comparison, "handshake_tunnel_delta_ms", where,
                   /*nonneg=*/false);
    // The per-phase waterfall deltas summed to the end-to-end delta in
    // 128-bit rational arithmetic; anything else is artifact corruption.
    require_true(comparison, "exact", where);
    const double share = comparison.number_or("handshake_tunnel_share", -1.0);
    if (share < 0.0 || share > 1.0) {
      fail(where + ": \"handshake_tunnel_share\" outside [0, 1]");
    }
  }

  const Value* contract = doc.get("contract");
  if (contract == nullptr || !contract->is_object()) {
    fail("missing \"contract\" object");
  } else {
    require_string(*contract, "comparison", "contract");
    const double min_share = contract->number_or("min_share", -1.0);
    if (min_share <= 0.0 || min_share > 1.0) {
      fail("contract.min_share outside (0, 1]");
    }
    const double share = contract->number_or("share", -1.0);
    if (share < 0.0 || share > 1.0) {
      fail("contract.share outside [0, 1]");
    }
    require_true(*contract, "pass", "contract");
  }

  if (g_errors == 0) {
    std::printf("bench_schema_check: dohperf-attribution-v1 OK "
                "(%zu comparison(s))\n",
                comparisons->as_array().size());
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: bench_schema_check <artifact.json>\n");
    return 2;
  }

  std::ifstream in(argv[1]);
  if (!in) {
    fail(std::string("cannot open ") + argv[1]);
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();

  const auto doc = dohperf::obs::json::parse(buffer.str());
  if (!doc.has_value() || !doc->is_object()) {
    fail("not a JSON object");
    return 1;
  }

  const std::string schema = doc->string_or("schema", "");
  if (schema == "dohperf-bench-scale-v1") {
    check_scale(*doc);
  } else if (schema == "dohperf-scenario-summary-v1") {
    check_summary(*doc, "document");
    if (g_errors == 0) {
      std::printf("bench_schema_check: dohperf-scenario-summary-v1 OK\n");
    }
  } else if (schema == "dohperf-sweep-v1") {
    check_sweep(*doc);
  } else if (schema == "dohperf-availability-v1") {
    check_availability(*doc);
  } else if (schema == "dohperf-warm-ladder-v1") {
    check_warm_ladder(*doc);
  } else if (schema == "dohperf-attribution-v1") {
    check_attribution(*doc);
  } else {
    fail("unknown schema tag \"" + schema + "\"");
  }

  if (g_errors != 0) {
    std::fprintf(stderr, "bench_schema_check: %d error(s) in %s\n", g_errors,
                 argv[1]);
    return 1;
  }
  return 0;
}
