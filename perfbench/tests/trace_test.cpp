// Unit tests of the benchmark's span recorder: nesting, self times and
// the per-layer table. Exits nonzero on the first failed check.
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "trace.h"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "trace_test:%d: check failed: %s\n", line, what);
    ++failures;
  }
}
#define CHECK(expr) check((expr), #expr, __LINE__)

using perfbench::Span;

std::int64_t sum(const std::vector<std::int64_t>& v) {
  return std::accumulate(v.begin(), v.end(), std::int64_t{0});
}

void recorded_spans_nest_and_self_times_sum_to_the_root() {
  perfbench::Tracer tracer(true);
  {
    const perfbench::Scope root(tracer, "bench.rep");
    {
      const perfbench::Scope build(tracer, "world.build");
    }
    {
      const perfbench::Scope run(tracer, "scenario.run");
      const perfbench::Scope merge(tracer, "obs.metrics_merge");
    }
    const perfbench::Scope probe(tracer, "netsim.one_way");
  }
  const auto& spans = tracer.spans();
  CHECK(spans.size() == 5);
  CHECK(perfbench::check_nesting(spans).empty());
  CHECK(spans[3].parent == 2);
  const auto self = perfbench::self_times_ns(spans);
  CHECK(sum(self) == spans[0].end_ns - spans[0].start_ns);
  for (const std::int64_t s : self) CHECK(s >= 0);
}

void derived_children_inside_a_parent_keep_the_identity() {
  perfbench::Tracer tracer(true);
  const int root = tracer.add("bench.rep", 0, 1000, -1);
  const int run = tracer.add("scenario.run", 100, 900, root);
  const int campaign = tracer.add("measure.campaign", 100, 800, run);
  tracer.add("measure.shards", 100, 700, campaign);
  tracer.add("measure.merge", 700, 800, campaign);
  const auto& spans = tracer.spans();
  CHECK(perfbench::check_nesting(spans).empty());
  const auto self = perfbench::self_times_ns(spans);
  CHECK(self[0] == 200);  // 0..100 and 900..1000
  CHECK(self[1] == 100);  // scenario.run minus the campaign
  CHECK(self[2] == 0);
  CHECK(sum(self) == 1000);

  const auto rows = perfbench::layer_table(spans);
  CHECK(rows.size() == 3);
  CHECK(rows[2].layer == "measure" && rows[2].self_ns == 700 &&
        rows[2].spans == 3);
  const std::string tsv = perfbench::layer_table_tsv(spans);
  CHECK(tsv.find("total\t0.001\t1.0000\t5\n") != std::string::npos);
}

void escaping_children_and_overlapping_siblings_are_reported() {
  std::vector<Span> escaping = {{"bench.rep", 0, 100, -1, {}},
                                {"world.build", 50, 150, 0, {}}};
  CHECK(perfbench::check_nesting(escaping).find("outside its parent") !=
        std::string::npos);
  std::vector<Span> overlapping = {{"bench.rep", 0, 100, -1, {}},
                                   {"obs.a", 10, 60, 0, {}},
                                   {"obs.b", 50, 90, 0, {}}};
  CHECK(perfbench::check_nesting(overlapping).find("overlaps") !=
        std::string::npos);
  std::vector<Span> backwards = {{"bench.rep", 10, 5, -1, {}}};
  CHECK(!perfbench::check_nesting(backwards).empty());
}

void a_disabled_tracer_records_nothing() {
  perfbench::Tracer tracer(false);
  {
    const perfbench::Scope root(tracer, "bench.rep");
    tracer.add("measure.shards", 0, 1, root.id());
  }
  CHECK(tracer.spans().empty());
}

void chrome_json_carries_every_span_with_its_parent() {
  perfbench::Tracer tracer(true);
  const int root = tracer.add("bench.rep", 1000, 5000, -1);
  const int child = tracer.add("world.build", 2000, 3000, root);
  tracer.arg(child, "exits", "7");
  const std::string json =
      perfbench::chrome_trace_json(tracer.spans(), "{\"seed\": 42}");
  CHECK(json.find("\"metadata\": {\"seed\": 42}") != std::string::npos);
  CHECK(json.find("\"name\": \"world.build\", \"cat\": \"world\"") !=
        std::string::npos);
  CHECK(json.find("\"ts\": 1.000, \"dur\": 1.000") != std::string::npos);
  CHECK(json.find("\"parent\": 0, \"exits\": 7") != std::string::npos);
}

}  // namespace

int main() {
  recorded_spans_nest_and_self_times_sum_to_the_root();
  derived_children_inside_a_parent_keep_the_identity();
  escaping_children_and_overlapping_siblings_are_reported();
  a_disabled_tracer_records_nothing();
  chrome_json_carries_every_span_with_its_parent();
  if (failures > 0) return EXIT_FAILURE;
  std::printf("trace_test: all checks passed\n");
  return EXIT_SUCCESS;
}
