// Host-time spans recorded by the benchmark around its own calls into the
// simulator's modules.
//
// A span has a name ("<module>.<what>"), a start and end in nanoseconds
// on the steady clock, and the index of the span that was open when it
// began. Spans are kept in memory and rendered at the end as Chrome
// trace-event JSON and as a per-layer self-time table, where a span's
// self time is its duration minus the part covered by its children and
// a layer is the module prefix of the span name.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< Index into the span list; -1 for a root.
  /// Free-form "key": value JSON members rendered into the event's args.
  std::vector<std::pair<std::string, std::string>> args;
};

/// Nanoseconds on the steady clock.
[[nodiscard]] std::int64_t now_ns();

/// Records spans when enabled; every call is a no-op otherwise, so the
/// untraced runs that give the end-to-end metrics pay nothing for it.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span under the innermost open one. Returns its index, or -1
  /// when disabled.
  int begin(std::string name);
  /// Closes span `id` (which must be the innermost open one).
  void end(int id);
  /// Adds an already-timed span under `parent` without opening it (used
  /// for stages the program reports as durations, such as shard walls).
  int add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
          int parent);
  void arg(int id, std::string key, std::string json_value);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Closes its span when it leaves scope.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name)
      : tracer_(tracer), id_(tracer.begin(std::move(name))) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

/// Empty when every span lies inside its parent and no two children of
/// one parent overlap; otherwise a one-line description of the first
/// violation.
[[nodiscard]] std::string check_nesting(const std::vector<Span>& spans);

/// Self time of each span, in span order.
[[nodiscard]] std::vector<std::int64_t> self_times_ns(
    const std::vector<Span>& spans);

/// The module prefix of a span name ("obs" for "obs.series_merge").
[[nodiscard]] std::string layer_of(const std::string& span_name);

struct LayerRow {
  std::string layer;
  std::int64_t self_ns = 0;
  std::uint64_t spans = 0;
};

/// Self time summed per layer, in first-appearance order.
[[nodiscard]] std::vector<LayerRow> layer_table(
    const std::vector<Span>& spans);

/// Tab-separated "layer, self_ms, share_of_roots, spans" with a header
/// and a closing "total" row equal to the summed root durations.
[[nodiscard]] std::string layer_table_tsv(const std::vector<Span>& spans);

/// Chrome trace-event JSON ("X" events, microsecond timestamps relative
/// to the first span) with `metadata` (a JSON object) embedded verbatim.
[[nodiscard]] std::string chrome_trace_json(const std::vector<Span>& spans,
                                            const std::string& metadata);

}  // namespace perfbench
