#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::begin(std::string name) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  const std::int64_t t = now_ns();
  spans_.push_back(Span{std::move(name), t, t, parent, {}});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int id) {
  if (id < 0 || open_.empty() || open_.back() != id) return;
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  open_.pop_back();
}

int Tracer::add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
                int parent) {
  if (!enabled_) return -1;
  spans_.push_back(Span{std::move(name), start_ns, end_ns, parent, {}});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::arg(int id, std::string key, std::string json_value) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].args.emplace_back(
      std::move(key), std::move(json_value));
}

namespace {

std::vector<std::vector<int>> children_of(const std::vector<Span>& spans) {
  std::vector<std::vector<int>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(static_cast<int>(i));
    }
  }
  for (auto& c : children) {
    std::sort(c.begin(), c.end(), [&spans](int a, int b) {
      return spans[static_cast<std::size_t>(a)].start_ns <
             spans[static_cast<std::size_t>(b)].start_ns;
    });
  }
  return children;
}

}  // namespace

std::string check_nesting(const std::vector<Span>& spans) {
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns < s.start_ns) return s.name + " ends before it starts";
    if (s.parent >= static_cast<int>(i)) {
      return s.name + " has a parent recorded after it";
    }
    if (s.parent >= 0) {
      const Span& p = spans[static_cast<std::size_t>(s.parent)];
      if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
        return s.name + " lies outside its parent " + p.name;
      }
    }
  }
  const auto children = children_of(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    for (std::size_t k = 1; k < children[i].size(); ++k) {
      const Span& a = spans[static_cast<std::size_t>(children[i][k - 1])];
      const Span& b = spans[static_cast<std::size_t>(children[i][k])];
      if (b.start_ns < a.end_ns) {
        return a.name + " overlaps its sibling " + b.name;
      }
    }
  }
  return {};
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  const auto children = children_of(spans);
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Union of the children's intervals, clipped to the parent.
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const int c : children[i]) {
      const Span& child = spans[static_cast<std::size_t>(c)];
      const std::int64_t from = std::max(child.start_ns, reach);
      const std::int64_t to = std::min(child.end_ns, s.end_ns);
      if (to > from) {
        covered += to - from;
        reach = to;
      }
    }
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::string layer_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

std::vector<LayerRow> layer_table(const std::vector<Span>& spans) {
  const auto self = self_times_ns(spans);
  std::vector<LayerRow> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string layer = layer_of(spans[i].name);
    auto it = std::find_if(rows.begin(), rows.end(), [&](const LayerRow& r) {
      return r.layer == layer;
    });
    if (it == rows.end()) {
      rows.push_back(LayerRow{layer, 0, 0});
      it = rows.end() - 1;
    }
    it->self_ns += self[i];
    ++it->spans;
  }
  return rows;
}

std::string layer_table_tsv(const std::vector<Span>& spans) {
  std::int64_t total = 0;
  for (const Span& s : spans) {
    if (s.parent < 0) total += s.end_ns - s.start_ns;
  }
  std::string out = "layer\tself_ms\tshare\tspans\n";
  char line[256];
  for (const LayerRow& r : layer_table(spans)) {
    std::snprintf(line, sizeof line, "%s\t%.3f\t%.4f\t%llu\n",
                  r.layer.c_str(), static_cast<double>(r.self_ns) / 1e6,
                  total > 0 ? static_cast<double>(r.self_ns) /
                                  static_cast<double>(total)
                            : 0.0,
                  static_cast<unsigned long long>(r.spans));
    out += line;
  }
  std::snprintf(line, sizeof line, "total\t%.3f\t1.0000\t%zu\n",
                static_cast<double>(total) / 1e6, spans.size());
  out += line;
  return out;
}

std::string chrome_trace_json(const std::vector<Span>& spans,
                              const std::string& metadata) {
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::string out = "{\"displayTimeUnit\": \"ms\", \"metadata\": ";
  out += metadata.empty() ? "{}" : metadata;
  out += ", \"traceEvents\": [\n";
  char buf[160];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i > 0) out += ",\n";
    out += "{\"name\": \"" + s.name + "\", \"cat\": \"" + layer_of(s.name) +
           "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, ";
    std::snprintf(buf, sizeof buf,
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                  "\"parent\": %d",
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  s.parent);
    out += buf;
    for (const auto& [key, value] : s.args) {
      out += ", \"" + key + "\": " + value;
    }
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
