#include "proxy/headers.h"

#include <charconv>
#include <vector>

namespace dohperf::proxy {
namespace {

/// Appends `key`=`v` with three fixed decimals (printf "%.3f": to_chars
/// with a precision formats as printf does in the C locale).
void append_ms(std::string& out, std::string_view key, double v) {
  out += key;
  out += '=';
  char buf[512];  // room for any finite double in fixed notation
  const auto end =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed, 3).ptr;
  out.append(buf, end);
}

/// Parses "k1=v1 k2=v2 ..." into ordered (key, value) pairs; nullopt on
/// malformed tokens.
std::optional<std::vector<std::pair<std::string_view, double>>> parse_kv(
    std::string_view text) {
  std::vector<std::pair<std::string_view, double>> out;
  while (!text.empty()) {
    while (!text.empty() && text.front() == ' ') text.remove_prefix(1);
    if (text.empty()) break;
    const std::size_t space = text.find(' ');
    const std::string_view token =
        space == std::string_view::npos ? text : text.substr(0, space);
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos || eq == 0) return std::nullopt;
    const std::string_view value_str = token.substr(eq + 1);
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(
        value_str.data(), value_str.data() + value_str.size(), value);
    if (ec != std::errc() || ptr != value_str.data() + value_str.size()) {
      return std::nullopt;
    }
    out.emplace_back(token.substr(0, eq), value);
    if (space == std::string_view::npos) break;
    text.remove_prefix(space + 1);
  }
  return out;
}

}  // namespace

std::string format_tun_timeline(const TunTimeline& t) {
  std::string out;
  out.reserve(32);
  append_ms(out, "dns", t.dns_ms);
  append_ms(out, " connect", t.connect_ms);
  return out;
}

std::string format_timeline(const BrightDataTimeline& t) {
  std::string out;
  out.reserve(64);
  append_ms(out, "auth", t.auth_ms);
  append_ms(out, " init", t.init_ms);
  append_ms(out, " select", t.select_ms);
  append_ms(out, " vld", t.vld_ms);
  return out;
}

std::optional<TunTimeline> parse_tun_timeline(std::string_view text) {
  const auto kv = parse_kv(text);
  if (!kv) return std::nullopt;
  TunTimeline t;
  bool have_dns = false, have_connect = false;
  for (const auto& [key, value] : *kv) {
    if (key == "dns") {
      t.dns_ms = value;
      have_dns = true;
    } else if (key == "connect") {
      t.connect_ms = value;
      have_connect = true;
    } else {
      return std::nullopt;
    }
  }
  if (!have_dns || !have_connect) return std::nullopt;
  return t;
}

std::optional<BrightDataTimeline> parse_timeline(std::string_view text) {
  const auto kv = parse_kv(text);
  if (!kv) return std::nullopt;
  BrightDataTimeline t;
  for (const auto& [key, value] : *kv) {
    if (key == "auth") {
      t.auth_ms = value;
    } else if (key == "init") {
      t.init_ms = value;
    } else if (key == "select") {
      t.select_ms = value;
    } else if (key == "vld") {
      t.vld_ms = value;
    } else {
      return std::nullopt;
    }
  }
  return t;
}

}  // namespace dohperf::proxy
