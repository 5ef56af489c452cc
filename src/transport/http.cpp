#include "transport/http.h"

#include <algorithm>
#include <cctype>
#include <charconv>

namespace dohperf::transport {
namespace {

bool iequals(std::string_view a, std::string_view b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](char x, char y) {
           return std::tolower(static_cast<unsigned char>(x)) ==
                  std::tolower(static_cast<unsigned char>(y));
         });
}

/// Splits off the next CRLF-terminated line; nullopt if no CRLF remains.
std::optional<std::string_view> next_line(std::string_view& text) {
  const std::size_t eol = text.find("\r\n");
  if (eol == std::string_view::npos) return std::nullopt;
  const std::string_view line = text.substr(0, eol);
  text.remove_prefix(eol + 2);
  return line;
}

/// Parses "Name: value" header lines until the blank line; false on
/// malformed input.
bool parse_headers(std::string_view& text, HeaderMap& out) {
  for (;;) {
    const auto line = next_line(text);
    if (!line) return false;  // missing terminating blank line
    if (line->empty()) return true;
    const std::size_t colon = line->find(':');
    if (colon == std::string_view::npos || colon == 0) return false;
    std::string_view name = line->substr(0, colon);
    std::string_view value = line->substr(colon + 1);
    while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
    out.add(std::string(name), std::string(value));
  }
}

void serialize_headers(const HeaderMap& headers, std::string& out) {
  for (const auto& [name, value] : headers.fields()) {
    out += name;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  out += "\r\n";
}

}  // namespace

void HeaderMap::add(std::string name, std::string value) {
  fields_.emplace_back(std::move(name), std::move(value));
}

void HeaderMap::set(std::string name, std::string value) {
  std::erase_if(fields_, [&](const auto& f) { return iequals(f.first, name); });
  add(std::move(name), std::move(value));
}

std::optional<std::string_view> HeaderMap::get(std::string_view name) const {
  for (const auto& [n, v] : fields_) {
    if (iequals(n, name)) return v;
  }
  return std::nullopt;
}

std::size_t HeaderMap::wire_size() const {
  std::size_t n = 2;  // blank line
  for (const auto& [name, value] : fields_) n += name.size() + value.size() + 4;
  return n;
}

std::string HttpRequest::serialize() const {
  std::string out;
  out.reserve(128 + body.size());
  out += method;
  out += ' ';
  out += target;
  out += ' ';
  out += version;
  out += "\r\n";
  serialize_headers(headers, out);
  out += body;
  return out;
}

std::size_t HttpRequest::wire_size() const {
  // "METHOD TARGET VERSION\r\n"
  return method.size() + target.size() + version.size() + 4 +
         headers.wire_size() + body.size();
}

std::string HttpResponse::serialize() const {
  std::string out;
  out.reserve(128 + body.size());
  out += version;
  out += ' ';
  out += std::to_string(status);
  out += ' ';
  out += reason;
  out += "\r\n";
  serialize_headers(headers, out);
  out += body;
  return out;
}

std::size_t HttpResponse::wire_size() const {
  char digits[16];
  const auto status_end =
      std::to_chars(digits, digits + sizeof digits, status).ptr;
  // "VERSION STATUS REASON\r\n"
  return version.size() + static_cast<std::size_t>(status_end - digits) +
         reason.size() + 4 + headers.wire_size() + body.size();
}

std::optional<HttpRequest> parse_request(std::string_view text) {
  HttpRequest req;
  const auto start = next_line(text);
  if (!start) return std::nullopt;

  const std::size_t sp1 = start->find(' ');
  if (sp1 == std::string_view::npos) return std::nullopt;
  const std::size_t sp2 = start->find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) return std::nullopt;
  req.method = std::string(start->substr(0, sp1));
  req.target = std::string(start->substr(sp1 + 1, sp2 - sp1 - 1));
  req.version = std::string(start->substr(sp2 + 1));
  if (req.method.empty() || req.target.empty()) return std::nullopt;

  if (!parse_headers(text, req.headers)) return std::nullopt;
  req.body = std::string(text);
  return req;
}

std::optional<HttpResponse> parse_response(std::string_view text) {
  HttpResponse resp;
  const auto start = next_line(text);
  if (!start) return std::nullopt;

  const std::size_t sp1 = start->find(' ');
  if (sp1 == std::string_view::npos) return std::nullopt;
  const std::size_t sp2 = start->find(' ', sp1 + 1);
  resp.version = std::string(start->substr(0, sp1));

  const std::string_view status_str =
      sp2 == std::string_view::npos
          ? start->substr(sp1 + 1)
          : start->substr(sp1 + 1, sp2 - sp1 - 1);
  int status = 0;
  const auto [ptr, ec] = std::from_chars(
      status_str.data(), status_str.data() + status_str.size(), status);
  if (ec != std::errc() || ptr != status_str.data() + status_str.size()) {
    return std::nullopt;
  }
  if (status < 100 || status > 599) return std::nullopt;
  resp.status = status;
  resp.reason = sp2 == std::string_view::npos
                    ? std::string()
                    : std::string(start->substr(sp2 + 1));

  if (!parse_headers(text, resp.headers)) return std::nullopt;
  resp.body = std::string(text);
  return resp;
}

std::optional<std::string_view> query_param(std::string_view target,
                                            std::string_view key) {
  const std::size_t qmark = target.find('?');
  if (qmark == std::string_view::npos) return std::nullopt;
  std::string_view query = target.substr(qmark + 1);
  while (!query.empty()) {
    const std::size_t amp = query.find('&');
    const std::string_view pair =
        amp == std::string_view::npos ? query : query.substr(0, amp);
    const std::size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key) {
      return pair.substr(eq + 1);
    }
    if (amp == std::string_view::npos) break;
    query.remove_prefix(amp + 1);
  }
  return std::nullopt;
}

}  // namespace dohperf::transport
