#include "dns/name.h"

#include <cctype>

#include "dns/errors.h"

namespace dohperf::dns {
namespace {

unsigned char ascii_lower(unsigned char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<unsigned char>(c + ('a' - 'A'))
                              : c;
}

/// Three-way, case-insensitive lexicographic comparison of two labels.
int label_compare(std::string_view a, std::string_view b) {
  const std::size_t n = a.size() < b.size() ? a.size() : b.size();
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned char x = ascii_lower(static_cast<unsigned char>(a[i]));
    const unsigned char y = ascii_lower(static_cast<unsigned char>(b[i]));
    if (x != y) return x < y ? -1 : 1;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

/// The label whose length octet sits at `pos` in `wire`.
std::string_view label_at(std::string_view wire, std::size_t pos) {
  return wire.substr(pos + 1, static_cast<unsigned char>(wire[pos]));
}

}  // namespace

bool wire_tail_equal(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (ascii_lower(static_cast<unsigned char>(a[i])) !=
        ascii_lower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

void DomainName::validate_label(std::string_view label) {
  if (label.empty()) throw NameError("empty label");
  if (label.size() > 63) {
    throw NameError("label longer than 63 octets: " + std::string(label));
  }
  // RFC 1035 is permissive about octet values; we require printable,
  // non-dot characters so presentation form round-trips.
  for (const char c : label) {
    if (c == '.' || !std::isprint(static_cast<unsigned char>(c))) {
      throw NameError("invalid character in label");
    }
  }
}

void DomainName::append_label(std::string_view label) {
  wire_.push_back(static_cast<char>(label.size()));
  wire_.append(label);
  ++count_;
}

void DomainName::validate_total_length() const {
  if (wire_length() > 255) throw NameError("name exceeds 255 wire octets");
}

DomainName DomainName::parse(std::string_view text) {
  DomainName name;
  if (text == "." || text.empty()) return name;
  if (text.back() == '.') text.remove_suffix(1);

  name.wire_.reserve(text.size() + 1);
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t dot = text.find('.', start);
    const std::string_view label =
        text.substr(start, dot == std::string_view::npos ? std::string_view::npos
                                                         : dot - start);
    validate_label(label);
    name.append_label(label);
    if (dot == std::string_view::npos) break;
    start = dot + 1;
  }
  name.validate_total_length();
  return name;
}

DomainName DomainName::from_labels(const std::vector<std::string>& labels) {
  DomainName name;
  for (const auto& l : labels) validate_label(l);
  for (const auto& l : labels) name.append_label(l);
  name.validate_total_length();
  return name;
}

DomainName DomainName::from_wire(std::string wire) {
  DomainName name;
  std::size_t count = 0;
  for (std::size_t pos = 0; pos < wire.size();) {
    const std::size_t len = static_cast<unsigned char>(wire[pos]);
    if (pos + 1 + len > wire.size()) throw NameError("truncated label");
    validate_label(std::string_view(wire).substr(pos + 1, len));
    pos += 1 + len;
    ++count;
  }
  name.wire_ = std::move(wire);
  name.validate_total_length();
  name.count_ = static_cast<std::uint8_t>(count);
  return name;
}

std::string_view DomainName::label(std::size_t i) const {
  std::size_t pos = 0;
  for (; i > 0; --i) pos += 1 + static_cast<unsigned char>(wire_[pos]);
  return label_at(wire_, pos);
}

std::string DomainName::to_string() const {
  if (wire_.empty()) return ".";
  std::string out(wire_, 1);
  for (std::size_t pos = static_cast<unsigned char>(wire_[0]);
       pos < out.size();
       pos += 1 + static_cast<unsigned char>(wire_[pos + 1])) {
    out[pos] = '.';
  }
  return out;
}

bool DomainName::is_subdomain_of(const DomainName& ancestor) const {
  if (ancestor.count_ > count_) return false;
  // Compare the trailing labels: skip the extra leading ones so the tail
  // starts on a label boundary.
  std::size_t pos = 0;
  for (std::size_t skip = count_ - ancestor.count_; skip > 0; --skip) {
    pos += 1 + static_cast<unsigned char>(wire_[pos]);
  }
  return wire_tail_equal(std::string_view(wire_).substr(pos), ancestor.wire_);
}

DomainName DomainName::parent() const {
  DomainName p;
  if (empty()) return p;
  p.wire_.assign(wire_, 1 + static_cast<unsigned char>(wire_[0]));
  p.count_ = static_cast<std::uint8_t>(count_ - 1);
  return p;
}

DomainName DomainName::with_subdomain(std::string_view label) const {
  validate_label(label);
  DomainName child;
  child.wire_.reserve(1 + label.size() + wire_.size());
  child.append_label(label);
  child.wire_.append(wire_);
  child.count_ = static_cast<std::uint8_t>(count_ + 1);
  child.validate_total_length();
  return child;
}

bool operator==(const DomainName& a, const DomainName& b) {
  return a.count_ == b.count_ && wire_tail_equal(a.wire_, b.wire_);
}

bool operator<(const DomainName& a, const DomainName& b) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.wire_.size() && j < b.wire_.size()) {
    const std::string_view la = label_at(a.wire_, i);
    const std::string_view lb = label_at(b.wire_, j);
    if (const int c = label_compare(la, lb); c != 0) return c < 0;
    i += 1 + la.size();
    j += 1 + lb.size();
  }
  // Equal up to the shorter name: the proper prefix orders first.
  return i >= a.wire_.size() && j < b.wire_.size();
}

std::size_t DomainNameHash::operator()(const DomainName& n) const {
  std::size_t h = 0xcbf29ce484222325ULL;
  const std::string_view wire = n.wire();
  for (std::size_t pos = 0; pos < wire.size();) {
    const std::string_view label = label_at(wire, pos);
    for (const char c : label) {
      h ^= ascii_lower(static_cast<unsigned char>(c));
      h *= 0x100000001b3ULL;
    }
    h ^= '.';
    h *= 0x100000001b3ULL;
    pos += 1 + label.size();
  }
  return h;
}

}  // namespace dohperf::dns
