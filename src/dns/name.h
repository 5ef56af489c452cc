// Domain names (RFC 1035 section 3.1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dohperf::dns {

/// A fully-qualified domain name stored in wire form: one contiguous
/// buffer of length-prefixed labels (without the trailing root octet)
/// plus a label count. Copying a name is one buffer copy, and every
/// suffix of the name is a tail of that buffer, so the encoder's
/// compression matches suffixes as byte tails.
///
/// Invariants: each label is 1..63 printable, non-dot octets; the wire
/// length (labels + length octets + root octet) is <= 255; comparison is
/// ASCII case-insensitive as required by RFC 1035 section 2.3.3.
class DomainName {
 public:
  /// The empty (root) name.
  DomainName() = default;

  /// Parses dotted presentation format ("www.example.com", trailing dot
  /// optional). Throws NameError on invalid syntax.
  static DomainName parse(std::string_view text);

  /// Builds from raw labels. Throws NameError on invalid labels.
  static DomainName from_labels(const std::vector<std::string>& labels);

  /// Builds from length-prefixed labels without the root octet (the form
  /// wire() returns). Throws NameError on invalid labels or framing.
  static DomainName from_wire(std::string wire);

  /// The `i`-th label from the left. Requires i < label_count().
  [[nodiscard]] std::string_view label(std::size_t i) const;

  /// Length-prefixed labels, without the root octet.
  [[nodiscard]] std::string_view wire() const { return wire_; }

  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::size_t label_count() const { return count_; }

  /// Presentation form without trailing dot; "." for the root.
  [[nodiscard]] std::string to_string() const;

  /// Length in wire octets (sum of length bytes + labels + root byte).
  [[nodiscard]] std::size_t wire_length() const { return wire_.size() + 1; }

  /// True if this name equals or is underneath `ancestor`
  /// ("a.b.example.com" is under "example.com" and under itself).
  [[nodiscard]] bool is_subdomain_of(const DomainName& ancestor) const;

  /// Returns the name with the leftmost label removed ("parent" name).
  /// Requires !empty().
  [[nodiscard]] DomainName parent() const;

  /// Returns `label` prepended to this name (e.g. "uuid" + "a.com").
  [[nodiscard]] DomainName with_subdomain(std::string_view label) const;

  /// Case-insensitive equality.
  friend bool operator==(const DomainName& a, const DomainName& b);
  /// Case-insensitive, label-wise lexicographic order (for map keys).
  friend bool operator<(const DomainName& a, const DomainName& b);

 private:
  std::string wire_;
  std::uint8_t count_ = 0;

  static void validate_label(std::string_view label);
  void append_label(std::string_view label);
  void validate_total_length() const;
};

/// ASCII case-folded equality of two equal-length byte ranges. Two name
/// tails that both start at a label boundary are equal names exactly
/// when they are equal under this comparison: length octets (1..63) are
/// never letters, so folding leaves them alone.
[[nodiscard]] bool wire_tail_equal(std::string_view a, std::string_view b);

/// FNV-1a hash over the lowercased presentation form.
struct DomainNameHash {
  std::size_t operator()(const DomainName& n) const;
};

}  // namespace dohperf::dns
