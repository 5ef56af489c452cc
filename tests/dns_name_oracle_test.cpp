// Oracle test for dns::DomainName's wire-form storage: a reference model
// holding one std::string per label (the straightforward representation)
// must agree with it on every operation whose result feeds a container
// order, a hash or a byte count, and on the encoded message bytes
// (suffix compression included).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dns/message.h"
#include "dns/name.h"
#include "dns/wire.h"
#include "netsim/random.h"

namespace dohperf::dns {
namespace {

char fold(char c) { return c >= 'A' && c <= 'Z' ? c + ('a' - 'A') : c; }

bool label_equal(const std::string& a, const std::string& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](char x, char y) { return fold(x) == fold(y); });
}

bool label_less(const std::string& a, const std::string& b) {
  return std::lexicographical_compare(
      a.begin(), a.end(), b.begin(), b.end(),
      [](char x, char y) { return fold(x) < fold(y); });
}

/// The reference model: a vector of labels.
struct ModelName {
  std::vector<std::string> labels;

  std::string to_string() const {
    if (labels.empty()) return ".";
    std::string out;
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (i != 0) out.push_back('.');
      out += labels[i];
    }
    return out;
  }
  std::size_t wire_length() const {
    std::size_t n = 1;
    for (const auto& l : labels) n += 1 + l.size();
    return n;
  }
  bool is_subdomain_of(const ModelName& ancestor) const {
    if (ancestor.labels.size() > labels.size()) return false;
    return std::equal(ancestor.labels.begin(), ancestor.labels.end(),
                      labels.end() - static_cast<std::ptrdiff_t>(
                                         ancestor.labels.size()),
                      label_equal);
  }
  ModelName parent() const {
    return ModelName{{labels.begin() + 1, labels.end()}};
  }
  ModelName with_subdomain(const std::string& label) const {
    ModelName child{{label}};
    child.labels.insert(child.labels.end(), labels.begin(), labels.end());
    return child;
  }
  std::size_t hash() const {
    std::size_t h = 0xcbf29ce484222325ULL;
    for (const auto& label : labels) {
      for (const char c : label) {
        h ^= static_cast<unsigned char>(fold(c));
        h *= 0x100000001b3ULL;
      }
      h ^= '.';
      h *= 0x100000001b3ULL;
    }
    return h;
  }
  friend bool operator==(const ModelName& a, const ModelName& b) {
    return a.labels.size() == b.labels.size() &&
           std::equal(a.labels.begin(), a.labels.end(), b.labels.begin(),
                      label_equal);
  }
  friend bool operator<(const ModelName& a, const ModelName& b) {
    return std::lexicographical_compare(a.labels.begin(), a.labels.end(),
                                        b.labels.begin(), b.labels.end(),
                                        label_less);
  }
};

/// Labels from a small mixed-case alphabet (with printable octets that
/// equal label lengths, like '0' = 48), so names collide, nest and
/// differ only in case often.
std::string random_label(netsim::Rng& rng) {
  static constexpr char kAlphabet[] = "aAbB0-";
  const auto len = rng.uniform_int(1, rng.bernoulli(0.05) ? 63 : 3);
  std::string label;
  for (std::int64_t i = 0; i < len; ++i) {
    label.push_back(kAlphabet[rng.uniform_int(0, sizeof(kAlphabet) - 2)]);
  }
  return label;
}

ModelName random_model(netsim::Rng& rng) {
  ModelName m;
  const auto count = rng.uniform_int(0, 4);
  for (std::int64_t i = 0; i < count; ++i) {
    m.labels.push_back(random_label(rng));
  }
  while (m.wire_length() > 255) m.labels.pop_back();
  return m;
}

DomainName to_name(const ModelName& m) {
  return DomainName::from_labels(m.labels);
}

class DomainNameOracle : public ::testing::TestWithParam<int> {
 protected:
  netsim::Rng rng{static_cast<std::uint64_t>(GetParam()) * 7727 + 11};
};

TEST_P(DomainNameOracle, UnaryOperationsAgree) {
  for (int i = 0; i < 300; ++i) {
    const ModelName m = random_model(rng);
    const DomainName n = to_name(m);
    ASSERT_EQ(n.to_string(), m.to_string());
    ASSERT_EQ(DomainName::parse(m.to_string()).to_string(), m.to_string());
    ASSERT_EQ(n.wire_length(), m.wire_length());
    ASSERT_EQ(n.label_count(), m.labels.size());
    ASSERT_EQ(DomainNameHash{}(n), m.hash()) << m.to_string();
    for (std::size_t l = 0; l < m.labels.size(); ++l) {
      ASSERT_EQ(n.label(l), m.labels[l]);
    }
    if (!m.labels.empty()) {
      ASSERT_EQ(n.parent().to_string(), m.parent().to_string());
      ASSERT_EQ(n.parent().label_count(), m.parent().labels.size());
    }
    const std::string label = random_label(rng);
    const ModelName child = m.with_subdomain(label);
    if (child.wire_length() <= 255) {
      ASSERT_EQ(n.with_subdomain(label).to_string(), child.to_string());
      ASSERT_EQ(DomainNameHash{}(n.with_subdomain(label)), child.hash());
    } else {
      EXPECT_ANY_THROW((void)n.with_subdomain(label));
    }
  }
}

TEST_P(DomainNameOracle, BinaryOperationsAgree) {
  std::vector<ModelName> models;
  for (int i = 0; i < 60; ++i) {
    models.push_back(random_model(rng));
    // Derived names so that subdomain and prefix relations occur.
    if (!models.back().labels.empty() && rng.bernoulli(0.3)) {
      models.push_back(models.back().parent());
    }
    if (rng.bernoulli(0.3)) {
      ModelName child = models.back().with_subdomain(random_label(rng));
      if (child.wire_length() <= 255) models.push_back(std::move(child));
    }
  }
  std::vector<DomainName> names;
  for (const ModelName& m : models) names.push_back(to_name(m));
  for (std::size_t a = 0; a < models.size(); ++a) {
    for (std::size_t b = 0; b < models.size(); ++b) {
      const std::string pair =
          models[a].to_string() + " vs " + models[b].to_string();
      ASSERT_EQ(names[a] == names[b], models[a] == models[b]) << pair;
      ASSERT_EQ(names[a] < names[b], models[a] < models[b]) << pair;
      ASSERT_EQ(names[a].is_subdomain_of(names[b]),
                models[a].is_subdomain_of(models[b]))
          << pair;
    }
  }
}

// A subdomain test must compare whole labels: a tail of the wire buffer
// that starts inside a label (here at the octet '1' = 49, which reads as
// a length) is not a suffix of the name.
TEST(DomainNameOracleTest, SubdomainComparesWholeLabels) {
  const std::string inner(38, 'z');
  const ModelName self{{"1" + std::string(10, 'a'), inner}};
  const ModelName ancestor{{std::string(10, 'a') + "&" + inner}};
  ASSERT_EQ(ancestor.labels[0].size(), 49u);
  EXPECT_FALSE(self.is_subdomain_of(ancestor));
  EXPECT_FALSE(to_name(self).is_subdomain_of(to_name(ancestor)));
}

// ------------------------------------------------- encoded message bytes

/// Reference encoder for a question section plus CNAME answers, keyed on
/// lowercased presentation suffixes ("b.example.com.") in a std::map.
class ModelEncoder {
 public:
  void u8(std::uint8_t v) { out.push_back(v); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v >> 8));
    u8(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void name(const ModelName& n) {
    for (std::size_t i = 0; i < n.labels.size(); ++i) {
      std::string suffix;
      for (std::size_t j = i; j < n.labels.size(); ++j) {
        for (const char c : n.labels[j]) suffix.push_back(fold(c));
        suffix.push_back('.');
      }
      if (const auto it = offsets_.find(suffix); it != offsets_.end()) {
        u16(static_cast<std::uint16_t>(0xC000 | it->second));
        return;
      }
      if (out.size() <= 0x3FFF) offsets_.emplace(suffix, out.size());
      u8(static_cast<std::uint8_t>(n.labels[i].size()));
      for (const char c : n.labels[i]) u8(static_cast<std::uint8_t>(c));
    }
    u8(0);
  }

  std::vector<std::uint8_t> out;

 private:
  std::map<std::string, std::size_t> offsets_;
};

std::vector<std::uint8_t> model_encode(std::uint16_t id, const ModelName& q,
                                       const std::vector<ModelName>& owners,
                                       const std::vector<ModelName>& targets) {
  ModelEncoder w;
  w.u16(id);
  w.u16(0x0100);  // RD
  w.u16(1);
  w.u16(static_cast<std::uint16_t>(owners.size()));
  w.u16(0);
  w.u16(0);
  w.name(q);
  w.u16(static_cast<std::uint16_t>(RecordType::kA));
  w.u16(static_cast<std::uint16_t>(RecordClass::kIn));
  for (std::size_t i = 0; i < owners.size(); ++i) {
    w.name(owners[i]);
    w.u16(static_cast<std::uint16_t>(RecordType::kCname));
    w.u16(static_cast<std::uint16_t>(RecordClass::kIn));
    w.u32(60);
    const std::size_t len_at = w.out.size();
    w.u16(0);
    w.name(targets[i]);
    const std::size_t rdlength = w.out.size() - len_at - 2;
    w.out[len_at] = static_cast<std::uint8_t>(rdlength >> 8);
    w.out[len_at + 1] = static_cast<std::uint8_t>(rdlength);
  }
  return w.out;
}

/// Encodes a random message both ways; returns its size.
std::size_t expect_encodings_agree(netsim::Rng& rng, std::size_t records) {
  const auto id = static_cast<std::uint16_t>(rng.next());
  const ModelName q = random_model(rng);
  std::vector<ModelName> owners;
  std::vector<ModelName> targets;
  Message msg = Message::make_query(id, to_name(q));
  for (std::size_t i = 0; i < records; ++i) {
    owners.push_back(rng.bernoulli(0.3) ? q : random_model(rng));
    targets.push_back(random_model(rng));
    ResourceRecord rr;
    rr.name = to_name(owners.back());
    rr.ttl = 60;
    rr.rdata = CnameRecord{to_name(targets.back())};
    msg.answers.push_back(std::move(rr));
  }
  const auto expected = model_encode(id, q, owners, targets);
  EXPECT_EQ(encode(msg), expected);
  EXPECT_EQ(wire_size(msg), expected.size());
  return expected.size();
}

TEST_P(DomainNameOracle, EncodedBytesAgree) {
  for (int i = 0; i < 50; ++i) {
    const auto records = static_cast<std::size_t>(rng.uniform_int(0, 40));
    expect_encodings_agree(rng, records);
  }
}

TEST_P(DomainNameOracle, EncodedBytesAgreePastThePointerLimit) {
  EXPECT_GT(expect_encodings_agree(rng, 1200), 0x3FFFu);
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, DomainNameOracle,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace dohperf::dns
