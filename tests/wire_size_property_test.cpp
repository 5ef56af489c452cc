// Property tests for byte pricing without building the bytes: every size
// the simulator charges must equal the length of the real serialisation.
//   - dns::wire_size(m) == dns::encode(m).size(), with compression;
//   - HttpRequest/HttpResponse wire_size() == serialize().size();
//   - the timeline headers format values exactly as printf("%.3f").
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "dns/message.h"
#include "dns/wire.h"
#include "netsim/random.h"
#include "proxy/headers.h"
#include "transport/http.h"

namespace dohperf {
namespace {

using netsim::Rng;

// ------------------------------------------------------------------ DNS

/// A label from a tiny mixed-case alphabet, so suffixes repeat and differ
/// only in case often enough to exercise case-folded compression.
std::string random_label(Rng& rng) {
  static constexpr char kAlphabet[] = "aAbBcC-0";
  std::string label;
  const auto len = rng.uniform_int(1, rng.bernoulli(0.1) ? 63 : 4);
  for (std::int64_t i = 0; i < len; ++i) {
    label.push_back(kAlphabet[rng.uniform_int(0, sizeof(kAlphabet) - 2)]);
  }
  return label;
}

/// A name built on one of a few shared suffixes (in random case), so a
/// message holds many compressible repeats.
dns::DomainName random_name(Rng& rng) {
  static const char* const kSuffixes[] = {"example.com", "EXAMPLE.com",
                                          "ns.Example.COM", "a.b", "A.B", ""};
  std::string text = kSuffixes[rng.uniform_int(0, 5)];
  const auto extra = rng.uniform_int(0, 3);
  for (std::int64_t i = 0; i < extra; ++i) {
    text = random_label(rng) + (text.empty() ? "" : ".") + text;
  }
  if (text.size() > 200) text.resize(200);  // stay under 255 wire octets
  if (!text.empty() && text.back() == '.') text.pop_back();
  return dns::DomainName::parse(text);
}

dns::ResourceRecord random_record(Rng& rng) {
  dns::ResourceRecord rr;
  rr.name = random_name(rng);
  rr.ttl = static_cast<std::uint32_t>(rng.next());
  switch (rng.uniform_int(0, 5)) {
    case 0:
      rr.rdata = dns::ARecord{static_cast<std::uint32_t>(rng.next())};
      break;
    case 1: {
      dns::AaaaRecord aaaa;
      for (auto& b : aaaa.address) b = static_cast<std::uint8_t>(rng.next());
      rr.rdata = aaaa;
      break;
    }
    case 2:
      rr.rdata = dns::NsRecord{random_name(rng)};
      break;
    case 3:
      rr.rdata = dns::CnameRecord{random_name(rng)};
      break;
    case 4: {
      dns::SoaRecord soa;
      soa.mname = random_name(rng);
      soa.rname = random_name(rng);
      soa.serial = static_cast<std::uint32_t>(rng.next());
      soa.minimum = 300;
      rr.rdata = soa;
      break;
    }
    default:
      // Longer than 255 half the time: split into character-strings.
      rr.rdata = dns::TxtRecord{std::string(
          static_cast<std::size_t>(rng.uniform_int(0, 700)), 't')};
      break;
  }
  return rr;
}

dns::ResourceRecord random_opt(Rng& rng) {
  dns::OptRecord opt;
  opt.udp_payload = static_cast<std::uint16_t>(rng.uniform_int(512, 4096));
  const auto options = rng.uniform_int(0, 3);
  for (std::int64_t i = 0; i < options; ++i) {
    dns::EdnsOption option;
    option.code = static_cast<std::uint16_t>(rng.uniform_int(0, 20));
    option.data.resize(static_cast<std::size_t>(rng.uniform_int(0, 40)), 7);
    opt.options.push_back(std::move(option));
  }
  dns::ResourceRecord rr;
  rr.rdata = std::move(opt);
  return rr;
}

dns::Message random_message(Rng& rng, std::size_t records) {
  dns::Message msg = dns::Message::make_query(
      static_cast<std::uint16_t>(rng.next()), random_name(rng));
  if (rng.bernoulli(0.3)) {
    msg.questions.push_back(dns::Question{random_name(rng)});
  }
  for (std::size_t i = 0; i < records; ++i) {
    const auto section = rng.uniform_int(0, 2);
    auto& target = section == 0   ? msg.answers
                   : section == 1 ? msg.authorities
                                  : msg.additionals;
    target.push_back(random_record(rng));
  }
  if (rng.bernoulli(0.5)) msg.additionals.push_back(random_opt(rng));
  return msg;
}

class WireSizeProperty : public ::testing::TestWithParam<int> {
 protected:
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 104729 + 3};
};

TEST_P(WireSizeProperty, MatchesEncodeOnRandomMessages) {
  for (int i = 0; i < 40; ++i) {
    const auto records = static_cast<std::size_t>(rng.uniform_int(0, 12));
    const dns::Message msg = random_message(rng, records);
    const auto wire = dns::encode(msg);
    ASSERT_EQ(dns::wire_size(msg), wire.size()) << "message " << i;
    ASSERT_EQ(dns::decode(wire), msg) << "message " << i;
  }
}

// Enough records to push later names past offset 0x3FFF, where they may
// still point back at earlier suffixes but are never pointed at
// themselves (and the suffix table outgrows its inline capacity).
TEST_P(WireSizeProperty, MatchesEncodePastThePointerLimit) {
  const dns::Message msg = random_message(rng, 400);
  const auto wire = dns::encode(msg);
  ASSERT_GT(wire.size(), 0x3FFFu);
  EXPECT_EQ(dns::wire_size(msg), wire.size());
  EXPECT_EQ(dns::decode(wire), msg);
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, WireSizeProperty,
                         ::testing::Range(0, 25));

TEST(WireSizeTest, CaseFoldedSuffixesCompressToOnePointer) {
  dns::Message msg =
      dns::Message::make_query(1, dns::DomainName::parse("www.Example.COM"));
  dns::ResourceRecord cname;
  cname.name = dns::DomainName::parse("WWW.example.com");
  cname.rdata = dns::CnameRecord{dns::DomainName::parse("cdn.EXAMPLE.com")};
  msg.answers.push_back(cname);
  const auto wire = dns::encode(msg);
  // Header 12 + question (17-octet name + 4) + answer (2-octet pointer
  // + 10 fixed octets + rdata "cdn" label and a pointer: 6 octets).
  EXPECT_EQ(wire.size(), 12u + 21u + 18u);
  EXPECT_EQ(dns::wire_size(msg), wire.size());
}

// ----------------------------------------------------------------- HTTP

std::string random_token(Rng& rng, std::size_t max_len) {
  std::string out;
  const auto len = rng.uniform_int(0, static_cast<std::int64_t>(max_len));
  for (std::int64_t i = 0; i < len; ++i) {
    out.push_back(static_cast<char>(rng.uniform_int('!', '~')));
  }
  return out;
}

transport::HeaderMap random_headers(Rng& rng) {
  transport::HeaderMap headers;
  const auto n = rng.uniform_int(0, 8);
  for (std::int64_t i = 0; i < n; ++i) {
    headers.add(random_token(rng, 20), random_token(rng, 60));
  }
  return headers;
}

TEST(HttpWireSizeProperty, RequestMatchesSerialize) {
  Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    transport::HttpRequest req;
    req.method = random_token(rng, 8);
    req.target = "/dns-query?dns=" + random_token(rng, 200);
    if (rng.bernoulli(0.2)) req.version = random_token(rng, 10);
    req.headers = random_headers(rng);
    req.body = random_token(rng, 300);
    ASSERT_EQ(req.wire_size(), req.serialize().size()) << i;
  }
}

TEST(HttpWireSizeProperty, ResponseMatchesSerialize) {
  Rng rng(19);
  const std::vector<int> statuses = {0,    7,  42,   200,
                                     407,  599, 1000, -1,
                                     -502, std::numeric_limits<int>::max(),
                                     std::numeric_limits<int>::min()};
  const auto last = static_cast<std::int64_t>(statuses.size()) - 1;
  for (int i = 0; i < 500; ++i) {
    transport::HttpResponse resp;
    resp.status = rng.bernoulli(0.5)
                      ? statuses[static_cast<std::size_t>(
                            rng.uniform_int(0, last))]
                      : static_cast<int>(rng.uniform_int(100, 599));
    resp.reason = random_token(rng, 30);
    resp.headers = random_headers(rng);
    resp.body = random_token(rng, 300);
    ASSERT_EQ(resp.wire_size(), resp.serialize().size()) << i;
  }
}

// ------------------------------------------------------- timeline format

std::string printf_ms(double v) {
  char buf[512];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

void expect_formats_like_printf(double v) {
  const proxy::TunTimeline tun{v, -v};
  EXPECT_EQ(proxy::format_tun_timeline(tun),
            "dns=" + printf_ms(v) + " connect=" + printf_ms(-v))
      << v;
}

TEST(TimelineFormatTest, MatchesPrintfOnRandomValues) {
  Rng rng(23);
  for (int i = 0; i < 20000; ++i) {
    expect_formats_like_printf(rng.uniform() * 2000.0);
    const auto exponent = static_cast<int>(rng.uniform_int(-30, 60));
    expect_formats_like_printf(std::ldexp(rng.uniform(), exponent));
  }
}

TEST(TimelineFormatTest, MatchesPrintfOnExactBinaryTies) {
  // Multiples of 1/16 end in 5 at the fourth decimal (0.0625, 0.1875):
  // the rounding of an exact tie must match printf's.
  for (int k = -4000; k <= 4000; ++k) expect_formats_like_printf(k / 16.0);
  for (int k = 0; k <= 4000; ++k) expect_formats_like_printf(k / 2048.0);
}

TEST(TimelineFormatTest, MatchesPrintfOnSignedZeroAndLargeValues) {
  expect_formats_like_printf(0.0);
  expect_formats_like_printf(-0.0);
  for (double v = 1.0; v < 1e300; v *= 7.3) expect_formats_like_printf(v);
  expect_formats_like_printf(std::numeric_limits<double>::max());
  expect_formats_like_printf(std::numeric_limits<double>::denorm_min());
}

TEST(TimelineFormatTest, MatchesPrintfOnRandomBitPatterns) {
  Rng rng(29);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t bits = rng.next();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    if (!std::isfinite(v)) continue;
    expect_formats_like_printf(v);
  }
}

}  // namespace
}  // namespace dohperf
