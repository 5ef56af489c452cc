// Parser robustness sweeps: every decoder must survive arbitrary bytes —
// either parse or reject cleanly (ParseError / nullopt), never crash,
// hang, or read out of bounds.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "dns/errors.h"
#include "dns/wire.h"
#include "measure/dataset_io.h"
#include "netsim/random.h"
#include "obs/json.h"
#include "obs/trace_load.h"
#include "proxy/headers.h"
#include "transport/base64.h"
#include "transport/http.h"

namespace dohperf {
namespace {

std::vector<std::uint8_t> random_bytes(netsim::Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

class FuzzSweep : public ::testing::TestWithParam<int> {
 protected:
  netsim::Rng rng{static_cast<std::uint64_t>(GetParam()) * 2654435761u + 1};
};

TEST_P(FuzzSweep, DnsDecodeNeverCrashesOnRandomBytes) {
  for (int i = 0; i < 200; ++i) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 300));
    const auto bytes = random_bytes(rng, n);
    try {
      (void)dns::decode(bytes);
    } catch (const dns::ParseError&) {
      // Clean rejection is the expected path.
    }
  }
}

TEST_P(FuzzSweep, DnsDecodeSurvivesBitflippedValidMessages) {
  // Start from a valid message and flip a few bytes: the decoder must
  // either produce some message or throw ParseError.
  auto wire = dns::encode(dns::Message::make_query(
      0xABCD, dns::DomainName::parse("f47ac10b.a.com")));
  for (int i = 0; i < 400; ++i) {
    auto corrupted = wire;
    const int flips = static_cast<int>(rng.uniform_int(1, 4));
    for (int f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(corrupted.size()) - 1));
      corrupted[pos] ^= static_cast<std::uint8_t>(1 << rng.uniform_int(0, 7));
    }
    try {
      (void)dns::decode(corrupted);
    } catch (const dns::ParseError&) {
    }
  }
}

TEST_P(FuzzSweep, WireSizeMatchesEncodeOnMutatedWiresThatDecode) {
  // Mutate a compressed response; whatever still decodes must be priced
  // by wire_size() exactly as long as its re-encoding.
  dns::Message resp = dns::Message::make_response(dns::Message::make_query(
      0x2222, dns::DomainName::parse("f47ac10b.Example.com")));
  dns::ResourceRecord cname;
  cname.name = dns::DomainName::parse("F47AC10B.example.com");
  cname.rdata = dns::CnameRecord{dns::DomainName::parse("cdn.example.COM")};
  resp.answers.push_back(cname);
  dns::SoaRecord soa;
  soa.mname = dns::DomainName::parse("ns1.example.com");
  soa.rname = dns::DomainName::parse("hostmaster.Example.com");
  dns::ResourceRecord authority;
  authority.name = dns::DomainName::parse("example.com");
  authority.rdata = soa;
  resp.authorities.push_back(authority);
  const auto wire = dns::encode(resp);
  int decoded = 0;
  for (int i = 0; i < 400; ++i) {
    auto mutated = wire;
    const int flips = static_cast<int>(rng.uniform_int(1, 3));
    for (int f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(mutated.size()) - 1));
      mutated[pos] ^= static_cast<std::uint8_t>(1 << rng.uniform_int(0, 7));
    }
    dns::Message msg;
    try {
      msg = dns::decode(mutated);
    } catch (const dns::ParseError&) {
      continue;
    }
    ++decoded;
    EXPECT_EQ(dns::wire_size(msg), dns::encode(msg).size());
  }
  EXPECT_GT(decoded, 0);
}

TEST_P(FuzzSweep, DnsDecodeSurvivesTruncationAtEveryLength) {
  const auto wire = dns::encode(dns::Message::make_query(
      1, dns::DomainName::parse("some-long-uuid-label.a.com")));
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const std::vector<std::uint8_t> prefix(wire.begin(),
                                           wire.begin() + len);
    EXPECT_THROW((void)dns::decode(prefix), dns::ParseError) << len;
  }
}

TEST_P(FuzzSweep, HttpParsersNeverCrashOnRandomText) {
  for (int i = 0; i < 200; ++i) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 400));
    const auto bytes = random_bytes(rng, n);
    const std::string text(bytes.begin(), bytes.end());
    (void)transport::parse_request(text);   // optional; must not throw
    (void)transport::parse_response(text);
  }
}

TEST_P(FuzzSweep, HttpParsersSurviveMangledValidMessages) {
  transport::HttpResponse resp;
  resp.status = 200;
  resp.headers.add("x-luminati-tun-timeline", "dns=1.0 connect=2.0");
  resp.body = "data";
  const std::string wire = resp.serialize();
  for (int i = 0; i < 300; ++i) {
    std::string mangled = wire;
    const auto pos = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(mangled.size()) - 1));
    mangled[pos] = static_cast<char>(rng.next());
    (void)transport::parse_response(mangled);
  }
}

TEST_P(FuzzSweep, HeaderTimelineParsersNeverCrash) {
  for (int i = 0; i < 300; ++i) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 60));
    const auto bytes = random_bytes(rng, n);
    const std::string text(bytes.begin(), bytes.end());
    (void)proxy::parse_tun_timeline(text);
    (void)proxy::parse_timeline(text);
  }
}

TEST_P(FuzzSweep, Base64DecodeNeverCrashes) {
  for (int i = 0; i < 300; ++i) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 120));
    const auto bytes = random_bytes(rng, n);
    const std::string text(bytes.begin(), bytes.end());
    const auto decoded = transport::base64url_decode(text);
    if (decoded) {
      // Whatever decoded must re-encode to the same text (canonical
      // unpadded form) when the input was canonical.
      EXPECT_EQ(transport::base64url_encode(*decoded).size(),
                text.size());
    }
  }
}

TEST_P(FuzzSweep, DecodeEncodeDecodeIsStable) {
  // If random bytes happen to parse as DNS, re-encoding and re-decoding
  // must be a fixed point (canonicalisation converges in one step).
  for (int i = 0; i < 300; ++i) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(12, 200));
    const auto bytes = random_bytes(rng, n);
    dns::Message first;
    try {
      first = dns::decode(bytes);
    } catch (const dns::ParseError&) {
      continue;
    }
    const auto reencoded = dns::encode(first);
    const dns::Message second = dns::decode(reencoded);
    EXPECT_EQ(first, second);
  }
}

TEST_P(FuzzSweep, JsonParseNeverCrashesOnRandomBytes) {
  for (int i = 0; i < 200; ++i) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 400));
    const auto bytes = random_bytes(rng, n);
    const std::string text(bytes.begin(), bytes.end());
    (void)obs::json::parse(text);  // optional; must not throw
  }
}

TEST_P(FuzzSweep, JsonParseSurvivesMangledValidDocuments) {
  const std::string wire =
      R"({"traceEvents":[{"name":"flow 😀","ph":"X","ts":0,)"
      R"("dur":5,"args":{"id":0,"parent":null}}],"displayTimeUnit":"ms"})";
  ASSERT_TRUE(obs::json::parse(wire).has_value());
  for (int i = 0; i < 300; ++i) {
    std::string mangled = wire;
    const auto pos = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(mangled.size()) - 1));
    mangled[pos] = static_cast<char>(rng.next());
    (void)obs::json::parse(mangled);
  }
}

TEST_P(FuzzSweep, JsonParseRejectsRunawayNestingWithoutOverflow) {
  // Random deep nesting, far past the parser's depth limit: every
  // variant must come back nullopt promptly instead of recursing until
  // the stack dies.
  for (int i = 0; i < 20; ++i) {
    const int depth = static_cast<int>(rng.uniform_int(100, 4000));
    std::string text;
    for (int d = 0; d < depth; ++d) {
      text += rng.uniform_int(0, 1) == 0 ? "[" : "{\"k\":";
    }
    EXPECT_FALSE(obs::json::parse(text).has_value());
  }
}

TEST_P(FuzzSweep, TraceLoaderNeverCrashesAndNeverReturnsPartialSpans) {
  for (int i = 0; i < 100; ++i) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 400));
    const auto bytes = random_bytes(rng, n);
    const std::string text(bytes.begin(), bytes.end());
    const obs::TraceLoadResult result = obs::parse_trace(text, "<fuzz>");
    // Strict contract: either spans or a diagnostic, never both/neither.
    EXPECT_NE(result.spans.empty(), result.error.empty());
  }
}

TEST_P(FuzzSweep, DatasetLoaderLoadsOrThrowsOnMangledFiles) {
  // A small saved dataset whose files are mangled one at a time:
  // bytes overwritten, truncated, or duplicated lines. The loader must
  // either load or throw std::runtime_error, never crash.
  namespace fs = std::filesystem;
  measure::Dataset data;
  measure::ClientInfo info;
  info.exit_id = 17;
  info.iso2 = "SE";
  info.position = {59.33, 18.07};
  data.add_client(info);
  measure::DohRecord doh;
  doh.exit_id = 17;
  doh.iso2 = data.intern("SE");
  doh.provider = data.intern("Quad9");
  doh.run = 1;
  doh.pop_index = 3;
  doh.tdoh_ms = 338.5;
  data.add_doh(doh);
  measure::Do53Record do53;
  do53.exit_id = 17;
  do53.iso2 = data.intern("SE");
  do53.do53_ms = 20.25;
  data.add_do53(do53);

  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("dohperf_fuzz_dataset_" + std::to_string(GetParam()));
  const char* const files[] = {"clients.csv", "doh.csv", "do53.csv",
                               "meta.csv"};
  for (int i = 0; i < 40; ++i) {
    fs::remove_all(dir);
    measure::save_dataset(data, dir.string());
    const fs::path victim = dir / files[rng.uniform_int(0, 3)];
    std::string text;
    {
      std::ifstream in(victim, std::ios::binary);
      text.assign(std::istreambuf_iterator<char>(in), {});
    }
    switch (rng.uniform_int(0, 2)) {
      case 0:  // overwrite a few bytes
        for (int k = 0; k < 3 && !text.empty(); ++k) {
          text[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(text.size()) - 1))] =
              static_cast<char>(rng.next());
        }
        break;
      case 1:  // truncate
        text.resize(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(text.size()))));
        break;
      default:  // duplicate everything after the header
        text += text.substr(text.find('\n') + 1);
        break;
    }
    std::ofstream(victim, std::ios::binary) << text;
    try {
      (void)measure::load_dataset(dir.string());
    } catch (const std::runtime_error&) {
      // Clean rejection is an expected path.
    }
  }
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep, ::testing::Range(0, 8));

}  // namespace
}  // namespace dohperf
