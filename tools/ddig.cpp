// ddig — a dig-like lookup tool for the simulated world, with a
// Wireshark-style trace of every message the lookup generated.
//
//   ddig <name> [--country ISO2] [--via do53|doh|dot] [--provider NAME]
//              [--seed N] [--trace 0|1]
//
// `--via doh` also prints the first query's dns/tcp/tls/query breakdown.
// `--trace 1` attaches a span context to the lookup and prints its hop
// leaves: send time, endpoints, bytes, time in flight, and the span (the
// layer) that sent each message. A flag without a value, an unknown
// flag, or a malformed number prints the usage line and exits 2.
//
// Examples:
//   ddig probe-1.a.com --country BR --via do53 --trace 1
//   ddig probe-2.a.com --country SE --via doh --provider Quad9
#include <charconv>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "dns/wire.h"
#include "measure/dot.h"
#include "measure/flows.h"
#include "obs/span.h"
#include "world/world_model.h"

using namespace dohperf;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: ddig <name> [--country ISO2] [--via do53|doh|dot] "
               "[--provider NAME] [--seed N] [--trace 0|1]\n");
  return 2;
}

void print_trace(const obs::SpanContext& spans) {
  const auto hops = spans.hop_view();
  std::printf("\n%zu messages captured:\n", hops.size());
  for (const obs::Span* hop : hops) {
    std::printf(
        "  %9.3f ms  (%7.2f,%8.2f) -> (%7.2f,%8.2f)  %5zu bytes  "
        "(%.2f ms in flight)  %s\n",
        netsim::to_ms(hop->start.time_since_epoch()), hop->from.lat,
        hop->from.lon, hop->to.lat, hop->to.lon, hop->bytes,
        hop->duration_ms(),
        hop->parent == obs::kNoSpan ? "-"
                                    : spans.spans()[hop->parent].name.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string name = argv[1];
  std::map<std::string, std::string> flags = {{"country", "SE"},
                                              {"via", "do53"},
                                              {"provider", "Cloudflare"},
                                              {"seed", "42"},
                                              {"trace", "0"}};
  for (int i = 2; i < argc; i += 2) {
    const auto flag = flags.find(
        std::strncmp(argv[i], "--", 2) == 0 ? argv[i] + 2 : "");
    if (flag == flags.end() || i + 1 >= argc) {
      std::fprintf(stderr, "ddig: bad or incomplete flag %s\n", argv[i]);
      return usage();
    }
    flag->second = argv[i + 1];
  }
  const std::string& iso2 = flags["country"];
  const std::string& via = flags["via"];
  const std::string& provider_name = flags["provider"];
  const std::string& trace = flags["trace"];
  if (trace != "0" && trace != "1") return usage();
  const bool want_trace = trace == "1";

  world::WorldConfig config;
  const std::string& seed = flags["seed"];
  const auto [end, ec] =
      std::from_chars(seed.data(), seed.data() + seed.size(), config.seed);
  if (ec != std::errc() || end != seed.data() + seed.size()) return usage();
  config.only_countries = {iso2};
  world::WorldModel world(config);

  const proxy::ExitNode* client =
      world.brightdata().pick_exit(iso2, world.rng());
  if (client == nullptr) {
    std::fprintf(stderr, "no clients in %s\n", iso2.c_str());
    return 1;
  }

  dns::DomainName target;
  try {
    target = dns::DomainName::parse(name);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad name: %s\n", e.what());
    return 2;
  }
  if (!target.is_subdomain_of(world.origin())) {
    std::fprintf(stderr,
                 "note: %s is outside the simulated zone %s — expect "
                 "REFUSED\n",
                 name.c_str(), world.origin().to_string().c_str());
  }

  obs::SpanContext capture;
  auto net = world.ctx();
  if (want_trace) net.spans = &capture;

  if (via == "do53") {
    auto task = measure::do53_direct(net, client->site,
                                     client->default_resolver, target);
    world.sim().run();
    const double ms = task.result();
    if (ms < 0) {
      std::printf(";; resolution FAILED (non-NOERROR rcode)\n");
    } else {
      std::printf(";; %s via %s (Do53): %.1f ms\n", name.c_str(),
                  client->default_resolver->name().c_str(), ms);
    }
  } else if (via == "doh" || via == "dot") {
    std::size_t provider_index = world.providers().size();
    for (std::size_t p = 0; p < world.providers().size(); ++p) {
      if (world.providers()[p].name() == provider_name) provider_index = p;
    }
    if (provider_index == world.providers().size()) {
      std::fprintf(stderr, "unknown provider %s\n", provider_name.c_str());
      return 2;
    }
    auto& provider = world.providers()[provider_index];
    const geo::Country* country = geo::find_country(iso2);
    const std::size_t pop =
        provider.route(client->site.position, country->region, world.rng());
    if (via == "doh") {
      auto task = measure::doh_direct(
          net, client->site, client->default_resolver,
          world.doh_server(provider_index, pop),
          provider.config().doh_hostname, transport::TlsVersion::kTls13,
          world.origin());
      world.sim().run();
      const auto obs = task.result();
      std::printf(";; %s via %s@%s (DoH): first %.1f ms (dns %.1f, tcp "
                  "%.1f, tls %.1f, query %.1f), reuse %.1f ms\n",
                  name.c_str(), provider.name().c_str(),
                  provider.pops()[pop].city.c_str(), obs.tdoh_ms(),
                  obs.dns_ms, obs.connect_ms, obs.tls_ms, obs.query_ms,
                  obs.tdohr_ms());
    } else {
      auto task = measure::dot_direct(
          net, client->site, client->default_resolver,
          world.doh_server(provider_index, pop),
          provider.config().doh_hostname, transport::TlsVersion::kTls13,
          world.origin());
      world.sim().run();
      const auto obs = task.result();
      std::printf(";; %s via %s@%s (DoT): first %.1f ms, reuse %.1f ms\n",
                  name.c_str(), provider.name().c_str(),
                  provider.pops()[pop].city.c_str(), obs.tdot_ms(),
                  obs.tdotr_ms());
    }
  } else {
    std::fprintf(stderr, "unknown transport %s\n", via.c_str());
    return 2;
  }

  if (want_trace) print_trace(capture);
  return 0;
}
