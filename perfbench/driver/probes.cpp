#include "probes.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dns/message.h"
#include "dns/wire.h"
#include "geo/coordinates.h"
#include "netsim/event_queue.h"
#include "netsim/latency.h"
#include "netsim/random.h"
#include "resolver/stub.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace dohperf;

/// Keeps `value` alive for the optimizer without storing it anywhere.
template <class T>
void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

constexpr int kPasses = 5;

/// Runs `pass` kPasses times after one untimed warm-up pass and returns
/// the median nanoseconds per operation.
template <class Pass>
double median_ns_per_op(std::uint64_t ops_per_pass, Pass&& pass) {
  if (ops_per_pass == 0) return 0.0;
  pass();
  std::vector<double> samples;
  for (int i = 0; i < kPasses; ++i) {
    const std::int64_t t0 = now_ns();
    pass();
    samples.push_back(static_cast<double>(now_ns() - t0) /
                      static_cast<double>(ops_per_pass));
  }
  std::nth_element(samples.begin(), samples.begin() + kPasses / 2,
                   samples.end());
  return samples[kPasses / 2];
}

/// How many times a pass repeats its input set so that it makes about
/// `target_ops` calls (5 to 70 ms for each probe below).
std::uint64_t rounds_for(std::size_t inputs, std::uint64_t target_ops) {
  return inputs == 0 ? 0 : std::max<std::uint64_t>(1, target_ops / inputs);
}

}  // namespace

double calibration_ns() {
  constexpr std::uint64_t kIterations = 1 << 22;
  return median_ns_per_op(kIterations, [] {
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    double acc = 1.0;
    for (std::uint64_t i = 0; i < kIterations; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc = acc * 0.999999 + static_cast<double>(x & 0xFFFF) * 1e-9;
    }
    keep(x);
    keep(acc);
  });
}

SitePairs site_pairs(world::WorldModel& world) {
  SitePairs pairs;
  const auto providers = world.providers();
  for (const std::string& iso2 : world.countries()) {
    for (const std::uint64_t id : world.brightdata().exits_in(iso2)) {
      const proxy::ExitNode* exit = world.brightdata().find(id);
      if (exit == nullptr) continue;
      for (std::size_t p = 0; p < providers.size(); ++p) {
        const std::size_t pop = providers[p].nearest(exit->site.position);
        pairs.emplace_back(exit->site, world.doh_server(p, pop).site());
      }
    }
  }
  return pairs;
}

double one_way_ns(const netsim::LatencyModel& model, const SitePairs& pairs) {
  const std::uint64_t rounds = rounds_for(pairs.size(), 200'000);
  netsim::Rng rng(7);
  return median_ns_per_op(rounds * pairs.size(), [&] {
    netsim::Duration total{};
    for (std::uint64_t r = 0; r < rounds; ++r) {
      for (const auto& [a, b] : pairs) total += model.one_way(a, b, 120, rng);
    }
    keep(total);
  });
}

double distance_km_ns(const SitePairs& pairs) {
  const std::uint64_t rounds = rounds_for(pairs.size(), 200'000);
  return median_ns_per_op(rounds * pairs.size(), [&] {
    double total = 0.0;
    for (std::uint64_t r = 0; r < rounds; ++r) {
      for (const auto& [a, b] : pairs) {
        total += geo::distance_km(a.position, b.position);
      }
    }
    keep(total);
  });
}

double queue_op_ns(std::size_t depth) {
  depth = std::max<std::size_t>(depth, 1);
  netsim::EventQueue queue;
  queue.reserve(depth + 1);
  netsim::Rng rng(11);
  const auto later = [&rng](netsim::SimTime t) {
    return t + netsim::Duration{1 + rng.uniform_int(0, 1'000'000)};
  };
  for (std::size_t i = 0; i < depth; ++i) {
    queue.push(later(netsim::SimTime{}), [] {});
  }
  constexpr std::uint64_t kOps = 200'000;
  return median_ns_per_op(kOps, [&] {
    for (std::uint64_t i = 0; i < kOps; ++i) {
      const netsim::SimTime t = queue.next_time();
      netsim::EventQueue::Callback fn = queue.pop();
      queue.push(later(t), std::move(fn));
    }
    keep(queue.size());
  });
}

double wire_size_ns(world::WorldModel& world) {
  netsim::Rng rng(13);
  std::vector<dns::Message> messages;
  std::uint32_t address = 0x0A000001;
  const auto add_exchange = [&](const dns::DomainName& name) {
    const auto id = static_cast<std::uint16_t>(rng.next() & 0xFFFF);
    dns::Message query = dns::Message::make_query(id, name);
    dns::Message response = dns::Message::make_response(query);
    dns::ResourceRecord answer;
    answer.name = name;
    answer.ttl = 60;
    answer.rdata = dns::ARecord{address++};
    response.answers.push_back(std::move(answer));
    dns::ResourceRecord ns;
    ns.name = world.origin();
    ns.ttl = 86400;
    ns.rdata = dns::NsRecord{world.origin().with_subdomain("ns1")};
    response.authorities.push_back(std::move(ns));
    messages.push_back(std::move(query));
    messages.push_back(std::move(response));
  };
  // Per session: one cache-buster name per provider and one for Do53,
  // plus each provider's bootstrap hostname.
  for (int session = 0; session < 64; ++session) {
    for (const anycast::Provider& provider : world.providers()) {
      add_exchange(world.origin().with_subdomain(resolver::uuid_label(rng)));
      add_exchange(dns::DomainName::parse(provider.config().doh_hostname));
    }
    add_exchange(world.origin().with_subdomain(resolver::uuid_label(rng)));
  }
  const std::uint64_t rounds = rounds_for(messages.size(), 50'000);
  return median_ns_per_op(rounds * messages.size(), [&] {
    std::size_t total = 0;
    for (std::uint64_t r = 0; r < rounds; ++r) {
      for (const dns::Message& m : messages) total += dns::wire_size(m);
    }
    keep(total);
  });
}

double series_record_ns(const obs::MetricSeries& run) {
  // The hot path records through SeriesRecorder, which builds the key
  // from the metric name and the recorder's labels on every call.
  struct Label {
    std::string metric, provider, country;
  };
  std::vector<Label> labels;
  for (const auto& [key, track] : run.latencies()) {
    if (!key.country.empty()) {
      labels.push_back({key.metric, key.provider, key.country});
    }
  }
  obs::MetricSeries series(run.window());
  obs::SeriesRecorder recorder;
  recorder.series = &series;
  const std::uint64_t rounds = rounds_for(labels.size(), 20'000);
  return median_ns_per_op(rounds * labels.size(), [&] {
    for (std::uint64_t r = 0; r < rounds; ++r) {
      for (const Label& l : labels) {
        recorder.provider = l.provider;
        recorder.country = l.country;
        recorder.latency(l.metric,
                         netsim::SimTime{} + netsim::from_ms(
                                                 static_cast<double>(r % 64) *
                                                 100.0),
                         42.0);
      }
    }
    keep(series.latencies().size());
  });
}

double attribution_record_ns(const obs::AttributionLedger& run) {
  obs::FlowAttribution flow;
  const netsim::SimTime t0{};
  flow.begin(t0);
  const std::uint64_t tunnel = flow.push(obs::Phase::kTunnelConnect, t0);
  flow.pop(tunnel, t0 + netsim::from_ms(80.0));
  const std::uint64_t tls =
      flow.push(obs::Phase::kTlsHandshake, t0 + netsim::from_ms(80.0));
  flow.pop(tls, t0 + netsim::from_ms(140.0));
  flow.end(t0 + netsim::from_ms(200.0));

  std::vector<obs::AttributionKey> keys;
  for (const auto& [key, entry] : run.entries()) keys.push_back(key);
  obs::AttributionLedger ledger;
  const std::uint64_t rounds = rounds_for(keys.size(), 50'000);
  return median_ns_per_op(rounds * keys.size(), [&] {
    for (std::uint64_t r = 0; r < rounds; ++r) {
      for (const obs::AttributionKey& k : keys) {
        ledger.record(k.provider, k.country, k.transport, flow);
      }
    }
    keep(ledger.entries().size());
  });
}

double metrics_lookup_ns(const obs::Metrics& run) {
  std::vector<std::string> names;
  for (const auto& [name, histogram] : run.histograms()) names.push_back(name);
  obs::Metrics metrics;
  const std::uint64_t rounds = rounds_for(names.size(), 200'000);
  return median_ns_per_op(rounds * names.size(), [&] {
    for (std::uint64_t r = 0; r < rounds; ++r) {
      for (const std::string& name : names) {
        metrics.histogram(name).record(42.0);
      }
    }
    keep(metrics.histograms().size());
  });
}

}  // namespace perfbench
