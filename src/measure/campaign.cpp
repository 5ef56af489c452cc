#include "measure/campaign.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "measure/flows.h"
#include "resolver/stub.h"

namespace dohperf::measure {
namespace {

/// Shard-independent description of one retained exit node, precomputed
/// during enumeration so worker shards never touch the geolocation
/// database or the Super Proxy catalog.
struct ExitTask {
  const proxy::ExitNode* exit = nullptr;
  const geo::Country* true_country = nullptr;
  /// Geolocated (/24) position — distances in the dataset use this, as
  /// the paper does, not ground truth.
  geo::LatLon located;
  netsim::Site sp_site;
  /// advertised_iso2 pre-interned on the main thread; records carry this
  /// id so the hot path never touches the string table.
  StrId iso2_id = kNoStrId;
};

/// One Atlas remedy country.
struct AtlasTask {
  std::string iso2;
  StrId iso2_id = kNoStrId;
  int count = 0;
  std::size_t slot_base = 0;  ///< First session slot of this country.
};

/// Everything one session writes. Each session owns exactly one slot, so
/// shards never contend and the merge is a deterministic concatenation in
/// canonical slot order regardless of scheduling.
struct SessionOutput {
  std::vector<DohRecord> doh;
  std::vector<Do53Record> do53;
  std::uint64_t failed = 0;
};

/// The campaign's immutable work description, built once on the main
/// thread: the config, the root of every session's RNG substream, the
/// retained exits and Atlas countries (with their iso2 / provider names
/// pre-interned in canonical order — providers in catalog order, then
/// countries in world order), the canonical session-slot layout, and the
/// client roster. Shards and the replay pass share it read-only; both
/// sink modes consume the same plan, which is what keeps them
/// bit-identical.
struct CampaignPlan {
  CampaignPlan(const CampaignConfig& c, netsim::Rng r) : config(c), root(r) {}

  const CampaignConfig& config;
  /// Session randomness descends from the world seed through stable keys
  /// only; split() is a pure function of (seed, tag), so the root can be
  /// derived regardless of how much the world RNG has already been used.
  netsim::Rng root;
  std::vector<ExitTask> exits;
  std::vector<AtlasTask> atlas;
  std::vector<ClientInfo> clients;  ///< Parallel to `exits`.
  std::size_t n_exit_sessions = 0;  ///< Slots before the Atlas sessions.
  std::size_t n_sessions = 0;
  std::uint64_t discarded_mismatch = 0;
  std::vector<std::string> provider_names;  ///< Canonical catalog order.
  std::vector<StrId> provider_ids;          ///< Parallel to the names.
  /// Flight-recorder flow labels by exit-session flow index:
  /// "doh:<provider>" in catalog order, then "do53".
  std::vector<std::string> flow_labels;
  StringTable names;
  /// Stateless shared-cache model ([cache] enabled; nullptr otherwise).
  /// Built once on the main thread and shared read-only by every shard —
  /// hit probabilities are pure functions, so no shard ever mutates it.
  std::unique_ptr<const resolver::SharedCacheModel> cache_model;
};

/// A shard's window onto the world: the shared immutable model plus the
/// mutable server stack it must use — either a private replica or (serial
/// reference path) the world's own servers.
struct ShardView {
  world::WorldModel& world;
  netsim::Simulator& sim;
  world::SimContext* replica = nullptr;  ///< nullptr = world's own stack.
  /// The shard's own stores, recorded without synchronisation and merged
  /// in canonical shard order after the join; nullptr when the run does
  /// not record a store (CampaignConfig::stores). The replay pass
  /// attaches only its capturing recorder, so replays never double-record.
  obs::Metrics* metrics = nullptr;
  obs::MetricSeries* series = nullptr;
  obs::FlightRecorder* recorder = nullptr;
  obs::SloTracker* slo = nullptr;
  obs::AttributionLedger* attribution = nullptr;

  resolver::DohServer& doh(std::size_t p, std::size_t i) {
    return replica ? replica->doh_server(p, i) : world.doh_server(p, i);
  }
  resolver::AuthoritativeServer& authority() {
    return replica ? replica->authority() : world.authority();
  }
  resolver::RecursiveResolver* local(resolver::RecursiveResolver* r) {
    return replica ? replica->local(r) : r;
  }
};

/// Per-shard, per-exit state persisting across the client's runs: the
/// exit-node copy whose default resolver points into the shard's own
/// stack, the sticky per-provider failure draws, and the hoisted
/// nearest-PoP distance cache (previously a full catalog scan per
/// provider per run).
struct ExitState {
  const ExitTask* task = nullptr;
  proxy::ExitNode local_exit;
  std::vector<bool> provider_failed;
  std::vector<double> nearest_located_miles;
};

/// DOHPERF_THREADS from the environment, falling back to
/// std::thread::hardware_concurrency() (minimum 1).
int threads_from_env() {
  const char* value = std::getenv("DOHPERF_THREADS");
  const int n = value != nullptr ? std::atoi(value) : 0;
  if (n > 0) return n;
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Records each realized fault episode's window as series occupancy
/// counters ("how many sessions had a blackout open in this window") —
/// the join key the health report overlays on the latency series.
/// Windows are already epoch-relative, exactly the series' time base.
/// Occupancy recording horizon: session-long episodes (provider outages
/// end at Duration::max()) are recorded as occupying every window up to
/// here. Sessions at any supported scale finish in single-digit
/// sim-seconds, so the horizon comfortably covers the period that has
/// latency samples to overlay, while keeping the per-episode window walk
/// bounded (120 windows at the default 250 ms width).
constexpr netsim::Duration kFaultRecordHorizon = netsim::from_ms(30000.0);

void record_fault_windows(obs::MetricSeries* series,
                          const netsim::FaultPlan& plan) {
  if (series == nullptr || plan.empty()) return;
  const auto occupy = [series](const char* metric, const auto& ep,
                                std::string provider = {}) {
    series->add_count_range({metric, std::move(provider), {}},
                            ep.window.start,
                            std::min(ep.window.end, kFaultRecordHorizon));
  };
  for (const auto& ep : plan.loss_spikes()) occupy("fault_loss_spike", ep);
  for (const auto& ep : plan.blackouts()) occupy("fault_blackout", ep);
  for (const auto& ep : plan.brownouts()) occupy("fault_brownout", ep);
  for (const auto& ep : plan.provider_outages()) {
    occupy("fault_provider_outage", ep, ep.provider);
  }
}

/// FNV-1a over a short string; used only to derive a stable campaign-time
/// phase per country for the recurring regional-blackout schedule.
std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Fault signals for classifying a failed flow: did a declared window of
/// the session's plan overlap the flow's [start, end) interval? Blackout
/// episodes were centered on this session's own focal sites, so window
/// overlap is the relevant test; provider outages additionally match by
/// name.
obs::FlowSignals window_signals(const netsim::FaultPlan* plan,
                                std::string_view provider,
                                netsim::Duration flow_start,
                                netsim::Duration flow_end) {
  obs::FlowSignals signals;
  if (plan == nullptr) return signals;
  for (const netsim::ProviderOutageEpisode& ep : plan->provider_outages()) {
    if (ep.provider == provider && ep.window.start < flow_end &&
        ep.window.end > flow_start) {
      signals.provider_outage = true;
      break;
    }
  }
  for (const netsim::BlackoutEpisode& ep : plan->blackouts()) {
    if (ep.window.start < flow_end && ep.window.end > flow_start) {
      signals.blackout = true;
      break;
    }
  }
  return signals;
}

/// Enumerates the retained clients (Maxmind cross-check first) and the
/// Atlas remedy countries in the canonical order, interning every name
/// the records will carry. Runs once, on the main thread, before any
/// shard starts — the interner is never touched concurrently.
CampaignPlan build_plan(world::WorldModel& world,
                        const CampaignConfig& config) {
  CampaignPlan plan(config, world.rng().split("campaign-sessions"));

  for (const anycast::Provider& provider : world.providers()) {
    plan.provider_names.push_back(provider.name());
    plan.provider_ids.push_back(plan.names.intern(provider.name()));
    plan.flow_labels.push_back("doh:" + provider.name());
  }
  plan.flow_labels.emplace_back("do53");

  for (const std::string& iso2 : world.countries()) {
    for (const std::uint64_t id : world.brightdata().exits_in(iso2)) {
      const proxy::ExitNode* exit = world.brightdata().find(id);
      const auto geo_record = world.maxmind().lookup(exit->prefix);
      if (!geo_record || geo_record->country_iso2 != exit->advertised_iso2) {
        ++plan.discarded_mismatch;
        continue;
      }
      ExitTask task;
      task.exit = exit;
      task.true_country = geo::find_country(exit->true_iso2);
      task.located = geo_record->position;
      task.sp_site =
          world.brightdata().nearest_super_proxy(exit->site.position).site;
      task.iso2_id = plan.names.intern(exit->advertised_iso2);
      plan.exits.push_back(std::move(task));

      ClientInfo info;
      info.exit_id = exit->id;
      info.iso2 = exit->advertised_iso2;
      info.position = geo_record->position;
      info.nameserver_distance_miles = geo::distance_miles(
          geo_record->position, world.authority().site().position);
      plan.clients.push_back(std::move(info));
    }
  }

  // Canonical session slots: run-major exit sessions, then Atlas
  // sessions in Super Proxy country order.
  plan.n_exit_sessions =
      static_cast<std::size_t>(config.runs_per_client) * plan.exits.size();
  plan.n_sessions = plan.n_exit_sessions;
  for (const std::string_view iso2_sv : proxy::kSuperProxyCountries) {
    const std::string iso2(iso2_sv);
    if (!world.atlas().has_probes_in(iso2)) continue;
    AtlasTask t;
    t.iso2 = iso2;
    t.iso2_id = plan.names.intern(iso2);
    t.count = config.atlas_measurements_per_country;
    t.slot_base = plan.n_sessions;
    plan.n_sessions += static_cast<std::size_t>(t.count);
    plan.atlas.push_back(std::move(t));
  }

  if (config.cache.enabled) {
    plan.cache_model =
        std::make_unique<resolver::SharedCacheModel>(config.cache);
  }
  return plan;
}

ExitState make_exit_state(ShardView& view, const CampaignPlan& plan,
                          std::size_t e) {
  const ExitTask& task = plan.exits[e];
  ExitState st;
  st.task = &task;
  st.local_exit = *task.exit;
  st.local_exit.default_resolver = view.local(task.exit->default_resolver);

  const auto providers = view.world.providers();
  st.provider_failed.reserve(providers.size());
  st.nearest_located_miles.reserve(providers.size());
  for (const anycast::Provider& provider : providers) {
    // Failures persist per (client, provider) pair — a resolver that is
    // unreachable from a client's network stays unreachable across runs,
    // which is what makes Table 3's per-provider client counts fall
    // short of the Do53 total.
    netsim::Rng failure_rng =
        plan.root.split("provider-fail-" + provider.name() + "-" +
                        std::to_string(task.exit->id));
    st.provider_failed.push_back(
        failure_rng.bernoulli(plan.config.provider_failure_rate));

    // Hoisted per-(exit, provider) nearest-PoP distance: the distance to
    // the closest PoP *as geolocation sees it* (Figure 6's baseline) only
    // depends on the client's located position, so compute it once per
    // exit instead of once per provider per run. Scaling by kMilesPerKm
    // is monotone under rounding, so this equals the minimum over
    // geo::distance_miles.
    st.nearest_located_miles.push_back(geo::km_to_miles(
        provider.router().sites().nearest(task.located).km));
  }
  return st;
}

/// One flow's bracket: the session's counters and clock before it, and
/// whether the replay pass wants its span tree.
struct FlowMark {
  std::uint32_t index = 0;
  obs::MetricCounters before;
  netsim::SimTime start{};
  bool capture = false;
};

/// The scaffold every session runs its flows in, shared by exit and Atlas
/// sessions: the RNG substream and NetCtx, session-private metrics merged
/// into the shard's on destruction, the epoch, the series and
/// attribution labels, the slot's place on the campaign-time axis, the
/// fault plan, and the flow bracket and outcome bookkeeping. It lives in
/// the session coroutine's frame; nothing here suspends.
///
/// `key` seeds the session's RNG substream. Sessions are keyed by what
/// they measure ("shard-exit-<id>-run-<n>" / "shard-atlas-<iso2>-<i>") —
/// never by shard index or scheduling order — which is what makes the
/// dataset independent of the thread count.
struct Session {
  Session(ShardView& v, const CampaignPlan& p, std::uint64_t s,
          std::string k, const std::string& country, SessionOutput& o)
      : view(v),
        plan(p),
        out(o),
        slot(s),
        key(std::move(k)),
        rng(p.root.split(key)),
        net{v.sim, v.world.latency(), rng},
        epoch(v.sim.now()),
        // Virtual campaign time: a pure function of the slot, so SLO
        // windows and recurring fault schedules are shard-invariant by
        // construction.
        campaign_base(p.config.session_spacing *
                      static_cast<std::int64_t>(s)) {
    net.metrics = &metrics;
    net.series = {view.series, epoch, std::string(), country};
    // Flows install their own FlowAttribution; with no ledger the
    // recorder is inert.
    net.attribution.ledger = view.attribution;
    net.attribution.country = country;
  }
  /// Sessions keep flow-local counters so the flight recorder's
  /// before/after snapshots cannot see concurrent sessions' increments;
  /// integer merges are commutative, so the frame destruction order
  /// cannot change the shard totals.
  ~Session() {
    if (view.metrics != nullptr) view.metrics->merge(metrics);
  }
  Session(const Session&) = delete;

  /// Points the series and attribution labels at the next flow's
  /// provider ("Do53" for the Do53 flows).
  void label(std::string_view provider) {
    net.series.provider = provider;
    net.attribution.provider = provider;
  }

  /// Samples this session's fault episodes from a private substream
  /// (split() is pure, so the session's main draw sequence is untouched)
  /// anchored to the session's own start: absolute sim time depends on
  /// how many sessions this shard ran before, but the epoch-relative
  /// clock does not. The recurring campaign-time schedules translate
  /// into the same epoch with no RNG, a pure function of (config, slot,
  /// country).
  void arm_faults(std::span<const geo::LatLon> focal,
                  std::span<const std::string> providers,
                  const geo::LatLon& region) {
    const netsim::FaultPlanConfig& faults = plan.config.faults;
    if (!faults.enabled()) return;
    fault_plan = netsim::FaultPlan::sample(faults, focal, providers,
                                           rng.split("fault-plan"));
    if (faults.recurring_enabled()) {
      fault_plan.append_recurring_episodes(
          faults, campaign_base, kFaultRecordHorizon, providers, region,
          netsim::Duration{static_cast<std::int64_t>(
              fnv1a64(net.series.country) >> 1)});
    }
    net.faults = &fault_plan;
    net.fault_epoch = epoch;
    record_fault_windows(view.series, fault_plan);
  }

  /// Opens flow `index`. Examination is span-free (sim-time duration +
  /// counter deltas); spans are recorded only on the replay pass, and
  /// only for the flows the recorder asks for. The scratch tree is
  /// session-owned: sessions interleave on the shard simulator.
  FlowMark begin_flow(std::uint32_t index) {
    const bool capture =
        view.recorder != nullptr && view.recorder->wants_spans(slot, index);
    if (capture) {
      flow_spans.clear();
      net.spans = &flow_spans;
    }
    return {index, metrics.counters, view.sim.now(), capture};
  }

  /// Closes a flow: hands its span tree to a capturing recorder, or lets
  /// the recorder examine it (a no-op when the recorder is disabled).
  void end_flow(const FlowMark& flow, const std::string& flow_label) {
    if (flow.capture) {
      net.spans = nullptr;
      view.recorder->capture_flow(slot, flow.index, flow_spans, epoch);
    } else if (view.recorder != nullptr) {
      view.recorder->examine_flow(
          slot, flow.index, key, flow_label,
          netsim::ms_between(flow.start, view.sim.now()), flow.before,
          metrics.counters);
    }
  }

  /// A measurement that produced no result: counted as failed and
  /// classified for the SLO tracker from `signals`.
  void fail(std::string_view provider, const obs::FlowSignals& signals) {
    ++out.failed;
    ++metrics.counters.failures;
    net.series.count("failure", view.sim.now());
    record_outcome(provider, signals);
  }

  /// Settles a finished flow's outcome: a failure is classified by the
  /// fault windows it overlapped, a success by its brownout delays.
  void settle(std::string_view provider, const FlowMark& flow, bool ok,
              double latency_ms = 0.0, bool has_latency = false) {
    if (!ok) {
      return fail(provider, window_signals(net.faults, provider,
                                           flow.start - epoch,
                                           view.sim.now() - epoch));
    }
    record_outcome(provider,
                   {.ok = true,
                    .brownout_delays = metrics.counters.brownout_delays -
                                       flow.before.brownout_delays},
                   latency_ms, has_latency);
  }

  /// Classifies a flow for the SLO tracker, at the slot's campaign time.
  void record_outcome(std::string_view provider,
                      const obs::FlowSignals& signals,
                      double latency_ms = 0.0, bool has_latency = false) {
    if (view.slo == nullptr) return;
    view.slo->record(provider, net.series.country,
                     campaign_base + (view.sim.now() - epoch),
                     obs::classify_flow_outcome(signals), latency_ms,
                     has_latency);
  }

  ShardView& view;
  const CampaignPlan& plan;
  SessionOutput& out;
  std::uint64_t slot;
  std::string key;
  netsim::Rng rng;
  obs::Metrics metrics;
  netsim::NetCtx net;
  netsim::SimTime epoch;
  netsim::Duration campaign_base;
  netsim::FaultPlan fault_plan;
  obs::SpanContext flow_spans;
};

/// One DoH measurement through the proxy against provider `p`.
netsim::Task<void> doh_step(Session& s, const ExitState& st, int run,
                            std::size_t p) {
  ShardView& view = s.view;
  const ExitTask& task = *st.task;
  const proxy::ExitNode& exit = st.local_exit;
  anycast::Provider& provider = view.world.providers()[p];
  s.label(provider.name());
  const bool provider_out =
      s.net.faults != nullptr &&
      s.net.faults->provider_down(provider.name(), s.net.fault_now());
  if (st.provider_failed[p] || provider_out) {
    s.fail(provider.name(), {.provider_unreachable = st.provider_failed[p],
                             .provider_outage = provider_out});
    co_return;
  }

  const std::size_t pop_index = provider.route(
      exit.site.position, task.true_country->region, s.net.rng);

  DohProxyParams params;
  params.client = view.world.measurement_client();
  params.super_proxy = task.sp_site;
  params.exit = &exit;
  params.doh = &view.doh(p, pop_index);
  params.doh_hostname = provider.config().doh_hostname;
  params.tls = view.world.config().tls_version;
  params.origin = view.world.origin();

  const FlowMark flow = s.begin_flow(static_cast<std::uint32_t>(p));
  const DohProxyObservation obs =
      co_await doh_via_proxy(s.net, std::move(params));
  s.end_flow(flow, s.plan.flow_labels[p]);
  if (!obs.ok) {
    s.settle(provider.name(), flow, false);
    co_return;
  }

  DohRecord rec;
  rec.exit_id = exit.id;
  rec.iso2 = task.iso2_id;
  rec.provider = s.plan.provider_ids[p];
  rec.run = run;
  rec.pop_index = static_cast<std::uint32_t>(pop_index);
  rec.pop_distance_miles = geo::distance_miles(
      task.located, provider.pops()[pop_index].position);
  // "Potential improvement": distance to the PoP actually used minus
  // distance to the closest PoP *as geolocation sees it* (Figure 6).
  rec.potential_improvement_miles =
      rec.pop_distance_miles - st.nearest_located_miles[p];
  rec.tdoh_ms = estimate_tdoh_ms(obs.inputs);
  rec.tdohr_ms = estimate_tdohr_ms(obs.inputs);
  s.metrics.histogram(provider.name()).record(rec.tdoh_ms);
  s.net.series.latency("doh_ms", view.sim.now(), rec.tdoh_ms);
  s.settle(provider.name(), flow, true, rec.tdoh_ms, true);
  s.out.doh.push_back(rec);
}

/// Folds one warm session's per-query latencies and pool counters into
/// the session's metrics and series.
void record_warm(Session& s, const WarmPathObservation& wobs,
                 const char* prefix) {
  for (const WarmQueryObservation& q : wobs.queries) {
    if (!q.valid()) continue;
    // Per-query-index latency histograms; the tail shares one bucket so
    // the histogram count stays bounded for long sessions.
    const int index_bucket = std::min(q.query_index, 7);
    s.metrics
        .histogram(std::string(prefix) + "_warm_q" +
                   std::to_string(index_bucket))
        .record(q.ms);
    s.net.series.latency(std::string(prefix) + "_warm_ms",
                         s.view.sim.now(), q.ms);
  }
  obs::MetricCounters& c = s.metrics.counters;
  c.pool_cold += wobs.pool.cold;
  c.pool_reuses += wobs.pool.reused;
  c.pool_resumptions += wobs.pool.resumed;
  c.pool_evictions += wobs.pool.evictions;
  if (!wobs.ok) {
    ++c.failures;
    s.net.series.count("failure", s.view.sim.now());
  }
}

/// The warm block: steady-state pricing under [cache]/[reuse], one warm
/// DoH session per surviving provider and one warm Do53 session.
netsim::Task<void> warm_step(Session& s, const ExitState& st) {
  ShardView& view = s.view;
  const CampaignConfig& config = s.plan.config;
  const proxy::ExitNode& exit = st.local_exit;
  for (std::size_t p = 0; p < view.world.providers().size(); ++p) {
    anycast::Provider& provider = view.world.providers()[p];
    if (st.provider_failed[p]) continue;
    s.label(provider.name());
    const std::size_t pop_index = provider.route(
        exit.site.position, st.task->true_country->region, s.net.rng);
    WarmDohParams wp;
    wp.vantage = exit.site;
    wp.default_resolver = exit.default_resolver;
    wp.doh = &view.doh(p, pop_index);
    wp.doh_hostname = provider.config().doh_hostname;
    wp.tls = view.world.config().tls_version;
    wp.origin = view.world.origin();
    wp.cache = s.plan.cache_model.get();
    // Centralized deployment: the provider PoP aggregates the whole
    // configured population behind one cache.
    wp.population = config.cache.population;
    wp.reuse = config.reuse;
    record_warm(s, co_await doh_warm_path(s.net, std::move(wp)), "doh");
  }

  // Do53 counterpart: same think-time/query schedule, but UDP (no pool)
  // and a *distributed* cache — only this ISP's share of the population
  // warms the default resolver.
  s.label("Do53");
  WarmDo53Params dp;
  dp.vantage = exit.site;
  dp.resolver = exit.default_resolver;
  dp.origin = view.world.origin();
  dp.cache = s.plan.cache_model.get();
  dp.population = config.cache.population * config.cache.isp_share;
  dp.reuse = config.reuse;
  record_warm(s, co_await do53_warm_path(s.net, std::move(dp)), "do53");
}

/// One Do53 measurement through the proxy via the exit's default
/// resolver.
netsim::Task<void> do53_step(Session& s, const ExitState& st, int run) {
  ShardView& view = s.view;
  const proxy::ExitNode& exit = st.local_exit;
  s.label("Do53");
  Do53ProxyParams params;
  params.client = view.world.measurement_client();
  params.super_proxy = st.task->sp_site;
  params.exit = &exit;
  params.web_server = view.authority().site();  // co-hosted with a.com NS
  params.origin = view.world.origin();
  params.resolve_at_super_proxy =
      proxy::resolves_dns_at_super_proxy(exit.advertised_iso2);
  params.authority = &view.authority();

  const auto index = static_cast<std::uint32_t>(s.plan.provider_ids.size());
  const FlowMark flow = s.begin_flow(index);
  const Do53ProxyObservation obs =
      co_await do53_via_proxy(s.net, std::move(params));
  s.end_flow(flow, s.plan.flow_labels[index]);
  s.settle("Do53", flow, obs.ok, obs.tun.dns_ms,
           !obs.resolved_at_super_proxy);
  // In Super Proxy countries the header value reflects the Super Proxy's
  // own resolution and is discarded; Atlas fills the gap.
  if (!obs.ok || obs.resolved_at_super_proxy) co_return;
  s.metrics.histogram("Do53").record(obs.tun.dns_ms);
  s.net.series.latency("do53_ms", view.sim.now(), obs.tun.dns_ms);
  s.out.do53.push_back({.exit_id = exit.id,
                        .iso2 = st.task->iso2_id,
                        .run = run,
                        .do53_ms = obs.tun.dns_ms});
}

/// One client session: one DoH measurement per studied provider, the
/// warm block when [cache] or [reuse] is on, then one Do53 measurement.
netsim::Task<void> exit_session(ShardView& view, const ExitState& st,
                                int run, std::uint64_t slot,
                                const CampaignPlan& plan,
                                SessionOutput& out) {
  const proxy::ExitNode& exit = st.local_exit;
  Session s(view, plan, slot,
            "shard-exit-" + std::to_string(exit.id) + "-run-" +
                std::to_string(run),
            exit.advertised_iso2, out);
  const geo::LatLon focal[] = {exit.site.position, st.task->sp_site.position};
  s.arm_faults(focal, plan.provider_names, exit.site.position);

  for (std::size_t p = 0; p < plan.provider_ids.size(); ++p) {
    co_await doh_step(s, st, run, p);
  }
  // Disabled configs skip the warm block without touching net.rng, so
  // the cold measurements and the Do53 flow see exactly the draw
  // sequence they always did and datasets stay byte-identical.
  if (plan.config.cache.enabled || plan.config.reuse.enabled) {
    co_await warm_step(s, st);
  }
  co_await do53_step(s, st, run);
}

/// One Atlas Do53 measurement in `t`'s country.
netsim::Task<void> atlas_session(ShardView& view, const AtlasTask& t,
                                 int index, std::uint64_t slot,
                                 const CampaignPlan& plan,
                                 SessionOutput& out) {
  Session s(view, plan, slot,
            "shard-atlas-" + t.iso2 + "-" + std::to_string(index), t.iso2,
            out);
  s.label("Do53");
  const proxy::AtlasProbe* probe =
      view.world.atlas().pick_probe(t.iso2, s.net.rng);
  if (probe == nullptr) co_return;
  proxy::AtlasProbe local_probe = *probe;
  local_probe.default_resolver = view.local(probe->default_resolver);

  // Atlas probes see the same weather as the proxy clients: episodes
  // centred near the probe itself (no Super Proxy leg, no DoH provider).
  const geo::LatLon focal[] = {local_probe.site.position};
  s.arm_faults(focal, {}, local_probe.site.position);

  const FlowMark flow = s.begin_flow(0);
  // Fresh UUID per measurement (cache-miss by construction).
  const double ms = co_await view.world.atlas().measure_do53(
      s.net, local_probe,
      view.world.origin().with_subdomain(resolver::uuid_label(s.net.rng)));
  s.end_flow(flow, "atlas_do53");
  s.settle("Do53", flow, ms >= 0, ms, true);
  if (ms < 0) co_return;
  s.metrics.histogram("Do53").record(ms);
  s.net.series.latency("do53_ms", view.sim.now(), ms);
  s.out.do53.push_back({.exit_id = kAtlasExitId,
                        .iso2 = t.iso2_id,
                        .via_atlas = true,
                        .do53_ms = ms});
}

/// Starts the session that owns canonical `slot` — run-major exit slots
/// first, then the Atlas countries' — writing into `out`.
/// `exit_state(e)` supplies exit `e`'s state.
template <class ExitStateOf>
netsim::Task<void> launch(ShardView& view, const CampaignPlan& plan,
                          std::size_t slot, ExitStateOf&& exit_state,
                          SessionOutput& out) {
  if (slot < plan.n_exit_sessions) {
    const std::size_t n_exits = plan.exits.size();
    return exit_session(view, exit_state(slot % n_exits),
                        static_cast<int>(slot / n_exits), slot, plan, out);
  }
  const AtlasTask& t = *std::prev(std::ranges::upper_bound(
      plan.atlas, slot, {}, &AtlasTask::slot_base));
  return atlas_session(view, t, static_cast<int>(slot - t.slot_base), slot,
                       plan, out);
}

/// Runs every session owned by one shard (exit index and Atlas-country
/// index modulo shard count) against `view`'s server stack. Returns the
/// shard's self-profile (events, sessions, wall time, queue pressure,
/// arena counters).
///
/// Sink modes: with `retained` the session rows land in the canonical
/// per-slot outputs and survive the run; with `stream` each drained
/// batch's rows are folded into the shard's StreamSink in ascending slot
/// order and the slot buffers are recycled (capacity kept), so resident
/// memory is bounded by one batch regardless of the session count.
///
/// All coroutine frames allocated inside this function come from the
/// shard's slab arena (ArenaScope installs it on this thread); by the
/// final drain every frame has been recycled, and the arena's high-water
/// mark is published in the profile.
ShardProfile run_shard(ShardView view, std::size_t shard,
                       std::size_t n_shards, const CampaignPlan& plan,
                       std::vector<SessionOutput>* retained,
                       StreamSink* stream) {
  const auto wall_start = std::chrono::steady_clock::now();
  ShardProfile profile;
  profile.shard = static_cast<int>(shard);
  std::uint64_t events = 0;

  netsim::Arena arena;
  {
    const netsim::ArenaScope arena_scope(arena);
    const std::size_t batch_cap =
        std::max<std::size_t>(1, plan.config.batch_size);

    // Per-exit state for this shard's slice: exit e at e / n_shards.
    std::vector<ExitState> states;
    for (std::size_t e = shard; e < plan.exits.size(); e += n_shards) {
      states.push_back(make_exit_state(view, plan, e));
    }
    const auto exit_state = [&](std::size_t e) -> const ExitState& {
      return states[e / n_shards];
    };

    // Run sessions in batches so coroutine frames stay bounded. In
    // streaming mode each batch position owns a recycled SessionOutput;
    // tasks are pushed in ascending slot order within the shard, so the
    // fold below visits rows in canonical order.
    std::vector<SessionOutput> ring;
    if (stream != nullptr) ring.resize(batch_cap);
    std::vector<netsim::Task<void>> batch;
    batch.reserve(batch_cap);
    const auto drain = [&] {
      events += view.sim.run();
      for (auto& task : batch) task.result();  // propagate exceptions
      if (stream != nullptr) {
        for (std::size_t i = 0; i < batch.size(); ++i) {
          SessionOutput& s = ring[i];
          stream->fold(s.doh, s.do53, s.failed);
          s.doh.clear();
          s.do53.clear();
          s.failed = 0;
        }
      }
      batch.clear();
    };
    const auto start = [&](std::size_t slot) {
      SessionOutput& out =
          retained != nullptr ? (*retained)[slot] : ring[batch.size()];
      batch.push_back(launch(view, plan, slot, exit_state, out));
      ++profile.sessions;
      if (batch.size() >= batch_cap) drain();
    };

    for (int run = 0; run < plan.config.runs_per_client; ++run) {
      for (std::size_t e = shard; e < plan.exits.size(); e += n_shards) {
        start(static_cast<std::size_t>(run) * plan.exits.size() + e);
      }
    }
    drain();

    // The Atlas remedy for the 11 Super Proxy countries.
    for (std::size_t c = shard; c < plan.atlas.size(); c += n_shards) {
      const AtlasTask& t = plan.atlas[c];
      for (int i = 0; i < t.count; ++i) {
        start(t.slot_base + static_cast<std::size_t>(i));
      }
    }
    drain();
  }
  profile.arena = arena.stats();

  profile.events = events;
  profile.queue_high_water = view.sim.queue_high_water();
  profile.wall_seconds = seconds_since(wall_start);
  return profile;
}

/// Replay pass: re-derives the span trees of the retained anomalies by
/// re-running exactly their sessions on a fresh replica with span
/// recording on. Sessions are keyed by what they measure and behave
/// epoch-relatively (the serial-vs-sharded bit-identity rests on the
/// same property), so a replayed flow records the identical tree it
/// would have recorded the first time — which is what lets the hot path
/// examine millions of flows without materializing a single span.
void replay_anomaly_spans(world::WorldModel& world, const CampaignPlan& plan,
                          obs::FlightRecorder& recorder) {
  if (recorder.retained().empty()) return;

  std::vector<obs::FlowKey> keys;
  for (const auto& [key, rec] : recorder.retained()) keys.push_back(key);

  obs::FlightRecorder capturer(recorder.policy());
  capturer.capture_spans_for(keys);

  const std::unique_ptr<world::SimContext> replica = world.make_replica();
  ShardView view{.world = world,
                 .sim = replica->sim(),
                 .replica = replica.get(),
                 .recorder = &capturer};
  std::optional<ExitState> state;
  const auto exit_state = [&](std::size_t e) -> const ExitState& {
    return state.emplace(make_exit_state(view, plan, e));
  };

  for (std::size_t k = 0; k < keys.size(); ++k) {
    const std::uint64_t slot = keys[k].first;
    if (k > 0 && keys[k - 1].first == slot) continue;  // session done
    SessionOutput scratch;  // replay output is never published
    netsim::Task<void> task = launch(view, plan, slot, exit_state, scratch);
    view.sim.run();
    task.result();
  }

  for (const auto& [key, spans] : capturer.captured()) {
    recorder.attach_spans(key, spans);
  }
}

/// Shared execution engine behind both sink modes: spins up the shard
/// workers (or the serial reference path when `shards` == 0), routes
/// each shard's rows into either the retained per-slot outputs or its
/// private StreamSink, merges the shards' store bundles in canonical
/// shard order, runs the anomaly replay pass, and returns the shard
/// profiles.
std::vector<ShardProfile> execute_campaign(
    world::WorldModel& world, const CampaignPlan& plan, int shards,
    std::vector<SessionOutput>* retained, std::vector<StreamSink>* sinks,
    ObsStores& out) {
  const CampaignConfig& config = plan.config;
  const std::size_t n_shards = static_cast<std::size_t>(std::max(shards, 1));
  std::vector<ObsStores> shard_stores(n_shards, ObsStores(config));
  std::vector<ShardProfile> profiles(n_shards);

  // A store the run does not record is never attached: its shard copies
  // stay empty, so the merge produces the empty store.
  const auto run_one = [&](std::size_t si, netsim::Simulator& sim,
                           world::SimContext* replica) {
    ObsStores& b = shard_stores[si];
    const auto attach = [&](unsigned bit, auto& store) {
      return (config.stores & bit) != 0 ? &store : nullptr;
    };
    const ShardView view{world,
                         sim,
                         replica,
                         &b.metrics,
                         attach(store::kSeries, b.series),
                         attach(store::kRecorder, b.anomalies),
                         attach(store::kSlo, b.slo),
                         attach(store::kAttribution, b.attribution)};
    profiles[si] = run_shard(view, si, n_shards, plan, retained,
                             sinks != nullptr ? &(*sinks)[si] : nullptr);
  };

  if (shards == 0) {
    // Serial reference path: the world's own simulator and servers.
    run_one(0, world.sim(), nullptr);
  } else {
    std::vector<std::thread> workers;
    std::vector<std::exception_ptr> errors(n_shards);
    workers.reserve(n_shards);
    for (std::size_t si = 0; si < n_shards; ++si) {
      workers.emplace_back([&, si] {
        try {
          // Each worker builds (and owns) its replica so even the server
          // stack replication runs in parallel.
          const std::unique_ptr<world::SimContext> replica =
              world.make_replica();
          run_one(si, replica->sim(), replica.get());
        } catch (...) {
          errors[si] = std::current_exception();
        }
      });
    }
    for (auto& w : workers) w.join();
    for (const auto& error : errors) {
      if (error) std::rethrow_exception(error);
    }
  }

  out = ObsStores(config);
  for (const ObsStores& b : shard_stores) out.merge(b);
  // Fill in the retained anomalies' span trees by deterministically
  // re-running just those sessions (≤ ring_capacity of them) with span
  // recording on — the hot path above examined every flow span-free.
  // With the recorder off nothing was retained and no replica is built.
  replay_anomaly_spans(world, plan, out.anomalies);
  return profiles;
}

}  // namespace

void ObsStores::merge(const ObsStores& other) {
  metrics.merge(other.metrics);
  series.merge(other.series);
  anomalies.merge(other.anomalies);
  anomalies.finalize();
  slo.merge(other.slo);
  attribution.merge(other.attribution);
}

Campaign::Campaign(world::WorldModel& world, CampaignConfig config)
    : world_(world), config_(config), stores_(config_) {}

Dataset Campaign::run(std::optional<int> shards) {
  Dataset out;
  execute(shards, &out, nullptr);
  return out;
}

StreamSink Campaign::run_streaming(std::optional<int> shards) {
  StreamSink out;
  execute(shards, nullptr, &out);
  return out;
}

void Campaign::execute(std::optional<int> shards, Dataset* retained,
                       StreamSink* streamed) {
  const auto wall_start = std::chrono::steady_clock::now();
  const int n = shards             ? std::max(*shards, 0)
                 : config_.threads > 0 ? config_.threads
                                       : threads_from_env();
  const auto n_shards = static_cast<std::size_t>(std::max(n, 1));
  CampaignPlan plan = build_plan(world_, config_);

  std::vector<SessionOutput> slots;
  std::vector<StreamSink> sinks;
  if (retained != nullptr) {
    slots.resize(plan.n_sessions);
  } else {
    // Canonical exit enumeration handed to every shard sink so unique-
    // client bitsets and client-stat arrays agree across shard counts.
    std::vector<std::uint64_t> exit_ids;
    std::vector<StrId> exit_iso2;
    std::vector<double> exit_ns_distance;
    for (std::size_t e = 0; e < plan.exits.size(); ++e) {
      exit_ids.push_back(plan.exits[e].exit->id);
      exit_iso2.push_back(plan.exits[e].iso2_id);
      exit_ns_distance.push_back(plan.clients[e].nameserver_distance_miles);
    }
    sinks.reserve(n_shards);
    for (std::size_t s = 0; s < n_shards; ++s) {
      sinks.emplace_back(config_.stream, config_.runs_per_client, exit_ids,
                         exit_iso2, exit_ns_distance, plan.provider_ids,
                         plan.names);
    }
  }

  stats_.shard_profiles =
      execute_campaign(world_, plan, n, retained ? &slots : nullptr,
                       retained ? nullptr : &sinks, stores_);

  if (retained != nullptr) {
    // Merge in canonical slot order; records carry ids from the plan's
    // string table.
    retained->names() = plan.names;
    retained->discarded_mismatch = plan.discarded_mismatch;
    for (ClientInfo& info : plan.clients) retained->add_client(std::move(info));
    for (SessionOutput& slot : slots) {
      for (DohRecord& rec : slot.doh) retained->add_doh(rec);
      for (Do53Record& rec : slot.do53) retained->add_do53(rec);
      retained->failed_measurements += slot.failed;
    }
  } else {
    *streamed = std::move(sinks[0]);
    for (std::size_t s = 1; s < sinks.size(); ++s) streamed->merge(sinks[s]);
    streamed->discarded_mismatch = plan.discarded_mismatch;
  }

  stats_.shards = static_cast<int>(n_shards);
  stats_.sessions = plan.n_sessions;
  stats_.events_processed = 0;
  for (const ShardProfile& p : stats_.shard_profiles) {
    stats_.events_processed += p.events;
  }
  stats_.wall_seconds = seconds_since(wall_start);
}

}  // namespace dohperf::measure
