// Tests for PoP catalogs, anycast routing, and provider profiles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numbers>
#include <set>
#include <span>
#include <utility>

#include "anycast/catalog.h"
#include "anycast/provider.h"
#include "anycast/routing.h"
#include "geo/nearest.h"
#include "proxy/brightdata.h"

namespace dohperf::anycast {
namespace {

TEST(CatalogTest, SizesMatchPaperObservations) {
  EXPECT_EQ(cloudflare_pops().size(), kCloudflarePopCount);  // 146
  EXPECT_EQ(google_pops().size(), kGooglePopCount);          // 26
  EXPECT_EQ(nextdns_pops().size(), kNextDnsPopCount);        // 107
  EXPECT_EQ(quad9_pops().size(), kQuad9PopCount);            // 152
}

TEST(CatalogTest, GoogleHasNoAfricanPop) {
  for (const Pop& pop : google_pops()) {
    EXPECT_NE(pop.region, geo::Region::kAfrica) << pop.city;
  }
}

TEST(CatalogTest, CloudflareServesSenegal) {
  const auto pops = cloudflare_pops();
  EXPECT_TRUE(std::any_of(pops.begin(), pops.end(), [](const Pop& p) {
    return p.country_iso2 == "SN";
  }));
}

TEST(CatalogTest, Quad9HasDensestAfricanFootprint) {
  auto count_africa = [](const std::vector<Pop>& pops) {
    return std::count_if(pops.begin(), pops.end(), [](const Pop& p) {
      return p.region == geo::Region::kAfrica;
    });
  };
  const auto quad9 = count_africa(quad9_pops());
  EXPECT_GT(quad9, count_africa(cloudflare_pops()));
  EXPECT_GT(quad9, count_africa(nextdns_pops()));
  EXPECT_GT(quad9, count_africa(google_pops()));
}

TEST(CatalogTest, NoProviderHostsInChina) {
  for (const auto& pops : {cloudflare_pops(), google_pops(), nextdns_pops(),
                           quad9_pops()}) {
    for (const Pop& pop : pops) {
      EXPECT_NE(pop.country_iso2, "CN") << pop.city;
    }
  }
}

TEST(CatalogTest, NoDuplicateCitiesWithinCatalog) {
  for (const auto& pops : {cloudflare_pops(), google_pops(), nextdns_pops(),
                           quad9_pops()}) {
    std::set<std::string> cities;
    for (const Pop& pop : pops) {
      EXPECT_TRUE(cities.insert(pop.city).second) << "dup " << pop.city;
    }
  }
}

TEST(CatalogTest, CatalogsHaveNoDuplicatePopPositions) {
  // Distinct positions make every detour order unique up to exact km
  // ties, which the nearest-site search breaks by catalog index.
  for (const auto& pops : {cloudflare_pops(), google_pops(), nextdns_pops(),
                           quad9_pops()}) {
    std::set<std::pair<double, double>> positions;
    for (const Pop& pop : pops) {
      EXPECT_TRUE(
          positions.emplace(pop.position.lat, pop.position.lon).second)
          << "dup position " << pop.city;
    }
  }
}

TEST(CatalogTest, PopsForByName) {
  EXPECT_EQ(pops_for("Cloudflare").size(), kCloudflarePopCount);
  EXPECT_EQ(pops_for("Quad9").size(), kQuad9PopCount);
  EXPECT_THROW(pops_for("OpenDNS"), std::invalid_argument);
}

TEST(PopTest, MakePopValidatesCountry) {
  const geo::City bogus{"Nowhere", "ZZ", {0, 0}};
  EXPECT_THROW(make_pop(bogus), std::invalid_argument);
}

TEST(PopTest, NearestIndexFindsGeographicOptimum) {
  const auto pops = google_pops();
  const AnycastRouter router(pops, RoutingParams{});
  // A client in Manhattan should map to the New York PoP.
  const geo::LatLon client{40.75, -73.99};
  const auto hit = router.sites().nearest(client);
  EXPECT_EQ(pops[hit.index].city, "New York");
  EXPECT_EQ(router.nearest(client), hit.index);
  EXPECT_EQ(hit.km, geo::distance_km(client, pops[hit.index].position));
}

TEST(PopTest, PopsByDistanceIsSorted) {
  const auto pops = cloudflare_pops();
  const AnycastRouter router(pops, RoutingParams{});
  const geo::LatLon client{48.86, 2.35};
  constexpr std::size_t kN = geo::NearestIndex::kMaxRanked;
  const auto order = router.sites().ranked(client, kN);
  ASSERT_EQ(order.size, kN);
  std::set<std::size_t> ranked;
  for (std::size_t i = 0; i < order.size; ++i) {
    EXPECT_EQ(order[i].km,
              geo::distance_km(client, pops[order[i].index].position));
    if (i > 0) {
      EXPECT_LE(order[i - 1].km, order[i].km);
    }
    ranked.insert(order[i].index);
  }
  // Every PoP left out of the prefix is at least as far as its last entry.
  for (std::size_t i = 0; i < pops.size(); ++i) {
    if (ranked.count(i) != 0) continue;
    EXPECT_GE(geo::distance_km(client, pops[i].position),
              order[kN - 1].km);
  }
}

// --- Nearest-site search vs the brute-force haversine scan -------------

/// One point set the campaign searches, with the deepest ranking it asks
/// for.
struct SiteSet {
  std::string name;
  std::vector<geo::LatLon> points;
  std::size_t max_ranked = 1;
};

/// The catalog of `name` (a studied provider, or "SuperProxies").
SiteSet site_set(const std::string& name) {
  SiteSet set{name, {}, geo::NearestIndex::kMaxRanked};
  if (name == "SuperProxies") {
    for (const auto& loc : proxy::BrightDataNetwork().super_proxies()) {
      set.points.push_back(loc.site.position);
    }
    return set;
  }
  for (const Provider& provider : studied_providers()) {
    if (provider.name() != name) continue;
    set.max_ranked = provider.config().routing.neighborhood_k + 1;
    for (const Pop& pop : provider.pops()) set.points.push_back(pop.position);
  }
  return set;
}

/// The reference: the brute-force scan (distance_km(p, point) for every
/// point, strict `<` in index order) and the (km, index) order of all
/// points.
::testing::AssertionResult matches_brute_force(
    const geo::NearestIndex& index, std::span<const geo::LatLon> points,
    const geo::LatLon& p, std::size_t max_ranked) {
  std::size_t best = 0;
  double best_km = std::numeric_limits<double>::infinity();
  std::array<geo::NearestIndex::Hit, 256> order;
  if (points.size() > order.size()) {
    return ::testing::AssertionFailure() << "too many points";
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double d = geo::distance_km(p, points[i]);
    if (d < best_km) {
      best_km = d;
      best = i;
    }
    order[i] = {i, d};
  }
  const std::size_t depth = std::min(max_ranked, points.size());
  std::partial_sort(order.begin(), order.begin() + depth,
                    order.begin() + points.size(),
                    [](const auto& a, const auto& b) {
                      return a.km < b.km || (a.km == b.km && a.index < b.index);
                    });

  const geo::NearestIndex::Hit hit = index.nearest(p);
  if (hit.index != best || hit.km != best_km) {
    return ::testing::AssertionFailure()
           << "nearest at " << p << ": got " << hit.index << " @ " << hit.km
           << " km, brute force " << best << " @ " << best_km << " km";
  }
  for (std::size_t n = 1; n <= max_ranked; ++n) {
    const auto ranked = index.ranked(p, n);
    if (ranked.size != std::min(n, points.size())) {
      return ::testing::AssertionFailure()
             << "ranked(" << n << ") at " << p << " has " << ranked.size;
    }
    for (std::size_t r = 0; r < ranked.size; ++r) {
      if (ranked[r].index != order[r].index || ranked[r].km != order[r].km) {
        return ::testing::AssertionFailure()
               << "ranked(" << n << ")[" << r << "] at " << p << ": got "
               << ranked[r].index << " @ " << ranked[r].km
               << " km, brute force " << order[r].index << " @ "
               << order[r].km << " km";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Uniform on the sphere.
geo::LatLon random_point(netsim::Rng& rng) {
  return {std::asin(rng.uniform(-1.0, 1.0)) * 180.0 / std::numbers::pi,
          rng.uniform(-180.0, 180.0)};
}

/// Poles, both sides of the ±180° meridian, every site and its antipode,
/// and the great-circle midpoint of every site pair (a near-tie).
std::vector<geo::LatLon> adversarial_points(
    std::span<const geo::LatLon> sites) {
  std::vector<geo::LatLon> out{{90.0, 0.0}, {-90.0, 0.0}, {90.0, 180.0},
                               {-90.0, -180.0}};
  const double just_inside = std::nextafter(180.0, 0.0);
  for (double lat = -89.5; lat <= 89.5; lat += 0.5) {
    for (const double lon : {180.0, -180.0, just_inside, -just_inside}) {
      out.push_back({lat, lon});
    }
  }
  constexpr double kRad = std::numbers::pi / 180.0;
  const auto unit = [&](const geo::LatLon& p) {
    return std::array<double, 3>{std::cos(p.lat * kRad) * std::cos(p.lon * kRad),
                                 std::cos(p.lat * kRad) * std::sin(p.lon * kRad),
                                 std::sin(p.lat * kRad)};
  };
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const geo::LatLon& s = sites[i];
    out.push_back(s);
    out.push_back({-s.lat, s.lon > 0.0 ? s.lon - 180.0 : s.lon + 180.0});
    for (std::size_t j = i + 1; j < sites.size(); ++j) {
      const auto a = unit(s);
      const auto b = unit(sites[j]);
      const double x = a[0] + b[0], y = a[1] + b[1], z = a[2] + b[2];
      if (std::hypot(x, y, z) < 1e-9) continue;  // antipodal pair
      out.push_back({std::atan2(z, std::hypot(x, y)) / kRad,
                     std::atan2(y, x) / kRad});
    }
  }
  return out;
}

class NearestSiteOracleSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(NearestSiteOracleSweep, MatchesBruteForceOnRandomAndAdversarialPoints) {
  constexpr int kRandomPoints = 100'000;
  const SiteSet set = site_set(GetParam());
  ASSERT_FALSE(set.points.empty());
  const geo::NearestIndex index(set.points);
  netsim::Rng rng = netsim::Rng(20211102).split(set.name);
  int failures = 0;
  for (int i = 0; i < kRandomPoints && failures < 5; ++i) {
    const auto ok = matches_brute_force(index, set.points, random_point(rng),
                                        set.max_ranked);
    EXPECT_TRUE(ok);
    failures += !ok;
  }
  for (const geo::LatLon& p : adversarial_points(set.points)) {
    if (failures >= 5) break;
    const auto ok = matches_brute_force(index, set.points, p, set.max_ranked);
    EXPECT_TRUE(ok);
    failures += !ok;
  }
}

INSTANTIATE_TEST_SUITE_P(Catalogs, NearestSiteOracleSweep,
                         ::testing::Values("Cloudflare", "Google", "NextDNS",
                                           "Quad9", "SuperProxies"),
                         [](const auto& info) { return info.param; });

TEST(NearestSiteOracleTest, ShippedIndexesMatchBruteForce) {
  // The providers' own router indexes and the Super Proxy assignment,
  // not just freshly built ones.
  netsim::Rng rng(77);
  for (const Provider& provider : studied_providers()) {
    SCOPED_TRACE(provider.name());
    std::vector<geo::LatLon> points;
    for (const Pop& pop : provider.pops()) points.push_back(pop.position);
    const std::size_t k = provider.config().routing.neighborhood_k + 1;
    for (int i = 0; i < 5'000; ++i) {
      const geo::LatLon p = random_point(rng);
      ASSERT_TRUE(
          matches_brute_force(provider.router().sites(), points, p, k));
      ASSERT_EQ(provider.nearest(p), provider.router().sites().nearest(p).index);
    }
  }
  const proxy::BrightDataNetwork network;
  const auto proxies = network.super_proxies();
  for (int i = 0; i < 20'000; ++i) {
    const geo::LatLon p = random_point(rng);
    std::size_t best = 0;
    double best_km = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < proxies.size(); ++j) {
      const double d = geo::distance_km(p, proxies[j].site.position);
      if (d < best_km) {
        best_km = d;
        best = j;
      }
    }
    ASSERT_EQ(&network.nearest_super_proxy(p), &proxies[best]) << p;
  }
}

TEST(NearestSiteOracleTest, RankingBreaksExactTiesByIndex) {
  // Two copies of one position and a point equidistant from two sites
  // on the equator: equal km, so index order decides.
  const std::vector<geo::LatLon> points{
      {0.0, 10.0}, {0.0, -10.0}, {0.0, 10.0}, {45.0, 0.0}};
  const geo::NearestIndex index(points);
  const geo::LatLon origin{0.0, 0.0};
  EXPECT_EQ(geo::distance_km(origin, points[0]),
            geo::distance_km(origin, points[1]));
  EXPECT_EQ(index.nearest(origin).index, 0u);
  const auto ranked = index.ranked(origin, 4);
  ASSERT_EQ(ranked.size, 4u);
  EXPECT_EQ(ranked[0].index, 0u);
  EXPECT_EQ(ranked[1].index, 1u);
  EXPECT_EQ(ranked[2].index, 2u);
  EXPECT_EQ(ranked[3].index, 3u);
  EXPECT_TRUE(matches_brute_force(index, points, origin, 4));
  EXPECT_TRUE(matches_brute_force(index, points, points[2], 4));
}

TEST(NearestSiteOracleTest, RankingIsClampedToThePointCount) {
  const std::vector<geo::LatLon> points{{10.0, 10.0}, {20.0, 20.0}};
  const geo::NearestIndex index(points);
  const auto ranked = index.ranked({15.0, 14.0}, geo::NearestIndex::kMaxRanked);
  ASSERT_EQ(ranked.size, 2u);
  EXPECT_EQ(index.ranked({15.0, 14.0}, 0).size, 0u);
}

TEST(RouterTest, RejectsNeighborhoodsDeeperThanTheRankingLimit) {
  const auto pops = cloudflare_pops();
  RoutingParams params;
  params.neighborhood_k = geo::NearestIndex::kMaxRanked;
  EXPECT_THROW(AnycastRouter(pops, params), std::invalid_argument);
  params.neighborhood_k = geo::NearestIndex::kMaxRanked - 1;
  EXPECT_NO_THROW(AnycastRouter(pops, params));
}

TEST(RouterTest, PureNearestPolicyIsOptimal) {
  const auto pops = cloudflare_pops();
  RoutingParams params;
  params.p_nearest = 1.0;
  AnycastRouter router(pops, params);
  netsim::Rng rng(5);
  for (const geo::LatLon client :
       {geo::LatLon{51.5, -0.1}, geo::LatLon{-33.9, 151.2},
        geo::LatLon{1.3, 103.8}}) {
    EXPECT_EQ(router.select(client, geo::Region::kEurope, rng),
              router.nearest(client));
  }
}

TEST(RouterTest, SelectionFrequenciesMatchMixture) {
  const auto pops = cloudflare_pops();
  RoutingParams params;
  params.p_nearest = 0.6;
  params.p_neighborhood = 0.3;
  params.neighborhood_k = 2;
  params.p_region_hub = 0.05;
  AnycastRouter router(pops, params);

  const geo::LatLon client{40.71, -74.01};
  const auto nearest = router.nearest(client);
  netsim::Rng rng(11);
  int nearest_hits = 0;
  const int trials = 5000;
  for (int i = 0; i < trials; ++i) {
    if (router.select(client, geo::Region::kNorthAmerica, rng) == nearest) {
      ++nearest_hits;
    }
  }
  // Nearest arrives via p_nearest plus a sliver of global randomness.
  EXPECT_NEAR(nearest_hits / static_cast<double>(trials), 0.6, 0.03);
}

TEST(RouterTest, NeighborhoodExcludesOptimum) {
  const auto pops = google_pops();
  RoutingParams params;
  params.p_nearest = 0.0;
  params.p_neighborhood = 1.0;
  params.neighborhood_k = 2;
  AnycastRouter router(pops, params);
  const geo::LatLon client{40.75, -73.99};
  const auto nearest = router.nearest(client);
  netsim::Rng rng(13);
  for (int i = 0; i < 200; ++i) {
    EXPECT_NE(router.select(client, geo::Region::kNorthAmerica, rng),
              nearest);
  }
}

TEST(RouterTest, SelectionAlwaysInCatalog) {
  const auto pops = quad9_pops();
  RoutingParams params;
  params.p_nearest = 0.25;
  params.p_neighborhood = 0.25;
  params.p_region_hub = 0.25;
  AnycastRouter router(pops, params);
  netsim::Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    const auto idx = router.select({10.0 * (i % 18 - 9), 20.0 * (i % 17 - 8)},
                                   geo::Region::kAfrica, rng);
    EXPECT_LT(idx, pops.size());
  }
}

TEST(RouterTest, RegionHubIsStable) {
  const auto pops = quad9_pops();
  RoutingParams params;
  AnycastRouter router(pops, params);
  const auto hub1 = router.region_hub(geo::Region::kAfrica);
  const auto hub2 = router.region_hub(geo::Region::kAfrica);
  EXPECT_EQ(hub1, hub2);
  EXPECT_LT(hub1, pops.size());
}

TEST(RouterTest, RegionCentroidIsPlausible) {
  const auto europe = region_centroid(geo::Region::kEurope);
  EXPECT_GT(europe.lat, 35.0);
  EXPECT_LT(europe.lat, 65.0);
  EXPECT_GT(europe.lon, -15.0);
  EXPECT_LT(europe.lon, 45.0);
}

TEST(ProviderTest, StudiedProvidersInPaperOrder) {
  const auto providers = studied_providers();
  ASSERT_EQ(providers.size(), 4u);
  EXPECT_EQ(providers[0].name(), "Cloudflare");
  EXPECT_EQ(providers[1].name(), "Google");
  EXPECT_EQ(providers[2].name(), "NextDNS");
  EXPECT_EQ(providers[3].name(), "Quad9");
}

TEST(ProviderTest, RoutingParamsAreValidMixtures) {
  for (const auto& provider : studied_providers()) {
    const RoutingParams& p = provider.config().routing;
    EXPECT_GE(p.p_nearest, 0.0);
    EXPECT_GE(p.p_neighborhood, 0.0);
    EXPECT_GE(p.p_region_hub, 0.0);
    EXPECT_GE(p.p_global(), -1e-12) << provider.name();
  }
}

TEST(ProviderTest, FrontendSiteUsesAccessFactor) {
  const auto providers = studied_providers();
  const Provider& cf = providers[0];
  const double host_inflation = 3.0;
  const auto frontend = cf.frontend_site(0, host_inflation);
  const auto backend = cf.backend_site(0, host_inflation);
  EXPECT_EQ(frontend.position, backend.position);
  EXPECT_LT(frontend.route_inflation, backend.route_inflation);
  EXPECT_GE(frontend.route_inflation, cf.config().access_floor);
}

TEST(ProviderTest, Quad9RoutesFewestClientsToNearest) {
  // The paper: only 21% of Quad9 clients reach the closest PoP.
  const auto providers = studied_providers();
  netsim::Rng rng(23);
  std::map<std::string, double> nearest_fraction;
  for (const auto& provider : providers) {
    int at_nearest = 0;
    const int trials = 2000;
    netsim::Rng prov_rng = rng.split(provider.name());
    for (int i = 0; i < trials; ++i) {
      const geo::LatLon client{prov_rng.uniform(-50.0, 60.0),
                               prov_rng.uniform(-120.0, 140.0)};
      const auto selected =
          provider.route(client, geo::Region::kEurope, prov_rng);
      at_nearest += selected == provider.nearest(client);
    }
    nearest_fraction[provider.name()] =
        at_nearest / static_cast<double>(trials);
  }
  EXPECT_LT(nearest_fraction["Quad9"], 0.35);
  EXPECT_GT(nearest_fraction["NextDNS"], 0.8);
  EXPECT_LT(nearest_fraction["Quad9"], nearest_fraction["Cloudflare"]);
}

}  // namespace
}  // namespace dohperf::anycast
