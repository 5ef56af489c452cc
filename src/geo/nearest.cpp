#include "geo/nearest.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>

namespace dohperf::geo {
namespace {

constexpr double kDegToRad = std::numbers::pi / 180.0;

// Candidate band on the unit sphere, in squared-chord units.
//
// Great-circle distance is a monotone function of the chord between two
// unit vectors (haversine h = chord² / 4), so ranking by chord² ranks by
// distance. Both the chord² computed here (three products and three
// differences of libm values of magnitude <= 1) and the 4h inside
// `distance_km` lie within a few ulps of 1, about 1e-15, of the exact
// chord² of the same degree inputs. A point whose chord² exceeds the best
// chord² by more than kBand is therefore farther in exact arithmetic by at
// least kBand / 4 radians (chord <= 2; ~1.6 mm on Earth), far beyond what
// `distance_km`'s rounding (~1e-11 km) can reverse: it can never be the
// brute-force winner. kBand = 1e-9 leaves six orders of margin and admits
// only points within sqrt(kBand) of the optimum, about 200 m on Earth, so
// outside near-ties the haversine runs only on the points returned.
constexpr double kBand = 1e-9;

}  // namespace

NearestIndex::NearestIndex(std::span<const LatLon> points)
    : points_(points.begin(), points.end()) {
  units_.reserve(points_.size());
  for (const LatLon& p : points_) units_.push_back(unit(p));
}

NearestIndex::Unit NearestIndex::unit(const LatLon& p) {
  const double lat = p.lat * kDegToRad;
  const double lon = p.lon * kDegToRad;
  const double cos_lat = std::cos(lat);
  return {cos_lat * std::cos(lon), cos_lat * std::sin(lon), std::sin(lat)};
}

double NearestIndex::chord2(const Unit& q, std::size_t i) const {
  const Unit& u = units_[i];
  const double dx = q.x - u.x;
  const double dy = q.y - u.y;
  const double dz = q.z - u.z;
  return dx * dx + dy * dy + dz * dz;
}

NearestIndex::Hit NearestIndex::nearest(const LatLon& p) const {
  assert(!points_.empty());
  return ranked(p, 1)[0];
}

NearestIndex::Ranking NearestIndex::ranked(const LatLon& p,
                                           std::size_t n) const {
  assert(n <= kMaxRanked);
  n = std::min(n, points_.size());
  Ranking out;
  if (n == 0) return out;
  const Unit q = unit(p);

  // Pass 1: the n + 1 smallest chord² values with their indices,
  // ascending. One more than asked tells whether anything beyond the
  // first n falls inside the band.
  struct Low {
    double chord2;
    std::size_t index;
  };
  std::array<Low, kMaxRanked + 1> low{};
  const std::size_t track = std::min(n + 1, points_.size());
  std::size_t kept = 0;
  for (std::size_t i = 0; i < units_.size(); ++i) {
    const double c = chord2(q, i);
    if (kept == track && c >= low[track - 1].chord2) continue;
    std::size_t at = kept < track ? kept++ : track - 1;
    for (; at > 0 && low[at - 1].chord2 > c; --at) low[at] = low[at - 1];
    low[at] = {c, i};
  }

  // Pass 2: the brute-force scan over the survivors only — the same
  // distance_km arguments and (km, index) order, hence the same indices
  // and km doubles. Usually the survivors are exactly the n tracked
  // points; only a near-tie at the n-th place needs the full scan.
  const auto insert = [&](std::size_t i) {
    const Hit hit{i, distance_km(p, points_[i])};
    const auto before = [](const Hit& a, const Hit& b) {
      return a.km < b.km || (a.km == b.km && a.index < b.index);
    };
    if (out.size == n && !before(hit, out.hits[n - 1])) return;
    std::size_t at = out.size < n ? out.size++ : n - 1;
    for (; at > 0 && before(hit, out.hits[at - 1]); --at) {
      out.hits[at] = out.hits[at - 1];
    }
    out.hits[at] = hit;
  };
  const double cutoff = low[n - 1].chord2 + kBand;
  if (kept == n || low[n].chord2 > cutoff) {
    for (std::size_t j = 0; j < n; ++j) insert(low[j].index);
  } else {
    for (std::size_t i = 0; i < units_.size(); ++i) {
      if (chord2(q, i) <= cutoff) insert(i);
    }
  }
  return out;
}

}  // namespace dohperf::geo
