// Exact nearest-site search over a fixed point set.
//
// Anycast routing, the Figure-6 "potential improvement" baseline and the
// Super Proxy assignment all ask which of a fixed set of sites is nearest
// to a client. NearestIndex answers that with the same index and the same
// `distance_km` double as a brute-force haversine scan, but runs the
// haversine only on the few points that can still win (see nearest.cpp).
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "geo/coordinates.h"

namespace dohperf::geo {

/// Read-only nearest-site index built once from a point set. Queries
/// allocate nothing and mutate nothing, so one index may be shared by any
/// number of threads.
class NearestIndex {
 public:
  /// One ranked point: its index in the build span and its
  /// `distance_km(query, point)`.
  struct Hit {
    std::size_t index = 0;
    double km = 0.0;
  };

  /// Upper bound on `ranked`'s `n`.
  static constexpr std::size_t kMaxRanked = 8;

  /// The first `size` points in (km, index) order.
  struct Ranking {
    std::array<Hit, kMaxRanked> hits{};
    std::size_t size = 0;

    [[nodiscard]] const Hit& operator[](std::size_t i) const {
      return hits[i];
    }
  };

  NearestIndex() = default;
  /// Copies `points` and precomputes their unit vectors.
  explicit NearestIndex(std::span<const LatLon> points);

  /// The point nearest to `p`: the lowest index among those at the
  /// minimal `distance_km(p, point)`. Requires a non-empty index.
  [[nodiscard]] Hit nearest(const LatLon& p) const;

  /// The first min(n, point count) points in (km, index) order, with km =
  /// `distance_km(p, point)`. Requires n <= kMaxRanked.
  [[nodiscard]] Ranking ranked(const LatLon& p, std::size_t n) const;

 private:
  struct Unit {
    double x = 0.0;
    double y = 0.0;
    double z = 0.0;
  };

  [[nodiscard]] static Unit unit(const LatLon& p);
  [[nodiscard]] double chord2(const Unit& q, std::size_t i) const;

  std::vector<LatLon> points_;
  std::vector<Unit> units_;
};

}  // namespace dohperf::geo
