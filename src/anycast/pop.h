// Points-of-presence for anycast DoH services.
#pragma once

#include <string>
#include <string_view>

#include "geo/cities.h"
#include "geo/coordinates.h"
#include "geo/country.h"

namespace dohperf::anycast {

/// One provider point-of-presence, hosted in a metro area.
struct Pop {
  std::string city;           ///< Metro name (from geo::city_table).
  std::string country_iso2;   ///< Host country.
  geo::LatLon position;
  geo::Region region;

  friend bool operator==(const Pop&, const Pop&) = default;
};

/// Builds a Pop from a city-table entry. The host country must exist in
/// the world table (checked; throws std::invalid_argument otherwise).
[[nodiscard]] Pop make_pop(const geo::City& city);

}  // namespace dohperf::anycast
