#include "anycast/pop.h"

#include <stdexcept>

namespace dohperf::anycast {

Pop make_pop(const geo::City& city) {
  const geo::Country* country = geo::find_country(city.country_iso2);
  if (country == nullptr) {
    throw std::invalid_argument("city " + std::string(city.name) +
                                " has unknown country " +
                                std::string(city.country_iso2));
  }
  Pop pop;
  pop.city = std::string(city.name);
  pop.country_iso2 = std::string(city.country_iso2);
  pop.position = city.position;
  pop.region = country->region;
  return pop;
}

}  // namespace dohperf::anycast
