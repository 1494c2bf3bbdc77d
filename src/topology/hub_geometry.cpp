#include "topology/hub_geometry.hpp"

#include <functional>
#include <limits>
#include <optional>

#include "util/check.hpp"

namespace cloudrtt::topology {

namespace {

/// Position of `item` in `all`, or nullopt when it is not an element.
template <typename T>
[[nodiscard]] std::optional<std::size_t> position_in(std::span<const T> all,
                                                     const T& item) {
  const std::less<const T*> before;
  if (before(&item, all.data()) || !before(&item, all.data() + all.size())) {
    return std::nullopt;
  }
  return static_cast<std::size_t>(&item - all.data());
}

/// One region's row in each argument order; the tables and the on-the-fly
/// rows of off-catalogue regions both come from here.
void fill_region_rows(std::span<const HubRef> hubs,
                      const geo::GeoPoint& region, double* to_hub,
                      double* from_hub) {
  for (std::size_t h = 0; h < hubs.size(); ++h) {
    to_hub[h] = geo::haversine_km(region, hubs[h].hub->location);
    from_hub[h] = geo::haversine_km(hubs[h].hub->location, region);
  }
}

}  // namespace

HubGeometry HubGeometry::materialize(
    std::span<const geo::CountryInfo> countries,
    std::span<const cloud::RegionInfo> region_catalog) {
  HubGeometry g;
  g.countries_ = countries;
  g.regions_ = region_catalog;

  for (const TransitCarrier& carrier : tier1_carriers()) {
    const CarrierBlock block{g.hubs_.size(), carrier.hubs.size(),
                             g.hub_hub_.size()};
    for (const TransitHub& entry : carrier.hubs) {
      g.hubs_.push_back(HubRef{&carrier, &entry, g.hubs_.size()});
      for (const TransitHub& exit : carrier.hubs) {
        g.hub_hub_.push_back(geo::haversine_km(entry.location, exit.location));
      }
    }
    g.carriers_.push_back(block);
  }
  CLOUDRTT_CHECK(g.hubs_.size() <= kMaxHubs, "hub catalogue (", g.hubs_.size(),
                 " hubs) outgrew HubGeometry::kMaxHubs");

  for (const geo::CountryInfo& country : countries) {
    for (const HubRef& ref : g.hubs_) {
      g.country_hub_.push_back(
          geo::haversine_km(country.centroid, ref.hub->location));
    }
    for (const IxpInfo& ixp : known_ixps()) {
      g.country_ixp_.push_back(
          geo::haversine_km(country.centroid, ixp.location));
    }
  }
  const std::size_t n = g.hubs_.size();
  g.region_hub_.resize(region_catalog.size() * n);
  g.hub_region_.resize(region_catalog.size() * n);
  for (std::size_t r = 0; r < region_catalog.size(); ++r) {
    fill_region_rows(g.hubs_, region_catalog[r].location,
                     &g.region_hub_[r * n], &g.hub_region_[r * n]);
  }
  return g;
}

std::size_t HubGeometry::country_index(const geo::CountryInfo& country) const {
  const auto index = position_in(countries_, country);
  CLOUDRTT_CHECK(index.has_value(), "HubGeometry: country ", country.code,
                 " is not a catalogue entry");
  return *index;
}

HubRow HubGeometry::country_row(const geo::CountryInfo& country) const {
  return HubRow{country_hub_}.subspan(country_index(country) * hubs_.size(),
                                      hubs_.size());
}

RegionRows HubGeometry::region_rows(const cloud::RegionInfo& region,
                                    RegionScratch& scratch) const {
  const std::size_t n = hubs_.size();
  if (const auto index = position_in(regions_, region)) {
    return RegionRows{HubRow{region_hub_}.subspan(*index * n, n),
                      HubRow{hub_region_}.subspan(*index * n, n)};
  }
  fill_region_rows(hubs_, region.location, scratch.to_hub.data(),
                   scratch.from_hub.data());
  return RegionRows{HubRow{scratch.to_hub.data(), n},
                    HubRow{scratch.from_hub.data(), n}};
}

// lint:hot
HubRef HubGeometry::nearest_hub(HubRow from,
                                const TransitCarrier* exclude) const {
  HubRef best;
  double best_km = std::numeric_limits<double>::infinity();
  for (const HubRef& ref : hubs_) {
    if (ref.carrier == exclude) continue;
    if (from[ref.slot] < best_km) {
      best_km = from[ref.slot];
      best = ref;
    }
  }
  return best;
}

// lint:hot
HubRef HubGeometry::nearest_hub_of(const TransitCarrier& carrier,
                                   HubRow from) const {
  const auto index = position_in(tier1_carriers(), carrier);
  CLOUDRTT_CHECK(index.has_value(), "HubGeometry: carrier ", carrier.name,
                 " is not a catalogue entry");
  const CarrierBlock& block = carriers_[*index];
  HubRef best;
  double best_km = std::numeric_limits<double>::infinity();
  for (std::size_t h = block.first_hub; h < block.first_hub + block.hub_count;
       ++h) {
    if (from[h] < best_km) {
      best_km = from[h];
      best = hubs_[h];
    }
  }
  return best;
}

// lint:hot
CarrierPlan HubGeometry::best_single_carrier(HubRow from, HubRow to) const {
  CarrierPlan best;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const CarrierBlock& block : carriers_) {
    for (std::size_t i = 0; i < block.hub_count; ++i) {
      const std::size_t entry = block.first_hub + i;
      const double* pairs = &hub_hub_[block.first_pair + i * block.hub_count];
      for (std::size_t j = 0; j < block.hub_count; ++j) {
        const std::size_t exit = block.first_hub + j;
        const double cost = from[entry] + pairs[j] + to[exit];
        if (cost < best_cost) {
          best_cost = cost;
          best = CarrierPlan{hubs_[entry].carrier, hubs_[entry].hub,
                             hubs_[exit].hub};
        }
      }
    }
  }
  return best;
}

// lint:hot
const IxpInfo* HubGeometry::choose_ixp(const geo::CountryInfo& country) const {
  const std::span<const IxpInfo> ixps = known_ixps();
  const double* row = &country_ixp_[country_index(country) * ixps.size()];
  const IxpInfo* best = nullptr;
  double best_km = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < ixps.size(); ++k) {
    if (ixps[k].country == country.code) return &ixps[k];
    if (row[k] < best_km) {
      best_km = row[k];
      best = &ixps[k];
    }
  }
  return best;
}

}  // namespace cloudrtt::topology
