#pragma once
// Frozen routing geometry: every distance behind the path builder's carrier,
// hub and IXP choices, tabled once at world construction.
//
// Those choices are pure functions of catalogue data. By the time a path
// picks a hub its origin is a country centroid (the ISP core or an uplink
// gateway), its destination is a catalogue region, and the candidates are
// the tier-1 hubs and the IXPs. So the distances live in immutable tables
// instead of being recomputed by haversine_km on every build:
//
//   country -> hub   haversine_km(centroid, hub)
//   hub -> hub       haversine_km(entry, exit), within each carrier
//   region -> hub    haversine_km(region, hub)
//   hub -> region    haversine_km(hub, region)
//   country -> IXP   haversine_km(centroid, ixp)
//
// Each argument order is stored the way the builder uses it, so symmetry of
// haversine_km is never assumed. Every entry is the double the call would
// return, and the selections below keep the catalogue scan order, strict `<`
// tie-breaking and `(a + b) + c` sums, so every chosen hub (and every RTT
// downstream of it) is bit-identical to scanning per build. A region outside
// the catalogue (hand-built endpoints) has its two rows computed on the fly
// into caller stack scratch and goes through the same selection code.

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "cloud/region.hpp"
#include "geo/country.hpp"
#include "topology/as_registry.hpp"

namespace cloudrtt::topology {

/// One tier-1 hub in the flat, carrier-ordered hub list.
struct HubRef {
  const TransitCarrier* carrier = nullptr;
  const TransitHub* hub = nullptr;
  std::size_t slot = 0;  ///< position in the flat hub list
};

/// Best <carrier, entry hub, exit hub> for a single-carrier (PNI) haul.
struct CarrierPlan {
  const TransitCarrier* carrier = nullptr;
  const TransitHub* entry = nullptr;
  const TransitHub* exit = nullptr;
};

/// Distances between one place and every hub, in flat hub order.
using HubRow = std::span<const double>;

/// One region's hub distances in both argument orders.
struct RegionRows {
  HubRow to_hub;    ///< haversine_km(region, hub)
  HubRow from_hub;  ///< haversine_km(hub, region)
};

// lint:frozen
class HubGeometry {
 public:
  /// Capacity of an off-catalogue region's on-the-fly rows.
  static constexpr std::size_t kMaxHubs = 64;

  /// Caller stack storage for an off-catalogue region's rows.
  struct RegionScratch {
    std::array<double, kMaxHubs> to_hub{};
    std::array<double, kMaxHubs> from_hub{};
  };

  HubGeometry() = default;

  /// Table every distance between the catalogues' countries, regions, the
  /// tier-1 hubs and the IXPs.
  [[nodiscard]] static HubGeometry materialize(
      std::span<const geo::CountryInfo> countries,
      std::span<const cloud::RegionInfo> region_catalog);

  [[nodiscard]] std::span<const HubRef> hubs() const { return hubs_; }

  /// Hub distances from a catalogue country's centroid.
  [[nodiscard]] HubRow country_row(const geo::CountryInfo& country) const;
  /// A region's hub distances: views into the tables for catalogue regions,
  /// computed into `scratch` for any other region.
  [[nodiscard]] RegionRows region_rows(const cloud::RegionInfo& region,
                                       RegionScratch& scratch) const;

  /// Nearest hub of any carrier (optionally excluding one).
  [[nodiscard]] HubRef nearest_hub(
      HubRow from, const TransitCarrier* exclude = nullptr) const;
  /// Nearest hub of one carrier.
  [[nodiscard]] HubRef nearest_hub_of(const TransitCarrier& carrier,
                                      HubRow from) const;
  /// Carrier and hub pair minimising from->entry + entry->exit + exit->to.
  [[nodiscard]] CarrierPlan best_single_carrier(HubRow from, HubRow to) const;
  /// The exchange a country's direct peering crosses: the first IXP in the
  /// country itself, else the one nearest its centroid.
  [[nodiscard]] const IxpInfo* choose_ixp(
      const geo::CountryInfo& country) const;

 private:
  /// One carrier's contiguous run of hubs and its hub->hub block.
  struct CarrierBlock {
    std::size_t first_hub = 0;
    std::size_t hub_count = 0;
    std::size_t first_pair = 0;  ///< [first_pair + entry * hub_count + exit]
  };

  [[nodiscard]] std::size_t country_index(
      const geo::CountryInfo& country) const;

  std::span<const geo::CountryInfo> countries_;
  std::span<const cloud::RegionInfo> regions_;
  std::vector<HubRef> hubs_;
  std::vector<CarrierBlock> carriers_;
  std::vector<double> hub_hub_;
  std::vector<double> country_hub_;  ///< [country * hubs + hub]
  std::vector<double> region_hub_;   ///< [region * hubs + hub]
  std::vector<double> hub_region_;   ///< [region * hubs + hub]
  std::vector<double> country_ixp_;  ///< [country * ixps + ixp]
};

}  // namespace cloudrtt::topology
