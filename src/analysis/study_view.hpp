#pragma once
// StudyView: the bundle every experiment function consumes — the world's
// public data products, both probe fleets, both datasets and the shared
// IP->ASN resolver. core::Study produces one of these after running the
// campaigns; the report attaches the facts it derived once (facts.hpp).

#include "analysis/resolve.hpp"
#include "measure/records.hpp"
#include "probes/fleet.hpp"
#include "topology/world.hpp"

namespace cloudrtt::analysis {

struct StudyFacts;

struct StudyView {
  const topology::World* world = nullptr;
  const probes::ProbeFleet* sc_fleet = nullptr;
  const measure::Dataset* sc_data = nullptr;
  const probes::ProbeFleet* atlas_fleet = nullptr;  ///< may be null
  const measure::Dataset* atlas_data = nullptr;     ///< may be null
  const IpToAsn* resolver = nullptr;
  /// Facts already derived from these datasets; null: each exhibit derives
  /// its own.
  const StudyFacts* facts = nullptr;

  [[nodiscard]] bool has_atlas() const {
    return atlas_fleet != nullptr && atlas_data != nullptr;
  }
};

}  // namespace cloudrtt::analysis
