#pragma once
// Nearest-datacenter estimation. The paper's footnote 1: "Datacenter with
// lowest mean latency over time is estimated to be closest to a probe" —
// so nearest is a *measured* property, recomputed from ping records.

#include <optional>
#include <unordered_map>
#include <vector>

#include "cloud/region.hpp"
#include "geo/continent.hpp"
#include "measure/records.hpp"
#include "probes/fleet.hpp"

namespace cloudrtt::analysis {

class NearestIndex {
 public:
  NearestIndex() = default;  ///< empty: no probe has samples
  explicit NearestIndex(const measure::Dataset& data);

  /// Region with lowest mean RTT for this probe, optionally restricted to a
  /// continent; nullptr when the probe has no usable samples there.
  [[nodiscard]] const cloud::RegionInfo* nearest(
      const probes::Probe* probe,
      std::optional<geo::Continent> within = std::nullopt) const;

  /// All RTT samples recorded for a <probe, region> pair (nullptr if none).
  [[nodiscard]] const std::vector<double>* samples(
      const probes::Probe* probe, const cloud::RegionInfo* region) const;

  /// Convenience: all samples from the probe to its nearest region within
  /// the given continent (empty if none).
  [[nodiscard]] std::vector<double> samples_to_nearest(
      const probes::Probe* probe,
      std::optional<geo::Continent> within = std::nullopt) const;

  [[nodiscard]] const std::vector<const probes::Probe*>& probes() const {
    return probe_order_;
  }

 private:
  struct PerRegion {
    std::vector<double> rtts;
    double sum = 0.0;
    [[nodiscard]] double mean() const {
      return rtts.empty() ? 0.0 : sum / static_cast<double>(rtts.size());
    }
  };
  using RegionMap = std::unordered_map<const cloud::RegionInfo*, PerRegion>;

  std::unordered_map<const probes::Probe*, RegionMap> table_;
  std::vector<const probes::Probe*> probe_order_;
};

}  // namespace cloudrtt::analysis
