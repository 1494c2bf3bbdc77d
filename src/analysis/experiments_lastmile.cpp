#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/facts.hpp"

namespace cloudrtt::analysis {

std::string_view to_string(LastMileCategory category) {
  switch (category) {
    case LastMileCategory::HomeUsrIsp: return "SC home (USR-ISP)";
    case LastMileCategory::Cell: return "SC cell";
    case LastMileCategory::HomeRtrIsp: return "SC home (RTR-ISP)";
    case LastMileCategory::Atlas: return "Atlas";
  }
  return "?";
}

namespace {

/// Push a value into a per-continent bucket set plus the Global bucket.
template <typename Buckets>
void push_bucketed(Buckets& buckets, LastMileCategory category,
                   geo::Continent continent, double value) {
  auto& per_continent = buckets[static_cast<std::size_t>(category)];
  per_continent[geo::index_of(continent)].push_back(value);
  per_continent[kGlobalIndex].push_back(value);
}

void accumulate_lastmile(const measure::Dataset& data, const DatasetFacts& facts,
                         bool is_atlas, bool nearest_only, LastMileStats& stats) {
  // For Fig. 19 we need each probe's nearest DC (within its continent).
  std::unordered_map<const probes::Probe*, const cloud::RegionInfo*> nearest_of;
  if (nearest_only) {
    const NearestIndex& index = facts.nearest;
    for (const probes::Probe* probe : index.probes()) {
      nearest_of.emplace(probe, index.nearest(probe, probe->country->continent));
    }
  }

  for (std::size_t row = 0; row < data.traces.size(); ++row) {
    const measure::TraceRef trace = data.traces[row];
    if (!trace.completed || trace.end_to_end_ms <= 0.0) continue;
    if (nearest_only) {
      const auto it = nearest_of.find(trace.probe);
      if (it == nearest_of.end() || it->second != trace.region) continue;
    }
    const LastMileObservation& obs = facts.traces[row].last_mile;
    if (!obs.valid) continue;
    const geo::Continent continent = trace.probe->country->continent;
    const double share =
        std::clamp(obs.usr_isp_ms / trace.end_to_end_ms * 100.0, 0.0, 100.0);

    if (is_atlas) {
      push_bucketed(stats.share_pct, LastMileCategory::Atlas, continent, share);
      push_bucketed(stats.absolute_ms, LastMileCategory::Atlas, continent,
                    obs.usr_isp_ms);
      continue;
    }
    if (obs.access == AccessClass::Home) {
      push_bucketed(stats.share_pct, LastMileCategory::HomeUsrIsp, continent, share);
      push_bucketed(stats.absolute_ms, LastMileCategory::HomeUsrIsp, continent,
                    obs.usr_isp_ms);
      if (obs.rtr_isp_ms) {
        const double rtr_share = std::clamp(
            *obs.rtr_isp_ms / trace.end_to_end_ms * 100.0, 0.0, 100.0);
        push_bucketed(stats.share_pct, LastMileCategory::HomeRtrIsp, continent,
                      rtr_share);
        push_bucketed(stats.absolute_ms, LastMileCategory::HomeRtrIsp, continent,
                      *obs.rtr_isp_ms);
      }
    } else if (obs.access == AccessClass::Cell) {
      push_bucketed(stats.share_pct, LastMileCategory::Cell, continent, share);
      push_bucketed(stats.absolute_ms, LastMileCategory::Cell, continent,
                    obs.usr_isp_ms);
    }
  }
}

/// Per-probe last-mile sample streams for the Cv analyses. The probe's
/// home/cell class is the majority of its per-trace inferences (the paper
/// cannot see the real access type either).
struct ProbeLastMile {
  std::vector<double> samples;
  std::size_t home_votes = 0;
  std::size_t cell_votes = 0;
  [[nodiscard]] bool is_home() const { return home_votes >= cell_votes; }
};

/// Per-probe last-mile summaries in ascending probe-id order. The
/// accumulation map is keyed by probe pointer, so its iteration order would
/// change with every run's heap layout; fig8/fig9 append to their box-plot
/// series while walking this, so the result is sorted before it is returned
/// — otherwise the exported series order (and the dataset report) would
/// differ between two same-seed runs.
std::vector<std::pair<const probes::Probe*, ProbeLastMile>> collect_per_probe(
    const StudyView& view) {
  const FactsRef facts{view};
  std::unordered_map<const probes::Probe*, ProbeLastMile> accumulator;
  for (std::size_t row = 0; row < view.sc_data->traces.size(); ++row) {
    const LastMileObservation& obs = facts->sc.traces[row].last_mile;
    if (!obs.valid) continue;
    ProbeLastMile& entry = accumulator[view.sc_data->traces[row].probe];
    entry.samples.push_back(obs.usr_isp_ms);
    if (obs.access == AccessClass::Home) {
      ++entry.home_votes;
    } else {
      ++entry.cell_votes;
    }
  }
  std::vector<std::pair<const probes::Probe*, ProbeLastMile>> out;
  out.reserve(accumulator.size());
  for (auto& [probe, entry] : accumulator) {  // lint:allow(unordered-iter): sorted by probe id on the next line
    out.emplace_back(probe, std::move(entry));
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.first->id < b.first->id;
  });
  return out;
}

constexpr std::size_t kMinCvSamples = 10;  ///< the paper's >=10-sample rule

}  // namespace

LastMileStats lastmile_stats(const StudyView& view, bool nearest_only) {
  const FactsRef facts{view};
  LastMileStats stats;
  accumulate_lastmile(*view.sc_data, facts->sc, /*is_atlas=*/false,
                      nearest_only, stats);
  if (view.has_atlas()) {
    accumulate_lastmile(*view.atlas_data, *facts->atlas, /*is_atlas=*/true,
                        nearest_only, stats);
  }
  return stats;
}

std::vector<CvGroup> fig8_cv_by_continent(const StudyView& view) {
  const auto per_probe = collect_per_probe(view);
  std::vector<CvGroup> groups;
  for (const geo::Continent c : geo::kAllContinents) {
    groups.push_back(CvGroup{std::string{geo::to_code(c)}, {}, {}, true});
  }
  for (const auto& [probe, entry] : per_probe) {
    if (entry.samples.size() < kMinCvSamples) continue;
    const auto cv = util::coefficient_of_variation(entry.samples);
    if (!cv) continue;
    CvGroup& group = groups[geo::index_of(probe->country->continent)];
    (entry.is_home() ? group.home : group.cell).push_back(*cv);
  }
  return groups;
}

std::vector<CvGroup> fig9_cv_by_country(const StudyView& view) {
  static constexpr std::array<std::string_view, 10> kCountries{
      "ZA", "MA", "JP", "IR", "GB", "UA", "US", "MX", "BR", "AR"};
  constexpr std::size_t kMinProbesPerBox = 8;

  const auto per_probe = collect_per_probe(view);
  std::vector<CvGroup> groups;
  for (const std::string_view code : kCountries) {
    groups.push_back(CvGroup{std::string{code}, {}, {}, true});
  }
  for (const auto& [probe, entry] : per_probe) {
    if (entry.samples.size() < kMinCvSamples) continue;
    const auto it = std::find(kCountries.begin(), kCountries.end(),
                              std::string_view{probe->country->code});
    if (it == kCountries.end()) continue;
    const auto cv = util::coefficient_of_variation(entry.samples);
    if (!cv) continue;
    CvGroup& group = groups[static_cast<std::size_t>(it - kCountries.begin())];
    (entry.is_home() ? group.home : group.cell).push_back(*cv);
  }
  // The paper excludes home boxes with insufficient samples (ZA & MA there).
  for (CvGroup& group : groups) {
    if (group.home.size() < kMinProbesPerBox) {
      group.home_sufficient = false;
      group.home.clear();
    }
  }
  return groups;
}

}  // namespace cloudrtt::analysis
