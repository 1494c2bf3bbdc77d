#pragma once
// The report's derivation pass: the §3.3 annotation of every traceroute,
// done once. Every responded hop and every trace target of both datasets is
// resolved through IpToAsn exactly once, each trace is classified once
// (interconnection, last mile, pervasiveness, first public ASN, hop
// resolution counts), and each dataset's NearestIndex is built once. The
// exhibits (experiments.hpp) read these facts instead of re-walking hops.
//
// Trace rows are split into fixed-size ranges, each filling its own per-row
// slots, so the facts never depend on the worker count; work of one range
// or less runs inline. Resolver lookups are tallied per worker and folded
// into the resolve.* counters once per derivation.

#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/nearest.hpp"
#include "analysis/study_view.hpp"
#include "analysis/trace_analysis.hpp"

namespace cloudrtt::analysis {

/// Everything the exhibits need from one trace row.
struct TraceFacts {
  InterconnectObservation interconnect;
  LastMileObservation last_mile;
  std::optional<double> pervasiveness;
  /// ASN of the first responded public hop (Fig. 16's <city, ASN> key);
  /// nullopt when there is none or it does not resolve.
  std::optional<topology::Asn> first_public_asn;
  std::uint32_t resolved_hops = 0;  ///< responded hops that resolved (§3.3)
  std::uint32_t whois_hops = 0;     ///< of those, resolved via whois
};

struct DatasetFacts {
  NearestIndex nearest;
  std::vector<TraceFacts> traces;  ///< one per trace row, in row order
};

struct StudyFacts {
  DatasetFacts sc;
  std::optional<DatasetFacts> atlas;  ///< set iff the view has Atlas data
};

/// Derive the facts of `view`'s datasets on `workers` threads (<= 1:
/// inline). The result is the same for every worker count.
[[nodiscard]] StudyFacts derive_facts(const StudyView& view, unsigned workers);

/// Worker count for a derivation nobody sized: hardware_concurrency(), at
/// least 1.
[[nodiscard]] unsigned default_derive_workers();

/// The facts an exhibit reads: the view's shared derivation when it carries
/// one (write_full_report), else one derived for this caller alone.
class FactsRef {
 public:
  explicit FactsRef(const StudyView& view,
                    unsigned workers = default_derive_workers());

  [[nodiscard]] const StudyFacts& operator*() const { return *facts_; }
  [[nodiscard]] const StudyFacts* operator->() const { return facts_; }

  FactsRef(const FactsRef&) = delete;
  FactsRef& operator=(const FactsRef&) = delete;

 private:
  std::optional<StudyFacts> own_;
  const StudyFacts* facts_ = nullptr;  ///< the view's, or &*own_
};

}  // namespace cloudrtt::analysis
