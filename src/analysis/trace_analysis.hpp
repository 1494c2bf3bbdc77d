#pragma once
// Traceroute processing: AS-level path reduction, ISP-cloud interconnection
// classification (§6.1), wireless last-mile inference (§5), and path
// pervasiveness (Fig. 11). Everything is derived from hop addresses via the
// IpToAsn resolver, so the pipeline inherits the same artefacts the paper
// discusses (invisible IXP hops, unresponsive routers, CGN-confused
// home/cell classification).
//
// Each classifier has one implementation over a ResolvedTrace, a trace whose
// addresses were resolved once; the report's facts pass (analysis/facts.hpp)
// runs all of them on one resolution. The TraceRef overloads resolve the
// trace themselves and call that same implementation.

#include <optional>
#include <span>
#include <vector>

#include "analysis/resolve.hpp"
#include "measure/records.hpp"
#include "topology/interconnect.hpp"

namespace cloudrtt::analysis {

/// Collapsed AS-level view of one traceroute.
struct AsPath {
  std::vector<topology::Asn> asns;  ///< consecutive duplicates collapsed
  bool crossed_ixp = false;         ///< an IXP LAN hop was visible
  bool used_whois = false;          ///< at least one hop needed the fallback
};

[[nodiscard]] AsPath as_level_path(const measure::TraceRef& trace,
                                   const IpToAsn& resolver);

/// One trace after resolution: every responded hop and the target looked up
/// once. `hop_asns[i]` belongs to `hops[i]` and is nullopt when that hop did
/// not respond or resolved to nothing (private or unknown space).
struct ResolvedTrace {
  std::span<const measure::HopRecord> hops;
  std::span<const std::optional<Resolution>> hop_asns;
  std::optional<Resolution> target;
};

/// Resolve `trace`'s responded hops and its target, one lookup each,
/// counting into `tally`. The hop resolutions land in `hop_asns` (resized to
/// the hop count), which the returned view borrows.
[[nodiscard]] ResolvedTrace resolve_trace(
    const measure::TraceRef& trace, const IpToAsn& resolver,
    ResolveTally& tally, std::vector<std::optional<Resolution>>& hop_asns);

/// Result of classifying the ISP->cloud interconnection of one trace.
struct InterconnectObservation {
  bool valid = false;               ///< ISP and cloud AS both visible
  topology::InterconnectMode mode = topology::InterconnectMode::Public;
  int intermediate_as_count = 0;    ///< distinct ASes between ISP and cloud
  bool crossed_ixp = false;
  topology::Asn isp_asn = 0;
  topology::Asn cloud_asn = 0;
};

/// Classify per §6.1: tag-and-remove IXPs, count the distinct intermediate
/// ASes between the serving ISP and the cloud WAN.
[[nodiscard]] InterconnectObservation classify_interconnect(
    const ResolvedTrace& trace, const IpToAsn& resolver);
[[nodiscard]] InterconnectObservation classify_interconnect(
    const measure::TraceRef& trace, const IpToAsn& resolver);

/// The paper's home/cell inference (§5).
enum class AccessClass : unsigned char { Home, Cell, Unknown };

struct LastMileObservation {
  bool valid = false;
  AccessClass access = AccessClass::Unknown;
  double usr_isp_ms = 0.0;  ///< probe -> first public in-ISP hop
  /// Home only: home router -> ISP (the wired tail), USR minus the private
  /// first hop; nullopt when the private hop did not respond.
  std::optional<double> rtr_isp_ms;
};

[[nodiscard]] LastMileObservation infer_last_mile(const ResolvedTrace& trace);
[[nodiscard]] LastMileObservation infer_last_mile(const measure::TraceRef& trace,
                                                  const IpToAsn& resolver);

/// Share of responded+resolved routers owned by the *target* cloud AS
/// (Fig. 11); nullopt when the trace resolves too poorly to say.
[[nodiscard]] std::optional<double> pervasiveness(const ResolvedTrace& trace);
[[nodiscard]] std::optional<double> pervasiveness(const measure::TraceRef& trace,
                                                  const IpToAsn& resolver);

}  // namespace cloudrtt::analysis
