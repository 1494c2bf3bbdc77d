#include "analysis/trace_analysis.hpp"

#include <algorithm>

namespace cloudrtt::analysis {

AsPath as_level_path(const measure::TraceRef& trace, const IpToAsn& resolver) {
  AsPath path;
  for (const measure::HopRecord& hop : trace.hops) {
    if (!hop.responded) continue;
    const auto res = resolver.resolve(hop.ip);
    if (!res) continue;  // private or unknown space
    if (res->is_ixp) path.crossed_ixp = true;
    if (res->source == ResolutionSource::Whois) path.used_whois = true;
    if (path.asns.empty() || path.asns.back() != res->asn) {
      path.asns.push_back(res->asn);
    }
  }
  return path;
}

ResolvedTrace resolve_trace(const measure::TraceRef& trace,
                            const IpToAsn& resolver, ResolveTally& tally,
                            std::vector<std::optional<Resolution>>& hop_asns) {
  hop_asns.assign(trace.hops.size(), std::nullopt);
  for (std::size_t i = 0; i < trace.hops.size(); ++i) {
    if (trace.hops[i].responded) {
      hop_asns[i] = resolver.resolve(trace.hops[i].ip, tally);
    }
  }
  return ResolvedTrace{trace.hops, hop_asns,
                       resolver.resolve(trace.target_ip, tally)};
}

namespace {

/// The TraceRef overloads: resolve this one trace, fold its lookups into the
/// global counters, and run the classifier on the resolution.
template <typename Classify>
[[nodiscard]] auto on_resolved(const measure::TraceRef& trace,
                               const IpToAsn& resolver, Classify&& classify) {
  ResolveTally tally;
  std::vector<std::optional<Resolution>> hop_asns;
  const ResolvedTrace resolved = resolve_trace(trace, resolver, tally, hop_asns);
  tally.fold();
  return classify(resolved);
}

}  // namespace

InterconnectObservation classify_interconnect(const ResolvedTrace& trace,
                                              const IpToAsn& resolver) {
  InterconnectObservation out;
  if (!trace.target) return out;
  out.cloud_asn = trace.target->asn;

  // Ordered, collapsed AS path with IXP hops tagged.
  struct Entry {
    topology::Asn asn;
    bool ixp;
  };
  std::vector<Entry> path;
  for (const std::optional<Resolution>& res : trace.hop_asns) {
    if (!res) continue;
    if (path.empty() || path.back().asn != res->asn) {
      path.push_back(Entry{res->asn, res->is_ixp});
    }
  }

  // Serving ISP: the first non-IXP AS on the path.
  std::size_t isp_pos = path.size();
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (!path[i].ixp) {
      isp_pos = i;
      out.isp_asn = path[i].asn;
      break;
    }
  }
  if (isp_pos == path.size()) return out;

  // First appearance of the cloud WAN.
  std::size_t cloud_pos = path.size();
  for (std::size_t i = isp_pos + 1; i < path.size(); ++i) {
    if (path[i].asn == out.cloud_asn) {
      cloud_pos = i;
      break;
    }
  }
  if (cloud_pos == path.size()) return out;  // never reached the cloud AS

  // Count distinct intermediate ASes, removing IXPs (they are points of
  // traffic exchange, not transit — §6.1).
  std::vector<topology::Asn> intermediates;
  for (std::size_t i = isp_pos + 1; i < cloud_pos; ++i) {
    if (path[i].ixp || resolver.is_ixp_asn(path[i].asn)) {
      out.crossed_ixp = true;
      continue;
    }
    if (path[i].asn == out.isp_asn) continue;  // ISP reappearing (own backhaul)
    if (std::find(intermediates.begin(), intermediates.end(), path[i].asn) ==
        intermediates.end()) {
      intermediates.push_back(path[i].asn);
    }
  }

  out.valid = true;
  out.intermediate_as_count = static_cast<int>(intermediates.size());
  if (intermediates.empty()) {
    out.mode = out.crossed_ixp ? topology::InterconnectMode::DirectIxp
                               : topology::InterconnectMode::Direct;
  } else if (intermediates.size() == 1) {
    out.mode = topology::InterconnectMode::OneAs;
  } else {
    out.mode = topology::InterconnectMode::Public;
  }
  return out;
}

InterconnectObservation classify_interconnect(const measure::TraceRef& trace,
                                              const IpToAsn& resolver) {
  return on_resolved(trace, resolver, [&](const ResolvedTrace& resolved) {
    return classify_interconnect(resolved, resolver);
  });
}

LastMileObservation infer_last_mile(const ResolvedTrace& trace) {
  LastMileObservation out;
  bool saw_private = false;
  std::optional<double> first_private_rtt;

  for (std::size_t i = 0; i < trace.hops.size(); ++i) {
    const measure::HopRecord& hop = trace.hops[i];
    if (!hop.responded) continue;
    if (net::is_private(hop.ip)) {
      if (!saw_private) first_private_rtt = hop.rtt_ms;
      saw_private = true;
      continue;
    }
    // First public hop: must belong to some AS to anchor the ISP ingress.
    if (!trace.hop_asns[i]) continue;
    out.valid = true;
    out.usr_isp_ms = hop.rtt_ms;
    out.access = saw_private ? AccessClass::Home : AccessClass::Cell;
    if (saw_private && first_private_rtt) {
      out.rtr_isp_ms = std::max(0.0, out.usr_isp_ms - *first_private_rtt);
    }
    return out;
  }
  return out;  // nothing usable responded
}

LastMileObservation infer_last_mile(const measure::TraceRef& trace,
                                    const IpToAsn& resolver) {
  return on_resolved(trace, resolver, [](const ResolvedTrace& resolved) {
    return infer_last_mile(resolved);
  });
}

std::optional<double> pervasiveness(const ResolvedTrace& trace) {
  if (!trace.target) return std::nullopt;
  std::size_t resolved = 0;
  std::size_t cloud_owned = 0;
  for (const std::optional<Resolution>& res : trace.hop_asns) {
    if (!res) continue;
    ++resolved;
    if (res->asn == trace.target->asn) ++cloud_owned;
  }
  if (resolved < 3) return std::nullopt;
  return static_cast<double>(cloud_owned) / static_cast<double>(resolved);
}

std::optional<double> pervasiveness(const measure::TraceRef& trace,
                                    const IpToAsn& resolver) {
  return on_resolved(trace, resolver, [](const ResolvedTrace& resolved) {
    return pervasiveness(resolved);
  });
}

}  // namespace cloudrtt::analysis
