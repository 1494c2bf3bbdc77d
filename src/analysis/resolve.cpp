#include "analysis/resolve.hpp"

#include "obs/metrics.hpp"

namespace cloudrtt::analysis {

namespace {

/// Resolver counters, resolved once: no per-fold Registry lookups.
struct ResolveMetrics {
  obs::Counter& lookups;
  obs::Counter& misses;
  obs::Counter& whois_fallbacks;
  obs::Counter& ixp_hits;

  static ResolveMetrics& instance() {
    obs::Registry& r = obs::Registry::global();
    // lint:allow(local-static): bundle of atomic-counter references; magic-static init is thread-safe and the counters are lock-free
    static ResolveMetrics metrics{
        r.counter("resolve.lookups_total"),
        r.counter("resolve.misses_total"),
        r.counter("resolve.whois_fallbacks_total"),
        r.counter("resolve.ixp_hits_total"),
    };
    return metrics;
  }
};

}  // namespace

ResolveTally& ResolveTally::operator+=(const ResolveTally& other) {
  lookups += other.lookups;
  misses += other.misses;
  whois_fallbacks += other.whois_fallbacks;
  ixp_hits += other.ixp_hits;
  return *this;
}

void ResolveTally::fold() const {
  ResolveMetrics& metrics = ResolveMetrics::instance();
  if (lookups != 0) metrics.lookups.inc(lookups);
  if (misses != 0) metrics.misses.inc(misses);
  if (whois_fallbacks != 0) metrics.whois_fallbacks.inc(whois_fallbacks);
  if (ixp_hits != 0) metrics.ixp_hits.inc(ixp_hits);
}

IpToAsn IpToAsn::from_world(const topology::World& world) {
  IpToAsn resolver;
  for (const topology::RibEntry& entry : world.rib_dump()) {
    resolver.add_rib(entry.prefix, entry.asn);
  }
  for (const topology::RibEntry& entry : world.whois_entries()) {
    resolver.add_whois(entry.prefix, entry.asn);
  }
  for (const topology::RibEntry& entry : world.ixp_prefixes()) {
    resolver.add_ixp(entry.prefix, entry.asn);
  }
  return resolver;
}

void IpToAsn::add_rib(const net::Ipv4Prefix& prefix, topology::Asn asn) {
  rib_.insert(prefix, asn);
}

void IpToAsn::add_whois(const net::Ipv4Prefix& prefix, topology::Asn asn) {
  whois_.insert(prefix, asn);
}

void IpToAsn::add_ixp(const net::Ipv4Prefix& prefix, topology::Asn asn) {
  ixp_.insert(prefix, asn);
  ixp_asns_.insert(asn);
}

std::optional<Resolution> IpToAsn::resolve(net::Ipv4Address addr,
                                           ResolveTally& tally) const {
  ++tally.lookups;
  if (net::is_private(addr)) return std::nullopt;
  // IXP peering LANs are checked first: they are deliberately absent from
  // the RIB (CAIDA-style tagging).
  if (const auto ixp = ixp_.lookup(addr)) {
    ++tally.ixp_hits;
    return Resolution{*ixp, ResolutionSource::Rib, true};
  }
  if (const auto asn = rib_.lookup(addr)) {
    return Resolution{*asn, ResolutionSource::Rib, false};
  }
  if (const auto asn = whois_.lookup(addr)) {
    ++tally.whois_fallbacks;
    return Resolution{*asn, ResolutionSource::Whois, false};
  }
  ++tally.misses;
  return std::nullopt;
}

std::optional<Resolution> IpToAsn::resolve(net::Ipv4Address addr) const {
  ResolveTally tally;
  const std::optional<Resolution> res = resolve(addr, tally);
  tally.fold();
  return res;
}

}  // namespace cloudrtt::analysis
