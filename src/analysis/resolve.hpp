#pragma once
// IP -> ASN resolution: the PyASN / Team Cymru / CAIDA-IXP pipeline of §3.3.
//
// The resolver is bootstrapped from the same kinds of inputs the paper used:
// a RIB dump (announced prefixes), registration (whois) data for prefixes
// that are routed but not announced, and the IXP peering-LAN prefix list.
// Analysis code resolves every traceroute hop through this class; it never
// reads ground truth off the simulator.

#include <cstdint>
#include <optional>
#include <unordered_set>

#include "net/ipv4.hpp"
#include "net/prefix_trie.hpp"
#include "topology/asn.hpp"
#include "topology/world.hpp"

namespace cloudrtt::analysis {

enum class ResolutionSource : unsigned char { Rib, Whois };

struct Resolution {
  topology::Asn asn = 0;
  ResolutionSource source = ResolutionSource::Rib;
  bool is_ixp = false;
};

/// The resolve.* counters as one thread tallies them. A pass that resolves
/// many addresses keeps one tally per worker and folds their sum into the
/// global registry once, instead of ticking shared atomics on every call.
struct ResolveTally {
  std::uint64_t lookups = 0;
  std::uint64_t misses = 0;
  std::uint64_t whois_fallbacks = 0;
  std::uint64_t ixp_hits = 0;

  ResolveTally& operator+=(const ResolveTally& other);
  /// Add this tally to the global resolve.* counters.
  void fold() const;
};

class IpToAsn {
 public:
  IpToAsn() = default;

  /// Bootstrap from the world's public data products (RIB dump, whois
  /// registry, IXP prefix list).
  [[nodiscard]] static IpToAsn from_world(const topology::World& world);

  void add_rib(const net::Ipv4Prefix& prefix, topology::Asn asn);
  void add_whois(const net::Ipv4Prefix& prefix, topology::Asn asn);
  void add_ixp(const net::Ipv4Prefix& prefix, topology::Asn asn);

  /// Longest-prefix match over the RIB, falling back to whois; nullopt for
  /// private space and unknown addresses. Counts into `tally`.
  [[nodiscard]] std::optional<Resolution> resolve(net::Ipv4Address addr,
                                                  ResolveTally& tally) const;
  /// The same, folded into the global resolve.* counters at once.
  [[nodiscard]] std::optional<Resolution> resolve(net::Ipv4Address addr) const;

  [[nodiscard]] bool is_ixp_asn(topology::Asn asn) const {
    return ixp_asns_.contains(asn);
  }

  [[nodiscard]] std::size_t rib_size() const { return rib_.entry_count(); }
  [[nodiscard]] std::size_t whois_size() const { return whois_.entry_count(); }

 private:
  net::PrefixTrie<topology::Asn> rib_;
  net::PrefixTrie<topology::Asn> whois_;
  net::PrefixTrie<topology::Asn> ixp_;
  std::unordered_set<topology::Asn> ixp_asns_;
};

}  // namespace cloudrtt::analysis
