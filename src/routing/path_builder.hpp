#pragma once
// PathBuilder: turns <probe, endpoint, interconnection mode> into a concrete
// router-level forwarding path with a calibrated latency budget.
//
// Path shapes per mode (§6.1 of the paper):
//  * Direct:    probe -> ISP -> cloud edge PoP (in the probe's country when
//               the provider deploys one) -> private WAN -> DC.
//  * DirectIxp: same, but the peering crosses a visible IXP fabric.
//  * OneAs:     probe -> ISP -> Tier-1 carrier hub(s) -> cloud PoP at the
//               carrier facility -> WAN -> DC (PNI). Without a WAN serving
//               the destination, the carrier hauls all the way to the DC.
//  * Public:    probe -> ISP -> continental upstream -> carrier hub(s) ->
//               DC metro; the cloud AS appears only at the datacenter.
//
// Latency is composed from backbone segment costs (geography + quality
// detours + border penalties), private-WAN great-circle runs, and per-hop
// processing, with an absolute jitter budget accumulated per segment type.
//
// Carrier, hub and IXP choices are argmins over the world's frozen
// HubGeometry tables (topology/hub_geometry.hpp): a build computes no
// haversine for them, and country lookups are O(1). The tables hold the
// same doubles the per-build scans computed, so every path is bit-identical
// to what those scans produced. A builder only reads the world, so any
// number of threads may build paths at once.

#include "probes/fleet.hpp"
#include "routing/path.hpp"
#include "topology/world.hpp"

namespace cloudrtt::routing {

class PathBuilder {
 public:
  explicit PathBuilder(const topology::World& world) : world_(world) {}

  [[nodiscard]] ForwardingPath build(const probes::Probe& probe,
                                     const topology::CloudEndpoint& endpoint,
                                     topology::InterconnectMode mode) const;

  /// build() into caller-owned storage: `out` is cleared but keeps its hop
  /// capacity, so a reused scratch path allocates only on its deepest build.
  /// This is the PathCache miss/bypass entry point — the allocation-free
  /// variant the per-visit hot loop calls.
  void build_into(const probes::Probe& probe,
                  const topology::CloudEndpoint& endpoint,
                  topology::InterconnectMode mode, ForwardingPath& out) const;

  /// "Horizontal" inter-datacenter path (§3.1): providers with a WAN serving
  /// both regions ride their private backbone; everyone else hauls between
  /// the DC metros over carriers and the public Internet — which is exactly
  /// how the paper describes small providers moving traffic between DCs.
  [[nodiscard]] ForwardingPath build_interdc(
      const topology::CloudEndpoint& src,
      const topology::CloudEndpoint& dst) const;

  /// Does the provider's WAN carry traffic to this destination region?
  [[nodiscard]] static bool wan_serves(cloud::ProviderId provider,
                                       const cloud::RegionInfo& region);

 private:
  const topology::World& world_;
};

}  // namespace cloudrtt::routing
