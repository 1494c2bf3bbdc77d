// Unit tests for the topology substrate: AS registry, backbone graph,
// interconnection policy and the assembled World.

#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <set>
#include <stdexcept>
#include <string_view>
#include <unordered_set>

#include "topology/as_registry.hpp"
#include "topology/backbone.hpp"
#include "topology/interconnect.hpp"
#include "topology/world.hpp"

namespace cloudrtt::topology {
namespace {

using geo::Continent;

TEST(AsRegistryCatalog, PaperNamedCarriersPresent) {
  // §6: Telia AS1299 and GTT AS3257 (carrier peering), NTT AS2914 (in-Japan
  // transit), TATA AS6453 (JP->IN transit).
  std::set<Asn> asns;
  for (const TransitCarrier& carrier : tier1_carriers()) {
    asns.insert(carrier.asn);
    EXPECT_FALSE(carrier.hubs.empty()) << carrier.name;
  }
  for (const Asn expected : {1299u, 3257u, 2914u, 6453u}) {
    EXPECT_TRUE(asns.contains(expected)) << expected;
  }
}

TEST(AsRegistryCatalog, CaseStudyIspsMatchPaperFigures) {
  EXPECT_EQ(named_isps_in("DE").size(), 5u);  // Fig. 12a
  EXPECT_EQ(named_isps_in("JP").size(), 5u);  // Fig. 13a
  EXPECT_EQ(named_isps_in("UA").size(), 5u);  // Fig. 17a
  EXPECT_EQ(named_isps_in("BH").size(), 4u);  // Fig. 18a
  EXPECT_TRUE(named_isps_in("FR").empty());

  bool found_vodafone = false;
  for (const NamedIsp* isp : named_isps_in("DE")) {
    if (isp->asn == 3209) found_vodafone = true;
  }
  EXPECT_TRUE(found_vodafone);
}

TEST(AsRegistry, AddFindAndDuplicateRejection) {
  AsRegistry registry;
  registry.add(AsInfo{64512, "test", AsType::AccessIsp, "DE", Continent::Europe,
                      cloud::ProviderId::Amazon});
  EXPECT_TRUE(registry.contains(64512));
  EXPECT_EQ(registry.at(64512).name, "test");
  EXPECT_THROW(registry.add(AsInfo{64512, "dup", AsType::AccessIsp, "DE",
                                   Continent::Europe, cloud::ProviderId::Amazon}),
               std::logic_error);
  EXPECT_EQ(registry.find(99), nullptr);
  EXPECT_THROW((void)registry.at(99), std::out_of_range);
}

TEST(AsRegistry, SyntheticAsnsAreFresh) {
  AsRegistry registry;
  const Asn a = registry.next_synthetic_asn();
  const Asn b = registry.next_synthetic_asn();
  EXPECT_NE(a, b);
  EXPECT_GE(a, 210000u);
}

class BackboneTest : public ::testing::Test {
 protected:
  Backbone backbone_{geo::CountryTable::instance()};
};

TEST_F(BackboneTest, AllCountriesReachable) {
  const auto all = geo::CountryTable::instance().all();
  const std::string_view hub = "DE";
  for (const geo::CountryInfo& country : all) {
    const BackboneRoute& route = backbone_.route(hub, country.code);
    EXPECT_TRUE(route.reachable) << country.code;
  }
}

TEST_F(BackboneTest, NodeIndexIsTheCataloguePosition) {
  const auto all = geo::CountryTable::instance().all();
  ASSERT_EQ(backbone_.node_count(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(backbone_.node_index(all[i].code), std::optional<std::size_t>{i})
        << all[i].code;
    const BackboneRoute& self = backbone_.route(all[i].code, all[i].code);
    ASSERT_EQ(self.countries.size(), 1u);
    EXPECT_EQ(self.countries.front(), all[i].code);
  }
}

TEST_F(BackboneTest, UnknownCodesHaveNoNodeAndNoRoute) {
  for (const std::string_view code : {"ZZ", "", "U", "us", "USA"}) {
    EXPECT_FALSE(backbone_.node_index(code).has_value()) << '"' << code << '"';
    EXPECT_THROW((void)backbone_.route(code, "DE"), std::out_of_range)
        << '"' << code << '"';
    EXPECT_THROW((void)backbone_.route("DE", code), std::out_of_range)
        << '"' << code << '"';
  }
}

TEST_F(BackboneTest, SameCountryRouteIsZero) {
  const BackboneRoute& route = backbone_.route("DE", "DE");
  EXPECT_TRUE(route.reachable);
  EXPECT_DOUBLE_EQ(route.km, 0.0);
  EXPECT_EQ(route.countries.size(), 1u);
}

TEST_F(BackboneTest, RouteIsSymmetricInLength) {
  for (const auto& [a, b] : std::vector<std::pair<const char*, const char*>>{
           {"DE", "JP"}, {"BR", "ZA"}, {"US", "IN"}, {"KE", "GB"}}) {
    EXPECT_NEAR(backbone_.route(a, b).km, backbone_.route(b, a).km, 1e-6)
        << a << "-" << b;
  }
}

TEST_F(BackboneTest, EgyptToSouthAfricaIsFarLongerThanToEurope) {
  // The geographic core of Fig. 6a.
  EXPECT_GT(backbone_.route("EG", "ZA").effective_km,
            3.0 * backbone_.route("EG", "IT").effective_km);
}

TEST_F(BackboneTest, KenyaKeepsCoastalPathToSouthAfrica) {
  // KE->ZA must not hairpin through Europe (paper: lowest median in-continent).
  const BackboneRoute& route = backbone_.route("KE", "ZA");
  for (const std::string_view hop : route.countries) {
    const geo::CountryInfo& info = geo::CountryTable::instance().at(hop);
    EXPECT_EQ(info.continent, Continent::Africa) << hop;
  }
  EXPECT_LT(route.km, 8000.0);
}

TEST_F(BackboneTest, PenaltiesAccumulatePerCrossing) {
  const BackboneRoute& direct = backbone_.route("DE", "FR");
  const BackboneRoute& far = backbone_.route("PT", "VN");
  EXPECT_GT(far.penalty_ms, direct.penalty_ms);
  EXPECT_GE(direct.penalty_ms, 0.0);
}

TEST_F(BackboneTest, SegmentCostAddsLocalSpurs) {
  const geo::GeoPoint berlin{52.52, 13.40};
  const geo::GeoPoint paris{48.86, 2.35};
  const auto cost = backbone_.segment_cost(berlin, "DE", paris, "FR");
  EXPECT_GT(cost.effective_km, geo::haversine_km(berlin, paris) * 0.8);
  EXPECT_LT(cost.effective_km, 6000.0);
}

TEST_F(BackboneTest, SameCountrySegmentScalesWithDistance) {
  const geo::GeoPoint a{40.0, -100.0};
  const geo::GeoPoint b{40.0, -90.0};
  const geo::GeoPoint c{40.0, -80.0};
  const auto short_cost = backbone_.segment_cost(a, "US", b, "US");
  const auto long_cost = backbone_.segment_cost(a, "US", c, "US");
  EXPECT_GT(long_cost.effective_km, short_cost.effective_km);
}

TEST_F(BackboneTest, PhysicalKmIsBelowEffectiveKm) {
  const geo::CountryTable& t = geo::CountryTable::instance();
  for (const auto& [a, b] : std::vector<std::pair<const char*, const char*>>{
           {"DE", "JP"}, {"EG", "ZA"}, {"US", "AU"}}) {
    const auto cost = backbone_.segment_cost(t.at(a).centroid, a, t.at(b).centroid, b);
    const double physical =
        backbone_.physical_km(t.at(a).centroid, a, t.at(b).centroid, b);
    EXPECT_LT(physical, cost.effective_km * 1.01) << a << "-" << b;
    EXPECT_GT(physical, 0.0);
  }
}

TEST_F(BackboneTest, DetourAndPenaltyShrinkWithQuality) {
  EXPECT_LT(Backbone::detour_factor(0.9), Backbone::detour_factor(0.3));
  EXPECT_LT(Backbone::crossing_penalty_ms(0.9), Backbone::crossing_penalty_ms(0.3));
  EXPECT_NEAR(Backbone::crossing_penalty_ms(1.0), 0.0, 1e-12);
}

TEST(UplinkGateways, GulfFunnelsThroughEgypt) {
  const auto bh = uplink_gateways("BH");
  ASSERT_EQ(bh.size(), 1u);
  EXPECT_EQ(bh.front(), "EG");
  EXPECT_TRUE(uplink_gateways("DE").empty());
  EXPECT_TRUE(uplink_gateways("JP").empty());
  // North Africa hairpins through Europe; east Africa through Nairobi.
  EXPECT_FALSE(uplink_gateways("EG").empty());
  ASSERT_EQ(uplink_gateways("UG").size(), 1u);
  EXPECT_EQ(uplink_gateways("UG").front(), "KE");
}

TEST(PolicyOverride, MatchesPaperMatrices) {
  using cloud::ProviderId;
  // Fig. 12a exceptions.
  EXPECT_EQ(policy_override(6805, ProviderId::Alibaba), InterconnectMode::Public);
  EXPECT_EQ(policy_override(3209, ProviderId::DigitalOcean), InterconnectMode::Public);
  // Fig. 13a: NTT is the one Japanese ISP without direct Amazon peering.
  EXPECT_EQ(policy_override(4713, ProviderId::Amazon), InterconnectMode::OneAs);
  EXPECT_EQ(policy_override(2516, ProviderId::Amazon), InterconnectMode::Direct);
  // Fig. 18a: Microsoft peers directly with Batelco in Bahrain.
  EXPECT_EQ(policy_override(5416, ProviderId::Microsoft), InterconnectMode::Direct);
  // Lightsail rides Amazon's fabric.
  EXPECT_EQ(policy_override(2516, ProviderId::Lightsail), InterconnectMode::Direct);
  // Unnamed pairs have no override.
  EXPECT_FALSE(policy_override(99999, ProviderId::Amazon).has_value());
}

class WorldTest : public ::testing::Test {
 protected:
  World world_{WorldConfig{1234}};
};

TEST_F(WorldTest, NamedIspsExistWithTheirAsns) {
  EXPECT_EQ(world_.isp(3209).name, "Vodafone");
  EXPECT_EQ(world_.isp(3209).country, "DE");
  EXPECT_TRUE(world_.isp(3209).named);
  EXPECT_EQ(world_.isp(5416).country, "BH");
  EXPECT_THROW((void)world_.isp(4242424), std::out_of_range);
}

TEST_F(WorldTest, EveryCountryHasIsps) {
  for (const geo::CountryInfo& country : world_.countries().all()) {
    EXPECT_GE(world_.isps_in(country.code).size(), 2u) << country.code;
  }
}

TEST_F(WorldTest, EndpointsCoverTheCatalog) {
  EXPECT_EQ(world_.endpoints().size(), cloud::RegionCatalog::instance().total());
  for (const topology::CloudEndpoint& endpoint : world_.endpoints()) {
    EXPECT_TRUE(endpoint.prefix.contains(endpoint.vm_ip));
    EXPECT_TRUE(endpoint.prefix.contains(endpoint.dc_router));
    EXPECT_NE(endpoint.vm_ip, endpoint.dc_router);
  }
}

TEST_F(WorldTest, PrefixesAreDisjointAcrossIsps) {
  std::vector<net::Ipv4Prefix> prefixes;
  for (const IspNetwork& isp : world_.isps()) {
    prefixes.push_back(isp.customer_prefix);
    prefixes.push_back(isp.infra_prefix);
  }
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    for (std::size_t j = i + 1; j < prefixes.size(); ++j) {
      EXPECT_FALSE(prefixes[i].contains(prefixes[j].base()) ||
                   prefixes[j].contains(prefixes[i].base()))
          << prefixes[i].to_string() << " vs " << prefixes[j].to_string();
    }
  }
}

TEST_F(WorldTest, CgnPrefixesAreInSharedAddressSpace) {
  for (const IspNetwork& isp : world_.isps()) {
    EXPECT_TRUE(net::is_cgn(isp.cgn_prefix.base())) << isp.name;
    EXPECT_GE(isp.cgn_fraction, 0.0);
    EXPECT_LE(isp.cgn_fraction, 0.45);
  }
}

TEST_F(WorldTest, RibCoversCustomerAndCloudPrefixes) {
  std::unordered_set<std::uint32_t> announced;
  for (const RibEntry& entry : world_.rib_dump()) {
    announced.insert(entry.prefix.base().value());
  }
  for (const IspNetwork& isp : world_.isps()) {
    EXPECT_TRUE(announced.contains(isp.customer_prefix.base().value())) << isp.name;
  }
  for (const CloudEndpoint& endpoint : world_.endpoints()) {
    EXPECT_TRUE(announced.contains(endpoint.prefix.base().value()));
  }
}

TEST_F(WorldTest, WhoisHoldsUnannouncedCarrierInfrastructure) {
  // GTT (AS3257) and Zayo (AS6461) infrastructure lives in whois only,
  // exercising the Team Cymru fallback of §3.3.
  std::set<Asn> whois_asns;
  for (const RibEntry& entry : world_.whois_entries()) {
    whois_asns.insert(entry.asn);
  }
  EXPECT_TRUE(whois_asns.contains(3257u));
  EXPECT_TRUE(whois_asns.contains(6461u));
  for (const RibEntry& rib : world_.rib_dump()) {
    EXPECT_NE(rib.asn, 3257u);
    EXPECT_NE(rib.asn, 6461u);
  }
}

TEST_F(WorldTest, IxpPrefixesAreSeparateFromRib) {
  EXPECT_EQ(world_.ixp_prefixes().size(), known_ixps().size());
  for (const RibEntry& ixp : world_.ixp_prefixes()) {
    EXPECT_TRUE(world_.registry().at(ixp.asn).is_ixp());
  }
}

TEST_F(WorldTest, CaseStudyPopsMatchThePaper) {
  using cloud::ProviderId;
  for (const std::string_view cc : {"DE", "JP", "UA"}) {
    EXPECT_TRUE(world_.has_pop(ProviderId::Amazon, cc)) << cc;
    EXPECT_TRUE(world_.has_pop(ProviderId::Google, cc)) << cc;
    EXPECT_TRUE(world_.has_pop(ProviderId::Microsoft, cc)) << cc;
  }
  // Bahrain: MSFT/GCP edge presence, no Amazon edge (Fig. 18a).
  EXPECT_TRUE(world_.has_pop(ProviderId::Microsoft, "BH"));
  EXPECT_TRUE(world_.has_pop(ProviderId::Google, "BH"));
  EXPECT_FALSE(world_.has_pop(ProviderId::Amazon, "BH"));
  // Datacenter presence implies an edge.
  EXPECT_TRUE(world_.has_pop(ProviderId::Amazon, "BR"));
  EXPECT_TRUE(world_.has_pop(ProviderId::Microsoft, "ZA"));
  // Vultr runs no WAN edge anywhere it has no DC.
  EXPECT_FALSE(world_.has_pop(ProviderId::Vultr, "UA"));
}

TEST_F(WorldTest, InterconnectPolicyIsDeterministicAndCached) {
  const PairPolicy& a =
      world_.interconnect(3209, cloud::ProviderId::Vultr, Continent::Europe);
  const PairPolicy& b =
      world_.interconnect(3209, cloud::ProviderId::Vultr, Continent::Europe);
  EXPECT_EQ(&a, &b);
  EXPECT_GT(a.adherence, 0.5);
  EXPECT_LE(a.adherence, 1.0);
}

TEST_F(WorldTest, OverriddenPolicyUsesThePaperMode) {
  const PairPolicy& policy =
      world_.interconnect(6805, cloud::ProviderId::Alibaba, Continent::Europe);
  EXPECT_EQ(policy.base, InterconnectMode::Public);
}

TEST_F(WorldTest, DigitalOceanIsPublicTowardsAsia) {
  const PairPolicy& policy = world_.interconnect(
      2516, cloud::ProviderId::DigitalOcean, Continent::Asia);
  EXPECT_EQ(policy.base, InterconnectMode::Public);
}

TEST_F(WorldTest, RouterIpsAreStableAndInsideInfraPrefix) {
  const net::Ipv4Address a = world_.router_ip(3209, "core/DE");
  const net::Ipv4Address b = world_.router_ip(3209, "core/DE");
  const net::Ipv4Address c = world_.router_ip(3209, "edge/DE-city-1");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_TRUE(world_.isp(3209).infra_prefix.contains(a));
  EXPECT_TRUE(world_.isp(3209).infra_prefix.contains(c));
}

TEST_F(WorldTest, CustomerAllocationYieldsUniquePublicAddresses) {
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 200; ++i) {
    const net::Ipv4Address addr = world_.allocate_customer_ip(3209);
    EXPECT_FALSE(net::is_private(addr));
    EXPECT_TRUE(seen.insert(addr.value()).second);
  }
}

TEST_F(WorldTest, SameSeedSameWorld) {
  World other{WorldConfig{1234}};
  EXPECT_EQ(other.isps().size(), world_.isps().size());
  for (std::size_t i = 0; i < world_.isps().size(); ++i) {
    EXPECT_EQ(other.isps()[i].asn, world_.isps()[i].asn);
    EXPECT_EQ(other.isps()[i].customer_prefix, world_.isps()[i].customer_prefix);
  }
  EXPECT_EQ(other.has_pop(cloud::ProviderId::Amazon, "SE"),
            world_.has_pop(cloud::ProviderId::Amazon, "SE"));
}

TEST_F(WorldTest, DifferentSeedDiffersSomewhere) {
  World other{WorldConfig{4321}};
  bool any_difference = false;
  for (const geo::CountryInfo& country : world_.countries().all()) {
    if (other.has_pop(cloud::ProviderId::Amazon, country.code) !=
        world_.has_pop(cloud::ProviderId::Amazon, country.code)) {
      any_difference = true;
      break;
    }
  }
  EXPECT_TRUE(any_difference);
}

// Property sweep: every <named ISP, provider, continent> policy is one of
// the four modes with a sane fallback.
class PolicySweep
    : public ::testing::TestWithParam<std::tuple<Asn, cloud::ProviderId>> {};

TEST_P(PolicySweep, PolicyIsWellFormed) {
  World world{WorldConfig{7}};
  const auto [asn, provider] = GetParam();
  for (const Continent c : geo::kAllContinents) {
    const PairPolicy& policy = world.interconnect(asn, provider, c);
    EXPECT_NE(policy.base, policy.fallback);
    EXPECT_GE(policy.adherence, 0.85);
    EXPECT_LE(policy.adherence, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    NamedPairs, PolicySweep,
    ::testing::Combine(::testing::Values<Asn>(3209, 3320, 2516, 4713, 5416, 15895),
                       ::testing::Values(cloud::ProviderId::Amazon,
                                         cloud::ProviderId::DigitalOcean,
                                         cloud::ProviderId::Vultr,
                                         cloud::ProviderId::Ibm)));

}  // namespace
}  // namespace cloudrtt::topology
