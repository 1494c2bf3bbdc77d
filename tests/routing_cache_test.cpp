// Path-cache gate: the memoized forwarding-path skeletons (routing/path_cache)
// must be invisible in every dataset bit. Four angles:
//   * cache.lookup() vs a direct PathBuilder::build() — identical hop fields
//     for every (probe, endpoint, mode) at multiple world seeds;
//   * the campaign dataset hash is unchanged across --threads 1/4/8 with the
//     cache on (the cache is shared across workers);
//   * CLOUDRTT_PATH_CACHE=off produces the same hash as cache-on — the A/B
//     switch CI uses to prove the cache only changes wall-clock;
//   * kill+resume across a checkpoint hashes like an uninterrupted run even
//     though the resumed process starts with a cold cache.
//
// Like the determinism/parallel gates this suite shares in-process studies,
// so it registers as a single ctest entry.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "core/export.hpp"
#include "core/study.hpp"
#include "obs/metrics.hpp"
#include "probes/fleet.hpp"
#include "routing/path_builder.hpp"
#include "routing/path_cache.hpp"
#include "store/io_env.hpp"
#include "store/salvage.hpp"
#include "topology/world.hpp"

namespace cloudrtt {
namespace {

namespace fs = std::filesystem;

using topology::InterconnectMode;

constexpr InterconnectMode kAllModes[] = {
    InterconnectMode::Direct, InterconnectMode::DirectIxp,
    InterconnectMode::OneAs, InterconnectMode::Public};

/// A probe pinned to a country's first ISP, with a real allocated address —
/// the same recipe as the PathBuilder unit tests, so cacheable by key.
[[nodiscard]] probes::Probe make_probe(topology::World& world,
                                       std::string_view country,
                                       std::uint32_t id) {
  const geo::CountryInfo& info = world.countries().at(country);
  probes::Probe probe;
  probe.id = id;
  probe.country = &info;
  probe.isp = world.isps_in(country).front();
  probe.city = &geo::CityDirectory::instance().cities(country).front();
  probe.location = probe.city->location;
  probe.access = lastmile::AccessTech::HomeWifi;
  util::Rng rng{probe.id};
  probe.lastmile =
      lastmile::make_profile(probe.access, info.backhaul_quality, rng);
  probe.address = world.allocate_customer_ip(probe.isp->asn);
  return probe;
}

void expect_same_hops(const routing::ForwardingPath& built,
                      const routing::PathView& cached) {
  ASSERT_EQ(built.hops.size(), cached.hops.size());
  EXPECT_EQ(built.mode, cached.mode);
  for (std::size_t i = 0; i < built.hops.size(); ++i) {
    const routing::RouterHop& a = built.hops[i];
    const routing::RouterHop& b = cached.hops[i];
    EXPECT_EQ(a.ip, b.ip);
    EXPECT_EQ(a.alt_ip, b.alt_ip);
    EXPECT_EQ(a.asn, b.asn);
    EXPECT_EQ(a.is_private, b.is_private);
    EXPECT_EQ(a.cloud_owned, b.cloud_owned);
    // Bit-identical, not approximately equal: both sides run the same pure
    // code over the same inputs.
    EXPECT_EQ(a.base_rtt_ms, b.base_rtt_ms);
    EXPECT_EQ(a.noise_abs_ms, b.noise_abs_ms);
  }
}

/// Every (probe country, endpoint, mode) skeleton from the cache matches a
/// fresh uncached build, and repeat lookups serve the same immutable block.
void check_cache_against_builder(std::uint64_t world_seed) {
  topology::World world{topology::WorldConfig{world_seed}};
  const routing::PathBuilder builder{world};
  const routing::PathCache cache{world, builder};
  ASSERT_TRUE(cache.enabled());

  std::uint32_t next_id = 1;
  routing::ForwardingPath scratch;
  for (const std::string_view country : {"DE", "JP", "BR"}) {
    const probes::Probe probe = make_probe(world, country, next_id++);
    for (const topology::CloudEndpoint& endpoint : world.endpoints()) {
      for (const InterconnectMode mode : kAllModes) {
        const routing::ForwardingPath built =
            builder.build(probe, endpoint, mode);
        const routing::PathView first =
            cache.lookup(probe, endpoint, mode, scratch);
        expect_same_hops(built, first);
        const routing::PathView second =
            cache.lookup(probe, endpoint, mode, scratch);
        // The second lookup is a hit on the first's inserted block.
        EXPECT_EQ(first.hops.data(), second.hops.data());
        expect_same_hops(built, second);
      }
    }
  }
  EXPECT_GT(cache.size(), 0u);
}

TEST(PathCacheGate, CachedSkeletonsMatchDirectBuildsSeed23) {
  check_cache_against_builder(23);
}

TEST(PathCacheGate, CachedSkeletonsMatchDirectBuildsSeed57) {
  check_cache_against_builder(57);
}

TEST(PathCacheGate, DisabledCacheStillBuildsCorrectPathsIntoScratch) {
  ASSERT_EQ(setenv("CLOUDRTT_PATH_CACHE", "off", 1), 0);
  topology::World world{topology::WorldConfig{23}};
  const routing::PathBuilder builder{world};
  const routing::PathCache cache{world, builder};
  unsetenv("CLOUDRTT_PATH_CACHE");
  EXPECT_FALSE(cache.enabled());

  const probes::Probe probe = make_probe(world, "DE", 900);
  const topology::CloudEndpoint& endpoint = world.endpoints().front();
  routing::ForwardingPath scratch;
  const routing::PathView view =
      cache.lookup(probe, endpoint, InterconnectMode::Public, scratch);
  // Bypass: the view aliases the caller's scratch and nothing is stored.
  EXPECT_EQ(view.hops.data(), scratch.hops.data());
  EXPECT_EQ(cache.size(), 0u);
  expect_same_hops(builder.build(probe, endpoint, InterconnectMode::Public),
                   view);
}

// A study runs one PathCache per campaign, and both feed the same registry
// gauges: they must show the process total, not whichever cache wrote last.
TEST(PathCacheGate, GaugesSumEveryCacheInTheProcess) {
  topology::World world{topology::WorldConfig{23}};
  const routing::PathBuilder builder{world};
  obs::Gauge& entries =
      obs::Registry::global().gauge("routing.path_cache.entries");
  obs::Gauge& arena_bytes =
      obs::Registry::global().gauge("routing.path_cache.arena_bytes");
  const double entries_before = entries.value();
  const double bytes_before = arena_bytes.value();

  const routing::PathCache first{world, builder};
  const routing::PathCache second{world, builder};
  ASSERT_TRUE(first.enabled());
  routing::ForwardingPath scratch;
  std::size_t hops = 0;
  const probes::Probe de = make_probe(world, "DE", 1);
  for (const topology::CloudEndpoint& endpoint : world.endpoints()) {
    hops += first.lookup(de, endpoint, InterconnectMode::Public, scratch)
                .hops.size();
  }
  const probes::Probe jp = make_probe(world, "JP", 2);
  for (std::size_t i = 0; i < 3; ++i) {
    hops += second
                .lookup(jp, world.endpoints()[i], InterconnectMode::Direct,
                        scratch)
                .hops.size();
  }
  ASSERT_EQ(second.size(), 3u);
  ASSERT_GT(first.size(), second.size());

  EXPECT_EQ(entries.value() - entries_before,
            static_cast<double>(first.size() + second.size()));
  EXPECT_EQ(arena_bytes.value() - bytes_before,
            static_cast<double>(hops * sizeof(routing::RouterHop)));
}

/// Small Speedchecker-only campaign; two days so the second day replays
/// entirely out of the warm cache.
[[nodiscard]] core::StudyConfig cache_config(std::uint64_t seed,
                                             unsigned threads) {
  core::StudyConfig config;
  config.seed = seed;
  config.threads = threads;
  config.include_atlas = false;
  config.sc_probes = 1000;
  config.sc_campaign.days = 2;
  config.sc_campaign.daily_budget = 1800;
  config.sc_campaign.case_study_probes = 4;
  return config;
}

[[nodiscard]] std::string sc_hash(const core::Study& study) {
  return core::format_dataset_hash(core::dataset_hash(study.sc_dataset()));
}

/// Sequential cache-on baseline, computed once and shared across cases.
[[nodiscard]] const std::string& baseline_hash() {
  static const std::string hash = [] {
    core::Study study{cache_config(7, 1)};
    study.run();
    return sc_hash(study);
  }();
  return hash;
}

TEST(PathCacheGate, DatasetHashIsThreadInvariantWithCacheOn) {
  const std::uint64_t hits_before =
      obs::Registry::global().counter("routing.path_cache.hits").value();
  for (const unsigned threads : {4u, 8u}) {
    core::Study study{cache_config(7, threads)};
    study.run();
    EXPECT_EQ(baseline_hash(), sc_hash(study)) << threads << " threads";
  }
  // The runs above must actually have exercised the cache, not bypassed it.
  EXPECT_GT(obs::Registry::global().counter("routing.path_cache.hits").value(),
            hits_before);
}

TEST(PathCacheGate, CacheOffHashesIdenticallyToCacheOn) {
  ASSERT_EQ(setenv("CLOUDRTT_PATH_CACHE", "off", 1), 0);
  core::Study study{cache_config(7, 4)};
  study.run();
  unsetenv("CLOUDRTT_PATH_CACHE");
  EXPECT_EQ(baseline_hash(), sc_hash(study));
}

TEST(PathCacheGate, KillAndResumeWithWarmCacheHashesIdentically) {
  const fs::path dir = fs::path{::testing::TempDir()} / "cloudrtt_cache_resume";
  fs::remove_all(dir);

  // First process: day 0 warms the cache, the run stops after day 1's
  // checkpoint is committed.
  core::Study killed{cache_config(7, 4)};
  core::RunControl first;
  first.checkpoint_dir = dir.string();
  first.stop_after_day = 1;
  killed.run(first);
  EXPECT_FALSE(killed.completed());
  store::IoEnv io;
  ASSERT_EQ(store::manifest_format(dir, "speedchecker", io), 3);

  // Second process: a fresh study (cold cache) replays the remaining day.
  core::Study resumed{cache_config(7, 4)};
  core::RunControl second;
  second.checkpoint_dir = dir.string();
  second.resume = true;
  resumed.run(second);
  ASSERT_TRUE(resumed.completed());

  EXPECT_EQ(baseline_hash(), sc_hash(resumed));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace cloudrtt
