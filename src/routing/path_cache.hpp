#pragma once
// PathCache: memoized forwarding-path skeletons.
//
// PathBuilder::build() is a pure function of (world, probe, endpoint, mode) —
// it draws no RNG — yet a campaign day rebuilds the same path thousands of
// times: every visit of a probe to an endpoint under the same rolled mode
// re-derives the identical hop/base-RTT skeleton, string-assembling router
// site names along the way. This cache stores each skeleton once and hands
// out views; the engine keeps re-drawing per-visit noise/congestion/spikes
// from the visit RNG, so the dataset stays bit-identical at any --threads N.
//
// Key: (probe address, endpoint index, mode). The probe address is globally
// unique per world (customer and CGN allocators never overlap), and the
// probe's jittered location / access tech / CGN flag — all of which shape the
// skeleton — are fixed per probe, so the address subsumes them. Bypasses
// (cache consulted but not used, falls back to a scratch build):
//  * backbone outages active — fault days overlay segment costs, so cached
//    nominal skeletons would be stale; entries stay valid for nominal days
//    and nothing is ever flushed;
//  * the endpoint is not in world.endpoints() (tests probing hand-built
//    endpoints) or the probe has no allocated address;
//  * CLOUDRTT_PATH_CACHE=off|0 in the environment (the A/B switch the bench
//    and CI use to prove cache-on/cache-off hash identity).
//
// Concurrency: 16 shards, each a shared_mutex over an open-address map and an
// arena holding the immutable hop blocks. Lookups take a shared lock; a miss
// builds OUTSIDE any lock (builds are pure, duplicate results bit-identical)
// and inserts under the exclusive lock, re-checking for a lost race. Entries
// are never evicted, so returned views stay valid for the cache's lifetime.

#include <array>
#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "probes/fleet.hpp"
#include "routing/path.hpp"
#include "routing/path_builder.hpp"
#include "topology/world.hpp"
#include "util/arena.hpp"

namespace cloudrtt::routing {

class PathCache {
 public:
  PathCache(const topology::World& world, const PathBuilder& builder);

  PathCache(const PathCache&) = delete;
  PathCache& operator=(const PathCache&) = delete;

  /// False when CLOUDRTT_PATH_CACHE=off|0 disabled the cache at construction.
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// The memoized equivalent of PathBuilder::build(). On a hit the view
  /// aliases the immutable cached block; on a miss or bypass the path is
  /// built into `scratch` (reusing its capacity) and the view aliases that —
  /// so the view is only valid until `scratch` is rebuilt. Both branches
  /// return bit-identical hops and consume zero RNG.
  [[nodiscard]] PathView lookup(const probes::Probe& probe,
                                const topology::CloudEndpoint& endpoint,
                                topology::InterconnectMode mode,
                                ForwardingPath& scratch) const;

  /// Entries currently stored across all shards (gauge mirror, for tests).
  [[nodiscard]] std::size_t size() const {
    return entry_count_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kShardCount = 16;

  struct Entry {
    const RouterHop* hops = nullptr;
    std::uint32_t count = 0;
  };
  struct Shard {
    mutable std::shared_mutex mutex;
    // lint:guarded_by(mutex)
    // lint:allow(mutable-member): guarded by mutex
    mutable std::unordered_map<std::uint64_t, Entry> map;
    // lint:guarded_by(mutex)
    // lint:allow(mutable-member): guarded by mutex
    mutable util::Arena arena;
  };

  /// Pack the cache key; false when the pair is uncacheable (foreign
  /// endpoint, unaddressed probe).
  [[nodiscard]] bool key_for(const probes::Probe& probe,
                             const topology::CloudEndpoint& endpoint,
                             topology::InterconnectMode mode,
                             std::uint64_t& key) const;

  const topology::World& world_;
  const PathBuilder& builder_;
  bool enabled_;
  std::array<Shard, kShardCount> shards_;
  // This cache's own entry count (the gauges sum every cache in the
  // process); atomics need no guard.
  mutable std::atomic<std::size_t> entry_count_{0};
  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& bypasses_;
  obs::Gauge& entries_gauge_;
  obs::Gauge& arena_gauge_;
};

}  // namespace cloudrtt::routing
