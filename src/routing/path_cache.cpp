#include "routing/path_cache.hpp"

#include <cstdlib>
#include <cstring>
#include <mutex>
#include <type_traits>

#include "util/check.hpp"

namespace cloudrtt::routing {

namespace {

// Cached blocks are raw-copied into shard arenas; the hop record must stay a
// plain value type for that to be legal.
static_assert(std::is_trivially_copyable_v<RouterHop>,
              "RouterHop must be trivially copyable for arena caching");

[[nodiscard]] bool cache_disabled_by_env() {
  // Reading a configuration switch, not entropy; getenv is deterministic here.
  const char* value = std::getenv("CLOUDRTT_PATH_CACHE");
  if (value == nullptr) return false;
  return std::strcmp(value, "off") == 0 || std::strcmp(value, "0") == 0;
}

}  // namespace

PathCache::PathCache(const topology::World& world, const PathBuilder& builder)
    : world_(world),
      builder_(builder),
      enabled_(!cache_disabled_by_env()),
      hits_(obs::Registry::global().counter(
          "routing.path_cache.hits",
          "Forwarding-path lookups served from the memoized skeleton")),
      misses_(obs::Registry::global().counter(
          "routing.path_cache.misses",
          "Forwarding-path lookups that built and inserted a new skeleton")),
      bypasses_(obs::Registry::global().counter(
          "routing.path_cache.bypasses",
          "Forwarding-path lookups that skipped the cache (outage overlay "
          "active, uncacheable key, or cache disabled)")),
      entries_gauge_(obs::Registry::global().gauge(
          "routing.path_cache.entries", "Distinct cached path skeletons")),
      arena_gauge_(obs::Registry::global().gauge(
          "routing.path_cache.arena_bytes",
          "Bytes of hop storage held by the path-cache arenas")) {}

bool PathCache::key_for(const probes::Probe& probe,
                        const topology::CloudEndpoint& endpoint,
                        topology::InterconnectMode mode,
                        std::uint64_t& key) const {
  const std::uint32_t address = probe.address.value();
  if (address == 0) return false;  // hand-built probe without an address
  const auto& endpoints = world_.endpoints();
  // Range-check via uintptr before any pointer subtraction: subtracting
  // pointers into different arrays is UB, and tests do probe hand-built
  // endpoints that live outside the world's directory.
  const auto addr = reinterpret_cast<std::uintptr_t>(&endpoint);
  const auto first = reinterpret_cast<std::uintptr_t>(endpoints.data());
  const auto last = reinterpret_cast<std::uintptr_t>(endpoints.data() +
                                                     endpoints.size());
  if (addr < first || addr >= last) return false;
  const std::uint64_t index =
      (addr - first) / sizeof(topology::CloudEndpoint);
  // 32 bits of probe address | 30 bits of endpoint index | 2 bits of mode.
  CLOUDRTT_DCHECK(index < (std::uint64_t{1} << 30),
                  "endpoint index ", index, " overflows the cache key");
  key = (std::uint64_t{address} << 32) | (index << 2) |
        static_cast<std::uint64_t>(mode);
  return true;
}

// lint:hot
PathView PathCache::lookup(const probes::Probe& probe,
                           const topology::CloudEndpoint& endpoint,
                           topology::InterconnectMode mode,
                           ForwardingPath& scratch) const {
  std::uint64_t key = 0;
  if (!enabled_ || world_.backbone().outages_active() ||
      !key_for(probe, endpoint, mode, key)) {
    bypasses_.inc();
    builder_.build_into(probe, endpoint, mode, scratch);
    return PathView{scratch};
  }

  const Shard& shard = shards_[(key * 0x9e3779b97f4a7c15ull) >> 60];
  {
    const std::shared_lock lock{shard.mutex};
    const auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      hits_.inc();
      return PathView{{it->second.hops, it->second.count}, mode};
    }
  }

  // Miss: build outside any lock. build() is pure, so a racing builder of
  // the same key produces bit-identical hops and losing the insert below is
  // harmless — we simply return the winner's block.
  builder_.build_into(probe, endpoint, mode, scratch);
  misses_.inc();

  const std::unique_lock lock{shard.mutex};
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    const std::size_t count = scratch.hops.size();
    RouterHop* stored = shard.arena.allocate_array<RouterHop>(count);
    std::memcpy(stored, scratch.hops.data(), count * sizeof(RouterHop));
    it = shard.map
             .emplace(key, Entry{stored, static_cast<std::uint32_t>(count)})
             .first;
    // Every campaign's cache feeds these process-wide gauges, so each
    // insert adds its own delta.
    entry_count_.fetch_add(1, std::memory_order_relaxed);
    entries_gauge_.add(1.0);
    arena_gauge_.add(static_cast<double>(count * sizeof(RouterHop)));
  }
  return PathView{{it->second.hops, it->second.count}, mode};
}

}  // namespace cloudrtt::routing
