#pragma once
// Opening a streaming store: validate what the manifest committed, salvage
// what the crash left beyond it.
//
// Lanes are read block by block (store::LaneReader), never whole. The
// committed region of each lane (the manifest's byte mark) is parsed
// *strictly* — a shorter file, a straddling or damaged block, a checksum or
// sequence mismatch there means the commit point itself lied, and the open
// refuses with a structured error rather than guessing. Bytes beyond the
// mark are the uncommitted tail of an interrupted run: salvage walks them
// block by block and adopts the longest prefix that continues the campaign
// exactly where the manifest stopped (the chain rule in open_store), counts
// what it had to drop, and — when `repair` is set — truncates each lane back
// to its last adopted byte so the next append lands on a block boundary. A
// binding open then decodes the adopted blocks through store::StoreScan,
// the scan the streamed dataset hash walks too.
//
// The resume contract: open_store() + replaying the remainder of the
// interrupted day from the RNG (the campaign's per-day streams are forked
// from the never-advanced base seed) reproduces the exact dataset an
// uninterrupted run would have produced — core::dataset_hash is the oracle
// the crash-loop CI gate checks.

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "measure/campaign.hpp"
#include "measure/records.hpp"
#include "probes/fleet.hpp"
#include "store/io_env.hpp"
#include "store/shard_writer.hpp"

namespace cloudrtt::store {

/// What salvage did to the uncommitted tail of a store.
struct SalvageReport {
  std::uint64_t committed_blocks = 0;  ///< blocks inside the manifest marks
  std::uint64_t salvaged_blocks = 0;   ///< tail blocks adopted into the data
  std::uint64_t salvaged_rows = 0;     ///< task rows (ping+trace pairs) adopted
  std::uint64_t dropped_blocks = 0;    ///< structurally valid but rejected
  std::uint64_t truncated_bytes = 0;   ///< tail bytes cut (or cuttable) away
  bool repaired = false;               ///< lanes physically truncated
  /// True when the store needed no recovery at all.
  [[nodiscard]] bool clean() const {
    return salvaged_blocks == 0 && dropped_blocks == 0 &&
           truncated_bytes == 0;
  }
};

/// Everything a resume needs from an opened store.
struct OpenResult {
  measure::Dataset data;
  measure::CampaignState state;
  StoreMeta meta;
  std::vector<LaneState> lane_states;
  SalvageReport salvage;
  /// Task rows (ping+trace pairs) durably on disk after salvage: committed
  /// plus adopted tail. Equals data.pings.size() on a binding open; the only
  /// row count available on a structural open (which parses no rows).
  std::uint64_t durable_rows = 0;
  std::string error;
  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// manifest_format() of a manifest that exists but cannot be read or does
/// not start with a `format=N` line (N > 0).
inline constexpr int kUnparseableManifest = -1;

/// Manifest format under `dir` for `platform`: 0 when there is no manifest,
/// kUnparseableManifest, or the N of its `format=N` first line. Only 3 (the
/// streaming store) can be opened; 1 and 2 were legacy CSV checkpoints.
[[nodiscard]] int manifest_format(const std::filesystem::path& dir,
                                  std::string_view platform, IoEnv& io);

/// Why a manifest of `format` (neither 0 nor 3) cannot be opened. fsck
/// reports it as the DAMAGED reason, and a resume refuses with it.
[[nodiscard]] std::string unsupported_format_reason(int format);

/// Open a format=3 store: strict-validate the committed region, salvage the
/// tail, rebuild the dataset and resume state. `repair` additionally
/// truncates torn/dropped tail bytes so a ShardWriter can continue in place;
/// read-only callers pass false. Rows that do not bind to the fleets refuse.
[[nodiscard]] OpenResult open_store(const std::filesystem::path& dir,
                                    std::string_view platform, IoEnv& io,
                                    const probes::ProbeFleet* sc_fleet,
                                    const probes::ProbeFleet* atlas_fleet,
                                    bool repair);

/// Structural open: same committed-region validation, salvage chain and
/// repair as open_store, but no row binding — `data` comes back empty and
/// `durable_rows` carries the on-disk row count. This is what a *streaming*
/// resume uses: it needs the lane states and campaign state to continue
/// appending, never the rows themselves (RAM stays O(day)).
[[nodiscard]] OpenResult open_store_structural(
    const std::filesystem::path& dir, std::string_view platform, IoEnv& io,
    bool repair);

/// Offline integrity check (`cloudrtt study --fsck`): same validation as
/// open_store but structural only — no probe fleets, no row binding, never
/// repairs. Row counts come from the block headers the open read.
struct FsckReport {
  int format = 0;
  std::uint64_t committed_blocks = 0;
  std::uint64_t committed_rows = 0;
  std::uint64_t tail_blocks = 0;     ///< salvageable on the next resume
  std::uint64_t tail_rows = 0;
  std::uint64_t dropped_blocks = 0;
  std::uint64_t torn_bytes = 0;      ///< bytes a resume would truncate
  std::string error;                 ///< committed-region violation, if any
  [[nodiscard]] bool healthy() const { return error.empty(); }
  /// One human-readable summary line per store.
  [[nodiscard]] std::string render(std::string_view platform) const;
};

[[nodiscard]] FsckReport fsck(const std::filesystem::path& dir,
                              std::string_view platform, IoEnv& io);

}  // namespace cloudrtt::store
