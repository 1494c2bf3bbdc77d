#pragma once
// Dataset export: tidy CSVs of the collected pings and traceroutes, in the
// spirit of the paper's published dataset. The dataset hash serialises the
// same rows with stricter options: round-trip double formatting, so every
// collected bit is covered, and the ground-truth column that the
// human-facing CSVs deliberately omit.
//
// Every CSV byte comes from one row encoder: it formats a fixed-size range
// of rows straight into a reusable char buffer with std::to_chars. The
// exports, the in-memory dataset hash and the streamed (store) hash share
// one ordered pipeline on top of it: worker threads encode ranges ahead of
// the calling thread, which takes the finished buffers strictly in range
// order and either writes each with one ostream::write or folds it into the
// FNV-1a hash. Range sizes are constants, so the bytes never depend on the
// worker count (std::thread::hardware_concurrency(); work smaller than one
// range runs inline). No serialised copy of the dataset is materialised:
// at most a bounded window of encoded ranges is resident.

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <string>
#include <string_view>

#include "measure/records.hpp"
#include "probes/fleet.hpp"

namespace cloudrtt::store {
class IoEnv;
}  // namespace cloudrtt::store

namespace cloudrtt::core {

struct ExportOptions {
  /// Emit doubles in shortest round-trip form (std::to_chars) instead of the
  /// human-friendly 3-decimal fixed point.
  bool roundtrip_doubles = false;
  /// Traces only: append the `true_mode` ground-truth column (the dataset
  /// hash covers it; the published-dataset flavour keeps ground truth out of
  /// the CSV).
  bool ground_truth = false;
};

/// One row per ping: probe id, platform, country, continent, ISP ASN,
/// provider, region, protocol, rtt_ms, day.
void export_pings_csv(std::ostream& out, const measure::Dataset& data);

/// One row per traceroute hop: trace id, probe id, provider, region, target
/// ip, day, completed flag, end-to-end RTT, ttl, responded, hop ip, hop rtt.
void export_traces_csv(std::ostream& out, const measure::Dataset& data);

/// FNV-1a (64-bit) over the full exported dataset: the ping CSV followed by
/// the trace CSV, both with round-trip doubles and ground truth so every
/// collected bit is covered. Two runs are reproductions of each other iff
/// their hashes match — this is what `cloudrtt study --dataset-hash` prints
/// and what the determinism CI gate compares. The encoded buffers are folded
/// in order as they finish, so no serialised copy of the dataset is held.
[[nodiscard]] std::uint64_t dataset_hash(const measure::Dataset& data);

/// The same hash computed straight from a format=3 store: two day-ordered
/// scans over the lane files (FNV-1a is sequential, and the canonical
/// serialisation is all pings then all traces). Each scan hands a bounded
/// window of 512-task store blocks to the encode workers, each block decoded
/// and encoded by the work item that owns it. Bit-identical to
/// dataset_hash() over the materialised dataset — the streamed study's
/// determinism gate depends on it. Lane files are read through `io`.
struct StreamedHashResult {
  std::uint64_t hash = 0;
  std::uint64_t rows = 0;  ///< task rows hashed (ping+trace pairs)
  std::string error;
  [[nodiscard]] bool ok() const { return error.empty(); }
};
[[nodiscard]] StreamedHashResult streamed_dataset_hash(
    const std::filesystem::path& dir, std::string_view platform,
    store::IoEnv& io, const probes::ProbeFleet* sc_fleet,
    const probes::ProbeFleet* atlas_fleet);

/// The hash as the canonical 16-digit zero-padded lower-case hex string.
[[nodiscard]] std::string format_dataset_hash(std::uint64_t hash);

namespace detail {

/// Encode workers the public entry points use: hardware_concurrency(), at
/// least 1.
[[nodiscard]] unsigned encode_workers();

// The public entry points with explicit options and encode-worker count, so
// tests can pin every option's bytes and that the bytes do not depend on the
// worker count. `workers` <= 1 encodes inline.
void export_pings_csv(std::ostream& out, const measure::Dataset& data,
                      const ExportOptions& options, unsigned workers);
void export_traces_csv(std::ostream& out, const measure::Dataset& data,
                       const ExportOptions& options, unsigned workers);
[[nodiscard]] std::uint64_t dataset_hash(const measure::Dataset& data,
                                         unsigned workers);
[[nodiscard]] StreamedHashResult streamed_dataset_hash(
    const std::filesystem::path& dir, std::string_view platform,
    store::IoEnv& io, const probes::ProbeFleet* sc_fleet,
    const probes::ProbeFleet* atlas_fleet, unsigned workers);

}  // namespace detail

}  // namespace cloudrtt::core
