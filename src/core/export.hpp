#pragma once
// Dataset export: tidy CSVs of the collected pings and traceroutes, in the
// spirit of the paper's published dataset. Checkpoint files reuse the same
// writers with stricter options: an integrity trailer so a truncated file is
// detected on import, round-trip double formatting so a resumed campaign is
// bit-identical to an uninterrupted one, and the ground-truth columns that
// the human-facing CSVs deliberately omit.
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
  /// Append a `#cloudrtt-integrity rows=<N> fnv1a=<16 hex>` trailer line
  /// covering every data row, so import can detect truncation/corruption.
  bool integrity_trailer = false;
  /// Emit doubles in shortest round-trip form (std::to_chars) instead of the
  /// human-friendly 3-decimal fixed point. Required for lossless reload.
  bool roundtrip_doubles = false;
  /// Traces only: append the `true_mode` ground-truth column so a reloaded
  /// dataset compares equal to the in-memory one (checkpoints need this; the
  /// published-dataset flavour keeps ground truth out of the CSV).
  bool ground_truth = false;
};

namespace detail {
struct WriterAccess;  // export.cpp: writers with an explicit worker count
}  // namespace detail

/// Incremental ping CSV writer: header on construction, one row per ping per
/// write() call, integrity trailer (when enabled) on finish(). Feeding the
/// same rows across several write() calls produces byte-identical output to
/// one call.
class PingCsvWriter {
 public:
  PingCsvWriter(std::ostream& out, const ExportOptions& options);
  void write(const measure::Dataset& data);
  void finish();
  [[nodiscard]] std::uint64_t rows() const { return rows_; }

 private:
  friend struct detail::WriterAccess;
  /// `out` may be null when the bytes only extend `fold` (the dataset hash).
  PingCsvWriter(std::ostream* out, std::uint64_t* fold,
                const ExportOptions& options, unsigned workers);

  std::ostream* out_;
  std::uint64_t* fold_;  ///< running dataset hash the bytes extend, or null
  ExportOptions options_;
  unsigned workers_;
  std::uint64_t hash_;  ///< integrity-trailer hash over the data rows
  std::uint64_t rows_ = 0;
};

/// Incremental trace CSV writer (one row per hop); the running trace id
/// numbers traces across every write() call.
class TraceCsvWriter {
 public:
  TraceCsvWriter(std::ostream& out, const ExportOptions& options);
  void write(const measure::Dataset& data);
  void finish();
  [[nodiscard]] std::uint64_t rows() const { return rows_; }

 private:
  friend struct detail::WriterAccess;
  TraceCsvWriter(std::ostream* out, std::uint64_t* fold,
                 const ExportOptions& options, unsigned workers);

  std::ostream* out_;
  std::uint64_t* fold_;
  ExportOptions options_;
  unsigned workers_;
  std::uint64_t hash_;
  std::uint64_t rows_ = 0;
  std::uint64_t trace_id_ = 0;
};

/// One row per ping: probe id, platform, country, continent, ISP ASN,
/// provider, region, protocol, rtt_ms, day.
void export_pings_csv(std::ostream& out, const measure::Dataset& data);
void export_pings_csv(std::ostream& out, const measure::Dataset& data,
                      const ExportOptions& options);

/// One row per traceroute hop: trace id, probe id, provider, region, target
/// ip, day, completed flag, end-to-end RTT, ttl, responded, hop ip, hop rtt.
void export_traces_csv(std::ostream& out, const measure::Dataset& data);
void export_traces_csv(std::ostream& out, const measure::Dataset& data,
                       const ExportOptions& options);

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

// The public entry points with an explicit encode-worker count, so tests can
// pin that the bytes do not depend on it. `workers` <= 1 encodes inline.
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
