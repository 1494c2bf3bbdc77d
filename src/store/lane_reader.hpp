#pragma once
// The one reader of the store's block framing (store/codec.hpp).
//
// LaneReader walks one lane file block by block through IoEnv::open_read:
// header line, payload bounded by the bytes the caller allows (the file's
// size on an open, the durable byte mark on a scan), fnv1a_words check. One
// payload is resident at a time, and a damaged length field never makes it
// allocate past what is left to read. StoreScan merges a store's lanes into
// global append order with earliest_lane(), the rule salvage orders the
// uncommitted tail by, so open_store's rows and the streamed dataset hash
// walk a store identically. What a damaged block means (refuse inside the
// committed region, end the salvage chain beyond it) is salvage's policy.

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "store/codec.hpp"
#include "store/io_env.hpp"
#include "store/shard_writer.hpp"

namespace cloudrtt::store {

/// Where one framed block sits; its payload travels separately so the
/// buffer can be recycled.
struct Block {
  BlockHeader header;
  std::uint64_t bytes = 0;  ///< framed size: header line + payload
  std::size_t lane = 0;     ///< set by StoreScan
};

/// The lane whose head block comes first in global append order — (day,
/// start), ties to the lower lane — or heads.size() when every head is null.
[[nodiscard]] std::size_t earliest_lane(
    std::span<const BlockHeader* const> heads);

class LaneReader {
 public:
  /// Reads at most `size` bytes of `in` (null reads as an empty lane).
  LaneReader(std::unique_ptr<std::istream> in, std::uint64_t size);

  /// Bytes consumed so far; always a block boundary.
  [[nodiscard]] std::uint64_t offset() const { return offset_; }
  [[nodiscard]] bool at_end() const { return offset_ >= size_; }

  /// Read the block at offset() and its checksum-verified payload. Empty on
  /// success; otherwise what is wrong with the block, and the reader is
  /// spent.
  [[nodiscard]] std::string next(Block& block, std::string& payload);

 private:
  std::unique_ptr<std::istream> in_;
  std::uint64_t size_ = 0;
  std::uint64_t offset_ = 0;
  std::string line_;
};

/// Every durable block of a store in global (day, start) order: one
/// LaneReader per lane up to its durable byte mark, merged on the lanes'
/// head blocks (day D lives in lane D % L and appends are globally FIFO).
class StoreScan {
 public:
  StoreScan(const std::filesystem::path& dir, std::string_view platform,
            IoEnv& io, const std::vector<LaneState>& lanes);

  /// Move the next block into `block` and `payload` (swapping buffers).
  /// False once the scan is over or has failed; error() says which.
  [[nodiscard]] bool next(Block& block, std::string& payload);
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  void advance(std::size_t lane);

  std::vector<LaneReader> readers_;
  std::vector<Block> blocks_;                ///< each lane's head block
  std::vector<std::string> payloads_;
  std::vector<const BlockHeader*> heads_;    ///< null: lane exhausted
  std::string error_;
};

}  // namespace cloudrtt::store
