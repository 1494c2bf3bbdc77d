#include "store/lane_reader.hpp"

#include <istream>
#include <streambuf>
#include <utility>

#include "util/rng.hpp"

namespace cloudrtt::store {

std::size_t earliest_lane(std::span<const BlockHeader* const> heads) {
  std::size_t first = heads.size();
  for (std::size_t lane = 0; lane < heads.size(); ++lane) {
    const BlockHeader* head = heads[lane];
    if (head != nullptr &&
        (first == heads.size() || head->day < heads[first]->day ||
         (head->day == heads[first]->day &&
          head->start < heads[first]->start))) {
      first = lane;
    }
  }
  return first;
}

LaneReader::LaneReader(std::unique_ptr<std::istream> in, std::uint64_t size)
    : in_(std::move(in)), size_(in_ == nullptr ? 0 : size) {}

std::string LaneReader::next(Block& block, std::string& payload) {
  constexpr std::size_t kMaxHeaderBytes = 512;  // a header line is ~130
  std::streambuf& source = *in_->rdbuf();
  line_.clear();
  for (;;) {
    if (offset_ + line_.size() >= size_) return "incomplete block header";
    const int ch = source.sbumpc();
    if (ch == std::char_traits<char>::eof()) return "incomplete block header";
    if (ch == '\n') break;
    if (line_.size() == kMaxHeaderBytes) return "malformed block header";
    line_.push_back(static_cast<char>(ch));
  }
  if (!parse_block_header(line_, block.header)) {
    return "malformed block header";
  }
  const std::uint64_t payload_begin = offset_ + line_.size() + 1;
  const std::uint64_t bytes = block.header.bytes;
  std::uint64_t got = size_ - payload_begin;
  if (bytes <= got) {
    payload.resize(bytes);
    got = static_cast<std::uint64_t>(
        source.sgetn(payload.data(), static_cast<std::streamsize>(bytes)));
  }
  if (got < bytes) {
    return "payload truncated (header claims " + std::to_string(bytes) +
           " bytes, " + std::to_string(got) + " remain)";
  }
  if (util::fnv1a_words(payload) != block.header.fnv1a) {
    return "payload checksum mismatch (fnv1a)";
  }
  block.bytes = payload_begin + bytes - offset_;
  offset_ = payload_begin + bytes;
  return {};
}

StoreScan::StoreScan(const std::filesystem::path& dir,
                     std::string_view platform, IoEnv& io,
                     const std::vector<LaneState>& lanes)
    : blocks_(lanes.size()), payloads_(lanes.size()), heads_(lanes.size()) {
  for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
    std::unique_ptr<std::istream> in;
    if (lanes[lane].durable_bytes > 0) {
      in = io.open_read(store_lane_path(dir, platform, lane));
      if (in == nullptr && error_.empty()) {
        error_ = "lane " + std::to_string(lane) + ": shard file unreadable";
      }
    }
    readers_.emplace_back(std::move(in), lanes[lane].durable_bytes);
    advance(lane);
  }
}

void StoreScan::advance(std::size_t lane) {
  heads_[lane] = nullptr;
  if (!error_.empty() || readers_[lane].at_end()) return;
  if (std::string why = readers_[lane].next(blocks_[lane], payloads_[lane]);
      !why.empty()) {
    error_ = "lane " + std::to_string(lane) + ": " + why;
    return;
  }
  heads_[lane] = &blocks_[lane].header;
}

bool StoreScan::next(Block& block, std::string& payload) {
  if (!error_.empty()) return false;
  const std::size_t lane = earliest_lane(heads_);
  if (lane == heads_.size()) return false;
  block = blocks_[lane];
  block.lane = lane;
  payload.swap(payloads_[lane]);
  advance(lane);
  return true;
}

}  // namespace cloudrtt::store
