#include "store/salvage.hpp"

#include <charconv>
#include <istream>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hpp"
#include "store/codec.hpp"
#include "store/lane_reader.hpp"
#include "util/check.hpp"

namespace cloudrtt::store {

namespace {

namespace fs = std::filesystem;

template <typename T>
[[nodiscard]] bool parse_number(std::string_view text, T& out) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc{} && ptr == text.data() + text.size() &&
         !text.empty();
}

/// The format=3 manifest, fully parsed.
struct Manifest {
  std::string platform;
  std::string fault_profile = "none";
  std::uint64_t seed = 0;
  std::uint32_t next_day = 0;
  std::uint64_t cursor = 0;
  std::uint32_t day_tasks_done = 0;
  std::uint64_t pings = 0;
  std::uint64_t traces = 0;
  std::vector<LaneState> lanes;
};

[[nodiscard]] std::string parse_manifest(const std::string& text,
                                         std::string_view platform,
                                         Manifest& out) {
  std::unordered_map<std::string, std::string> kv;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    const std::string_view line{text.data() + begin, end - begin};
    begin = end + 1;
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return "damaged manifest line: '" + std::string{line} + "'";
    }
    kv.emplace(line.substr(0, eq), line.substr(eq + 1));
  }
  const auto number = [&](const char* key, auto& value) {
    const auto it = kv.find(key);
    return it != kv.end() && parse_number(it->second, value);
  };
  std::uint64_t lane_count = 0;
  if (kv["format"] != "3" || !number("seed", out.seed) ||
      !number("lanes", lane_count) || lane_count == 0 ||
      !number("next_day", out.next_day) || !number("cursor", out.cursor) ||
      !number("day_tasks_done", out.day_tasks_done) ||
      !number("pings", out.pings) || !number("traces", out.traces)) {
    return "manifest missing or damaged fields";
  }
  if (kv["platform"] != platform) {
    return "manifest platform '" + kv["platform"] +
           "' does not match requested '" + std::string{platform} + "'";
  }
  if (out.pings != out.traces) {
    return "manifest ping/trace totals disagree (" +
           std::to_string(out.pings) + " vs " + std::to_string(out.traces) +
           ")";
  }
  if (lane_count > kMaxLanes) {
    return "manifest claims " + std::to_string(lane_count) +
           " lanes, more than the " + std::to_string(kMaxLanes) +
           " a store may have";
  }
  out.platform = kv["platform"];
  if (kv.contains("fault_profile")) out.fault_profile = kv["fault_profile"];
  out.lanes.resize(lane_count);
  for (std::uint64_t lane = 0; lane < lane_count; ++lane) {
    const auto it = kv.find("lane" + std::to_string(lane));
    if (it == kv.end()) {
      return "manifest missing lane" + std::to_string(lane) + " entry";
    }
    const std::string& entry = it->second;
    const std::size_t colon = entry.find(':');
    LaneState& state = out.lanes[lane];
    if (colon == std::string::npos ||
        !parse_number(std::string_view{entry}.substr(0, colon),
                      state.durable_bytes) ||
        !parse_number(std::string_view{entry}.substr(colon + 1),
                      state.next_seq)) {
      return "damaged manifest lane entry '" + entry + "'";
    }
  }
  return {};
}

/// What one lane's file yielded: block headers, never rows.
struct LaneScan {
  std::uint64_t committed_blocks = 0;
  std::uint64_t committed_tasks = 0;
  std::vector<Block> tail;
  std::uint64_t dropped_blocks = 0;  ///< valid frame, wrong sequence
  std::uint64_t torn_bytes = 0;      ///< unusable bytes past the last keeper
  std::string error;                 ///< committed-region violation
};

/// Scan one lane file: strict inside the committed region, salvage beyond.
/// Day D lives only in lane D % L, so a lane's committed blocks must run
/// through its days in order, each day's tasks contiguous from task 0, and
/// none may lie past the manifest's resume point: a resume replays from
/// there, so a committed block beyond it would be collected twice.
[[nodiscard]] LaneScan scan_lane(const fs::path& path, IoEnv& io,
                                 const Manifest& manifest, std::size_t lane) {
  const LaneState& durable = manifest.lanes[lane];
  const std::size_t lane_count = manifest.lanes.size();
  LaneScan scan;
  const auto lane_label = [&] { return "lane " + std::to_string(lane); };
  std::unique_ptr<std::istream> in = io.open_read(path);
  if (in == nullptr && durable.durable_bytes > 0) {
    scan.error = lane_label() + ": shard file missing but manifest commits " +
                 std::to_string(durable.durable_bytes) + " bytes";
    return scan;
  }
  const std::uint64_t size =
      in == nullptr ? 0 : io.file_size(path).value_or(0);
  if (size < durable.durable_bytes) {
    scan.error = lane_label() + ": shard holds " + std::to_string(size) +
                 " bytes, manifest commits " +
                 std::to_string(durable.durable_bytes);
    return scan;
  }

  LaneReader reader{std::move(in), size};
  Block block;
  std::string payload;
  const BlockHeader& header = block.header;
  std::uint64_t& expected_seq = scan.committed_blocks;
  std::uint64_t expected_start = 0;
  while (reader.offset() < durable.durable_bytes) {
    const std::uint32_t previous_day = header.day;
    if (std::string why = reader.next(block, payload); !why.empty()) {
      scan.error = lane_label() + ": committed block " +
                   std::to_string(expected_seq) + ": " + why;
      return scan;
    }
    if (reader.offset() > durable.durable_bytes) {
      scan.error = lane_label() + ": committed block " +
                   std::to_string(expected_seq) +
                   " straddles the manifest's byte mark";
      return scan;
    }
    if (header.seq != expected_seq) {
      scan.error = lane_label() + ": committed block has seq " +
                   std::to_string(header.seq) + ", expected " +
                   std::to_string(expected_seq);
      return scan;
    }
    if (header.day % lane_count != lane) {
      scan.error = "committed block for day " + std::to_string(header.day) +
                   " sits in lane " + std::to_string(lane) +
                   ", expected lane " +
                   std::to_string(header.day % lane_count);
      return scan;
    }
    if (expected_seq > 0 && header.day != previous_day) {
      if (header.day < previous_day) {
        scan.error = "committed days out of order";
        return scan;
      }
      expected_start = 0;
    }
    if (header.start != expected_start) {
      scan.error = "day " + std::to_string(header.day) +
                   " tasks are not contiguous (block starts at " +
                   std::to_string(header.start) + ", expected " +
                   std::to_string(expected_start) + ")";
      return scan;
    }
    const std::uint64_t block_end =
        std::uint64_t{header.start} + header.tasks;
    if (header.day > manifest.next_day ||
        (header.day == manifest.next_day &&
         block_end > manifest.day_tasks_done)) {
      scan.error = lane_label() + ": committed block for day " +
                   std::to_string(header.day) + " tasks " +
                   std::to_string(header.start) + ".." +
                   std::to_string(block_end) +
                   " lies past the manifest's resume point (next_day=" +
                   std::to_string(manifest.next_day) + ", day_tasks_done=" +
                   std::to_string(manifest.day_tasks_done) + ")";
      return scan;
    }
    expected_start += header.tasks;
    scan.committed_tasks += header.tasks;
    ++expected_seq;
  }
  if (expected_seq != durable.next_seq) {
    scan.error = lane_label() + ": committed region holds " +
                 std::to_string(expected_seq) +
                 " blocks, manifest expects " +
                 std::to_string(durable.next_seq);
    return scan;
  }

  // Beyond the commit point: keep the longest valid run, count the rest.
  std::uint64_t next_seq = expected_seq;
  while (!reader.at_end()) {
    const std::uint64_t block_start = reader.offset();
    if (!reader.next(block, payload).empty()) {
      scan.torn_bytes = size - block_start;
      break;
    }
    if (header.seq != next_seq) {
      // A duplicated or replayed frame: structurally fine, but it does not
      // continue this lane — everything from here on is unusable.
      ++scan.dropped_blocks;
      scan.torn_bytes = size - block_start;
      break;
    }
    ++next_seq;
    scan.tail.push_back(block);
  }
  return scan;
}

/// Shared core of open_store and fsck. `binder` null = structural only.
[[nodiscard]] OpenResult open_impl(const fs::path& dir,
                                   std::string_view platform, IoEnv& io,
                                   const RowBinder* binder, bool repair) {
  OpenResult result;
  const std::optional<std::string> manifest_text =
      io.read_file(store_manifest_path(dir, platform));
  if (!manifest_text.has_value()) {
    result.error =
        "missing manifest " + store_manifest_path(dir, platform).string();
    return result;
  }
  Manifest manifest;
  if (std::string err = parse_manifest(*manifest_text, platform, manifest);
      !err.empty()) {
    result.error = std::move(err);
    return result;
  }
  result.meta.platform = manifest.platform;
  result.meta.seed = manifest.seed;
  result.meta.fault_profile = manifest.fault_profile;

  // Lanes are independent on disk, so the validating scan runs one thread
  // per lane; this is what keeps reopening a campaign flat-cost as
  // --threads (== lanes) grows.
  const std::size_t lane_count = manifest.lanes.size();
  std::vector<LaneScan> scans(lane_count);
  {
    std::vector<std::thread> workers;
    workers.reserve(lane_count);
    for (std::size_t lane = 0; lane < lane_count; ++lane) {
      workers.emplace_back([&, lane] {
        scans[lane] =
            scan_lane(store_lane_path(dir, platform, lane), io, manifest, lane);
      });
    }
    for (std::thread& worker : workers) worker.join();
  }
  std::uint64_t committed_tasks = 0;
  for (const LaneScan& scan : scans) {
    if (!scan.error.empty()) {
      result.error = "store refused: " + scan.error;
      return result;
    }
    committed_tasks += scan.committed_tasks;
    result.salvage.committed_blocks += scan.committed_blocks;
    result.salvage.dropped_blocks += scan.dropped_blocks;
    result.salvage.truncated_bytes += scan.torn_bytes;
  }
  if (committed_tasks != manifest.pings) {
    result.error = "store refused: shards hold " +
                   std::to_string(committed_tasks) +
                   " committed task rows, manifest expects " +
                   std::to_string(manifest.pings);
    return result;
  }

  // The uncommitted tail, merged across lanes in store order: adopt the
  // longest chain that continues exactly where the manifest stopped.
  // Same-day blocks must extend the task run; a later day may start only at
  // task 0 (appends are globally FIFO, so a day-N block on disk proves every
  // earlier day finished; empty days legitimately write nothing). Anything
  // else ends the chain, and every tail block not adopted is dropped.
  std::vector<std::uint64_t> adopted_bytes(lane_count, 0);
  std::vector<std::size_t> adopted(lane_count, 0);  ///< tail blocks per lane
  std::uint32_t chain_day = manifest.next_day;
  std::uint64_t chain_start = manifest.day_tasks_done;
  std::uint64_t chain_cursor = manifest.cursor;
  std::vector<const BlockHeader*> heads(lane_count);
  for (;;) {
    for (std::size_t lane = 0; lane < lane_count; ++lane) {
      const std::vector<Block>& tail = scans[lane].tail;
      heads[lane] = adopted[lane] < tail.size() ? &tail[adopted[lane]].header
                                                : nullptr;
    }
    const std::size_t lane = earliest_lane(heads);
    if (lane == lane_count) break;
    const Block& block = scans[lane].tail[adopted[lane]];
    const BlockHeader& header = block.header;
    const bool extends_day =
        header.day == chain_day && header.start == chain_start;
    const bool opens_day = header.day > chain_day && header.start == 0;
    if ((!extends_day && !opens_day) || lane != header.day % lane_count) {
      break;
    }
    if (opens_day) chain_day = header.day;
    chain_start = opens_day ? header.tasks : chain_start + header.tasks;
    chain_cursor = header.cursor;
    adopted_bytes[lane] += block.bytes;
    ++adopted[lane];
    ++result.salvage.salvaged_blocks;
    result.salvage.salvaged_rows += header.tasks;
  }
  for (std::size_t lane = 0; lane < lane_count; ++lane) {
    const std::vector<Block>& tail = scans[lane].tail;
    for (std::size_t i = adopted[lane]; i < tail.size(); ++i) {
      ++result.salvage.dropped_blocks;
      result.salvage.truncated_bytes += tail[i].bytes;
    }
  }

  result.durable_rows = committed_tasks + result.salvage.salvaged_rows;
  result.lane_states.resize(lane_count);
  for (std::size_t lane = 0; lane < lane_count; ++lane) {
    result.lane_states[lane].durable_bytes =
        manifest.lanes[lane].durable_bytes + adopted_bytes[lane];
    result.lane_states[lane].next_seq =
        manifest.lanes[lane].next_seq + adopted[lane];
  }
  CLOUDRTT_CHECK(chain_start <= 0xffffffffULL,
                 "salvaged day task count overflows");
  result.state.next_day = chain_day;
  result.state.cursor = static_cast<std::size_t>(chain_cursor);
  result.state.day_tasks_done = static_cast<std::uint32_t>(chain_start);

  // A binding open reads the rows the scan validated, in store order, one
  // block resident at a time.
  if (binder != nullptr) {
    result.data.bind(binder->sc_fleet(), binder->atlas_fleet());
    StoreScan scan{dir, platform, io, result.lane_states};
    Block block;
    std::string payload;
    while (scan.next(block, payload)) {
      if (std::string err =
              binder->parse_block(payload, block.header, result.data);
          !err.empty()) {
        result.error = "store refused: lane " + std::to_string(block.lane) +
                       ": block " + std::to_string(block.header.seq) +
                       ": unparseable payload: " + err;
        return result;
      }
    }
    if (!scan.error().empty()) {
      result.error = "store refused: " + scan.error();
      return result;
    }
  }

  if (repair && result.salvage.truncated_bytes > 0) {
    for (std::size_t lane = 0; lane < lane_count; ++lane) {
      const fs::path path = store_lane_path(dir, platform, lane);
      const std::optional<std::uint64_t> size = io.file_size(path);
      if (size.has_value() &&
          *size > result.lane_states[lane].durable_bytes) {
        if (const IoStatus cut =
                io.truncate(path, result.lane_states[lane].durable_bytes);
            !cut.ok()) {
          result.error = "store repair failed: " + cut.error;
          return result;
        }
      }
    }
    result.salvage.repaired = true;
  }
  return result;
}

}  // namespace

int manifest_format(const fs::path& dir, std::string_view platform,
                    IoEnv& io) {
  const fs::path path = store_manifest_path(dir, platform);
  const std::optional<std::string> text = io.read_file(path);
  if (!text.has_value()) {
    return io.file_size(path).has_value() ? kUnparseableManifest : 0;
  }
  const std::string_view view{*text};
  const std::string_view first_line = view.substr(0, view.find('\n'));
  constexpr std::string_view kKey = "format=";
  int format = 0;
  if (!first_line.starts_with(kKey) ||
      !parse_number(first_line.substr(kKey.size()), format) || format <= 0) {
    return kUnparseableManifest;
  }
  return format;
}

std::string unsupported_format_reason(int format) {
  if (format == kUnparseableManifest) {
    return "manifest is unreadable or does not start with a format=N line";
  }
  const std::string found = "format=" + std::to_string(format);
  if (format == 1 || format == 2) {
    return "legacy " + found + " checkpoint; re-run from scratch";
  }
  return "unknown " + found + " manifest (this build reads format=3)";
}

OpenResult open_store_structural(const fs::path& dir,
                                 std::string_view platform, IoEnv& io,
                                 bool repair) {
  return open_impl(dir, platform, io, /*binder=*/nullptr, repair);
}

OpenResult open_store(const fs::path& dir, std::string_view platform,
                      IoEnv& io, const probes::ProbeFleet* sc_fleet,
                      const probes::ProbeFleet* atlas_fleet, bool repair) {
  const RowBinder binder{sc_fleet, atlas_fleet};
  OpenResult result = open_impl(dir, platform, io, &binder, repair);
  if (result.ok() && !result.salvage.clean()) {
    obs::Registry& registry = obs::Registry::global();
    registry
        .counter("store.salvage_blocks_total",
                 "uncommitted blocks adopted on resume")
        .inc(result.salvage.salvaged_blocks);
    registry
        .counter("store.salvage_rows_total",
                 "task rows recovered from uncommitted tails")
        .inc(result.salvage.salvaged_rows);
    registry
        .counter("store.salvage_dropped_blocks_total",
                 "tail blocks rejected during salvage")
        .inc(result.salvage.dropped_blocks);
    registry
        .counter("store.salvage_truncated_bytes_total",
                 "torn tail bytes cut away during salvage")
        .inc(result.salvage.truncated_bytes);
  }
  return result;
}

FsckReport fsck(const fs::path& dir, std::string_view platform, IoEnv& io) {
  FsckReport report;
  report.format = manifest_format(dir, platform, io);
  if (report.format == 0) {
    report.error = "no store manifest found";
    return report;
  }
  if (report.format != 3) {
    report.error = unsupported_format_reason(report.format);
    return report;
  }
  const OpenResult opened =
      open_impl(dir, platform, io, /*binder=*/nullptr, /*repair=*/false);
  if (!opened.ok()) {
    report.error = opened.error;
    return report;
  }
  report.committed_blocks = opened.salvage.committed_blocks;
  report.committed_rows = opened.durable_rows - opened.salvage.salvaged_rows;
  report.tail_blocks = opened.salvage.salvaged_blocks;
  report.tail_rows = opened.salvage.salvaged_rows;
  report.dropped_blocks = opened.salvage.dropped_blocks;
  report.torn_bytes = opened.salvage.truncated_bytes;
  return report;
}

std::string FsckReport::render(std::string_view platform) const {
  std::string line{platform};
  line += ": ";
  if (!healthy()) {
    line += "DAMAGED: " + error;
    return line;
  }
  line += "format=3, " + std::to_string(committed_blocks) +
          " committed blocks (" + std::to_string(committed_rows) +
          " task rows)";
  if (tail_blocks > 0 || dropped_blocks > 0 || torn_bytes > 0) {
    line += ", uncommitted tail: " + std::to_string(tail_blocks) +
            " salvageable blocks (" + std::to_string(tail_rows) +
            " task rows), " + std::to_string(dropped_blocks) + " dropped, " +
            std::to_string(torn_bytes) + " torn bytes";
  } else {
    line += ", no uncommitted tail";
  }
  line += " — HEALTHY";
  return line;
}

}  // namespace cloudrtt::store
