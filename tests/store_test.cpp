// Durability gate for the streaming store (store/): the crash-safety
// contract is that a campaign killed anywhere — mid-day, mid-block, even
// mid-manifest — resumes to the exact bits an uninterrupted run produces
// (core::dataset_hash is the oracle), that damage inside the *committed*
// region refuses loudly instead of guessing, and that a misbehaving disk
// degrades the store without touching the dataset.
//
// The corruption matrix fabricates the states a real crash leaves behind:
// a torn trailer (partial final block), a bit-flipped committed block, a
// zero-length shard under a non-empty manifest, and a duplicated tail
// block (a replayed append). Tail damage must salvage; committed damage
// must refuse.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/export.hpp"
#include "core/study.hpp"
#include "fault/plan.hpp"
#include "store/codec.hpp"
#include "store/io_env.hpp"
#include "store/salvage.hpp"
#include "store/shard_writer.hpp"

namespace cloudrtt {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kSeed = 23;
constexpr std::string_view kPlatform = "speedchecker";

/// Small single-platform campaign: 3 days of ~1800 tasks is enough for
/// several 512-task blocks per day without slowing the suite down.
[[nodiscard]] core::StudyConfig store_config(std::uint64_t seed = kSeed) {
  core::StudyConfig config;
  config.seed = seed;
  config.sc_probes = 1000;
  config.include_atlas = false;
  config.sc_campaign.days = 3;
  config.sc_campaign.daily_budget = 1800;
  config.sc_campaign.case_study_probes = 5;
  return config;
}

/// Uninterrupted checkpointed run, shared across cases (the suite runs as
/// one ctest entry). The Study stays alive: datasets loaded from the store
/// re-bind probe references against its fleet.
struct Baseline {
  std::unique_ptr<core::Study> study;
  fs::path dir;
  std::uint64_t hash = 0;
};

[[nodiscard]] const Baseline& baseline() {
  static const Baseline value = [] {
    Baseline b;
    b.dir = fs::path{::testing::TempDir()} / "cloudrtt_store_baseline";
    fs::remove_all(b.dir);
    b.study = std::make_unique<core::Study>(store_config());
    core::RunControl control;
    control.checkpoint_dir = b.dir.string();
    b.study->run(control);
    b.hash = core::dataset_hash(b.study->sc_dataset());
    return b;
  }();
  return value;
}

[[nodiscard]] const probes::ProbeFleet* fleet() {
  return &baseline().study->sc_fleet();
}

/// Copy the baseline store into a scratch directory a test may damage.
[[nodiscard]] fs::path copy_store(const std::string& name) {
  const fs::path dst = fs::path{::testing::TempDir()} / name;
  fs::remove_all(dst);
  fs::create_directories(dst);
  for (const fs::directory_entry& entry : fs::directory_iterator(baseline().dir)) {
    fs::copy_file(entry.path(), dst / entry.path().filename());
  }
  return dst;
}

struct BlockSpan {
  store::BlockHeader header;
  std::size_t offset = 0;  ///< where the framed block starts in the file
  std::size_t size = 0;    ///< header line + payload
};

void write_file(const fs::path& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

/// Parse every framed block of a lane file (the baseline store is healthy,
/// so the walk is expected to consume the whole file).
[[nodiscard]] std::vector<BlockSpan> index_blocks(const fs::path& lane_file) {
  const std::string text = store::IoEnv{}.read_file(lane_file).value_or("");
  std::vector<BlockSpan> blocks;
  std::size_t offset = 0;
  while (offset < text.size()) {
    const std::size_t header_end = text.find('\n', offset);
    EXPECT_NE(header_end, std::string::npos);
    BlockSpan span;
    span.offset = offset;
    EXPECT_TRUE(store::parse_block_header(
        std::string_view{text}.substr(offset, header_end - offset),
        span.header));
    span.size = (header_end + 1 - offset) + span.header.bytes;
    offset += span.size;
    blocks.push_back(span);
  }
  return blocks;
}

[[nodiscard]] fs::path lane0(const fs::path& dir) {
  return store::store_lane_path(dir, kPlatform, 0);
}

/// Rewrite the manifest so only blocks of days < `upto_day` are committed,
/// leaving the later blocks on disk as an uncommitted tail — exactly what a
/// crash between the day's appends and its manifest commit leaves behind.
void rewind_manifest(const fs::path& dir, std::uint32_t upto_day) {
  std::uint64_t bytes = 0;
  std::uint64_t rows = 0;
  std::uint64_t seq = 0;
  std::uint64_t cursor = 0;
  for (const BlockSpan& block : index_blocks(lane0(dir))) {
    if (block.header.day >= upto_day) {
      cursor = block.header.cursor;  // day-start cursor of the next day
      break;
    }
    bytes += block.size;
    rows += block.header.tasks;
    ++seq;
  }
  std::string manifest;
  manifest += "format=3\n";
  manifest += "platform=" + std::string{kPlatform} + '\n';
  manifest += "seed=" + std::to_string(kSeed) + '\n';
  manifest += "fault_profile=none\n";
  manifest += "lanes=1\n";
  manifest += "next_day=" + std::to_string(upto_day) + '\n';
  manifest += "cursor=" + std::to_string(cursor) + '\n';
  manifest += "day_tasks_done=0\n";
  manifest += "pings=" + std::to_string(rows) + '\n';
  manifest += "traces=" + std::to_string(rows) + '\n';
  manifest += "lane0=" + std::to_string(bytes) + ':' + std::to_string(seq) + '\n';
  write_file(store::store_manifest_path(dir, kPlatform), manifest);
}

/// Resume a campaign off `dir` and hash what it collects.
[[nodiscard]] std::uint64_t resume_hash(const fs::path& dir) {
  core::Study resumed{store_config()};
  core::RunControl control;
  control.checkpoint_dir = dir.string();
  control.resume = true;
  resumed.run(control);
  EXPECT_TRUE(resumed.completed());
  return core::dataset_hash(resumed.sc_dataset());
}

/// The streamed hash of the store in `dir` must equal the in-memory hash of
/// what open_store reads from it: both walk the store through one reader.
void expect_streamed_hash_matches_open(const fs::path& dir) {
  store::IoEnv io;
  const store::OpenResult opened =
      store::open_store(dir, kPlatform, io, fleet(), nullptr, /*repair=*/false);
  ASSERT_TRUE(opened.ok()) << opened.error;
  const core::StreamedHashResult streamed =
      core::streamed_dataset_hash(dir, kPlatform, io, fleet(), nullptr);
  ASSERT_TRUE(streamed.ok()) << streamed.error;
  EXPECT_EQ(streamed.rows, opened.data.pings.size());
  EXPECT_EQ(core::format_dataset_hash(streamed.hash),
            core::format_dataset_hash(core::dataset_hash(opened.data)));
}

TEST(StoreRoundTrip, CompletedStoreReproducesTheDatasetBitExactly) {
  store::IoEnv io;
  const store::OpenResult opened = store::open_store(
      baseline().dir, kPlatform, io, fleet(), nullptr, /*repair=*/false);
  ASSERT_TRUE(opened.ok()) << opened.error;
  EXPECT_TRUE(opened.salvage.clean());
  EXPECT_EQ(opened.meta.seed, kSeed);
  EXPECT_EQ(opened.state.next_day, 3u);
  EXPECT_EQ(opened.state.day_tasks_done, 0u);
  EXPECT_EQ(core::format_dataset_hash(core::dataset_hash(opened.data)),
            core::format_dataset_hash(baseline().hash));
}

TEST(StoreRoundTrip, FsckReportsAHealthyStore) {
  store::IoEnv io;
  const store::FsckReport report = store::fsck(baseline().dir, kPlatform, io);
  EXPECT_TRUE(report.healthy()) << report.error;
  EXPECT_EQ(report.format, 3);
  EXPECT_GT(report.committed_blocks, 0u);
  EXPECT_GT(report.committed_rows, 0u);
  EXPECT_EQ(report.torn_bytes, 0u);
  EXPECT_NE(report.render(kPlatform).find("HEALTHY"), std::string::npos);
}

// Corruption matrix case 1 — truncated trailer: the crash tore the disk
// mid-append, leaving one whole tail block and half of another. Salvage
// must adopt the whole block, cut the torn half away, and the resume must
// replay the remainder of the interrupted day from the RNG bit-exactly.
TEST(StoreCorruption, TornTrailerSalvagesWholeBlocksAndReplaysTheRest) {
  const fs::path dir = copy_store("cloudrtt_store_torn");
  rewind_manifest(dir, 1);
  const std::vector<BlockSpan> blocks = index_blocks(lane0(dir));
  std::size_t first_tail = blocks.size();
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (blocks[i].header.day >= 1) {
      first_tail = i;
      break;
    }
  }
  ASSERT_LT(first_tail + 1, blocks.size());
  const BlockSpan& whole = blocks[first_tail];
  const BlockSpan& torn = blocks[first_tail + 1];
  fs::resize_file(lane0(dir), torn.offset + torn.size / 2);

  store::IoEnv io;
  const store::OpenResult opened =
      store::open_store(dir, kPlatform, io, fleet(), nullptr, /*repair=*/false);
  ASSERT_TRUE(opened.ok()) << opened.error;
  EXPECT_EQ(opened.salvage.salvaged_blocks, 1u);
  EXPECT_EQ(opened.salvage.salvaged_rows, whole.header.tasks);
  EXPECT_GT(opened.salvage.truncated_bytes, 0u);
  EXPECT_EQ(opened.state.next_day, 1u);
  EXPECT_EQ(opened.state.day_tasks_done, whole.header.tasks);

  // fsck sees the same picture without binding rows.
  const store::FsckReport report = store::fsck(dir, kPlatform, io);
  EXPECT_TRUE(report.healthy()) << report.error;
  EXPECT_EQ(report.tail_blocks, 1u);
  EXPECT_GT(report.torn_bytes, 0u);
  expect_streamed_hash_matches_open(dir);

  EXPECT_EQ(core::format_dataset_hash(resume_hash(dir)),
            core::format_dataset_hash(baseline().hash));
}

// Corruption matrix case 2 — a bit flip inside the committed region: the
// manifest vouched for these bytes, so the open must refuse (checksum),
// not return a silently different dataset.
TEST(StoreCorruption, BitFlippedCommittedBlockRefusesLoudly) {
  const fs::path dir = copy_store("cloudrtt_store_bitflip");
  std::string text = store::IoEnv{}.read_file(lane0(dir)).value_or("");
  const std::size_t payload_start = text.find('\n') + 1;
  ASSERT_LT(payload_start + 8, text.size());
  text[payload_start + 8] = static_cast<char>(text[payload_start + 8] ^ 0x20);
  write_file(lane0(dir), text);

  store::IoEnv io;
  const store::OpenResult opened =
      store::open_store(dir, kPlatform, io, fleet(), nullptr, /*repair=*/false);
  EXPECT_FALSE(opened.ok());
  EXPECT_NE(opened.error.find("checksum"), std::string::npos) << opened.error;
  EXPECT_FALSE(store::fsck(dir, kPlatform, io).healthy());
  const core::StreamedHashResult streamed =
      core::streamed_dataset_hash(dir, kPlatform, io, fleet(), nullptr);
  EXPECT_FALSE(streamed.ok());
  EXPECT_NE(streamed.error.find("checksum"), std::string::npos)
      << streamed.error;
}

// Corruption matrix case 3 — zero-length shard file under a manifest that
// commits bytes: the commit point itself lied, refuse.
TEST(StoreCorruption, ZeroLengthShardUnderNonEmptyManifestRefuses) {
  const fs::path dir = copy_store("cloudrtt_store_zero");
  fs::resize_file(lane0(dir), 0);

  store::IoEnv io;
  const store::OpenResult opened =
      store::open_store(dir, kPlatform, io, fleet(), nullptr, /*repair=*/false);
  EXPECT_FALSE(opened.ok());
  EXPECT_NE(opened.error.find("manifest commits"), std::string::npos)
      << opened.error;
}

// Corruption matrix case 4 — duplicated tail block (a replayed append):
// structurally a perfect frame, but its sequence number repeats, so salvage
// must drop it — and everything after it — rather than double-count rows.
TEST(StoreCorruption, DuplicatedTailBlockIsDroppedNotDoubleCounted) {
  const fs::path dir = copy_store("cloudrtt_store_dup");
  rewind_manifest(dir, 2);
  const std::vector<BlockSpan> blocks = index_blocks(lane0(dir));
  std::size_t first_tail = blocks.size();
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (blocks[i].header.day >= 2) {
      first_tail = i;
      break;
    }
  }
  ASSERT_LT(first_tail, blocks.size());
  const std::string text = store::IoEnv{}.read_file(lane0(dir)).value_or("");
  const std::string duplicate =
      text.substr(blocks[first_tail].offset, blocks[first_tail].size);
  write_file(lane0(dir), text + duplicate);

  store::IoEnv io;
  const store::OpenResult opened =
      store::open_store(dir, kPlatform, io, fleet(), nullptr, /*repair=*/false);
  ASSERT_TRUE(opened.ok()) << opened.error;
  EXPECT_GE(opened.salvage.dropped_blocks, 1u);
  EXPECT_EQ(opened.salvage.salvaged_blocks, blocks.size() - first_tail);
  EXPECT_GT(opened.salvage.truncated_bytes, 0u);
  expect_streamed_hash_matches_open(dir);

  EXPECT_EQ(core::format_dataset_hash(resume_hash(dir)),
            core::format_dataset_hash(baseline().hash));
}

// Degrade-don't-die: a disk that refuses half its appends must not lose a
// single row — blocks queue in memory, and once the disk heals, one commit
// catches the store up to a state indistinguishable from a healthy run. The
// baseline dataset is written the way the campaign writes it: each day's
// rows appended to a growing dataset and handed over as its tail, then a
// commit of the next day's state.
TEST(StoreFaults, DegradedWriterCatchesUpAfterTheDiskHeals) {
  fault::IoFaults faults;
  faults.append_error_rate = 0.5;
  faults.short_write_rate = 0.25;
  faults.fsync_failure_rate = 0.25;
  store::FaultyIoEnv io{faults, /*seed=*/99};

  const fs::path dir = fs::path{::testing::TempDir()} / "cloudrtt_store_degraded";
  fs::remove_all(dir);
  store::StoreMeta meta;
  meta.platform = std::string{kPlatform};
  meta.seed = kSeed;
  store::ShardWriter writer{dir, meta, /*lanes=*/2, io, /*fresh=*/true};

  const measure::Dataset& all = baseline().study->sc_dataset();
  measure::Dataset grown;
  measure::CampaignState done;
  bool backlog = false;
  for (std::size_t begin = 0; begin < all.pings.size();) {
    const std::uint32_t day = all.pings.day(begin);
    std::size_t end = begin;
    while (end < all.pings.size() && all.pings.day(end) == day) ++end;
    grown.append_slice(all, begin, end, begin, end);
    (void)writer.append_day(day, 0, 0, grown, begin, begin);
    done.next_day = day + 1;
    (void)writer.commit(done);
    writer.drain();
    backlog = backlog || writer.degraded() || writer.pending_blocks() > 0;
    begin = end;
  }
  EXPECT_EQ(done.next_day, 3u);
  EXPECT_GT(io.faults_injected(), 0u);
  EXPECT_TRUE(backlog);

  io.heal();
  // commit() is advisory-async: enqueue the catch-up, then drain for the
  // ground truth — the healed disk must have taken everything.
  (void)writer.commit(done);
  writer.drain();
  EXPECT_FALSE(writer.degraded());
  EXPECT_EQ(writer.pending_blocks(), 0u);

  store::IoEnv plain;
  const store::OpenResult opened =
      store::open_store(dir, kPlatform, plain, fleet(), nullptr, /*repair=*/false);
  ASSERT_TRUE(opened.ok()) << opened.error;
  EXPECT_TRUE(opened.salvage.clean());
  EXPECT_EQ(core::format_dataset_hash(core::dataset_hash(opened.data)),
            core::format_dataset_hash(baseline().hash));
}

// I/O faults decide what is durable, never what the dataset contains: a
// whole campaign under the harsh disk-fault profile must still collect
// exactly the baseline bits.
TEST(StoreFaults, HarshIoFaultsLeaveDatasetBitsUnchanged) {
  core::StudyConfig config = store_config();
  config.io_fault_profile = fault::FaultProfile::Harsh;
  const fs::path dir = fs::path{::testing::TempDir()} / "cloudrtt_store_harsh";
  fs::remove_all(dir);
  core::Study study{config};
  core::RunControl control;
  control.checkpoint_dir = dir.string();
  study.run(control);
  ASSERT_TRUE(study.completed());
  EXPECT_EQ(core::format_dataset_hash(core::dataset_hash(study.sc_dataset())),
            core::format_dataset_hash(baseline().hash));
}

// Satellite regression: the refusal must name both seeds and the manifest
// path, so an operator can tell at a glance which artefact disagrees.
TEST(StoreResume, SeedMismatchRefusalNamesBothSeedsAndThePath) {
  const fs::path dir = copy_store("cloudrtt_store_seed");
  core::Study other{store_config(kSeed + 1)};
  core::RunControl control;
  control.checkpoint_dir = dir.string();
  control.resume = true;
  try {
    other.run(control);
    FAIL() << "resume with a mismatched seed must throw";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("seed " + std::to_string(kSeed)), std::string::npos)
        << what;
    EXPECT_NE(what.find("seed " + std::to_string(kSeed + 1)), std::string::npos)
        << what;
    EXPECT_NE(
        what.find(store::store_manifest_path(dir, kPlatform).string()),
        std::string::npos)
        << what;
  }
}

/// Name -> bytes of every file in `dir`.
[[nodiscard]] std::map<std::string, std::string> snapshot(const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    files[entry.path().filename().string()] =
        store::IoEnv{}.read_file(entry.path()).value_or("");
  }
  return files;
}

// A resume over a manifest that is not format=3 refuses, naming the path and
// what it found, and leaves the store byte-identical. Falling through to a
// fresh writer would wipe the manifest and every lane file.
TEST(StoreResume, NonFormat3ManifestRefusesAndLeavesEveryFileUntouched) {
  const std::pair<std::string, std::string> cases[] = {
      {"format=2", "legacy format=2 checkpoint; re-run from scratch"},
      {"format=9", "unknown format=9"},
      {"garbage", "does not start with a format=N line"},
  };
  for (const auto& [first_line, reason] : cases) {
    const fs::path dir = copy_store("cloudrtt_store_unresumable");
    const fs::path manifest = store::store_manifest_path(dir, kPlatform);
    std::string text = store::IoEnv{}.read_file(manifest).value_or("");
    text.replace(0, text.find('\n'), first_line);
    write_file(manifest, text);
    const std::map<std::string, std::string> before = snapshot(dir);

    core::Study resumed{store_config()};
    core::RunControl control;
    control.checkpoint_dir = dir.string();
    control.resume = true;
    try {
      resumed.run(control);
      ADD_FAILURE() << first_line << ": resume must throw";
    } catch (const std::runtime_error& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find(manifest.string()), std::string::npos) << what;
      EXPECT_NE(what.find(reason), std::string::npos) << what;
    }
    EXPECT_TRUE(snapshot(dir) == before)
        << first_line << ": the refused resume changed a file";

    store::IoEnv io;
    const store::FsckReport report = store::fsck(dir, kPlatform, io);
    EXPECT_FALSE(report.healthy()) << first_line;
    EXPECT_NE(report.render(kPlatform).find("DAMAGED: "), std::string::npos)
        << report.render(kPlatform);
    EXPECT_NE(report.error.find(reason), std::string::npos) << report.error;
  }
}

// -- streamed dataset hash ----------------------------------------------------

/// Threads of this process right now (Linux: one /proc/self/task entry each).
[[nodiscard]] std::size_t live_threads() {
  std::size_t count = 0;
  for ([[maybe_unused]] const fs::directory_entry& entry :
       fs::directory_iterator("/proc/self/task")) {
    ++count;
  }
  return count;
}

/// Serves lane files intact on the first two sequential opens of each path
/// (the structural open's checksum walk, then the ping pass) and with one
/// payload byte of block `block` flipped on every later open (the trace
/// pass), so the damage can only surface in the trace pass.
class TracePassCorruptingIo final : public store::IoEnv {
 public:
  explicit TracePassCorruptingIo(std::size_t block) : block_(block) {}

  [[nodiscard]] std::unique_ptr<std::istream> open_read(
      const fs::path& path) const override {
    std::string text = IoEnv::read_file(path).value_or("");
    int earlier_opens = 0;
    {
      // The structural open reads lanes from one thread each.
      const std::scoped_lock lock{mutex_};
      earlier_opens = opens_[path.string()]++;
    }
    if (earlier_opens > 1) {
      const std::vector<BlockSpan> blocks = index_blocks(path);
      const BlockSpan& target = blocks.at(block_);
      const std::size_t payload = target.offset + target.size -
                                  target.header.bytes;
      text[payload + 5] = static_cast<char>(text[payload + 5] ^ 0x10);
    }
    return std::make_unique<std::istringstream>(std::move(text));
  }

 private:
  std::size_t block_;
  mutable std::mutex mutex_;
  mutable std::map<std::string, int> opens_;  // guarded by mutex_
};

TEST(StreamedHash, MatchesTheInMemoryHashAtAnyWorkerCount) {
  store::IoEnv io;
  for (const unsigned workers : {1u, 2u, 8u}) {
    const core::StreamedHashResult result = core::detail::streamed_dataset_hash(
        baseline().dir, kPlatform, io, fleet(), nullptr, workers);
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(core::format_dataset_hash(result.hash),
              core::format_dataset_hash(baseline().hash))
        << workers << " workers";
  }
}

// A block that fails its checksum in the trace pass, far beyond the encode
// window: the error must come back as an error (no partial hash), after
// every in-flight work item was joined, with no thread left running.
TEST(StreamedHash, TracePassChecksumFailureJoinsEveryWorker) {
  const std::vector<BlockSpan> blocks = index_blocks(lane0(baseline().dir));
  const std::size_t last = blocks.size() - 1;
  for (const unsigned workers : {2u, 3u}) {
    ASSERT_GT(last, 2 * workers) << "the damaged block must lie beyond the "
                                    "window of in-flight blocks";
    const std::size_t threads_before = live_threads();
    TracePassCorruptingIo io{last};
    const core::StreamedHashResult result = core::detail::streamed_dataset_hash(
        baseline().dir, kPlatform, io, fleet(), nullptr, workers);
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.error.find("trace pass"), std::string::npos)
        << result.error;
    EXPECT_NE(result.error.find("checksum mismatch"), std::string::npos)
        << result.error;
    EXPECT_EQ(result.hash, 0u);
    EXPECT_EQ(result.rows, 0u);
    EXPECT_EQ(live_threads(), threads_before) << workers << " workers";
  }
}

// A store written with several lanes (one per campaign thread) merges its
// lanes back into day order: the streamed hash equals the in-memory one.
TEST(StreamedHash, MultiLaneStoreHashesLikeTheInMemoryDataset) {
  const fs::path dir = fs::path{::testing::TempDir()} / "cloudrtt_store_lanes";
  fs::remove_all(dir);
  core::StudyConfig config = store_config();
  config.threads = 3;
  core::Study study{config};
  core::RunControl control;
  control.checkpoint_dir = dir.string();
  study.run(control);
  ASSERT_TRUE(study.completed());

  store::IoEnv io;
  const store::OpenResult opened =
      store::open_store_structural(dir, kPlatform, io, /*repair=*/false);
  ASSERT_TRUE(opened.ok()) << opened.error;
  ASSERT_EQ(opened.lane_states.size(), 3u);
  const std::uint64_t in_memory = core::dataset_hash(study.sc_dataset());
  EXPECT_EQ(in_memory, baseline().hash);
  for (const unsigned workers : {1u, 2u, 8u}) {
    const core::StreamedHashResult result = core::detail::streamed_dataset_hash(
        dir, kPlatform, io, &study.sc_fleet(), nullptr, workers);
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(result.rows, study.sc_dataset().pings.size());
    EXPECT_EQ(core::format_dataset_hash(result.hash),
              core::format_dataset_hash(in_memory))
        << workers << " workers";
  }
  fs::remove_all(dir);
}

// -- the one reader --------------------------------------------------------

/// Fails the test whenever a lane file is read whole: lanes are read block
/// by block through open_read, read_file is for manifests.
class NoWholeLaneReadsIo final : public store::IoEnv {
 public:
  [[nodiscard]] std::optional<std::string> read_file(
      const fs::path& path) const override {
    EXPECT_NE(path.extension(), ".shard") << "read whole: " << path;
    return IoEnv::read_file(path);
  }
};

TEST(StoreOpen, NeverReadsALaneFileWhole) {
  NoWholeLaneReadsIo io;
  const fs::path& dir = baseline().dir;
  const store::OpenResult opened =
      store::open_store(dir, kPlatform, io, fleet(), nullptr, /*repair=*/false);
  ASSERT_TRUE(opened.ok()) << opened.error;
  const store::OpenResult structural =
      store::open_store_structural(dir, kPlatform, io, /*repair=*/false);
  ASSERT_TRUE(structural.ok()) << structural.error;
  EXPECT_EQ(structural.durable_rows, opened.data.pings.size());
  const store::FsckReport report = store::fsck(dir, kPlatform, io);
  EXPECT_TRUE(report.healthy()) << report.error;
  EXPECT_EQ(report.committed_rows, opened.data.pings.size());
  const core::StreamedHashResult streamed =
      core::streamed_dataset_hash(dir, kPlatform, io, fleet(), nullptr);
  ASSERT_TRUE(streamed.ok()) << streamed.error;
  EXPECT_EQ(streamed.hash, baseline().hash);
}

// The manifest's resume point must cover every committed block. A finished
// 3-day store whose manifest is rolled back from next_day=3 to next_day=2
// still has day 2 inside its committed byte marks: opening it must refuse,
// fsck must call it damaged, and a resume must refuse without touching a
// file instead of replaying (and appending) day 2 a second time.
TEST(StoreOpen, CommittedBlockPastTheManifestResumePointRefuses) {
  const fs::path dir = copy_store("cloudrtt_store_resume_point");
  const fs::path manifest = store::store_manifest_path(dir, kPlatform);
  std::string text = store::IoEnv{}.read_file(manifest).value_or("");
  const std::size_t at = text.find("next_day=3\n");
  ASSERT_NE(at, std::string::npos) << text;
  text.replace(at, std::string_view{"next_day=3"}.size(), "next_day=2");
  write_file(manifest, text);
  const std::map<std::string, std::string> before = snapshot(dir);

  store::IoEnv io;
  const store::OpenResult opened =
      store::open_store(dir, kPlatform, io, fleet(), nullptr, /*repair=*/true);
  EXPECT_FALSE(opened.ok());
  EXPECT_NE(opened.error.find("resume point"), std::string::npos)
      << opened.error;
  EXPECT_FALSE(
      store::open_store_structural(dir, kPlatform, io, /*repair=*/true).ok());
  const store::FsckReport report = store::fsck(dir, kPlatform, io);
  EXPECT_FALSE(report.healthy());
  EXPECT_NE(report.render(kPlatform).find("DAMAGED: "), std::string::npos)
      << report.render(kPlatform);

  core::Study resumed{store_config()};
  core::RunControl control;
  control.checkpoint_dir = dir.string();
  control.resume = true;
  EXPECT_THROW(resumed.run(control), std::runtime_error);
  EXPECT_TRUE(snapshot(dir) == before) << "the refused resume changed a file";
}

// Opening a store starts one thread per lane, and the lane count comes from
// disk: a manifest claiming more lanes than a store may have is refused
// before any lane is read. Every lane entry is present, so without the cap
// the manifest would parse and the open would start that many threads.
TEST(StoreOpen, ManifestClaimingMoreThanTheLaneCapRefuses) {
  const fs::path dir =
      fs::path{::testing::TempDir()} / "cloudrtt_store_lanes_cap";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::size_t lanes = store::kMaxLanes + 1;
  std::string manifest = "format=3\nplatform=" + std::string{kPlatform} +
                         "\nseed=" + std::to_string(kSeed) +
                         "\nfault_profile=none\nlanes=" +
                         std::to_string(lanes) +
                         "\nnext_day=0\ncursor=0\nday_tasks_done=0\n"
                         "pings=0\ntraces=0\n";
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    manifest += "lane" + std::to_string(lane) + "=0:0\n";
  }
  write_file(store::store_manifest_path(dir, kPlatform), manifest);

  store::IoEnv io;
  const store::OpenResult opened =
      store::open_store_structural(dir, kPlatform, io, /*repair=*/false);
  EXPECT_FALSE(opened.ok());
  EXPECT_NE(opened.error.find("lanes"), std::string::npos) << opened.error;
  EXPECT_NE(opened.error.find(std::to_string(store::kMaxLanes)),
            std::string::npos)
      << opened.error;
  EXPECT_FALSE(store::fsck(dir, kPlatform, io).healthy());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace cloudrtt
