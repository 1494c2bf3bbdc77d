// perfbench_workload — one run of one benchmark workload, in this process.
//
//   perfbench_workload --workload study_default|run_paper|stream_paper_t1
//                      --seed 42 --out <dir> [--trace] [--scale S]
//                      [--setup-only] [--check-hash]
//
// Each workload makes the same sequence of public calls as the CLI command it
// is named after (README.md has the table), timing every call with the
// benchmark's own spans. After the last artefact is on disk the outputs are
// checked, untimed, and one JSON object with the raw measurements goes to
// stdout; perfbench/run.py turns repeated runs into metrics.
//
// --trace additionally enables the Chrome-trace recorder, so the per-day
// `day` events can be read back; --scale overrides the workload's fleet
// scale (the equivalence test runs the same sequences at a small scale);
// --setup-only stops after Study construction (extra set-up samples);
// --check-hash computes the dataset hash, untimed, for a command that does
// not print one.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/export.hpp"
#include "core/report.hpp"
#include "core/scale.hpp"
#include "core/study.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/process.hpp"
#include "obs/trace.hpp"
#include "obs/trace_events.hpp"
#include "store/io_env.hpp"
#include "store/salvage.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/json_value.hpp"
#include "util/rng.hpp"

namespace {

using namespace cloudrtt;

/// One benchmark workload: the CLI command it reproduces, as study settings.
struct Workload {
  std::string_view name;
  std::string_view scale;  ///< --scale of the command
  unsigned threads;        ///< --threads of the command
  bool stream;             ///< --stream: rows go to the store, not to RAM
  bool hash;               ///< --dataset-hash is part of the command
};

// study_default    cloudrtt study --dataset-hash --threads 4
// run_paper        cloudrtt run --scale paper --threads 4
//                  (= study --stream --checkpoint-dir … --dataset-hash)
// stream_paper_t1  cloudrtt study --stream --scale paper --threads 1
//                  --checkpoint-dir …
constexpr Workload kWorkloads[] = {
    {"study_default", "default", 4, false, true},
    {"run_paper", "paper", 4, true, true},
    {"stream_paper_t1", "paper", 1, true, false},
};

constexpr std::string_view kPlatforms[] = {"speedchecker", "atlas"};

/// The benchmark's own spans: one per public call, in call order.
class Spans {
 public:
  explicit Spans(std::uint64_t origin_ns) : origin_ns_(origin_ns) {}

  template <typename Fn>
  void time(std::string_view name, Fn&& fn) {
    const std::uint64_t start = obs::monotonic_ns();
    std::forward<Fn>(fn)();
    entries_.push_back({std::string{name}, ms(start - origin_ns_),
                        ms(obs::monotonic_ns() - start)});
  }

  [[nodiscard]] double elapsed_ms() const {
    return ms(obs::monotonic_ns() - origin_ns_);
  }

  void write(util::JsonWriter& json) const {
    json.key("spans");
    json.begin_array();
    for (const Entry& entry : entries_) {
      json.begin_object();
      json.field("name", entry.name);
      json.field("start_ms", entry.start_ms);
      json.field("ms", entry.duration_ms);
      json.end_object();
    }
    json.end_array();
  }

 private:
  struct Entry {
    std::string name;
    double start_ms;
    double duration_ms;
  };
  [[nodiscard]] static double ms(std::uint64_t ns) {
    return static_cast<double>(ns) / 1e6;
  }

  std::uint64_t origin_ns_;
  std::vector<Entry> entries_;
};

struct DatasetHash {
  std::uint64_t sc = 0;
  std::uint64_t atlas = 0;
  std::string error;

  /// The CLI's `combined=` value.
  [[nodiscard]] std::uint64_t combined() const {
    std::uint64_t state = sc ^ (atlas * 0x9e3779b97f4a7c15ULL);
    return util::splitmix64(state);
  }
};

DatasetHash streamed_hash(const std::filesystem::path& store_dir,
                          const core::Study& study) {
  DatasetHash out;
  store::IoEnv io;
  for (const std::string_view platform : kPlatforms) {
    const core::StreamedHashResult result = core::streamed_dataset_hash(
        store_dir, platform, io, &study.sc_fleet(), &study.atlas_fleet());
    if (!result.ok()) {
      out.error = std::string{platform} + ": " + result.error;
      return out;
    }
    (platform == "atlas" ? out.atlas : out.sc) = result.hash;
  }
  return out;
}

/// Data rows of a CSV file (every line but the header).
std::uint64_t csv_data_rows(const std::filesystem::path& path) {
  std::ifstream in{path};
  const auto lines = static_cast<std::uint64_t>(
      std::count(std::istreambuf_iterator<char>{in},
                 std::istreambuf_iterator<char>{}, '\n'));
  return lines == 0 ? 0 : lines - 1;
}

/// Per-day durations (ms) of one platform's campaign: the Chrome-trace `day`
/// events inside that campaign's span, in day order.
std::vector<double> campaign_days_ms(const util::JsonValue& events,
                                     std::string_view platform) {
  const std::string campaign = "campaign." + std::string{platform};
  double begin = -1.0;
  double end = -1.0;
  for (const util::JsonValue& event : events.items()) {
    if (event.string_at("name") == campaign) {
      begin = event.number_at("ts", 0.0);
      end = begin + event.number_at("dur", 0.0);
    }
  }
  std::vector<double> days;
  for (const util::JsonValue& event : events.items()) {
    const double ts = event.number_at("ts", -1.0);
    if (event.string_at("name") == "day" && ts >= begin && ts <= end) {
      days.push_back(event.number_at("dur", 0.0) / 1e3);
    }
  }
  return days;
}

int run(const Workload& workload, std::uint64_t seed,
        const std::filesystem::path& out_dir, bool trace,
        const core::ScaleSpec& scale, bool setup_only, bool check_hash) {
  obs::Logger::global().set_level(obs::Level::Warn);
  if (trace) {
    obs::TraceRecorder::global().enable();
    obs::TraceRecorder::global().name_this_thread("main");
  }

  core::StudyConfig config;
  config.seed = seed;
  core::apply_scale(config, scale);
  config.sc_campaign.days = 10;  // the CLI's --days default
  config.threads = workload.threads;
  const std::filesystem::path store_dir = out_dir / "store";
  core::RunControl control;
  if (workload.stream) {
    control.checkpoint_dir = store_dir.string();
    control.stream = true;
  }

  obs::Registry& registry = obs::Registry::global();
  const auto counter = [&registry](std::string_view name) {
    return registry.counter(name).value();
  };
  std::vector<std::string> errors;
  DatasetHash hash;
  std::uint64_t store_rows = 0;
  std::uint64_t csv_rows = 0;
  std::uint64_t campaign_peak_rss = 0;
  double check_hash_ms = 0.0;

  // ---- timed: the command's public calls, start to last artefact ---------
  Spans spans{obs::monotonic_ns()};
  std::optional<core::Study> study;
  spans.time("setup", [&] { study.emplace(config); });
  if (!setup_only) {
    spans.time("campaign", [&] { study->run(control); });
    campaign_peak_rss = obs::peak_rss_bytes();
    if (workload.stream) {
      // The CLI reports the durable row count of each store it streamed.
      spans.time("store_open", [&] {
        store::IoEnv io;
        for (const std::string_view platform : kPlatforms) {
          const store::OpenResult opened = store::open_store_structural(
              store_dir, platform, io, /*repair=*/false);
          if (opened.ok()) {
            store_rows += opened.durable_rows;
          } else {
            errors.push_back(std::string{platform} + " store: " + opened.error);
          }
        }
      });
    }
    if (workload.hash) {
      spans.time("hash", [&] {
        if (workload.stream) {
          hash = streamed_hash(store_dir, *study);
        } else {
          hash.sc = core::dataset_hash(study->sc_dataset());
          hash.atlas = core::dataset_hash(study->atlas_dataset());
        }
      });
    }
    if (!workload.stream) {
      std::filesystem::create_directories(out_dir);
      const std::uint64_t rows_before = counter("export.ping_rows_total") +
                                        counter("export.trace_rows_total");
      spans.time("export", [&] {
        std::ofstream pings{out_dir / "pings.csv"};
        core::export_pings_csv(pings, study->sc_dataset());
        std::ofstream traces{out_dir / "traceroutes.csv"};
        core::export_traces_csv(traces, study->sc_dataset());
      });
      csv_rows = counter("export.ping_rows_total") +
                 counter("export.trace_rows_total") - rows_before;
      spans.time("report", [&] {
        obs::Span phase = obs::span("core.report");
        std::ofstream report{out_dir / "report.json"};
        core::write_full_report(report, study->view());
      });
    }
  }
  const double wall_ms = spans.elapsed_ms();
  const std::uint64_t peak_rss = obs::peak_rss_bytes();

  // ---- untimed: output checks ---------------------------------------------
  const std::uint64_t delivered = counter("campaign.tasks_delivered_total");
  if (!setup_only) {
    if (!study->completed()) errors.emplace_back("study did not complete");
    if (workload.stream) {
      if (check_hash && !workload.hash) {
        const obs::Stopwatch stopwatch;
        hash = streamed_hash(store_dir, *study);
        check_hash_ms = stopwatch.elapsed_ms();
      }
      store::IoEnv io;
      for (const std::string_view platform : kPlatforms) {
        const store::FsckReport report = store::fsck(store_dir, platform, io);
        if (!report.healthy()) {
          errors.push_back(std::string{platform} + " fsck: " + report.error);
        }
      }
      if (store_rows != delivered) {
        errors.push_back("store holds " + std::to_string(store_rows) +
                         " task rows, campaigns delivered " +
                         std::to_string(delivered));
      }
    } else {
      const measure::Dataset& data = study->sc_dataset();
      std::uint64_t hops = 0;
      for (std::size_t row = 0; row < data.traces.size(); ++row) {
        hops += data.traces.hop_count(row);
      }
      const std::uint64_t ping_rows = csv_data_rows(out_dir / "pings.csv");
      const std::uint64_t hop_rows = csv_data_rows(out_dir / "traceroutes.csv");
      if (ping_rows != data.pings.size() || hop_rows != hops) {
        errors.push_back("CSV rows " + std::to_string(ping_rows) + "/" +
                         std::to_string(hop_rows) + " != dataset pings/hops " +
                         std::to_string(data.pings.size()) + "/" +
                         std::to_string(hops));
      }
      std::ifstream report{out_dir / "report.json"};
      const std::string text{std::istreambuf_iterator<char>{report},
                             std::istreambuf_iterator<char>{}};
      std::string parse_error;
      const std::optional<util::JsonValue> parsed =
          util::JsonValue::parse(text, &parse_error);
      if (!parsed || !parsed->is_object()) {
        errors.push_back("report.json does not parse: " + parse_error);
      }
    }
    if (!hash.error.empty()) errors.push_back("dataset hash: " + hash.error);
  }

  // ---- report --------------------------------------------------------------
  util::JsonWriter json{std::cout, /*pretty=*/false};
  json.begin_object();
  json.field("workload", workload.name);
  json.field("scale", scale.name);
  json.field("seed", seed);
  json.field("threads", static_cast<std::uint64_t>(workload.threads));
  json.field("wall_ms", wall_ms);
  json.field("peak_rss_bytes", peak_rss);
  json.field("campaign_peak_rss_bytes", campaign_peak_rss);
  json.field("check_hash_ms", check_hash_ms);
  spans.write(json);
  if (!setup_only) {
    json.key("hash");
    if (workload.hash || check_hash) {
      json.begin_object();
      json.field("sc", core::format_dataset_hash(hash.sc));
      json.field("atlas", core::format_dataset_hash(hash.atlas));
      json.field("combined", core::format_dataset_hash(hash.combined()));
      json.end_object();
    } else {
      json.null();
    }

    json.key("program_spans_ms");
    json.begin_object();
    const obs::SpanTracker& tracker = obs::SpanTracker::global();
    for (const std::string_view name :
         {"topology.world.build", "probes.fleet.build.speedchecker",
          "probes.fleet.build.atlas", "schedule", "execute", "merge",
          "store.drain"}) {
      json.field(name, tracker.total_ms(name));
    }
    json.end_object();

    json.key("counters");
    json.begin_object();
    for (const std::string_view name :
         {"campaign.tasks_total", "campaign.tasks_delivered_total",
          "measure.worker_busy_ms_total", "routing.path_cache.hits",
          "routing.path_cache.misses", "routing.path_cache.bypasses",
          "store.spill_bytes_total", "store.fsyncs_total",
          "store.append_failures_total", "store.commit_failures_total"}) {
      json.field(name, counter(name));
    }
    json.field("store.degraded", registry.gauge("store.degraded").value());
    json.field("csv_rows", csv_rows);
    json.field("store_rows", store_rows);
    json.end_object();

    if (trace) {
      std::ostringstream text;
      obs::TraceRecorder::global().write_json(text);
      const std::optional<util::JsonValue> parsed =
          util::JsonValue::parse(text.str());
      const util::JsonValue* events =
          parsed ? parsed->find("traceEvents") : nullptr;
      json.key("days_ms");
      json.begin_object();
      for (const std::string_view platform : kPlatforms) {
        const std::vector<double> days =
            events != nullptr ? campaign_days_ms(*events, platform)
                              : std::vector<double>{};
        if (days.size() < 2) {
          errors.push_back("trace: fewer than two days in campaign." +
                           std::string{platform});
        }
        json.key(platform);
        json.begin_array();
        for (const double ms : days) json.value(ms);
        json.end_array();
      }
      json.end_object();
    }
  }
  json.key("errors");
  json.begin_array();
  for (const std::string& error : errors) json.value(error);
  json.end_array();
  json.end_object();
  std::cout << "\n";
  return errors.empty() ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args{"perfbench_workload",
                       "run one benchmark workload and print its measurements"};
  args.add_option("workload", "", "study_default | run_paper | stream_paper_t1");
  args.add_option("seed", "42", "study seed");
  args.add_option("out", "", "artefact directory (created; caller removes it)");
  args.add_option("scale", "", "override the workload's fleet scale");
  args.add_flag("trace", "record the Chrome trace and report per-day events");
  args.add_flag("setup-only", "stop after Study construction");
  args.add_flag("check-hash", "compute the dataset hash untimed when the "
                              "workload's command prints none");
  if (!args.parse(argc, argv)) return 1;

  const auto* workload =
      std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                   [&](const Workload& w) { return w.name == args.get("workload"); });
  if (workload == std::end(kWorkloads)) {
    std::cerr << "unknown workload '" << args.get("workload") << "'\n";
    return 1;
  }
  if (args.get("out").empty()) {
    std::cerr << "--out is required\n";
    return 1;
  }
  const core::ScaleSpec scale = core::parse_scale(
      args.get("scale").empty() ? workload->scale : args.get("scale"));
  if (!scale.ok()) {
    std::cerr << scale.error << "\n";
    return 1;
  }
  return run(*workload, static_cast<std::uint64_t>(args.get_int("seed")),
             args.get("out"), args.get_flag("trace"), scale,
             args.get_flag("setup-only"), args.get_flag("check-hash"));
}
