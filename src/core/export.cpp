#include "core/export.hpp"

#include <algorithm>
#include <charconv>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "store/codec.hpp"
#include "store/io_env.hpp"
#include "store/lane_reader.hpp"
#include "store/salvage.hpp"
#include "util/rng.hpp"

namespace cloudrtt::core {

namespace {

constexpr std::uint64_t kFnvBasis = util::kFnv1aBasis;

// -- row encoder ---------------------------------------------------------------

/// Rows per encode range. Constants, never derived from the worker count:
/// ranges only decide which thread formats which rows, the bytes are the
/// same for any split.
constexpr std::size_t kPingRange = 4096;
constexpr std::size_t kTraceRange = 512;  ///< traces (each one row per hop)

constexpr std::string_view kPingHeader =
    "probe_id,platform,country,continent,isp_asn,provider,region,protocol,"
    "rtt_ms,day,slot\n";
constexpr std::string_view kTraceHeader =
    "trace_id,probe_id,provider,region,target_ip,day,slot,completed,"
    "end_to_end_ms,ttl,responded,hop_ip,hop_rtt_ms";

constexpr std::size_t kMaxUintChars = 20;  ///< UINT64_MAX
/// Shortest round-trip needs at most 24; "%.3f" of DBL_MAX needs 314.
constexpr std::size_t kMaxDoubleChars = 320;
constexpr std::size_t kMaxIpChars = net::Ipv4Address::kMaxChars;

/// Growable char buffer the encoder formats rows into. Capacity survives
/// clear(), so a work item's buffer stops allocating after its first range.
class RowBuffer {
 public:
  /// Pointer to at least `bytes` writable chars past the end.
  [[nodiscard]] char* reserve(std::size_t bytes) {
    if (bytes_.size() - size_ < bytes) {
      bytes_.resize(std::max({bytes_.size() * 2, size_ + bytes,
                              std::size_t{1} << 16}));
    }
    return bytes_.data() + size_;
  }
  /// Mark everything up to `end` (inside the last reserve()) as written.
  void commit(const char* end) {
    size_ = static_cast<std::size_t>(end - bytes_.data());
  }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const char* data() const { return bytes_.data(); }
  [[nodiscard]] std::string_view view() const { return {data(), size_}; }
  void clear() { size_ = 0; }

 private:
  std::vector<char> bytes_;
  std::size_t size_ = 0;
};

[[nodiscard]] char* put_uint(char* out, std::uint64_t value) {
  return std::to_chars(out, out + kMaxUintChars, value).ptr;
}

/// Shortest round-trip form, or the human CSV's "%.3f" (to_chars fixed with
/// precision 3 is byte-identical to it, including -0.000, inf and nan).
[[nodiscard]] char* put_double(char* out, double value, bool roundtrip) {
  return roundtrip ? std::to_chars(out, out + kMaxDoubleChars, value).ptr
                   : std::to_chars(out, out + kMaxDoubleChars, value,
                                   std::chars_format::fixed, 3)
                         .ptr;
}

/// Worst case of put_text: every char a doubled quote, plus the two quotes.
[[nodiscard]] std::size_t text_bound(std::string_view text) {
  return 2 * text.size() + 2;
}

/// A catalog string as a CSV cell, quoted exactly when util::write_csv_row
/// would quote it.
[[nodiscard]] char* put_text(char* out, std::string_view text) {
  if (text.find_first_of(",\"\n") == std::string_view::npos) {
    std::memcpy(out, text.data(), text.size());
    return out + text.size();
  }
  *out++ = '"';
  for (const char ch : text) {
    if (ch == '"') *out++ = '"';
    *out++ = ch;
  }
  *out++ = '"';
  return out;
}

/// Append ping rows [begin, end) of `data`.
// lint:hot
void encode_pings(const measure::Dataset& data, std::size_t begin,
                  std::size_t end, bool roundtrip, RowBuffer& buffer) {
  constexpr std::size_t kFixed = 4 * kMaxUintChars + kMaxDoubleChars + 11;
  for (std::size_t row = begin; row < end; ++row) {
    const measure::PingRecord ping = data.pings[row];
    const probes::Probe& probe = *ping.probe;
    // lint:allow(hot-path-alloc): returns a string_view literal, no allocation
    const std::string_view platform = to_string(probe.platform);
    const std::string_view country = probe.country->code;
    const std::string_view continent = geo::to_code(probe.country->continent);
    const std::string_view provider =
        cloud::provider_info(ping.region->provider).ticker;
    const std::string_view region = ping.region->region_name;
    // lint:allow(hot-path-alloc): returns a string_view literal, no allocation
    const std::string_view protocol = to_string(ping.protocol);
    char* out = buffer.reserve(
        kFixed + text_bound(platform) + text_bound(country) +
        text_bound(continent) + text_bound(provider) + text_bound(region) +
        text_bound(protocol));
    out = put_uint(out, probe.id);
    *out++ = ',';
    out = put_text(out, platform);
    *out++ = ',';
    out = put_text(out, country);
    *out++ = ',';
    out = put_text(out, continent);
    *out++ = ',';
    out = put_uint(out, probe.isp->asn);
    *out++ = ',';
    out = put_text(out, provider);
    *out++ = ',';
    out = put_text(out, region);
    *out++ = ',';
    out = put_text(out, protocol);
    *out++ = ',';
    out = put_double(out, ping.rtt_ms, roundtrip);
    *out++ = ',';
    out = put_uint(out, ping.day);
    *out++ = ',';
    out = put_uint(out, ping.slot);
    *out++ = '\n';
    buffer.commit(out);
  }
}

/// Append the hop rows of traces [begin, end) of `data`, numbering the
/// first trace `trace_id`; returns the rows written. The cells a trace's
/// hops share are encoded once and copied for each further hop.
// lint:hot
std::uint64_t encode_traces(const measure::Dataset& data, std::size_t begin,
                            std::size_t end, std::uint64_t trace_id,
                            const ExportOptions& options, RowBuffer& buffer) {
  constexpr std::size_t kPrefixFixed =
      4 * kMaxUintChars + kMaxIpChars + kMaxDoubleChars + 10;
  constexpr std::size_t kHopFixed =
      kMaxUintChars + kMaxIpChars + kMaxDoubleChars + 8;
  const bool roundtrip = options.roundtrip_doubles;
  std::uint64_t rows = 0;
  for (std::size_t row = begin; row < end; ++row, ++trace_id) {
    const measure::TraceRef trace = data.traces[row];
    if (trace.hops.empty()) continue;
    const std::string_view provider =
        cloud::provider_info(trace.region->provider).ticker;
    const std::string_view region = trace.region->region_name;
    const std::string_view mode =
        // lint:allow(hot-path-alloc): returns a string_view literal, no allocation
        options.ground_truth ? topology::to_string(trace.true_mode)
                             : std::string_view{};
    const std::size_t hop_bound = kHopFixed + text_bound(mode);

    // trace_id,probe_id,provider,region,target_ip,day,slot,completed,e2e,
    const std::size_t prefix_at = buffer.size();
    char* out = buffer.reserve(kPrefixFixed + text_bound(provider) +
                               text_bound(region) + hop_bound);
    const char* const prefix_begin = out;
    out = put_uint(out, trace_id);
    *out++ = ',';
    out = put_uint(out, trace.probe->id);
    *out++ = ',';
    out = put_text(out, provider);
    *out++ = ',';
    out = put_text(out, region);
    *out++ = ',';
    out = trace.target_ip.to_chars(out);
    *out++ = ',';
    out = put_uint(out, trace.day);
    *out++ = ',';
    out = put_uint(out, trace.slot);
    *out++ = ',';
    *out++ = trace.completed ? '1' : '0';
    *out++ = ',';
    out = put_double(out, trace.end_to_end_ms, roundtrip);
    *out++ = ',';
    const auto prefix_size = static_cast<std::size_t>(out - prefix_begin);

    for (std::size_t h = 0; h < trace.hops.size(); ++h) {
      if (h > 0) {
        out = buffer.reserve(prefix_size + hop_bound);
        std::memcpy(out, buffer.data() + prefix_at, prefix_size);
        out += prefix_size;
      }
      const measure::HopRecord& hop = trace.hops[h];
      // ttl,responded,hop_ip,hop_rtt_ms[,true_mode]
      out = put_uint(out, hop.ttl);
      *out++ = ',';
      *out++ = hop.responded ? '1' : '0';
      *out++ = ',';
      if (hop.responded) out = hop.ip.to_chars(out);
      *out++ = ',';
      if (hop.responded) out = put_double(out, hop.rtt_ms, roundtrip);
      if (options.ground_truth) {
        *out++ = ',';
        out = put_text(out, mode);
      }
      *out++ = '\n';
      buffer.commit(out);
    }
    rows += trace.hops.size();
  }
  return rows;
}

// -- ordered pipeline ----------------------------------------------------------

/// In-flight work items per encode worker: enough that a worker finishing
/// early finds the next item filled, few enough to bound resident buffers.
constexpr std::size_t kSlotsPerWorker = 2;

/// Runs work items through a bounded window of `slots`, in order. The
/// calling thread fills slot after slot with `produce` (false: no more
/// work); up to `workers` threads run `encode` on filled slots in any order;
/// the calling thread hands encoded slots to `consume` strictly in fill
/// order (false: stop). A slot is refilled only after it was consumed, so
/// at most slots.size() items are resident. `workers` <= 1 runs everything
/// inline. Whatever ends the run — the last item, `consume` stopping, an
/// exception from any stage — unclaimed items are dropped and every worker
/// is joined before this returns; an `encode` exception is rethrown here
/// when its slot comes up.
template <typename Slot, typename Produce, typename Encode, typename Consume>
void run_ordered(unsigned workers, std::vector<Slot>& slots,
                 Produce&& produce, Encode&& encode, Consume&& consume) {
  if (workers <= 1 || slots.size() <= 1) {
    Slot& slot = slots.front();
    while (produce(slot)) {
      encode(slot);
      if (!consume(slot)) return;
    }
    return;
  }

  const std::size_t window = slots.size();
  std::mutex mutex;
  std::condition_variable filled;   // workers: an item to claim, or stop
  std::condition_variable encoded;  // caller: the next item in order is done
  std::uint64_t produced = 0;       // guarded by mutex
  std::uint64_t claimed = 0;        // guarded by mutex
  bool stop = false;                // guarded by mutex
  std::vector<unsigned char> done(window, 0);         // guarded by mutex
  std::vector<std::exception_ptr> failures(window);   // guarded by mutex

  const auto work = [&] {
    for (;;) {
      std::uint64_t seq = 0;
      {
        std::unique_lock lock{mutex};
        filled.wait(lock, [&] { return stop || claimed < produced; });
        if (stop) return;
        seq = claimed++;
      }
      std::exception_ptr failure;
      try {
        encode(slots[seq % window]);
      } catch (...) {
        failure = std::current_exception();
      }
      {
        const std::scoped_lock lock{mutex};
        failures[seq % window] = failure;
        done[seq % window] = 1;
      }
      encoded.notify_one();
    }
  };

  /// Stops and joins the pool on every exit path, exceptions included.
  struct Pool {
    std::mutex& mutex;
    std::condition_variable& filled;
    bool& stop;
    std::vector<std::thread> threads;
    ~Pool() {
      {
        const std::scoped_lock lock{mutex};
        stop = true;
      }
      filled.notify_all();
      for (std::thread& thread : threads) thread.join();
    }
  } pool{mutex, filled, stop, {}};
  const std::size_t thread_count = std::min<std::size_t>(workers, window);
  pool.threads.reserve(thread_count);
  for (std::size_t i = 0; i < thread_count; ++i) pool.threads.emplace_back(work);

  bool more = true;
  for (std::uint64_t consumed = 0;; ++consumed) {
    // Top the window up. The slot being filled was consumed a full window
    // ago and is not visible to any worker until `produced` covers it.
    while (more && produced < consumed + window) {
      Slot& slot = slots[produced % window];
      more = produce(slot);
      if (!more) break;
      {
        const std::scoped_lock lock{mutex};
        done[produced % window] = 0;
        ++produced;
      }
      filled.notify_one();
    }
    if (consumed == produced) return;
    std::exception_ptr failure;
    {
      std::unique_lock lock{mutex};
      encoded.wait(lock, [&] { return done[consumed % window] != 0; });
      failure = failures[consumed % window];
    }
    if (failure) std::rethrow_exception(failure);
    if (!consume(slots[consumed % window])) return;
  }
}

/// Pipeline window for `workers`: one slot when encoding inline.
[[nodiscard]] std::size_t window_for(unsigned workers) {
  return workers <= 1 ? 1 : kSlotsPerWorker * workers;
}

/// One in-memory range: rows [begin, end) of a dataset column.
struct RangeSlot {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::uint64_t rows = 0;  ///< CSV rows encoded
  RowBuffer buffer;
};

/// Encode `total` column rows in `range`-sized slots and hand the buffers
/// to `consume` in order. Work of one range or less runs inline.
template <typename Encode, typename Consume>
void encode_ranges(std::size_t total, std::size_t range, unsigned workers,
                   Encode&& encode, Consume&& consume) {
  if (total <= range) workers = 1;
  std::vector<RangeSlot> slots(window_for(workers));
  std::size_t next = 0;
  run_ordered(
      workers, slots,
      [&](RangeSlot& slot) {
        if (next >= total) return false;
        slot.begin = next;
        slot.end = std::min(next + range, total);
        next = slot.end;
        return true;
      },
      [&](RangeSlot& slot) {
        slot.buffer.clear();
        slot.rows = encode(slot);
      },
      [&](const RangeSlot& slot) {
        consume(slot.buffer.view(), slot.rows);
        return true;
      });
}

/// Hand bytes to a writer's destinations: the stream with one write, the
/// running dataset hash with one fold.
void emit(std::ostream* out, std::uint64_t* fold, std::string_view bytes) {
  if (out != nullptr) {
    out->write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  if (fold != nullptr) *fold = util::fnv1a_accum(*fold, bytes);
}

void export_pings(std::ostream* out, std::uint64_t* fold,
                  const measure::Dataset& data, const ExportOptions& options,
                  unsigned workers) {
  obs::Span phase = obs::span("core.export.pings_csv");
  emit(out, fold, kPingHeader);
  std::uint64_t rows = 0;
  encode_ranges(
      data.pings.size(), kPingRange, workers,
      [&](RangeSlot& slot) {
        encode_pings(data, slot.begin, slot.end, options.roundtrip_doubles,
                     slot.buffer);
        return std::uint64_t{slot.end - slot.begin};
      },
      [&](std::string_view bytes, std::uint64_t range_rows) {
        emit(out, fold, bytes);
        rows += range_rows;
      });
  obs::Registry::global().counter("export.ping_rows_total").inc(rows);
}

void export_traces(std::ostream* out, std::uint64_t* fold,
                   const measure::Dataset& data, const ExportOptions& options,
                   unsigned workers) {
  obs::Span phase = obs::span("core.export.traces_csv");
  emit(out, fold, kTraceHeader);
  emit(out, fold, options.ground_truth ? ",true_mode\n" : "\n");
  std::uint64_t rows = 0;
  encode_ranges(
      data.traces.size(), kTraceRange, workers,
      [&](RangeSlot& slot) {
        return encode_traces(data, slot.begin, slot.end, slot.begin, options,
                             slot.buffer);
      },
      [&](std::string_view bytes, std::uint64_t range_rows) {
        emit(out, fold, bytes);
        rows += range_rows;
      });
  obs::Registry::global().counter("export.trace_rows_total").inc(rows);
}

/// The options of the canonical serialisation the dataset hash covers:
/// every collected bit, not 3 decimals.
[[nodiscard]] ExportOptions hash_options() {
  ExportOptions options;
  options.roundtrip_doubles = true;
  options.ground_truth = true;
  return options;
}

}  // namespace

namespace detail {

unsigned encode_workers() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void export_pings_csv(std::ostream& out, const measure::Dataset& data,
                      const ExportOptions& options, unsigned workers) {
  export_pings(&out, nullptr, data, options, workers);
}

void export_traces_csv(std::ostream& out, const measure::Dataset& data,
                       const ExportOptions& options, unsigned workers) {
  export_traces(&out, nullptr, data, options, workers);
}

std::uint64_t dataset_hash(const measure::Dataset& data, unsigned workers) {
  std::uint64_t hash = kFnvBasis;
  const ExportOptions options = hash_options();
  export_pings(nullptr, &hash, data, options, workers);
  export_traces(nullptr, &hash, data, options, workers);
  return hash;
}

}  // namespace detail

void export_pings_csv(std::ostream& out, const measure::Dataset& data) {
  detail::export_pings_csv(out, data, ExportOptions{},
                           detail::encode_workers());
}

void export_traces_csv(std::ostream& out, const measure::Dataset& data) {
  detail::export_traces_csv(out, data, ExportOptions{},
                            detail::encode_workers());
}

std::uint64_t dataset_hash(const measure::Dataset& data) {
  return detail::dataset_hash(data, detail::encode_workers());
}

StreamedHashResult streamed_dataset_hash(const std::filesystem::path& dir,
                                         std::string_view platform,
                                         store::IoEnv& io,
                                         const probes::ProbeFleet* sc_fleet,
                                         const probes::ProbeFleet* atlas_fleet) {
  return detail::streamed_dataset_hash(dir, platform, io, sc_fleet,
                                       atlas_fleet, detail::encode_workers());
}

std::string format_dataset_hash(std::uint64_t hash) {
  char hex[17] = {};
  std::to_chars(hex, hex + 16, hash, 16);
  std::string padded(16 - std::string_view{hex}.size(), '0');
  padded += hex;
  return padded;
}

// -- streamed hash ---------------------------------------------------------------

namespace {

/// One store block as a work item: the raw payload the scan read, the rows
/// the worker decodes it into, and the CSV bytes it encodes them to. A read
/// error becomes an item of its own, so errors surface in scan order.
struct BlockSlot {
  store::Block block;
  std::string payload;
  measure::Dataset rows;
  std::uint64_t first_trace = 0;
  std::uint64_t csv_rows = 0;
  RowBuffer buffer;
  std::string error;
};

enum class Pass { Pings, Traces };

/// One scan of the store through the encode pipeline, folding the chosen
/// CSV's rows (not its header) into `hash`. Error text on failure, after
/// which `hash` is meaningless.
[[nodiscard]] std::string hash_store_pass(
    const std::filesystem::path& dir, std::string_view platform,
    store::IoEnv& io, const store::OpenResult& opened,
    const store::RowBinder& binder, Pass pass, unsigned workers,
    std::uint64_t& hash, std::uint64_t& csv_rows) {
  store::StoreScan scan{dir, platform, io, opened.lane_states};
  const ExportOptions options = hash_options();
  if (opened.durable_rows <= store::kBlockTasks) workers = 1;
  std::vector<BlockSlot> slots(window_for(workers));
  for (BlockSlot& slot : slots) {
    slot.rows.bind(binder.sc_fleet(), binder.atlas_fleet());
  }
  std::uint64_t traces = 0;
  bool scanned = false;
  std::string error;
  run_ordered(
      workers, slots,
      [&](BlockSlot& slot) {
        slot.error.clear();
        if (scanned) return false;
        if (!scan.next(slot.block, slot.payload)) {
          scanned = true;
          slot.error = scan.error();
          return !slot.error.empty();
        }
        slot.first_trace = traces;
        traces += slot.block.header.tasks;  // one trace per task
        return true;
      },
      [&](BlockSlot& slot) {
        if (!slot.error.empty()) return;
        slot.rows.clear_rows();
        if (std::string err = binder.parse_block(slot.payload,
                                                 slot.block.header, slot.rows);
            !err.empty()) {
          slot.error = "lane " + std::to_string(slot.block.lane) + ": " + err;
          return;
        }
        slot.buffer.clear();
        if (pass == Pass::Pings) {
          encode_pings(slot.rows, 0, slot.rows.pings.size(),
                       options.roundtrip_doubles, slot.buffer);
          slot.csv_rows = slot.rows.pings.size();
        } else {
          slot.csv_rows =
              encode_traces(slot.rows, 0, slot.rows.traces.size(),
                            slot.first_trace, options, slot.buffer);
        }
      },
      [&](const BlockSlot& slot) {
        if (!slot.error.empty()) {
          error = slot.error;
          return false;
        }
        hash = util::fnv1a_accum(hash, slot.buffer.view());
        csv_rows += slot.csv_rows;
        return true;
      });
  return error;
}

}  // namespace

namespace detail {

StreamedHashResult streamed_dataset_hash(const std::filesystem::path& dir,
                                         std::string_view platform,
                                         store::IoEnv& io,
                                         const probes::ProbeFleet* sc_fleet,
                                         const probes::ProbeFleet* atlas_fleet,
                                         unsigned workers) {
  obs::Span phase = obs::span("core.export.streamed_hash");
  StreamedHashResult result;
  // Structural open validates the committed region + salvage chain and hands
  // back the per-lane durable byte marks — without materialising any rows.
  const store::OpenResult opened =
      store::open_store_structural(dir, platform, io, /*repair=*/false);
  if (!opened.ok()) {
    result.error = opened.error;
    return result;
  }
  const store::RowBinder binder{sc_fleet, atlas_fleet};
  // The canonical serialisation is the full ping CSV then the full trace
  // CSV, and FNV-1a is strictly sequential — so the store is scanned twice,
  // once per CSV.
  std::uint64_t hash = util::fnv1a_accum(kFnvBasis, kPingHeader);
  std::uint64_t ping_rows = 0;
  if (std::string err = hash_store_pass(dir, platform, io, opened, binder,
                                        Pass::Pings, workers, hash, ping_rows);
      !err.empty()) {
    result.error = "streamed hash (ping pass): " + err;
    return result;
  }
  obs::Registry::global().counter("export.ping_rows_total").inc(ping_rows);
  hash = util::fnv1a_accum(hash, kTraceHeader);
  hash = util::fnv1a_accum(hash, ",true_mode\n");
  std::uint64_t trace_rows = 0;
  if (std::string err =
          hash_store_pass(dir, platform, io, opened, binder, Pass::Traces,
                          workers, hash, trace_rows);
      !err.empty()) {
    result.error = "streamed hash (trace pass): " + err;
    return result;
  }
  obs::Registry::global().counter("export.trace_rows_total").inc(trace_rows);
  result.hash = hash;
  result.rows = opened.durable_rows;
  return result;
}

}  // namespace detail

}  // namespace cloudrtt::core
