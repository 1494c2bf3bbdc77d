// Unit tests for the core layer: JSON writer, CSV parse/serialize round
// trips, the row encoder's byte-equivalence oracle, and the full JSON
// report.

#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/export.hpp"
#include "core/report.hpp"
#include "core/study.hpp"
#include "geo/country.hpp"
#include "obs/metrics.hpp"
#include "topology/isp.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/text.hpp"

namespace cloudrtt {
namespace {

TEST(JsonWriter, ScalarsAndNesting) {
  std::ostringstream out;
  util::JsonWriter json{out, /*pretty=*/false};
  json.begin_object();
  json.field("name", "cloudrtt");
  json.field("count", std::size_t{42});
  json.field("ratio", 0.5);
  json.field("flag", true);
  json.key("list");
  json.begin_array();
  json.value(1);
  json.value(2);
  json.end_array();
  json.key("nothing");
  json.null();
  json.end_object();
  EXPECT_TRUE(json.complete());
  EXPECT_EQ(out.str(),
            R"({"name": "cloudrtt","count": 42,"ratio": 0.5,"flag": true,)"
            R"("list": [1,2],"nothing": null})");
}

TEST(JsonWriter, EscapesSpecialCharacters) {
  std::ostringstream out;
  util::JsonWriter json{out, false};
  json.value(std::string_view{"a\"b\\c\nd\te"});
  EXPECT_EQ(out.str(), "\"a\\\"b\\\\c\\nd\\te\"");
}

TEST(JsonWriter, EmptyContainers) {
  std::ostringstream out;
  util::JsonWriter json{out, false};
  json.begin_object();
  json.key("empty_list");
  json.begin_array();
  json.end_array();
  json.key("empty_obj");
  json.begin_object();
  json.end_object();
  json.end_object();
  EXPECT_EQ(out.str(), R"({"empty_list": [],"empty_obj": {}})");
}

TEST(CsvParse, RoundTripsQuoting) {
  const std::vector<std::string> cells{"plain", "with,comma", "with\"quote",
                                       "", "multi word"};
  std::ostringstream out;
  util::write_csv_row(out, cells);
  std::string line = out.str();
  line.pop_back();  // strip the trailing newline
  EXPECT_EQ(util::parse_csv_row(line), cells);
}

TEST(CsvParse, HandlesCrLfAndEmptyFields) {
  const auto cells = util::parse_csv_row("a,,c\r");
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0], "a");
  EXPECT_EQ(cells[1], "");
  EXPECT_EQ(cells[2], "c");
}

class CoreRoundTrip : public ::testing::Test {
 protected:
  static const core::Study& study() {
    static core::Study s = [] {
      core::StudyConfig config = core::StudyConfig::quick();
      core::Study st{config};
      st.run();
      return st;
    }();
    return s;
  }
};

/// StudyConfig::quick() at seed 23, with Atlas: the report-bytes fixture.
[[nodiscard]] const core::Study& report_study() {
  static const core::Study s = [] {
    core::StudyConfig config = core::StudyConfig::quick();
    config.seed = 23;
    core::Study st{config};
    st.run();
    return st;
  }();
  return s;
}

[[nodiscard]] std::string report_bytes(const analysis::StudyView& view,
                                       unsigned workers) {
  std::ostringstream out;
  core::detail::write_full_report(out, view, workers);
  return out.str();
}

// The report's bytes are pinned: FNV-1a of the document, as written before
// the exhibits shared one derivation. The facts pass must not change a byte,
// whatever its worker count.
TEST(ReportBytes, PinnedDigestAtAnyFactsWorkerCount) {
  const analysis::StudyView view = report_study().view();
  std::ostringstream out;
  core::write_full_report(out, view);
  const std::string bytes = out.str();
  EXPECT_EQ(bytes.size(), 77199u);
  EXPECT_EQ(core::format_dataset_hash(util::fnv1a(bytes)), "9c8fe9c1cc482fe2");
  EXPECT_TRUE(report_bytes(view, 1) == bytes) << "1 facts worker";
  EXPECT_TRUE(report_bytes(view, 4) == bytes) << "4 facts workers";
}

// One report resolves each responded hop and each trace target exactly once
// across every exhibit, on both platforms.
TEST(ReportBytes, OneReportResolvesEachHopOnce) {
  const analysis::StudyView view = report_study().view();
  std::uint64_t expected = 0;
  for (const measure::Dataset* data : {view.sc_data, view.atlas_data}) {
    for (const measure::TraceRef& trace : data->traces) {
      ++expected;  // the target
      for (const measure::HopRecord& hop : trace.hops) {
        if (hop.responded) ++expected;
      }
    }
  }
  obs::Counter& lookups =
      obs::Registry::global().counter("resolve.lookups_total");
  const std::uint64_t before = lookups.value();
  std::ostringstream out;
  core::write_full_report(out, view);
  EXPECT_EQ(lookups.value() - before, expected);
}

TEST_F(CoreRoundTrip, FullReportIsWellFormedJson) {
  std::ostringstream out;
  core::write_full_report(out, study().view());
  const std::string text = out.str();
  // Structural sanity: balanced braces/brackets, key exhibits present.
  long depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char ch : text) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (ch == '\\') {
      escaped = true;
      continue;
    }
    if (ch == '"') in_string = !in_string;
    if (in_string) continue;
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  for (const char* needle :
       {"table1_endpoints", "fig3_country_latency", "fig10_interconnect_share",
        "fig18_bh_in", "sec33_methodology"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

// -- row encoder oracle ----------------------------------------------------
// The CSV writers format rows straight into char buffers with
// std::to_chars, on several threads. The serialiser they replaced is kept
// here as the byte oracle: one vector<string> of cells per row through
// util::write_csv_row, doubles via "%.3f" or shortest-round-trip to_chars.

namespace reference {

[[nodiscard]] std::string fmt_double(const core::ExportOptions& options,
                                     double value) {
  if (!options.roundtrip_doubles) return util::format_double(value, 3);
  char buffer[32];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  return ec == std::errc{} ? std::string(buffer, ptr)
                           : util::format_double(value, 3);
}

/// Header, then one util::write_csv_row line per row.
class Csv {
 public:
  explicit Csv(const std::vector<std::string>& header) {
    util::write_csv_row(out_, header);
  }
  void row(const std::vector<std::string>& cells) {
    util::write_csv_row(out_, cells);
  }
  [[nodiscard]] std::string finish() const { return out_.str(); }

 private:
  std::ostringstream out_;
};

[[nodiscard]] std::string pings_csv(const measure::Dataset& data,
                                    const core::ExportOptions& options) {
  Csv csv{{"probe_id", "platform", "country", "continent", "isp_asn",
           "provider", "region", "protocol", "rtt_ms", "day", "slot"}};
  for (const measure::PingRecord& ping : data.pings) {
    const probes::Probe& probe = *ping.probe;
    csv.row({std::to_string(probe.id), std::string{to_string(probe.platform)},
             std::string{probe.country->code},
             std::string{geo::to_code(probe.country->continent)},
             std::to_string(probe.isp->asn),
             std::string{cloud::provider_info(ping.region->provider).ticker},
             std::string{ping.region->region_name},
             std::string{to_string(ping.protocol)},
             fmt_double(options, ping.rtt_ms), std::to_string(ping.day),
             std::to_string(ping.slot)});
  }
  return csv.finish();
}

[[nodiscard]] std::string traces_csv(const measure::Dataset& data,
                                     const core::ExportOptions& options) {
  std::vector<std::string> header{"trace_id", "probe_id", "provider", "region",
                                  "target_ip", "day", "slot", "completed",
                                  "end_to_end_ms", "ttl", "responded", "hop_ip",
                                  "hop_rtt_ms"};
  if (options.ground_truth) header.emplace_back("true_mode");
  Csv csv{header};
  std::uint64_t trace_id = 0;
  for (const measure::TraceRef& trace : data.traces) {
    for (const measure::HopRecord& hop : trace.hops) {
      std::vector<std::string> cells{
          std::to_string(trace_id), std::to_string(trace.probe->id),
          std::string{cloud::provider_info(trace.region->provider).ticker},
          std::string{trace.region->region_name}, trace.target_ip.to_string(),
          std::to_string(trace.day), std::to_string(trace.slot),
          trace.completed ? "1" : "0", fmt_double(options, trace.end_to_end_ms),
          std::to_string(hop.ttl), hop.responded ? "1" : "0",
          hop.responded ? hop.ip.to_string() : std::string{},
          hop.responded ? fmt_double(options, hop.rtt_ms) : std::string{}};
      if (options.ground_truth) {
        cells.emplace_back(topology::to_string(trace.true_mode));
      }
      csv.row(cells);
    }
    ++trace_id;
  }
  return csv.finish();
}

}  // namespace reference

/// Every ExportOptions combination.
[[nodiscard]] std::vector<core::ExportOptions> all_export_options() {
  std::vector<core::ExportOptions> all;
  for (const bool roundtrip : {false, true}) {
    for (const bool truth : {false, true}) {
      core::ExportOptions options;
      options.roundtrip_doubles = roundtrip;
      options.ground_truth = truth;
      all.push_back(options);
    }
  }
  return all;
}

[[nodiscard]] std::string describe(const core::ExportOptions& options) {
  return std::string{"roundtrip="} + (options.roundtrip_doubles ? "1" : "0") +
         " ground_truth=" + (options.ground_truth ? "1" : "0");
}

/// Byte equality with the first differing offset on failure (a full diff of
/// megabytes of CSV is useless in a test log).
void expect_same_bytes(const std::string& actual, const std::string& expected,
                       const std::string& what) {
  if (actual == expected) return;
  std::size_t at = 0;
  while (at < actual.size() && at < expected.size() &&
         actual[at] == expected[at]) {
    ++at;
  }
  const std::size_t from = at < 40 ? 0 : at - 40;
  ADD_FAILURE() << what << ": first difference at byte " << at << " of "
                << actual.size() << " (expected " << expected.size()
                << ")\n  got:      " << actual.substr(from, 80)
                << "\n  expected: " << expected.substr(from, 80);
}

/// Both CSVs in every option combination at 1, 2 and 8 encode workers, and
/// the dataset hash, against the reference serialiser.
void expect_encoder_matches_reference(const measure::Dataset& data) {
  for (const core::ExportOptions& options : all_export_options()) {
    const std::string pings = reference::pings_csv(data, options);
    const std::string traces = reference::traces_csv(data, options);
    for (const unsigned workers : {1u, 2u, 8u}) {
      std::ostringstream ping_out;
      core::detail::export_pings_csv(ping_out, data, options, workers);
      expect_same_bytes(ping_out.str(), pings,
                        "pings " + describe(options) + " workers=" +
                            std::to_string(workers));
      std::ostringstream trace_out;
      core::detail::export_traces_csv(trace_out, data, options, workers);
      expect_same_bytes(trace_out.str(), traces,
                        "traces " + describe(options) + " workers=" +
                            std::to_string(workers));
    }
  }
  core::ExportOptions canonical;
  canonical.roundtrip_doubles = true;
  canonical.ground_truth = true;
  const std::uint64_t expected =
      util::fnv1a(reference::pings_csv(data, canonical) +
                  reference::traces_csv(data, canonical));
  for (const unsigned workers : {1u, 2u, 8u}) {
    EXPECT_EQ(core::format_dataset_hash(core::detail::dataset_hash(data, workers)),
              core::format_dataset_hash(expected))
        << workers << " workers";
  }
  EXPECT_EQ(core::dataset_hash(data), expected);
}

/// Hand-built rows for what a campaign rarely or never produces: catalog
/// strings that need quoting, negative zero, non-finite and extreme doubles,
/// unresponsive hops, 0-hop traces, edge addresses. Enough rows for several
/// encode ranges of both CSVs.
class HandBuiltRows {
 public:
  HandBuiltRows() {
    country_.code = "Q,\"Z\"";
    country_.name = "Quoteland";
    country_.continent = geo::Continent::Oceania;
    isp_.asn = 4294967295u;
    odd_probe_.id = 1'008'499;
    odd_probe_.platform = probes::Platform::RipeAtlas;
    odd_probe_.country = &country_;
    odd_probe_.isp = &isp_;
    const geo::CountryInfo* germany = geo::CountryTable::instance().find("DE");
    plain_isp_.asn = 3320;
    plain_probe_.id = 0;
    plain_probe_.country = germany;
    plain_probe_.isp = &plain_isp_;
    odd_region_ = cloud::RegionCatalog::instance().all().front();
    odd_region_.provider = cloud::ProviderId::Microsoft;
    odd_region_.region_name = "west,\"eu\"\n2";
    const cloud::RegionInfo* catalog = &cloud::RegionCatalog::instance().all()[3];

    const double values[] = {
        -0.0, 0.0, 0.0005, 0.0015, 0.0625, -0.0004, 123.4567, 1e-300, 5e-324,
        2.5e-7, 1e20, -3.75, 1e308, -1e308,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()};
    const auto value = [&](std::size_t i) {
      return i % 3 == 0 ? values[i % std::size(values)]
                        : static_cast<double>(i) * 0.173 - 40.0;
    };
    const net::Ipv4Address addresses[] = {
        net::Ipv4Address{0u}, net::Ipv4Address{0xFFFFFFFFu},
        net::Ipv4Address{10, 0, 0, 1}, net::Ipv4Address{100, 64, 9, 200}};

    for (std::size_t i = 0; i < 5000; ++i) {
      measure::PingRecord ping;
      ping.probe = i % 2 == 0 ? &odd_probe_ : &plain_probe_;
      ping.region = i % 3 == 0 ? &odd_region_ : catalog;
      ping.protocol = i % 2 == 0 ? measure::Protocol::Icmp
                                 : measure::Protocol::Tcp;
      ping.rtt_ms = value(i);
      ping.day = i % 4 == 0 ? 4'000'000'000u : static_cast<std::uint32_t>(i);
      ping.slot = static_cast<std::uint8_t>(i % 6);
      data_.pings.push_back(ping);
    }
    for (std::size_t i = 0; i < 1300; ++i) {
      measure::TraceRecord trace;
      trace.probe = i % 2 == 0 ? &plain_probe_ : &odd_probe_;
      trace.region = i % 5 == 0 ? &odd_region_ : catalog;
      trace.target_ip = addresses[i % std::size(addresses)];
      trace.completed = i % 3 != 0;
      trace.end_to_end_ms = value(i + 1);
      trace.day = static_cast<std::uint32_t>(i / 100);
      trace.slot = static_cast<std::uint8_t>(i % 6);
      trace.true_mode = static_cast<topology::InterconnectMode>(i % 4);
      for (std::size_t h = 0; h < i % 7; ++h) {  // i % 7 == 0: no hops
        measure::HopRecord hop;
        hop.ttl = static_cast<std::uint8_t>(h == 3 ? 255 : h + 1);
        hop.responded = (i + h) % 4 != 0;
        hop.ip = addresses[(i + h) % std::size(addresses)];
        hop.rtt_ms = value(i + h);
        trace.hops.push_back(hop);
      }
      data_.traces.push_back(trace);
    }
  }
  HandBuiltRows(const HandBuiltRows&) = delete;
  HandBuiltRows& operator=(const HandBuiltRows&) = delete;

  [[nodiscard]] const measure::Dataset& data() const { return data_; }

 private:
  geo::CountryInfo country_{};
  topology::IspNetwork isp_;
  topology::IspNetwork plain_isp_;
  probes::Probe odd_probe_;
  probes::Probe plain_probe_;
  cloud::RegionInfo odd_region_{};
  measure::Dataset data_;
};

TEST_F(CoreRoundTrip, RowEncoderMatchesReferenceOnTheCampaignDataset) {
  ASSERT_GT(study().sc_dataset().traces.size(), 1000u);  // several ranges
  expect_encoder_matches_reference(study().sc_dataset());
  expect_encoder_matches_reference(study().atlas_dataset());
}

TEST(RowEncoder, MatchesReferenceOnHandBuiltEdgeCases) {
  const HandBuiltRows rows;
  // The quoting path is exercised: both CSVs contain a quoted cell.
  std::ostringstream pings;
  core::export_pings_csv(pings, rows.data());
  EXPECT_NE(pings.str().find("\"Q,\"\"Z\"\"\""), std::string::npos);
  EXPECT_NE(pings.str().find(",-0.000,"), std::string::npos);
  std::ostringstream traces;
  core::export_traces_csv(traces, rows.data());
  EXPECT_NE(traces.str().find("\"west,\"\"eu\"\"\n2\""), std::string::npos);
  EXPECT_NE(traces.str().find(",255.255.255.255,"), std::string::npos);

  expect_encoder_matches_reference(rows.data());
}

TEST(RowEncoder, EmptyDatasetWritesHeadersAndTrailersOnly) {
  expect_encoder_matches_reference(measure::Dataset{});
}

TEST(StudyApi, ViewBeforeRunAbortsWithContractMessage) {
  core::StudyConfig config = core::StudyConfig::quick();
  config.sc_probes = 100;
  config.atlas_probes = 50;
  const core::Study study{config};
  EXPECT_DEATH((void)study.view(), "call run\\(\\) first");
}

TEST(StudyApi, AblationKnobsPropagate) {
  core::StudyConfig config = core::StudyConfig::quick();
  config.sc_probes = 200;
  config.include_atlas = false;
  config.enable_edge_pops = false;
  config.sc_access_override = lastmile::AccessTech::Wired;
  core::Study study{config};
  EXPECT_FALSE(study.world().has_pop(cloud::ProviderId::Microsoft, "DE"));
  for (const probes::Probe& probe : study.sc_fleet().probes()) {
    EXPECT_EQ(probe.access, lastmile::AccessTech::Wired);
  }
}

}  // namespace
}  // namespace cloudrtt
