#include "analysis/facts.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

#include "obs/trace.hpp"

namespace cloudrtt::analysis {

namespace {

/// Trace rows per work item. A constant, so which rows share an item never
/// depends on the worker count.
constexpr std::size_t kFactsRange = 4096;

[[nodiscard]] TraceFacts derive_trace(
    const measure::TraceRef& trace, const IpToAsn& resolver,
    ResolveTally& tally, std::vector<std::optional<Resolution>>& hop_asns) {
  const ResolvedTrace resolved =
      resolve_trace(trace, resolver, tally, hop_asns);
  TraceFacts facts;
  facts.interconnect = classify_interconnect(resolved, resolver);
  facts.last_mile = infer_last_mile(resolved);
  facts.pervasiveness = pervasiveness(resolved);
  bool public_hop_seen = false;
  for (std::size_t i = 0; i < trace.hops.size(); ++i) {
    const measure::HopRecord& hop = trace.hops[i];
    if (!hop.responded) continue;
    const std::optional<Resolution>& res = hop_asns[i];
    if (!public_hop_seen && !net::is_private(hop.ip)) {
      public_hop_seen = true;
      if (res) facts.first_public_asn = res->asn;
    }
    if (!res) continue;
    ++facts.resolved_hops;
    if (res->source == ResolutionSource::Whois) ++facts.whois_hops;
  }
  return facts;
}

/// One work item: a dataset's NearestIndex, or a range of its trace rows.
struct Job {
  const measure::Dataset* data = nullptr;
  DatasetFacts* out = nullptr;
  bool index = false;
  std::size_t begin = 0;  ///< trace rows [begin, end) unless `index`
  std::size_t end = 0;
};

/// `resolver` is only read for trace rows: a view whose datasets hold pings
/// alone may come without one.
void run_job(const Job& job, const IpToAsn* resolver, ResolveTally& tally,
             std::vector<std::optional<Resolution>>& hop_asns) {
  if (job.index) {
    obs::Span span = obs::span("analysis.facts.nearest_index");
    job.out->nearest = NearestIndex{*job.data};
    return;
  }
  for (std::size_t row = job.begin; row < job.end; ++row) {
    job.out->traces[row] =
        derive_trace(job.data->traces[row], *resolver, tally, hop_asns);
  }
}

/// Size `out` for `data` and queue its index build and its trace ranges.
void plan(const measure::Dataset& data, DatasetFacts& out,
          std::vector<Job>& jobs) {
  out.traces.resize(data.traces.size());
  jobs.push_back(Job{&data, &out, true, 0, 0});
  for (std::size_t begin = 0; begin < data.traces.size();
       begin += kFactsRange) {
    jobs.push_back(Job{&data, &out, false, begin,
                       std::min(begin + kFactsRange, data.traces.size())});
  }
}

}  // namespace

StudyFacts derive_facts(const StudyView& view, unsigned workers) {
  obs::Span span = obs::span("analysis.facts");
  StudyFacts facts;
  std::vector<Job> jobs;
  plan(*view.sc_data, facts.sc, jobs);
  std::size_t rows = view.sc_data->traces.size();
  if (view.has_atlas()) {
    plan(*view.atlas_data, facts.atlas.emplace(), jobs);
    rows += view.atlas_data->traces.size();
  }
  if (rows <= kFactsRange) workers = 1;

  // Index builds were queued first: they are the longest single items.
  const std::size_t threads =
      std::clamp<std::size_t>(workers, 1, jobs.size());
  std::atomic<std::size_t> next{0};
  std::vector<ResolveTally> tallies(threads);
  std::vector<std::exception_ptr> failures(threads);
  const auto work = [&](std::size_t worker) {
    try {
      std::vector<std::optional<Resolution>> hop_asns;
      for (std::size_t j = next.fetch_add(1, std::memory_order_relaxed);
           j < jobs.size(); j = next.fetch_add(1, std::memory_order_relaxed)) {
        run_job(jobs[j], view.resolver, tallies[worker], hop_asns);
      }
    } catch (...) {
      failures[worker] = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> pool;  // joined on scope exit, throws included
    pool.reserve(threads - 1);
    for (std::size_t worker = 1; worker < threads; ++worker) {
      pool.emplace_back(work, worker);
    }
    work(0);
  }
  for (const std::exception_ptr& failure : failures) {
    if (failure) std::rethrow_exception(failure);
  }
  ResolveTally total;
  for (const ResolveTally& tally : tallies) total += tally;
  total.fold();
  return facts;
}

unsigned default_derive_workers() {
  return std::max(1u, std::thread::hardware_concurrency());
}

FactsRef::FactsRef(const StudyView& view, unsigned workers) {
  if (view.facts == nullptr) own_.emplace(derive_facts(view, workers));
  facts_ = view.facts != nullptr ? view.facts : &*own_;
}

}  // namespace cloudrtt::analysis
