#pragma once
// Full study report: serialize every reproduced exhibit to JSON so the
// results can be re-plotted outside C++ — the repository's analogue of the
// paper's published dataset + scripts.

#include <iosfwd>

#include "analysis/study_view.hpp"

namespace cloudrtt::core {

/// Write a single JSON document containing every table/figure result
/// (Table 1, Figs. 3-19, §3.3 stats) computed from the given study view.
/// The exhibits share one derivation of the view (analysis/facts.hpp), run
/// on the export's worker count; the bytes never depend on that count.
void write_full_report(std::ostream& out, const analysis::StudyView& view);

namespace detail {

/// write_full_report with an explicit facts-pass worker count, so tests can
/// pin that the bytes do not depend on it. `workers` <= 1 derives inline.
void write_full_report(std::ostream& out, const analysis::StudyView& view,
                       unsigned workers);

}  // namespace detail

}  // namespace cloudrtt::core
