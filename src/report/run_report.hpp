#pragma once

#include <string>

#include "analysis/design.hpp"
#include "obs/obs.hpp"

namespace xring::report {

/// Options of the explainability run report.
struct RunReportOptions {
  std::string title = "xring run report";
};

/// Renders one self-contained HTML page explaining a run: the span-tree
/// timeline, the diagnostics list, the MILP incumbent-vs-time convergence,
/// the flat metrics, and — when `design`/`metrics` are given — the
/// per-signal loss waterfalls and the crosstalk aggressor matrix built from
/// the signal records and crosstalk ledger of analysis::evaluate. The
/// waterfalls, matrix rows and timeline rows are capped (worst-loss
/// signals, noisiest victims, longest spans). Everything is inline
/// (CSS + SVG, no scripts, no external assets), so the file can be attached
/// to a bug report or archived with CI artifacts as-is.
std::string run_report_html(const obs::Registry& reg,
                            const analysis::RouterDesign* design = nullptr,
                            const analysis::RouterMetrics* metrics = nullptr,
                            const RunReportOptions& options = {});

/// The same report as machine-readable JSON: {"title", "metrics", "spans",
/// "series", "diagnostics", and (with design/metrics) "signals", "xtalk"}.
std::string run_report_json(const obs::Registry& reg,
                            const analysis::RouterDesign* design = nullptr,
                            const analysis::RouterMetrics* metrics = nullptr,
                            const RunReportOptions& options = {});

// File-writing wrappers (same failure semantics as the obs exporters:
// throw std::runtime_error when the file can't be opened or written).
void write_run_report_html(const std::string& path, const obs::Registry& reg,
                           const analysis::RouterDesign* design = nullptr,
                           const analysis::RouterMetrics* metrics = nullptr,
                           const RunReportOptions& options = {});
void write_run_report_json(const std::string& path, const obs::Registry& reg,
                           const analysis::RouterDesign* design = nullptr,
                           const analysis::RouterMetrics* metrics = nullptr,
                           const RunReportOptions& options = {});

}  // namespace xring::report
