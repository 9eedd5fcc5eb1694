#include "report/run_report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <vector>

#include "obs/export.hpp"
#include "obs/sampler.hpp"
#include "par/pool.hpp"
#include "report/table.hpp"

namespace xring::report {

namespace {

using obs::html_escape;
using obs::json_escape;
using obs::json_num;

/// Caps that keep the HTML page readable: loss waterfalls for the worst-loss
/// signals (every signal is still in the JSON report), crosstalk matrix rows
/// for the noisiest victims, and timeline rows for the longest spans (a run
/// with thousands of lp.solve spans still renders).
constexpr int kMaxWaterfallSignals = 24;
constexpr int kMaxMatrixVictims = 24;
constexpr int kMaxTimelineSpans = 400;

/// Compact scientific form for powers spanning many decades (noise mW).
std::string fmt_sci(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3g", v);
  return buf;
}

std::string node_name(const analysis::RouterDesign& d, netlist::NodeId v) {
  if (d.floorplan != nullptr && v >= 0 && v < d.floorplan->size()) {
    return d.floorplan->node(v).name;
  }
  std::string out = "n";
  out += std::to_string(v);
  return out;
}

/// The itemized loss components, in waterfall order. Keep in sync with
/// analysis::LossBreakdown (the explainability tests pin the sum).
struct LossComponent {
  const char* key;
  const char* label;
  const char* color;
  double (*get)(const analysis::LossBreakdown&);
};

constexpr LossComponent kLossComponents[] = {
    {"propagation_db", "propagation", "#4e79a7",
     [](const analysis::LossBreakdown& b) { return b.propagation_db; }},
    {"modulator_db", "modulator", "#f28e2b",
     [](const analysis::LossBreakdown& b) { return b.modulator_db; }},
    {"drop_db", "drop", "#e15759",
     [](const analysis::LossBreakdown& b) { return b.drop_db; }},
    {"through_db", "through-MRRs", "#76b7b2",
     [](const analysis::LossBreakdown& b) { return b.through_db; }},
    {"crossing_db", "crossings", "#59a14f",
     [](const analysis::LossBreakdown& b) { return b.crossing_db; }},
    {"bend_db", "bends", "#edc948",
     [](const analysis::LossBreakdown& b) { return b.bend_db; }},
    {"photodetector_db", "photodetector", "#b07aa1",
     [](const analysis::LossBreakdown& b) { return b.photodetector_db; }},
    {"pdn_db", "PDN feed", "#9c755f",
     [](const analysis::LossBreakdown& b) { return b.pdn_db; }},
    {"coupler_db", "coupler", "#bab0ac",
     [](const analysis::LossBreakdown& b) { return b.coupler_db; }},
};

constexpr const char* kDepthColors[] = {"#4e79a7", "#f28e2b", "#59a14f",
                                        "#e15759", "#b07aa1", "#76b7b2"};

const char* severity_color(obs::Severity s) {
  switch (s) {
    case obs::Severity::kInfo: return "#4e79a7";
    case obs::Severity::kWarning: return "#b8860b";
    case obs::Severity::kError: return "#c0392b";
  }
  return "#333";
}

// --- HTML sections -------------------------------------------------------

void emit_diagnostics(std::ostringstream& out,
                      const std::vector<obs::Diagnostic>& diags) {
  out << "<details open id=\"diagnostics\"><summary>Diagnostics ("
      << diags.size() << ")</summary>\n";
  if (diags.empty()) {
    out << "<p class=\"empty\">No diagnostics were emitted: no DRC "
           "violations, solver limits, wavelength conflicts, or SNR "
           "threshold breaches.</p>";
  } else {
    out << "<table><tr><th>severity</th><th>code</th><th>message</th>"
           "<th>context</th><th>t (ms)</th></tr>\n";
    for (const obs::Diagnostic& d : diags) {
      out << "<tr><td><span class=\"sev\" style=\"background:"
          << severity_color(d.severity) << "\">" << obs::to_string(d.severity)
          << "</span></td><td><code>" << html_escape(d.code)
          << "</code></td><td>" << html_escape(d.message) << "</td><td>";
      for (const auto& [k, v] : d.context) {
        out << "<code>" << html_escape(k) << "=" << html_escape(v)
            << "</code> ";
      }
      out << "</td><td class=\"num\">" << num(d.t_us / 1000.0, 3)
          << "</td></tr>\n";
    }
    out << "</table>";
  }
  out << "</details>\n";
}

void emit_timeline(std::ostringstream& out,
                   const std::vector<obs::SpanEvent>& all) {
  out << "<details open id=\"timeline\"><summary>Span timeline ("
      << all.size() << " spans)</summary>\n";
  if (all.empty()) {
    out << "<p class=\"empty\">No spans were recorded (tracing was "
           "disabled while the pipeline ran).</p></details>\n";
    return;
  }
  // Cap rows for readability: the longest spans win, then restore
  // chronological order.
  std::vector<obs::SpanEvent> spans = all;
  if (static_cast<int>(spans.size()) > kMaxTimelineSpans) {
    std::sort(spans.begin(), spans.end(),
              [](const obs::SpanEvent& a, const obs::SpanEvent& b) {
                return a.dur_us > b.dur_us;
              });
    spans.resize(kMaxTimelineSpans);
    out << "<p class=\"empty\">Showing the " << kMaxTimelineSpans
        << " longest spans of " << all.size() << ".</p>";
  }
  std::sort(spans.begin(), spans.end(),
            [](const obs::SpanEvent& a, const obs::SpanEvent& b) {
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              return a.depth < b.depth;
            });
  double t_end = 0.0;
  for (const obs::SpanEvent& ev : spans) {
    t_end = std::max(t_end, ev.start_us + ev.dur_us);
  }
  if (t_end <= 0.0) t_end = 1.0;

  constexpr int kLabelW = 280, kBarW = 660, kRowH = 16;
  const int height = static_cast<int>(spans.size()) * kRowH + 24;
  out << "<svg width=\"" << kLabelW + kBarW + 20 << "\" height=\"" << height
      << "\" font-family=\"monospace\" font-size=\"11\">\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const obs::SpanEvent& ev = spans[i];
    const double x = kLabelW + ev.start_us / t_end * kBarW;
    const double w =
        std::max(1.0, ev.dur_us / t_end * static_cast<double>(kBarW));
    const int y = static_cast<int>(i) * kRowH + 4;
    const char* color =
        kDepthColors[ev.depth % static_cast<int>(std::size(kDepthColors))];
    out << "<text x=\"" << 4 + ev.depth * 10 << "\" y=\"" << y + 10 << "\">"
        << html_escape(ev.name) << "</text>"
        << "<rect x=\"" << num(x, 1) << "\" y=\"" << y << "\" width=\""
        << num(w, 1) << "\" height=\"" << kRowH - 4 << "\" fill=\"" << color
        << "\"><title>" << html_escape(ev.name) << ": "
        << num(ev.dur_us / 1000.0, 3) << " ms @ " << num(ev.start_us / 1000.0, 3)
        << " ms (depth " << ev.depth << ")</title></rect>\n";
  }
  out << "<text x=\"" << kLabelW << "\" y=\"" << height - 6 << "\">0 ms</text>"
      << "<text x=\"" << kLabelW + kBarW - 60 << "\" y=\"" << height - 6
      << "\">" << num(t_end / 1000.0, 1) << " ms</text>\n</svg></details>\n";
}

void emit_convergence(std::ostringstream& out,
                      const std::map<std::string,
                                     std::vector<obs::SeriesPoint>>& series) {
  const auto it = series.find("milp.incumbent");
  out << "<details open id=\"convergence\"><summary>MILP convergence"
      << "</summary>\n";
  if (it == series.end() || it->second.empty()) {
    out << "<p class=\"empty\">No <code>milp.incumbent</code> series was "
           "recorded (no MILP ran, or tracing was disabled).</p></details>\n";
    return;
  }
  const std::vector<obs::SeriesPoint>& pts = it->second;
  double t_max = 0.0, v_min = pts[0].value, v_max = pts[0].value;
  for (const obs::SeriesPoint& p : pts) {
    t_max = std::max(t_max, p.t_us);
    v_min = std::min(v_min, p.value);
    v_max = std::max(v_max, p.value);
  }
  if (t_max <= 0.0) t_max = 1.0;
  if (v_max == v_min) v_max = v_min + 1.0;

  constexpr int kW = 640, kH = 180, kPadL = 90, kPadB = 24;
  auto px = [&](double t) { return kPadL + t / t_max * kW; };
  auto py = [&](double v) {
    return 8 + (v_max - v) / (v_max - v_min) * (kH - kPadB - 8);
  };
  out << "<p>" << pts.size() << " incumbent(s); final objective "
      << num(pts.back().value, 3) << ".</p>\n<svg width=\"" << kPadL + kW + 20
      << "\" height=\"" << kH << "\" font-family=\"monospace\" "
         "font-size=\"11\">\n<polyline fill=\"none\" stroke=\"#4e79a7\" "
         "stroke-width=\"1.5\" points=\"";
  // Step-after: the incumbent holds its value until the next improvement.
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (i > 0) out << num(px(pts[i].t_us), 1) << "," << num(py(pts[i - 1].value), 1) << " ";
    out << num(px(pts[i].t_us), 1) << "," << num(py(pts[i].value), 1) << " ";
  }
  out << num(px(t_max), 1) << "," << num(py(pts.back().value), 1) << "\"/>\n";
  for (const obs::SeriesPoint& p : pts) {
    out << "<circle cx=\"" << num(px(p.t_us), 1) << "\" cy=\""
        << num(py(p.value), 1) << "\" r=\"2.5\" fill=\"#e15759\"><title>"
        << num(p.value, 4) << " @ " << num(p.t_us / 1000.0, 3)
        << " ms</title></circle>\n";
  }
  out << "<text x=\"2\" y=\"" << num(py(v_max) + 4, 0) << "\">" << num(v_max, 2)
      << "</text><text x=\"2\" y=\"" << num(py(v_min) + 4, 0) << "\">"
      << num(v_min, 2) << "</text><text x=\"" << kPadL << "\" y=\"" << kH - 6
      << "\">0 ms</text><text x=\"" << kPadL + kW - 70 << "\" y=\"" << kH - 6
      << "\">" << num(t_max / 1000.0, 1) << " ms</text>\n</svg></details>\n";
}

void emit_waterfall(std::ostringstream& out,
                    const analysis::RouterDesign& design,
                    const analysis::RouterMetrics& metrics) {
  const std::vector<analysis::SignalReport>& signals = metrics.signals;
  out << "<details open id=\"waterfall\"><summary>Per-signal loss waterfall"
      << "</summary>\n";
  if (signals.empty()) {
    out << "<p class=\"empty\">No signal records (design not evaluated).</p>"
        << "</details>\n";
    return;
  }
  std::vector<int> order(signals.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return signals[a].loss.total_db() > signals[b].loss.total_db();
  });
  if (static_cast<int>(order.size()) > kMaxWaterfallSignals) {
    out << "<p class=\"empty\">Showing the " << kMaxWaterfallSignals
        << " worst-loss signals of " << order.size()
        << " (all signals are in the JSON report).</p>";
    order.resize(kMaxWaterfallSignals);
  }
  out << "<p class=\"legend\">";
  for (const LossComponent& c : kLossComponents) {
    out << "<span class=\"chip\" style=\"background:" << c.color << "\"></span>"
        << c.label << " &nbsp;";
  }
  out << "</p>\n";
  const double max_db = signals[order.front()].loss.total_db();
  for (const int id : order) {
    const analysis::LossBreakdown& b = signals[id].loss;
    const auto& sig = design.traffic.signal(id);
    const mapping::SignalRoute& route = design.mapping.routes[id];
    out << "<div class=\"wrow\"><span class=\"wlabel\">s" << id << " "
        << html_escape(node_name(design, sig.src)) << "&rarr;"
        << html_escape(node_name(design, sig.dst)) << " ("
        << mapping::to_string(route.kind) << " &lambda;" << route.wavelength
        << ")</span><span class=\"wbar\">";
    for (const LossComponent& c : kLossComponents) {
      const double db = c.get(b);
      if (db <= 0.0) continue;
      out << "<span class=\"seg\" style=\"width:"
          << num(db / std::max(max_db, 1e-12) * 100.0, 2)
          << "%;background:" << c.color << "\" title=\"" << c.label << " "
          << num(db, 3) << " dB\"></span>";
    }
    out << "</span><span class=\"wtotal\">" << num(b.total_db(), 2)
        << " dB</span></div>\n";
  }
  out << "</details>\n";
}

void emit_xtalk_matrix(std::ostringstream& out,
                       const analysis::RouterDesign& design,
                       const analysis::RouterMetrics& metrics) {
  out << "<details open id=\"xtalk\"><summary>Crosstalk aggressor matrix ("
      << metrics.xtalk_ledger.size() << " contributions)</summary>\n";
  if (metrics.xtalk_ledger.empty()) {
    out << "<p class=\"empty\">No crosstalk reached any photodetector.</p>"
        << "</details>\n";
    return;
  }
  // Aggregate: victim x aggressor (aggressor -1 = CW laser light via PDN),
  // plus a per-mechanism summary.
  std::map<int, std::map<int, double>> cell;  // victim -> aggressor -> mW
  std::map<int, double> victim_total;
  std::map<std::string, double> by_source;
  for (const analysis::XtalkContribution& x : metrics.xtalk_ledger) {
    cell[x.victim][x.aggressor] += x.noise_mw;
    victim_total[x.victim] += x.noise_mw;
    by_source[analysis::to_string(x.source)] += x.noise_mw;
  }

  out << "<table><tr><th>mechanism</th><th>total noise (mW)</th></tr>";
  for (const auto& [source, mw] : by_source) {
    out << "<tr><td>" << source << "</td><td class=\"num\">" << fmt_sci(mw)
        << "</td></tr>";
  }
  out << "</table>\n";

  std::vector<int> victims;
  for (const auto& [v, total] : victim_total) victims.push_back(v);
  std::sort(victims.begin(), victims.end(),
            [&](int a, int b) { return victim_total[a] > victim_total[b]; });
  if (static_cast<int>(victims.size()) > kMaxMatrixVictims) {
    out << "<p class=\"empty\">Showing the " << kMaxMatrixVictims
        << " noisiest victims of " << victims.size() << ".</p>";
    victims.resize(kMaxMatrixVictims);
  }

  // Column set: every aggressor contributing to a shown victim.
  std::map<int, double> agg_total;
  for (const int v : victims) {
    for (const auto& [a, mw] : cell[v]) agg_total[a] += mw;
  }
  std::vector<int> aggressors;
  for (const auto& [a, total] : agg_total) aggressors.push_back(a);
  std::sort(aggressors.begin(), aggressors.end(),
            [&](int a, int b) { return agg_total[a] > agg_total[b]; });

  double max_cell = 0.0;
  for (const int v : victims) {
    for (const auto& [a, mw] : cell[v]) max_cell = std::max(max_cell, mw);
  }

  auto label = [&](int signal) {
    if (signal < 0) return std::string("PDN (CW)");
    const auto& sig = design.traffic.signal(signal);
    std::string out = "s";
    out += std::to_string(signal);
    out += ' ';
    out += node_name(design, sig.src);
    out += "→";
    out += node_name(design, sig.dst);
    return out;
  };

  out << "<table><tr><th>victim \\ aggressor</th>";
  for (const int a : aggressors) {
    out << "<th>" << html_escape(label(a)) << "</th>";
  }
  out << "<th>total (mW)</th><th>SNR (dB)</th></tr>\n";
  for (const int v : victims) {
    out << "<tr><td>" << html_escape(label(v)) << "</td>";
    for (const int a : aggressors) {
      const auto it = cell[v].find(a);
      if (it == cell[v].end() || it->second <= 0.0) {
        out << "<td class=\"num dim\">&middot;</td>";
        continue;
      }
      // Log-scaled intensity: each decade below the loudest cell fades.
      const double rel =
          std::max(0.0, 1.0 + std::log10(it->second / max_cell) / 6.0);
      out << "<td class=\"num\" style=\"background:rgba(225,87,89,"
          << num(0.1 + 0.75 * rel, 2) << ")\">" << fmt_sci(it->second)
          << "</td>";
    }
    const double snr = metrics.signals[v].snr_db;
    out << "<td class=\"num\">" << fmt_sci(victim_total[v])
        << "</td><td class=\"num\">"
        << (snr >= analysis::kNoNoiseSnr ? std::string("-") : num(snr, 1))
        << "</td></tr>\n";
  }
  out << "</table></details>\n";
}

/// The execution environment: how many worker lanes the parallel substrate
/// ran with, and where that number came from. Results never depend on it
/// (the substrate is deterministic); wall times do.
void emit_environment(std::ostringstream& out) {
  const char* env_jobs = std::getenv("XRING_JOBS");
  out << "<details open id=\"environment\"><summary>Environment</summary>\n"
      << "<table><tr><th>setting</th><th>value</th></tr>\n"
      << "<tr><td>threads (effective jobs)</td><td class=\"num\">"
      << par::effective_jobs() << "</td></tr>\n"
      << "<tr><td>hardware concurrency</td><td class=\"num\">"
      << par::hardware_jobs() << "</td></tr>\n"
      << "<tr><td><code>XRING_JOBS</code></td><td class=\"num\">"
      << (env_jobs != nullptr && *env_jobs != '\0' ? html_escape(env_jobs)
                                                   : std::string("unset"))
      << "</td></tr>\n</table></details>\n";
}

/// One row of the memory-by-phase attribution: the peak and entry RSS the
/// phase sampler saw inside the span's intervals.
struct MemoryRow {
  std::string span;
  double peak_rss_bytes = 0.0;
  double start_rss_bytes = 0.0;
  long long rss_samples = 0;
};

std::vector<MemoryRow> memory_rows(const obs::Registry& reg) {
  std::vector<MemoryRow> rows;
  for (const auto& [name, rss] : obs::rss_by_span(reg)) {
    rows.push_back({name, rss.peak_bytes, rss.start_bytes, rss.samples});
  }
  std::sort(rows.begin(), rows.end(),
            [](const MemoryRow& a, const MemoryRow& b) {
              if (a.peak_rss_bytes != b.peak_rss_bytes) {
                return a.peak_rss_bytes > b.peak_rss_bytes;
              }
              return a.span < b.span;
            });
  return rows;
}

std::string fmt_mib(double bytes) { return num(bytes / (1024.0 * 1024.0), 1); }

void emit_memory(std::ostringstream& out, const std::vector<MemoryRow>& rows) {
  out << "<details open id=\"memory\"><summary>Memory by phase ("
      << rows.size() << " spans)</summary>\n";
  if (rows.empty()) {
    out << "<p class=\"empty\">no memory data recorded &mdash; run with the "
           "phase sampler (<code>--profile</code>) for RSS "
           "attribution</p></details>\n";
    return;
  }
  out << "<table><tr><th>span</th><th>peak RSS (MiB)</th>"
         "<th>RSS growth (MiB)</th></tr>\n";
  for (const MemoryRow& row : rows) {
    out << "<tr><td><code>" << html_escape(row.span) << "</code></td>"
        << "<td class=\"num\">" << fmt_mib(row.peak_rss_bytes)
        << "</td><td class=\"num\">"
        << fmt_mib(row.peak_rss_bytes - row.start_rss_bytes) << "</td></tr>\n";
  }
  out << "</table></details>\n";
}

void emit_metrics(std::ostringstream& out,
                  const std::map<std::string, double>& flat) {
  out << "<details id=\"metrics\"><summary>Metrics (" << flat.size()
      << ")</summary>\n<table><tr><th>name</th><th>value</th></tr>\n";
  for (const auto& [name, value] : flat) {
    out << "<tr><td><code>" << html_escape(name) << "</code></td>"
        << "<td class=\"num\">" << json_num(value) << "</td></tr>\n";
  }
  out << "</table></details>\n";
}

}  // namespace

std::string run_report_html(const obs::Registry& reg,
                            const analysis::RouterDesign* design,
                            const analysis::RouterMetrics* metrics,
                            const RunReportOptions& options) {
  const std::vector<obs::SpanEvent> spans = reg.spans();
  const std::vector<obs::Diagnostic> diags = reg.diagnostics();
  const std::map<std::string, double> flat = reg.flatten();

  int errors = 0, warnings = 0;
  for (const obs::Diagnostic& d : diags) {
    if (d.severity == obs::Severity::kError) ++errors;
    if (d.severity == obs::Severity::kWarning) ++warnings;
  }

  std::ostringstream out;
  out << "<!doctype html>\n<html><head><meta charset=\"utf-8\"><title>"
      << html_escape(options.title) << "</title>\n<style>\n"
      << "body{font-family:system-ui,sans-serif;margin:24px;max-width:1100px;"
         "color:#222}\n"
      << "h1{font-size:22px}\n"
      << "summary{font-size:16px;font-weight:600;cursor:pointer;margin:14px 0 "
         "6px}\n"
      << "table{border-collapse:collapse;font-size:13px}\n"
      << "td,th{border:1px solid #ddd;padding:3px 8px;text-align:left}\n"
      << "th{background:#f4f4f4}\n"
      << ".num{text-align:right;font-family:monospace}\n"
      << ".dim{color:#bbb}\n"
      << ".sev{color:#fff;border-radius:3px;padding:1px 6px;font-size:12px}\n"
      << ".empty{color:#777;font-style:italic}\n"
      << ".legend{font-size:12px}\n"
      << ".chip{display:inline-block;width:10px;height:10px;margin-right:3px}"
         "\n"
      << ".wrow{display:flex;align-items:center;font-size:12px;margin:2px 0}\n"
      << ".wlabel{width:260px;font-family:monospace;flex-shrink:0}\n"
      << ".wbar{display:flex;height:14px;flex-grow:1;background:#f4f4f4}\n"
      << ".seg{display:inline-block;height:14px}\n"
      << ".wtotal{width:80px;text-align:right;font-family:monospace;"
         "flex-shrink:0}\n"
      << "</style></head><body>\n<h1>" << html_escape(options.title)
      << "</h1>\n<p>" << spans.size() << " spans &middot; " << flat.size()
      << " metrics &middot; " << diags.size() << " diagnostics (" << errors
      << " errors, " << warnings << " warnings)";
  if (metrics != nullptr) {
    out << " &middot; " << metrics->signals.size() << " signals &middot; "
        << metrics->xtalk_ledger.size() << " crosstalk contributions";
  }
  out << "</p>\n";

  emit_environment(out);
  emit_diagnostics(out, diags);
  emit_timeline(out, spans);
  emit_convergence(out, reg.series());
  emit_memory(out, memory_rows(reg));
  if (design != nullptr && metrics != nullptr) {
    emit_waterfall(out, *design, *metrics);
    emit_xtalk_matrix(out, *design, *metrics);
  }
  emit_metrics(out, flat);
  out << "</body></html>\n";
  return out.str();
}

std::string run_report_json(const obs::Registry& reg,
                            const analysis::RouterDesign* design,
                            const analysis::RouterMetrics* metrics,
                            const RunReportOptions& options) {
  std::ostringstream out;
  out << "{\n\"title\": \"" << json_escape(options.title) << "\",\n";

  out << "\"spans\": [";
  bool first = true;
  for (const obs::SpanEvent& ev : reg.spans()) {
    out << (first ? "" : ",") << "\n  {\"name\":\"" << json_escape(ev.name)
        << "\",\"start_us\":" << json_num(ev.start_us)
        << ",\"dur_us\":" << json_num(ev.dur_us) << ",\"depth\":" << ev.depth
        << "}";
    first = false;
  }
  out << "\n],\n";

  out << "\"series\": {";
  first = true;
  for (const auto& [name, points] : reg.series()) {
    out << (first ? "" : ",") << "\n  \"" << json_escape(name) << "\": [";
    bool first_pt = true;
    for (const obs::SeriesPoint& p : points) {
      out << (first_pt ? "" : ",") << "[" << json_num(p.t_us) << ","
          << json_num(p.value) << "]";
      first_pt = false;
    }
    out << "]";
    first = false;
  }
  out << "\n},\n";

  out << "\"diagnostics\": " << obs::diagnostics_json(reg) << ",\n";

  {
    const char* env_jobs = std::getenv("XRING_JOBS");
    out << "\"environment\": {\"jobs\": " << par::effective_jobs()
        << ", \"hardware_concurrency\": " << par::hardware_jobs()
        << ", \"xring_jobs_env\": ";
    if (env_jobs != nullptr && *env_jobs != '\0') {
      out << "\"" << json_escape(env_jobs) << "\"";
    } else {
      out << "null";
    }
    out << "},\n";
  }

  out << "\"memory\": [";
  first = true;
  for (const MemoryRow& row : memory_rows(reg)) {
    out << (first ? "" : ",") << "\n  {\"span\":\"" << json_escape(row.span)
        << "\",\"peak_rss_bytes\":" << json_num(row.peak_rss_bytes)
        << ",\"start_rss_bytes\":" << json_num(row.start_rss_bytes)
        << ",\"rss_samples\":" << row.rss_samples << "}";
    first = false;
  }
  out << "\n],\n";

  if (design != nullptr && metrics != nullptr) {
    out << "\"signals\": [";
    first = true;
    for (std::size_t i = 0; i < metrics->signals.size(); ++i) {
      const analysis::SignalReport& r = metrics->signals[i];
      const auto& sig = design->traffic.signal(static_cast<int>(i));
      const mapping::SignalRoute& route = design->mapping.routes[i];
      out << (first ? "" : ",") << "\n  {\"id\":" << i << ",\"src\":\""
          << json_escape(node_name(*design, sig.src)) << "\",\"dst\":\""
          << json_escape(node_name(*design, sig.dst)) << "\",\"route\":\""
          << mapping::to_string(route.kind)
          << "\",\"wavelength\":" << route.wavelength
          << ",\"il_db\":" << json_num(r.loss.total_db())
          << ",\"il_star_db\":" << json_num(r.loss.star_db())
          << ",\"snr_db\":" << json_num(r.snr_db)
          << ",\"noise_mw\":" << json_num(r.noise_mw) << ",\"loss\":{";
      bool first_c = true;
      for (const LossComponent& c : kLossComponents) {
        out << (first_c ? "" : ",") << "\"" << c.key
            << "\":" << json_num(c.get(r.loss));
        first_c = false;
      }
      out << "}}";
      first = false;
    }
    out << "\n],\n";

    out << "\"xtalk\": [";
    first = true;
    for (const analysis::XtalkContribution& x : metrics->xtalk_ledger) {
      out << (first ? "" : ",") << "\n  {\"victim\":" << x.victim
          << ",\"aggressor\":" << x.aggressor << ",\"source\":\""
          << analysis::to_string(x.source) << "\",\"node\":" << x.node
          << ",\"noise_mw\":" << json_num(x.noise_mw) << "}";
      first = false;
    }
    out << "\n],\n";
  }

  out << "\"metrics\": " << obs::metrics_json(reg) << "}\n";
  return out.str();
}

void write_run_report_html(const std::string& path, const obs::Registry& reg,
                           const analysis::RouterDesign* design,
                           const analysis::RouterMetrics* metrics,
                           const RunReportOptions& options) {
  obs::write_text_file(path, run_report_html(reg, design, metrics, options));
}

void write_run_report_json(const std::string& path, const obs::Registry& reg,
                           const analysis::RouterDesign* design,
                           const analysis::RouterMetrics* metrics,
                           const RunReportOptions& options) {
  obs::write_text_file(path, run_report_json(reg, design, metrics, options));
}

}  // namespace xring::report
