#include "layers.hpp"

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <vector>

#include "obs/sampler.hpp"

namespace perf {

using xring::obs::SpanEvent;

namespace {

/// Layer of each span name a traced job records, named after src/ modules.
/// `xring` is the synthesizer and sweep orchestration, plus the benchmark's
/// per-job root span; milp and lp run under ring construction. The layers
/// `ring.oracle`, `crossbar` and the two baselines are the benchmark's own
/// spans. `sweep_cache` is Synthesizer::make_sweep_cache, whose self time is
/// the ArcTable and RingSubstrate constructors: the library builds both
/// under that one span.
std::string layer_of(const std::string& span) {
  static const std::map<std::string, std::string> kLayers = {
      {"job", "xring"},
      {"synth", "xring"},
      {"sweep", "xring"},
      {"sweep_xring", "xring"},
      {"ring.oracle", "ring.oracle"},
      {"ring_construction", "ring.build"},
      {"milp.solve", "ring.build"},
      {"lp.solve", "ring.build"},
      {"shortcuts", "shortcut"},
      {"sweep_cache", "sweep_cache"},
      {"mapping", "mapping.assign"},
      {"opening", "mapping.opening"},
      {"pdn", "pdn"},
      {"evaluate", "analysis.evaluate"},
      {"analysis", "analysis.evaluate"},
      {"verify.drc", "verify.drc"},
      {"baseline.ornoc", "baseline.ornoc"},
      {"baseline.oring", "baseline.oring"},
      {"crossbar", "crossbar"},
  };
  const auto it = kLayers.find(span);
  return it == kLayers.end() ? span : it->second;
}

/// Tools measured as a whole: every span below one of them (the tool's own
/// mapping, PDN and evaluation) belongs to the tool.
bool owns_subtree(const std::string& layer) {
  return layer == "baseline.ornoc" || layer == "baseline.oring" ||
         layer == "crossbar";
}

/// The outermost span of one sweep setting.
bool is_setting(const std::string& span) {
  return span == "synth" || span == "baseline.ornoc" || span == "baseline.oring";
}

const char* const kSelfLayers[] = {
    "ring.oracle",     "ring.build",      "shortcut",          "sweep_cache",
    "mapping.assign",  "mapping.opening", "pdn",               "analysis.evaluate",
    "verify.drc",      "baseline.ornoc",  "baseline.oring",    "crossbar",
    "xring"};

const char* const kRssLayers[] = {
    "ring.oracle",    "ring.build",      "shortcut", "sweep_cache",
    "mapping.assign", "mapping.opening", "pdn",      "analysis.evaluate",
    "verify.drc"};

}  // namespace

LayerReport layer_report(const xring::obs::Registry& reg, int jobs, int pool) {
  const std::vector<SpanEvent> spans = reg.spans();
  const std::size_t n = spans.size();
  const double per_job = 1.0 / static_cast<double>(jobs);

  // Self time and layer of every span. Spans of one thread nest strictly,
  // so walking them in start order with a stack of the open ones finds each
  // span's parent: the innermost open span one level up on its thread. A
  // span opened on a pool worker for another thread's call (a sweep
  // setting) is a root on its own thread, so per-thread self times sum to
  // the time each thread spent inside spans.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const SpanEvent& x = spans[a];
    const SpanEvent& y = spans[b];
    if (x.thread_id != y.thread_id) return x.thread_id < y.thread_id;
    if (x.start_us != y.start_us) return x.start_us < y.start_us;
    return x.depth < y.depth;
  });
  std::vector<double> self(n, 0.0);
  std::vector<std::string> layer(n);
  std::vector<std::size_t> open;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = order[k];
    if (k > 0 && spans[order[k - 1]].thread_id != spans[i].thread_id) open.clear();
    while (!open.empty() && spans[open.back()].depth >= spans[i].depth) {
      open.pop_back();
    }
    self[i] = spans[i].dur_us * 1e-6;
    layer[i] = layer_of(spans[i].name);
    if (!open.empty()) {
      const std::size_t parent = open.back();
      self[parent] -= self[i];
      if (owns_subtree(layer[parent])) layer[i] = layer[parent];
    }
    open.push_back(i);
  }

  LayerReport r;
  double job_wall_s = 0.0;
  double orchestration_s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    self[i] = std::max(0.0, self[i]);  // rounding of µs doubles
    r.self_s[layer[i]] += self[i] * per_job;
    r.thread_s += self[i] * per_job;
    if (layer[i] == "xring") orchestration_s += self[i];
    if (spans[i].name == "job") job_wall_s += spans[i].dur_us * 1e-6;
  }
  r.uncovered_frac = job_wall_s > 0.0 ? orchestration_s / job_wall_s : 0.0;

  // Sweeps: how long each setting waited from sweep entry to its start, and
  // how busy the pool was (self time of every span inside the sweep, on any
  // thread, over the sweep's wall time on every pool thread). One client
  // runs one sweep at a time, so a span inside a sweep's interval belongs
  // to it.
  double wait_s = 0.0;
  double busy_s = 0.0;
  double capacity_s = 0.0;
  for (const SpanEvent& sweep : spans) {
    if (sweep.name != "sweep") continue;
    const double lo = sweep.start_us;
    const double hi = sweep.start_us + sweep.dur_us;
    capacity_s += sweep.dur_us * 1e-6 * pool;
    for (std::size_t i = 0; i < n; ++i) {
      if (spans[i].start_us <= lo || spans[i].start_us >= hi) continue;
      busy_s += self[i];
      if (is_setting(spans[i].name)) wait_s += (spans[i].start_us - lo) * 1e-6;
    }
  }

  const std::map<std::string, long long> counters = reg.counters();
  auto count = [&](const char* key) {
    const auto it = counters.find(key);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto frac = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  std::map<std::string, double>& m = r.metrics;
  for (const char* l : kSelfLayers) {
    const auto it = r.self_s.find(l);
    m[std::string(l) + ".self_s"] = it == r.self_s.end() ? 0.0 : it->second;
  }
  m["ring.build.bnb_nodes"] = count("milp.nodes") * per_job;
  m["ring.build.lp_pivots"] = count("lp.pivots") * per_job;
  m["ring.build.cuts"] =
      (count("milp.cuts_added") + count("milp.lazy_cuts")) * per_job;
  const std::map<std::string, double> gauges = reg.gauges();
  const auto gap = gauges.find("milp.certified_gap");
  m["ring.build.gap"] = gap == gauges.end() ? 0.0 : gap->second;
  m["milp.spec_hit_frac"] =
      frac(count("milp.spec_hits"), count("milp.spec_launched"));
  m["mapping.fits_probes"] = count("mapping.fits_probes") * per_job;
  m["mapping.fits_summary_hit_frac"] =
      frac(count("mapping.fits_summary_hits"), count("mapping.fits_probes"));
  m["mapping.reloc_attempts"] = count("mapping.reloc_attempts") * per_job;
  m["mapping.reloc_success_frac"] =
      frac(count("mapping.relocated_signals"), count("mapping.reloc_attempts"));
  m["mapping.candidates_memoized"] =
      count("mapping.candidates_memoized") * per_job;
  m["analysis.evaluate.signals"] = count("analysis.signals") * per_job;
  m["analysis.evaluate.xtalk_rows"] = count("analysis.xtalk_rows") * per_job;
  m["xring.sweep.setting_wait_s"] = wait_s * per_job;
  m["par.busy_frac"] = frac(busy_s, capacity_s);
  m["par.tasks"] = count("par.tasks") * per_job;
  m["par.steals"] = count("par.steals") * per_job;

  // Peak RSS per layer: the highest process RSS the phase sampler saw while
  // one of the layer's spans was open.
  for (const char* l : kRssLayers) m[std::string(l) + ".peak_rss_mib"] = 0.0;
  for (const auto& [name, rss] : xring::obs::rss_by_span(reg)) {
    const auto it = m.find(layer_of(name) + ".peak_rss_mib");
    if (it != m.end()) {
      it->second = std::max(it->second, rss.peak_bytes / (1024.0 * 1024.0));
    }
  }
  return r;
}

}  // namespace perf
