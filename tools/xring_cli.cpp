// xring — command-line front end for the synthesis library.
//
//   xring synth [options]        synthesize a router and print its report
//   xring verify [options]       synthesize, then run the design-rule check
//   xring floorplan [options]    emit a standard floorplan file
//
// synth options:
//   --floorplan FILE   load node placement from FILE (see netlist/io.hpp)
//   --nodes N          use the standard N-node floorplan (8/16/32)
//   --wl N             wavelength cap per ring waveguide (default: #nodes)
//   --jobs N           worker threads for the parallel substrate (default:
//                      the XRING_JOBS env var, then hardware concurrency);
//                      results are identical at every thread count
//   --traffic KIND     all2all | permutation | hotspot | bitrev
//   --params FILE      load device parameters (see phys/parameters_io.hpp)
//   --no-pdn           skip Step 4
//   --no-shortcuts     skip Step 2
//   --milp-budget SEC  budgeted Step 1: replace the exact ring MILP with the
//                      large-neighbourhood search (exact MILP repairs on
//                      tour windows) under a SEC-second budget, reporting a
//                      certified optimality gap; deterministic whenever the
//                      fixed repair schedule completes inside the budget
//   --comb-pdn         use the baseline crossing PDN instead of the tree
//   --svg FILE         write the layout view to FILE
//   --csv              print the per-signal report as CSV
//   --report           print the full design report instead of the summary
//   --trace FILE       record a Chrome trace_event JSON of the run (load it
//                      at chrome://tracing or ui.perfetto.dev); spans cover
//                      synth > ring_construction > milp.solve > lp.solve,
//                      plus shortcuts, mapping, opening, pdn, evaluate
//   --metrics FILE     write the flat {name: value} metrics JSON (solver
//                      node/cut/pivot counts, mapping stats, per-step wall
//                      times); a .csv extension (case-insensitive) selects
//                      the CSV exporter
//   --report-html FILE write the self-contained HTML run report (span
//                      timeline, diagnostics, MILP convergence, per-signal
//                      loss waterfall, crosstalk aggressor matrix, metrics)
//   --report-json FILE the same run report as machine-readable JSON
//   --profile FILE     run the phase sampler and write folded-stack
//                      (collapsed) output for flamegraph.pl / speedscope;
//                      also feeds the run report's "Memory by phase" table
//                      with sampled RSS per stage
//   --events FILE      write the solver progress telemetry (B&B incumbent/
//                      bound/gap/open-node records, LP refactorization and
//                      eta-growth events) as JSON lines
//   --progress         mirror the solver telemetry as a throttled one-line
//                      stderr progress display
//   --run-dir DIR      place every artifact of this run under DIR (created
//                      if missing) with default names — trace.json,
//                      metrics.json, events.jsonl, profile.folded,
//                      report.html, report.json — and record DIR/run.json
//                      (metrics snapshot + environment + span tree) plus an
//                      append-only index line in DIR/../index.jsonl, the
//                      store layout `xring_runs list|diff|aggregate` reads.
//                      Explicit artifact flags win over the defaults.
//
// floorplan options:
//   --nodes N          standard size (8/16/32)
//   --out FILE         output path (default: stdout)

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>

#include "analysis/latency.hpp"
#include "netlist/io.hpp"
#include "obs/context.hpp"
#include "obs/events.hpp"
#include "obs/export.hpp"
#include "obs/runstore.hpp"
#include "obs/sampler.hpp"
#include "par/pool.hpp"
#include "phys/parameters_io.hpp"
#include "report/design_report.hpp"
#include "report/run_report.hpp"
#include "report/table.hpp"
#include "verify/drc.hpp"
#include "viz/svg.hpp"
#include "xring/synthesizer.hpp"

namespace {

using namespace xring;

/// Tiny flag parser: --key value and --key (boolean) styles.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) positional_.emplace_back(argv[i]);
  }

  /// The token after `key`, or `fallback` when `key` is absent. A key that
  /// ends the command line, or is followed by another `--` flag, has no
  /// value: an error, rather than taking the next flag as its value.
  std::string value(const std::string& key, const std::string& fallback = "") {
    for (std::size_t i = 0; i < positional_.size(); ++i) {
      if (positional_[i] != key) continue;
      if (i + 1 == positional_.size() ||
          positional_[i + 1].rfind("--", 0) == 0) {
        throw std::invalid_argument(key + " needs a value");
      }
      used_[i] = used_[i + 1] = true;
      return positional_[i + 1];
    }
    return fallback;
  }

  bool flag(const std::string& key) {
    for (std::size_t i = 0; i < positional_.size(); ++i) {
      if (positional_[i] == key) {
        used_[i] = true;
        return true;
      }
    }
    return false;
  }

  bool report_unused() const {
    bool ok = true;
    for (std::size_t i = 0; i < positional_.size(); ++i) {
      if (!used_.count(i)) {
        std::fprintf(stderr, "unknown argument: %s\n", positional_[i].c_str());
        ok = false;
      }
    }
    return ok;
  }

 private:
  std::vector<std::string> positional_;
  std::map<std::size_t, bool> used_;
};

/// The value of numeric flag `flag`, parsed strictly: the whole token must
/// be a finite number of type T greater than zero. Anything else ("4x",
/// "0", "-2", "nan", out of range) is an error naming the flag.
template <class T>
T positive(const std::string& flag, const std::string& text) {
  T value{};
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (text.empty() || ec != std::errc{} || end != last ||
      !std::isfinite(static_cast<double>(value)) || !(value > 0)) {
    throw std::invalid_argument(flag + (std::is_integral_v<T>
                                            ? " must be a positive integer"
                                            : " must be a positive number"));
  }
  return value;
}

/// The standard floorplan named by --nodes (default 16).
netlist::Floorplan standard_floorplan(Args& args) {
  const std::string nodes = args.value("--nodes");
  return netlist::Floorplan::standard(
      nodes.empty() ? 16 : positive<int>("--nodes", nodes));
}

/// The #wl cap named by --wl (default: one wavelength per node).
int wavelength_cap(Args& args, const netlist::Floorplan& fp) {
  const std::string wl = args.value("--wl");
  return wl.empty() ? fp.size() : positive<int>("--wl", wl);
}

/// True when `s` ends in `suffix`, compared case-insensitively — users write
/// metrics.CSV as readily as metrics.csv.
bool has_suffix_nocase(const std::string& s, const std::string& suffix) {
  if (s.size() < suffix.size()) return false;
  const std::size_t off = s.size() - suffix.size();
  for (std::size_t i = 0; i < suffix.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(s[off + i])) !=
        std::tolower(static_cast<unsigned char>(suffix[i]))) {
      return false;
    }
  }
  return true;
}

netlist::Traffic make_traffic(const std::string& kind, int nodes) {
  if (kind == "all2all" || kind.empty()) {
    return netlist::Traffic::all_to_all(nodes);
  }
  if (kind == "permutation") return netlist::Traffic::permutation(nodes);
  if (kind == "hotspot") return netlist::Traffic::hotspot(nodes, 0);
  if (kind == "bitrev") return netlist::Traffic::bit_reversal(nodes);
  throw std::invalid_argument("unknown traffic kind: " + kind);
}

int cmd_synth(Args& args) {
  netlist::Floorplan fp;
  const std::string file = args.value("--floorplan");
  if (!file.empty()) {
    fp = netlist::load_floorplan(file);
  } else {
    fp = standard_floorplan(args);
  }

  const std::string jobs = args.value("--jobs");
  if (!jobs.empty()) par::set_jobs(positive<int>("--jobs", jobs));

  SynthesisOptions opt;
  const std::string params_file = args.value("--params");
  if (!params_file.empty()) {
    opt.params = phys::load_parameters(params_file, opt.params);
  }
  opt.mapping.max_wavelengths = wavelength_cap(args, fp);
  opt.build_pdn = !args.flag("--no-pdn");
  opt.shortcuts.enable = !args.flag("--no-shortcuts");
  // Opt-in budgeted Step 1: swap the exact ring MILP for the LNS with a
  // certified gap (ring/builder.hpp), keeping everything downstream as is.
  const std::string milp_budget = args.value("--milp-budget");
  if (!milp_budget.empty()) {
    opt.ring.lns_budget_seconds =
        positive<double>("--milp-budget", milp_budget);
  }
  if (args.flag("--comb-pdn")) {
    opt.pdn_style = SynthesisOptions::PdnStyle::kComb;
  }
  const std::string traffic_kind = args.value("--traffic", "all2all");
  opt.traffic = make_traffic(traffic_kind, fp.size());
  const std::string svg = args.value("--svg");
  const bool csv = args.flag("--csv");
  const bool full_report = args.flag("--report");
  std::string trace_file = args.value("--trace");
  std::string metrics_file = args.value("--metrics");
  std::string report_html = args.value("--report-html");
  std::string report_json = args.value("--report-json");
  std::string profile_file = args.value("--profile");
  std::string events_file = args.value("--events");
  const bool progress = args.flag("--progress");
  std::string run_dir = args.value("--run-dir");
  if (!args.report_unused()) return 2;

  // --run-dir DIR gathers the whole artifact set under one per-run
  // directory with default names; an explicit artifact flag keeps its path.
  while (run_dir.size() > 1 && run_dir.back() == '/') run_dir.pop_back();
  if (!run_dir.empty()) {
    namespace fs = std::filesystem;
    fs::create_directories(run_dir);
    const auto under = [&](const char* name) {
      return (fs::path(run_dir) / name).string();
    };
    if (trace_file.empty()) trace_file = under("trace.json");
    if (metrics_file.empty()) metrics_file = under("metrics.json");
    if (events_file.empty()) events_file = under("events.jsonl");
    if (profile_file.empty()) profile_file = under("profile.folded");
    if (report_html.empty()) report_html = under("report.html");
    if (report_json.empty()) report_json = under("report.json");
  }

  // The run records only when an artifact or --progress asks for it: then
  // a context is installed for the rest of the command and every artifact
  // is written from its registry.
  std::optional<obs::Context> ctx;
  std::optional<obs::ScopedContext> scope;
  if (!trace_file.empty() || !metrics_file.empty() || !report_html.empty() ||
      !report_json.empty() || !profile_file.empty() || !events_file.empty() ||
      progress) {
    ctx.emplace();
    scope.emplace(*ctx);
  }

  // The sampler runs for exactly the synthesis call: its thread stops
  // before any artifact is written, so the files capture a complete,
  // quiescent run.
  std::optional<obs::PhaseSampler> sampler;
  if (!profile_file.empty()) {
    sampler.emplace(&ctx->registry());
    sampler->start();
  }
  obs::EventLog* events = nullptr;
  if (!events_file.empty() || progress) {
    events = &ctx->make_event_log();
    if (progress) events->enable_progress(stderr);
  }

  const Synthesizer synth(fp);
  const SynthesisResult r = synth.run(opt);

  if (progress) events->finish_progress();
  if (sampler) sampler->stop();

  // Artifact paths are collected and printed together once the run report
  // ends, so they are easy to find after the (long) textual output.
  std::vector<std::pair<std::string, std::string>> artifacts;
  if (!trace_file.empty()) {
    obs::write_trace_json(trace_file, ctx->registry());
    artifacts.emplace_back("trace", trace_file);
  }
  if (!metrics_file.empty()) {
    if (has_suffix_nocase(metrics_file, ".csv")) {
      obs::write_metrics_csv(metrics_file, ctx->registry());
    } else {
      obs::write_metrics_json(metrics_file, ctx->registry());
    }
    artifacts.emplace_back("metrics", metrics_file);
  }
  if (!profile_file.empty()) {
    sampler->write_folded(profile_file);
    artifacts.emplace_back("profile (folded stacks)", profile_file);
  }
  if (!events_file.empty()) {
    events->write(events_file);
    artifacts.emplace_back("events (jsonl)", events_file);
  }
  report::RunReportOptions report_opt;
  report_opt.title = "xring synth (" + std::to_string(fp.size()) + " nodes)";
  if (!report_html.empty()) {
    report::write_run_report_html(report_html, ctx->registry(), &r.design,
                                  &r.metrics, report_opt);
    artifacts.emplace_back("run report (html)", report_html);
  }
  if (!report_json.empty()) {
    report::write_run_report_json(report_json, ctx->registry(), &r.design,
                                  &r.metrics, report_opt);
    artifacts.emplace_back("run report (json)", report_json);
  }
  const analysis::LatencyReport latency = analysis::compute_latency(r.metrics);

  if (full_report) {
    std::fputs(report::design_report(r.design, r.metrics).c_str(), stdout);
  } else if (csv) {
    report::Table t({"signal", "src", "dst", "route", "wavelength",
                     "il_db", "il_star_db", "path_mm", "crossings", "snr_db"});
    for (std::size_t i = 0; i < r.metrics.signals.size(); ++i) {
      const auto& sig = r.design.traffic.signal(static_cast<int>(i));
      const analysis::SignalReport& rep = r.metrics.signals[i];
      const mapping::SignalRoute& route = r.design.mapping.routes[i];
      t.add_row({std::to_string(i), fp.node(sig.src).name,
                 fp.node(sig.dst).name, mapping::to_string(route.kind),
                 std::to_string(route.wavelength),
                 report::num(rep.loss.total_db(), 3),
                 report::num(rep.loss.star_db(), 3),
                 report::num(rep.loss.path_mm, 3),
                 std::to_string(rep.loss.crossings), report::snr(rep.snr_db)});
    }
    std::fputs(t.to_csv().c_str(), stdout);
  } else {
    std::printf("nodes            : %d\n", fp.size());
    std::printf("signals          : %d\n", r.design.traffic.size());
    std::printf("ring length      : %.1f mm (%d crossings)\n",
                r.design.ring.tour.total_length() / 1000.0,
                r.design.ring.crossings);
    std::printf("shortcuts        : %zu\n", r.design.shortcuts.shortcuts.size());
    std::printf("ring waveguides  : %d\n", r.metrics.waveguides);
    std::printf("wavelengths      : %d\n", r.metrics.wavelengths);
    std::printf("worst loss       : %.2f dB (%.2f dB excl. PDN)\n",
                r.metrics.il_worst_db, r.metrics.il_star_worst_db);
    std::printf("laser power      : %.3f W\n", r.metrics.total_power_w);
    std::printf("noisy signals    : %d (worst SNR %s dB)\n",
                r.metrics.noisy_signals,
                report::snr(r.metrics.snr_worst_db).c_str());
    std::printf("worst latency    : %.1f ps (mean %.1f ps)\n",
                latency.worst_ps, latency.mean_ps);
    std::printf("threads          : %d\n", par::effective_jobs());
    std::printf("synthesis time   : %.3f s\n", r.seconds);
  }

  if (!svg.empty()) {
    viz::save_svg(r.design, svg);
    artifacts.emplace_back("layout (svg)", svg);
  }
  if (!run_dir.empty()) {
    namespace fs = std::filesystem;
    // DIR is the run directory; its parent is the store root that holds the
    // shared index.jsonl, so sibling --run-dir runs land in one store.
    const fs::path rd(run_dir);
    obs::RunStore store(rd.has_parent_path() ? rd.parent_path().string()
                                             : std::string("."));
    // The resolved configuration, canonically ordered: two runs hash equal
    // exactly when they synthesize the same problem the same way.
    std::ostringstream cfg;
    cfg << "floorplan=" << file << ";nodes=" << fp.size()
        << ";wl=" << opt.mapping.max_wavelengths << ";traffic=" << traffic_kind
        << ";params=" << params_file << ";pdn=" << (opt.build_pdn ? 1 : 0)
        << ";shortcuts=" << (opt.shortcuts.enable ? 1 : 0) << ";pdn_style="
        << (opt.pdn_style == SynthesisOptions::PdnStyle::kComb ? "comb"
                                                               : "tree");
    obs::RunRecordOptions rec;
    rec.id = rd.filename().string();
    rec.title = report_opt.title;
    rec.extra_environment = {
        {"command", "synth"},
        {"jobs", std::to_string(par::effective_jobs())},
        {"hardware_concurrency", std::to_string(par::hardware_jobs())},
        {"config_hash", obs::config_hash(cfg.str())},
    };
    rec.artifacts = artifacts;
    store.record(ctx->registry(), rec);
    artifacts.emplace_back("run record (json)",
                           (rd / "run.json").string());
  }
  for (const auto& [kind, path] : artifacts) {
    std::fprintf(stderr, "%s written to %s\n", kind.c_str(), path.c_str());
  }
  return 0;
}

int cmd_verify(Args& args) {
  netlist::Floorplan fp;
  const std::string file = args.value("--floorplan");
  if (!file.empty()) {
    fp = netlist::load_floorplan(file);
  } else {
    fp = standard_floorplan(args);
  }
  SynthesisOptions opt;
  opt.mapping.max_wavelengths = wavelength_cap(args, fp);
  if (!args.report_unused()) return 2;

  const Synthesizer synth(fp);
  const SynthesisResult r = synth.run(opt);
  verify::DrcOptions drc;
  drc.max_wavelengths = opt.mapping.max_wavelengths;
  const auto violations = verify::check(r.design, drc);
  std::fputs(verify::report(violations).c_str(), stdout);
  return violations.empty() ? 0 : 1;
}

int cmd_floorplan(Args& args) {
  const netlist::Floorplan fp = standard_floorplan(args);
  const std::string out = args.value("--out");
  if (!args.report_unused()) return 2;
  if (out.empty()) {
    netlist::write_floorplan(fp, std::cout);
  } else {
    netlist::save_floorplan(fp, out);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <synth|verify|floorplan> [options]\n", argv[0]);
    return 2;
  }
  try {
    Args args(argc, argv, 2);
    if (std::strcmp(argv[1], "synth") == 0) return cmd_synth(args);
    if (std::strcmp(argv[1], "verify") == 0) return cmd_verify(args);
    if (std::strcmp(argv[1], "floorplan") == 0) return cmd_floorplan(args);
    std::fprintf(stderr, "unknown command: %s\n", argv[1]);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
