// xring_runs — list, diff, and aggregate the per-run records a store
// directory accumulates (one `<store>/<id>/run.json` per run plus an
// append-only `<store>/index.jsonl`; `xring synth --run-dir` writes them),
// and gate flat BENCH_*.json metrics reports against committed baselines.
//
//   xring_runs list [--store DIR]
//   xring_runs diff A B [--store DIR] [--html OUT.html] [--json OUT.json]
//                       [--time-tolerance R] [--rel-tolerance R]
//                       [--only-prefix P] [--quiet]
//   xring_runs aggregate [--store DIR] [--prefix P] [--json]
//
// `A` and `B` are store ids, run-directory paths, run.json paths, or flat
// metrics JSON files (the BENCH_*.json reports of the table benches and
// bench_micro). `diff` options:
//   --time-tolerance R   time-like metrics may grow up to R× the baseline
//                        before counting as a regression (default: 3.0 —
//                        wall times are machine- and load-dependent)
//   --rel-tolerance R    quality metrics (losses, powers, counts) may drift
//                        relatively by R (default: 1e-6 — the pipeline is
//                        deterministic, so anything beyond rounding noise
//                        is a real behavior change)
//                        Both R must be finite numbers >= 0, written as the
//                        whole token ("nan" or "1e-3x" is a usage error).
//   --only-prefix P      compare only metrics whose name starts with P
//                        (e.g. `--only-prefix mapping.` gates the Step-3
//                        counters alone); one-sided keys are filtered the
//                        same way
//   --quiet              print regressions and the summary line only when
//                        something regressed or a key is one-sided
//
// The classification and gate formulas live in obs/runstore.hpp
// (classify_metric / time_noise_floor / metric_regressed). Classification
// by metric name:
//   time-like  `span.*`, `*.real_time_ns`, `*.cpu_time_ns`, `*.total_s`,
//              `*.seconds`, or a last dot-component of `T` (the tables'
//              wall-clock column). Only growth is flagged; getting faster
//              never fails, and sub-noise-floor baselines are not gated.
//   ignored    `*.iterations` (google-benchmark picks the repeat count
//              from the machine's speed) and `*.t_us` timestamps.
//   resource   sampled resource and scheduling telemetry (`mem.*`,
//              `events.*`, `par.*`): two identical runs differ. Never
//              gated; they ride along for the human reading the report.
//   quality    everything else; compared tight in both directions. This
//              includes the solver's work counters (`lp.pivots`,
//              `milp.warm_pivots`, the cut counts, ...) and
//              the Step-3 probe counters (`mapping.fits_probes`,
//              `mapping.fits_summary_hits`, `mapping.reloc_attempts`): the
//              serial searches make them the same at every pool size, so a
//              change that moves the work must re-baseline on purpose.
// A quality key present in A and missing from B is a regression, printed
// as `REGRESSION <key>: <value> -> missing`: a Table run that lost a cell
// fails the gate. Other keys present in only one input (a metric B adds,
// a time or telemetry key B lacks) are not compared; their count is
// reported in the summary line even under --quiet.
//
// Exit status: 0 ok (diff: no regressions), 1 diff found regressions,
// 2 usage or I/O error.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/runstore.hpp"

namespace {

using namespace xring::obs;

int usage() {
  std::fprintf(
      stderr,
      "usage: xring_runs list [--store DIR]\n"
      "       xring_runs diff A B [--store DIR] [--html OUT.html]\n"
      "                  [--json OUT.json] [--time-tolerance R]\n"
      "                  [--rel-tolerance R] [--only-prefix P] [--quiet]\n"
      "       xring_runs aggregate [--store DIR] [--prefix P] [--json]\n");
  return 2;
}

/// The value of a tolerance flag: the whole token must be a finite number
/// >= 0. Anything else exits 2 naming the flag — a NaN tolerance would
/// pass every comparison.
double tolerance(const char* flag, const char* text) {
  double value = 0.0;
  const char* last = text + std::strlen(text);
  const auto [end, ec] = std::from_chars(text, last, value);
  if (ec != std::errc{} || end != last || !std::isfinite(value) ||
      value < 0) {
    std::fprintf(stderr, "error: %s must be a finite number >= 0\n", flag);
    std::exit(2);
  }
  return value;
}

std::string format_utc(double unix_time) {
  if (unix_time <= 0) return "-";
  const std::time_t t = static_cast<std::time_t>(unix_time);
  std::tm tm{};
#if defined(_WIN32)
  gmtime_s(&tm, &t);
#else
  gmtime_r(&t, &tm);
#endif
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%d %H:%M:%SZ", &tm);
  return buf;
}

int cmd_list(const std::string& store_root) {
  const RunStore store(store_root);
  const auto entries = store.list();
  if (entries.empty()) {
    std::printf("no runs recorded in %s\n", store.root().c_str());
    return 0;
  }
  for (const auto& e : entries) {
    std::printf("%-28s %-21s %s\n", e.id.c_str(),
                format_utc(e.unix_time).c_str(), e.title.c_str());
  }
  return 0;
}

int cmd_diff(const std::string& store_root, const std::string& a_ref,
             const std::string& b_ref, const GateOptions& gate,
             const std::string& only_prefix, const std::string& html_out,
             const std::string& json_out, bool quiet) {
  const RunStore store(store_root);
  RunRecord a, b;
  try {
    a = store.load(a_ref);
    b = store.load(b_ref);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xring_runs: %s\n", e.what());
    return 2;
  }
  const RunDiff d = diff_runs(a, b, gate, only_prefix);
  try {
    if (!html_out.empty()) write_text_file(html_out, run_diff_html(d));
    if (!json_out.empty()) write_text_file(json_out, run_diff_json(d));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xring_runs: %s\n", e.what());
    return 2;
  }
  for (const MetricDelta& md : d.deltas) {
    if (md.regressed && !md.in_b) {
      std::printf("REGRESSION %s: %.12g -> missing\n", md.name.c_str(), md.a);
    } else if (md.regressed) {
      std::printf("REGRESSION %s: %.12g -> %.12g\n", md.name.c_str(), md.a,
                  md.b);
    }
  }
  if (!quiet || d.regressions > 0 || d.one_sided > 0) {
    std::printf(
        "%s -> %s: %d metrics gated (%d skipped), %d regression(s) "
        "(%d missing), %d one-sided key(s)\n",
        a.id.c_str(), b.id.c_str(), d.compared, d.skipped, d.regressions,
        d.missing, d.one_sided);
  }
  return d.regressions > 0 ? 1 : 0;
}

int cmd_aggregate(const std::string& store_root, const std::string& prefix,
                  bool as_json) {
  const RunStore store(store_root);
  std::vector<RunRecord> runs;
  for (const auto& e : store.list()) {
    try {
      runs.push_back(store.load(e.id));
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "warning: skipping %s: %s\n", e.id.c_str(),
                   ex.what());
    }
  }
  const auto stats = aggregate_runs(runs, prefix);
  if (as_json) {
    std::printf("{\n\"runs\": %zu,\n\"metrics\": [", runs.size());
    bool first = true;
    for (const MetricAggregate& a : stats) {
      std::printf("%s\n{\"name\": \"%s\", \"count\": %lld, \"min\": %s, "
                  "\"max\": %s, \"mean\": %s}",
                  first ? "" : ",", json_escape(a.name).c_str(), a.count,
                  json_num(a.min).c_str(), json_num(a.max).c_str(),
                  json_num(a.mean()).c_str());
      first = false;
    }
    std::printf("\n]\n}\n");
  } else {
    std::printf("%zu run(s) in %s\n", runs.size(), store.root().c_str());
    for (const MetricAggregate& a : stats) {
      std::printf("%-40s n=%-4lld min=%-12g max=%-12g mean=%g\n",
                  a.name.c_str(), a.count, a.min, a.max, a.mean());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];

  std::string store_root = "runs";
  std::vector<std::string> positional;
  GateOptions gate;
  std::string only_prefix, html_out, json_out, agg_prefix;
  bool quiet = false, agg_json = false;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--store") {
      store_root = value("--store");
    } else if (arg == "--html") {
      html_out = value("--html");
    } else if (arg == "--json" && cmd == "diff") {
      json_out = value("--json");
    } else if (arg == "--json") {
      agg_json = true;
    } else if (arg == "--time-tolerance") {
      gate.time_tolerance =
          tolerance("--time-tolerance", value("--time-tolerance"));
    } else if (arg == "--rel-tolerance") {
      gate.rel_tolerance =
          tolerance("--rel-tolerance", value("--rel-tolerance"));
    } else if (arg == "--only-prefix") {
      only_prefix = value("--only-prefix");
    } else if (arg == "--prefix") {
      agg_prefix = value("--prefix");
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return 2;
    } else {
      positional.push_back(arg);
    }
  }

  if (cmd == "list") {
    if (!positional.empty()) return usage();
    return cmd_list(store_root);
  }
  if (cmd == "diff") {
    if (positional.size() != 2) return usage();
    return cmd_diff(store_root, positional[0], positional[1], gate,
                    only_prefix, html_out, json_out, quiet);
  }
  if (cmd == "aggregate") {
    if (!positional.empty()) return usage();
    return cmd_aggregate(store_root, agg_prefix, agg_json);
  }
  std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
  return usage();
}
