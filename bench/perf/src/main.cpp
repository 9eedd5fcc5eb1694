// xring_perf: the synthesis benchmark.
//
//   xring_perf run     --workload W --seed S --seconds T [--out FILE]
//   xring_perf trace   --workload W --seed S --seconds T [--trace-dir DIR]
//                      [--pool N]
//   xring_perf setup   --workload W
//   xring_perf compare DIR_A DIR_B
//
// `run` measures one workload end to end with tracing off and prints every
// end-to-end metric of BENCHMARK.json, its timings scaled to a reference
// processor speed (probe.hpp); `setup` is one set-up in a fresh
// process, which `run` starts as a child for its set-up samples; `trace`
// runs the first jobs untraced and then traced, checks the two agree, and
// prints every per-layer metric; `compare` holds two directories of
// `run --out` files against the bounds. `run`, `trace` and `compare` print
// one JSON object as their last line of output. Metric names, units,
// directions and bounds are read from BENCHMARK.json in the working
// directory (the repository root), so they are declared once.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "layers.hpp"
#include "obs/context.hpp"
#include "obs/export.hpp"
#include "obs/sampler.hpp"
#include "par/pool.hpp"
#include "probe.hpp"
#include "workloads.hpp"

namespace {

namespace obs = xring::obs;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_process_start = Clock::now();

double since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

std::string quote(const std::string& s) { return "\"" + obs::json_escape(s) + "\""; }

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Member `key` of a JSON object; throws when absent.
const obs::JsonValue& at(const obs::JsonValue& v, const std::string& key) {
  const obs::JsonValue* m = v.find(key);
  if (m == nullptr) throw std::runtime_error("missing JSON member " + key);
  return *m;
}

// ---------------------------------------------------------------------------
// Process resources (Linux /proc and getrusage).

/// User + system CPU time of the whole process.
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// VmHWM: the process's peak RSS since the last reset_peak_rss().
double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

/// Returns free heap pages to the system (malloc_trim) and resets VmHWM to
/// the resulting RSS (`5` into /proc/self/clear_refs), so the next
/// peak_rss_mib() reads the peak since this call, independent of how much
/// freed memory earlier work left cached in the allocator.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

// ---------------------------------------------------------------------------
// Statistics.

/// Quantile at `p` interpolated over positions p·(n+1), extrapolating past
/// the sample's ends — the method of Python's statistics.quantiles
/// (exclusive), which the repeat criterion uses.
double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const long n = static_cast<long>(v.size());
  if (n == 1) return v[0];
  const double h = p * static_cast<double>(n + 1);
  const long j = std::clamp(static_cast<long>(std::floor(h)), 1L, n - 1);
  const double delta = h - static_cast<double>(j);
  return v[static_cast<std::size_t>(j - 1)] +
         (v[static_cast<std::size_t>(j)] - v[static_cast<std::size_t>(j - 1)]) *
             delta;
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// ---------------------------------------------------------------------------
// Metric declarations (BENCHMARK.json).

struct MetricSpec {
  std::string name;
  std::string unit;
  bool lower_is_better = true;
  double bound = 0.0;
};

struct Spec {
  std::vector<MetricSpec> end_to_end;
  std::vector<MetricSpec> per_layer;
};

Spec load_spec() {
  const obs::JsonValue doc = obs::parse_json(read_file("BENCHMARK.json"));
  auto list = [&](const char* key) {
    std::vector<MetricSpec> out;
    for (const obs::JsonValue& m : at(doc, key).array) {
      MetricSpec s;
      s.name = at(m, "name").string;
      s.unit = at(m, "unit").string;
      s.lower_is_better = at(m, "better").string == "lower";
      if (const obs::JsonValue* b = m.find("bound")) s.bound = b->number;
      out.push_back(s);
    }
    return out;
  };
  return Spec{list("end_to_end"), list("per_layer")};
}

/// The result line: exactly the keys correct/attempted/failed/metrics, with
/// every declared metric in declaration order. A metric the run did not
/// produce, or one it produced without a declaration, is a benchmark bug.
std::string result_json(bool correct, long attempted, long failed,
                        const std::vector<MetricSpec>& declared,
                        const std::map<std::string, double>& values) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < declared.size(); ++i) {
    const MetricSpec& m = declared[i];
    const auto it = values.find(m.name);
    if (it == values.end()) {
      throw std::logic_error("metric " + m.name + " was not measured");
    }
    out << (i ? ", " : "") << quote(m.name)
        << ": {\"value\": " << obs::json_num(it->second)
        << ", \"unit\": " << quote(m.unit) << "}";
  }
  out << "}}";
  for (const auto& [name, v] : values) {
    const bool known = std::any_of(declared.begin(), declared.end(),
                                   [&](const MetricSpec& m) { return m.name == name; });
    if (!known) throw std::logic_error("metric " + name + " is not declared");
  }
  return out.str();
}

void print_metrics(const std::vector<MetricSpec>& declared,
                   const std::map<std::string, double>& values) {
  for (const MetricSpec& m : declared) {
    const auto it = values.find(m.name);
    if (it == values.end()) continue;
    std::printf("%-40s %14.6g %s\n", m.name.c_str(), it->second, m.unit.c_str());
  }
}

// ---------------------------------------------------------------------------
// Command line.

struct Args {
  std::string command;
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  std::string require(const std::string& key) const {
    const auto it = options.find(key);
    if (it == options.end()) throw std::invalid_argument("missing " + key);
    return it->second;
  }
};

Args parse_args(int argc, char** argv) {
  Args a;
  if (argc < 2) throw std::invalid_argument("missing command");
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      a.options[arg] = argv[++i];
    } else {
      a.positional.push_back(arg);
    }
  }
  return a;
}

const perf::Workload& workload_arg(const Args& a) {
  const std::string name = a.require("--workload");
  const perf::Workload* w = perf::find_workload(name);
  if (w == nullptr) {
    std::string known;
    for (const std::string& n : perf::workload_names()) known += " " + n;
    throw std::invalid_argument("unknown workload " + name + " (known:" + known + ")");
  }
  return *w;
}

struct RunConfig {
  const perf::Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  Spec spec;
};

RunConfig run_config(const Args& a) {
  RunConfig c;
  c.workload = &workload_arg(a);
  c.seed = std::stoull(a.require("--seed"));
  c.seconds = std::stod(a.require("--seconds"));
  if (!(c.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  c.spec = load_spec();
  return c;
}

int pool_width(const perf::Workload& w) {
  return std::min(w.pool, xring::par::hardware_jobs());
}

/// Runs one job, turning an exception into a failure.
perf::JobOutput run_job(const perf::Workload& w, const perf::Instance& in) {
  try {
    return w.job(in);
  } catch (const std::exception& e) {
    perf::JobOutput out;
    out.failures.push_back(std::string("exception: ") + e.what());
    return out;
  }
}

/// Counts checked jobs; logs failures to stderr.
struct Tally {
  long attempted = 0;
  long failed = 0;

  void add(const std::string& label, const perf::JobOutput& out) {
    ++attempted;
    if (out.failures.empty()) return;
    ++failed;
    for (const std::string& f : out.failures) {
      std::fprintf(stderr, "FAIL %s: %s\n", label.c_str(), f.c_str());
    }
  }
};

/// One set-up: pool creation, input generation and one checked, untimed
/// warm-up job on the panel's first input.
std::vector<perf::Instance> set_up(const perf::Workload& w, int pool, Tally& tally) {
  xring::par::set_jobs(pool);
  std::vector<perf::Instance> panel = w.make_panel();
  tally.add(panel.front().label + " (warm-up)", run_job(w, panel.front()));
  return panel;
}

// ---------------------------------------------------------------------------
// setup: one set-up in this (fresh) process.

int cmd_setup(const Args& a) {
  const perf::Workload& w = workload_arg(a);
  Tally tally;
  set_up(w, pool_width(w), tally);
  const double seconds = since(g_process_start);
  std::printf("%s %ld %ld\n", obs::json_num(seconds).c_str(), tally.attempted,
              tally.failed);
  return 0;
}

/// Runs `xring_perf setup` for `w` in a child process, waits for it, and
/// returns its set-up time; the child's warm-up job counts in `tally`.
double child_set_up(const perf::Workload& w, Tally& tally) {
  const std::string exe = std::filesystem::read_symlink("/proc/self/exe").string();
  if (exe.find('\'') != std::string::npos) {
    throw std::runtime_error("cannot quote the executable path " + exe);
  }
  const std::string cmd = "'" + exe + "' setup --workload " + w.name;
  FILE* child = popen(cmd.c_str(), "r");
  if (child == nullptr) throw std::runtime_error("cannot start " + cmd);
  std::string output;
  char buf[256];
  while (std::fgets(buf, sizeof buf, child) != nullptr) output += buf;
  const int status = pclose(child);
  double seconds = 0.0;
  long attempted = 0;
  long failed = 0;
  if (status != 0 ||
      std::sscanf(output.c_str(), "%lf %ld %ld", &seconds, &attempted, &failed) != 3) {
    throw std::runtime_error(cmd + " failed (status " + std::to_string(status) + ")");
  }
  tally.attempted += attempted;
  tally.failed += failed;
  return seconds;
}

// ---------------------------------------------------------------------------
// run: end-to-end metrics with tracing off.

/// Set-up samples per run: this process's own and the rest in children.
constexpr int kSetups = 3;

int cmd_run(const Args& a) {
  const RunConfig cfg = run_config(a);
  const perf::Workload& w = *cfg.workload;
  Tally tally;
  perf::SpeedProbe probe;

  // Every set-up sample is cold: this process's own counts from process
  // start to the end of its warm-up job, and each child process measures
  // the same interval. Only a fresh process pays one-time initialisation,
  // so every sample includes it.
  std::vector<double> setup_s;
  const std::vector<perf::Instance> panel = set_up(w, pool_width(w), tally);
  setup_s.push_back(since(g_process_start));
  for (int k = 1; k < kSetups; ++k) setup_s.push_back(child_set_up(w, tally));

  // Timed closed loop, one client: whole passes over the panel until
  // --seconds have passed, so every instance gets the same number of jobs.
  const int panel_size = static_cast<int>(panel.size());
  std::vector<double> job_s;
  std::vector<double> job_rss;
  std::map<int, std::vector<perf::DesignSummary>> first_designs;
  const double cpu0 = cpu_seconds() - probe.cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  for (long k = 0;; ++k) {
    if (k > 0 && k % panel_size == 0 && since(t0) >= cfg.seconds) break;
    const int idx = perf::job_order(cfg.seed, panel_size, k);
    const perf::Instance& in = panel[static_cast<std::size_t>(idx)];
    reset_peak_rss();
    const Clock::time_point tj = Clock::now();
    perf::JobOutput out = run_job(w, in);
    job_s.push_back(since(tj));
    job_rss.push_back(peak_rss_mib());
    // Every job of an instance must reproduce its first job's designs.
    const auto [it, fresh] = first_designs.emplace(idx, out.designs);
    if (!fresh && it->second != out.designs) {
      out.failures.push_back("designs differ from the first job on this input");
    }
    tally.add(in.label, out);
  }
  const double wall = since(t0);
  const double cpu = cpu_seconds() - probe.cpu_seconds() - cpu0;
  const double jobs = static_cast<double>(job_s.size());
  probe.stop();
  const double scale = perf::reference_scale(probe);

  // Quality over the whole panel: every instance's XRing designs once.
  double log_power = 0.0;
  double il = 0.0;
  double waveguides = 0.0;
  int designs = 0;
  for (const auto& [idx, list] : first_designs) {
    for (const perf::DesignSummary& d : list) {
      if (!d.quality) continue;
      log_power += std::log(d.total_power_w);
      il += d.il_star_worst_db;
      waveguides += d.waveguides;
      ++designs;
    }
  }
  const double nd = std::max(1, designs);

  // Timings in reference seconds (see probe.hpp).
  const std::map<std::string, double> metrics = {
      {"setup_s", median(setup_s) * scale},
      {"job_s_p50", median(job_s) * scale},
      {"jobs_per_s", jobs / (wall * scale)},
      {"cpu_s_per_job", cpu / jobs * scale},
      {"peak_rss_mib", median(job_rss)},
      {"power_w_gmean", std::exp(log_power / nd)},
      {"il_worst_db_mean", il / nd},
      {"waveguides_mean", waveguides / nd},
  };
  std::printf("workload %s, seed %llu: %zu timed jobs in %.2f s on a %d-job pool; "
              "probe sort %.4f ms, so 1 s reads as %.4f reference s\n",
              w.name.c_str(), static_cast<unsigned long long>(cfg.seed),
              job_s.size(), wall, pool_width(w), probe.sort_seconds() * 1e3, scale);
  print_metrics(cfg.spec.end_to_end, metrics);
  const std::string line = result_json(tally.failed == 0, tally.attempted,
                                       tally.failed, cfg.spec.end_to_end, metrics);
  const std::string out_file = a.get("--out", "");
  if (!out_file.empty()) {
    std::ostringstream out;
    out << "{\"mode\": \"run\", \"workload\": " << quote(w.name)
        << ", \"seed\": " << cfg.seed
        << ", \"probe_sort_s\": " << obs::json_num(probe.sort_seconds())
        << ", \"wall_s\": " << obs::json_num(wall)
        << ", \"cpu_s\": " << obs::json_num(cpu) << ", \"setup_s\": [";
    for (std::size_t i = 0; i < setup_s.size(); ++i) {
      out << (i ? ", " : "") << obs::json_num(setup_s[i]);
    }
    out << "], \"job_s\": [";
    for (std::size_t i = 0; i < job_s.size(); ++i) {
      out << (i ? ", " : "") << obs::json_num(job_s[i]);
    }
    out << "], \"result\": " << line << "}\n";
    obs::write_text_file(out_file, out.str());
  }
  std::printf("%s\n", line.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// trace: per-layer metrics from the spans and counters of traced jobs.

/// Phase-sampler period for the per-layer RSS readings.
constexpr long long kRssSampleUs = 1000;

std::string layers_json(const perf::Workload& w, std::uint64_t seed, int jobs,
                        double untraced_s, double traced_s,
                        const perf::LayerReport& r, const std::string& checks) {
  std::ostringstream out;
  out << "{\n  \"workload\": " << quote(w.name) << ",\n  \"seed\": " << seed
      << ",\n  \"traced_jobs\": " << jobs
      << ",\n  \"untraced_job_wall_s\": " << obs::json_num(untraced_s / jobs)
      << ",\n  \"traced_job_wall_s\": " << obs::json_num(traced_s / jobs)
      << ",\n  \"thread_s_per_job\": " << obs::json_num(r.thread_s)
      << ",\n  \"layers\": {";
  bool first = true;
  for (const auto& [layer, s] : r.self_s) {
    out << (first ? "" : ",") << "\n    " << quote(layer)
        << ": {\"self_s\": " << obs::json_num(s) << ", \"share\": "
        << obs::json_num(r.thread_s > 0 ? s / r.thread_s : 0.0) << "}";
    first = false;
  }
  out << "\n  },\n  \"metrics\": {";
  first = true;
  for (const auto& [name, v] : r.metrics) {
    out << (first ? "" : ",") << "\n    " << quote(name) << ": " << obs::json_num(v);
    first = false;
  }
  out << "\n  },\n  \"checks\": " << checks << "\n}\n";
  return out.str();
}

int cmd_trace(const Args& a) {
  const RunConfig cfg = run_config(a);
  const perf::Workload& w = *cfg.workload;
  Tally tally;

  // --pool measures the layers at another pool width (e.g. the opening
  // search at 1 vs 4 jobs); the benchmark's own runs never pass it.
  const int pool = std::stoi(a.get("--pool", std::to_string(pool_width(w))));
  if (pool < 1) throw std::invalid_argument("--pool must be >= 1");
  const std::vector<perf::Instance> panel = set_up(w, pool, tally);
  const int panel_size = static_cast<int>(panel.size());

  // Each traced job runs twice on the same input: first with obs off, as in
  // `run`, then under an enabled obs::Context. The pool carries the context
  // into its workers, so the context's registry collects every span and
  // counter of the job; the phase sampler adds the process RSS (its one
  // extra thread runs only in traced jobs).
  obs::Context ctx;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  bool identical = true;
  int jobs = 0;
  const Clock::time_point t0 = Clock::now();
  for (int k = 0; k < w.trace_jobs; ++k) {
    if (k > 0 && since(t0) * (k + 1) / k > cfg.seconds) break;
    const perf::Instance& in = panel[static_cast<std::size_t>(
        perf::job_order(cfg.seed, panel_size, k))];
    Clock::time_point tj = Clock::now();
    const perf::JobOutput plain = run_job(w, in);
    untraced_s += since(tj);
    tally.add(in.label, plain);

    perf::JobOutput spanned;
    reset_peak_rss();  // the RSS samples then show this job's own growth
    {
      const obs::ScopedContext scope(ctx);
      obs::PhaseSampler sampler(&ctx.registry(), kRssSampleUs);
      sampler.start();
      tj = Clock::now();
      {
        const obs::Span root("job");
        spanned = run_job(w, in);
      }
      traced_s += since(tj);
      sampler.stop();
    }
    if (spanned.designs != plain.designs || spanned.cells != plain.cells) {
      spanned.failures.push_back("traced job differs from the untraced one");
      identical = false;
    }
    tally.add(in.label + " (traced)", spanned);
    ++jobs;
  }

  perf::LayerReport r = perf::layer_report(ctx.registry(), jobs, pool);
  r.metrics["trace_overhead_frac"] = (traced_s - untraced_s) / untraced_s;

  // Layer spans must account for the job where every call runs alone: the
  // orchestration spans' self time stays within 5% of job wall time.
  const bool coverage_ok = !w.check_coverage || r.uncovered_frac <= 0.05;
  if (!coverage_ok) {
    std::fprintf(stderr, "FAIL coverage: %.1f%% of job wall time is outside layer spans\n",
                 100.0 * r.uncovered_frac);
  }

  std::ostringstream checks;
  checks << "{\"identical\": " << (identical ? "true" : "false")
         << ", \"uncovered_frac\": " << obs::json_num(r.uncovered_frac)
         << ", \"coverage_checked\": " << (w.check_coverage ? "true" : "false")
         << "}";
  const std::filesystem::path dir =
      a.get("--trace-dir", ".bench_build/perf/trace/" + w.name);
  std::filesystem::create_directories(dir);
  obs::write_text_file((dir / "layers.json").string(),
                       layers_json(w, cfg.seed, jobs, untraced_s, traced_s, r,
                                   checks.str()));
  obs::write_text_file((dir / "trace.json").string(), obs::trace_json(ctx.registry()));

  std::printf("workload %s, seed %llu: %d jobs traced on a %d-job pool, layer "
              "shares of thread time:\n",
              w.name.c_str(), static_cast<unsigned long long>(cfg.seed), jobs,
              pool);
  for (const auto& [layer, s] : r.self_s) {
    std::printf("  %-22s %10.4f s/job  %5.1f%%\n", layer.c_str(), s,
                r.thread_s > 0 ? 100.0 * s / r.thread_s : 0.0);
  }
  std::printf("identity %s, uncovered %.2f%%, outputs in %s\n",
              identical ? "ok" : "FAILED", 100.0 * r.uncovered_frac, dir.c_str());
  print_metrics(cfg.spec.per_layer, r.metrics);
  const bool correct = tally.failed == 0 && identical && coverage_ok;
  std::printf("%s\n", result_json(correct, tally.attempted, tally.failed,
                                  cfg.spec.per_layer, r.metrics)
                          .c_str());
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// compare: two sets of `run --out` files against the declared bounds.

struct Quartiles {
  double q1 = 0.0;
  double med = 0.0;
  double q3 = 0.0;
};

/// Python's statistics.quantiles(v, n=4); a single value is its own
/// quartiles.
Quartiles quartiles(const std::vector<double>& v) {
  return {quantile(v, 0.25), median(v), quantile(v, 0.75)};
}

/// workload -> metric -> values over the directory's run files.
using RunSet = std::map<std::string, std::map<std::string, std::vector<double>>>;

RunSet load_runs(const std::string& dir) {
  RunSet set;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    const obs::JsonValue doc = obs::parse_json(read_file(entry.path().string()));
    const obs::JsonValue* mode = doc.find("mode");
    if (mode == nullptr || mode->string != "run") continue;
    const std::string workload = at(doc, "workload").string;
    for (const auto& [name, m] : at(at(doc, "result"), "metrics").object) {
      set[workload][name].push_back(at(m, "value").number);
    }
  }
  if (set.empty()) throw std::runtime_error(dir + ": no run files");
  return set;
}

int cmd_compare(const Args& a) {
  if (a.positional.size() != 2) {
    throw std::invalid_argument("compare needs DIR_A DIR_B");
  }
  const Spec spec = load_spec();
  const RunSet runs_a = load_runs(a.positional[0]);
  const RunSet runs_b = load_runs(a.positional[1]);
  int failures = 0;
  int pairs = 0;
  std::printf("%-9s %-17s %5s %32s %32s %7s %7s %s\n", "workload", "metric",
              "bound", "A q1 / median / q3", "B q1 / median / q3", "A iqr%",
              "B iqr%", "verdict");
  for (const auto& [workload, metrics_a] : runs_a) {
    for (const MetricSpec& m : spec.end_to_end) {
      const auto ia = metrics_a.find(m.name);
      const auto wb = runs_b.find(workload);
      if (ia == metrics_a.end() || wb == runs_b.end() ||
          wb->second.count(m.name) == 0) {
        std::printf("%-9s %-17s missing in one set\n", workload.c_str(),
                    m.name.c_str());
        ++failures;
        continue;
      }
      const Quartiles qa = quartiles(ia->second);
      const Quartiles qb = quartiles(wb->second.at(m.name));
      const bool ok = m.lower_is_better ? qb.med <= qa.med * (1.0 + m.bound)
                                        : qb.med >= qa.med * (1.0 - m.bound);
      auto iqr = [](const Quartiles& q) {
        return q.med != 0.0 ? 100.0 * (q.q3 - q.q1) / std::fabs(q.med) : 0.0;
      };
      char cell_a[64];
      char cell_b[64];
      std::snprintf(cell_a, sizeof cell_a, "%.4g / %.4g / %.4g", qa.q1, qa.med, qa.q3);
      std::snprintf(cell_b, sizeof cell_b, "%.4g / %.4g / %.4g", qb.q1, qb.med, qb.q3);
      std::printf("%-9s %-17s %4.0f%% %32s %32s %6.2f%% %6.2f%% %s\n",
                  workload.c_str(), m.name.c_str(), 100.0 * m.bound, cell_a,
                  cell_b, iqr(qa), iqr(qb), ok ? "ok" : "OUTSIDE");
      ++pairs;
      if (!ok) ++failures;
    }
  }
  std::printf("{\"pairs\": %d, \"outside\": %d}\n", pairs, failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.command == "run") return cmd_run(args);
    if (args.command == "trace") return cmd_trace(args);
    if (args.command == "setup") return cmd_setup(args);
    if (args.command == "compare") return cmd_compare(args);
    throw std::invalid_argument("unknown command " + args.command);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xring_perf: %s\n", e.what());
    std::fprintf(stderr,
                 "usage: xring_perf run|trace --workload W --seed S --seconds T\n"
                 "       xring_perf setup --workload W\n"
                 "       xring_perf compare DIR_A DIR_B\n");
    return 2;
  }
}
