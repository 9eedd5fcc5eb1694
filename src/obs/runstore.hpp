#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hpp"

namespace xring::obs {

// ---------------------------------------------------------------------------
// Metric gate classes — the single source of truth of the regression gate
// `xring_runs diff` applies, to run records and BENCH_*.json reports alike.

enum class MetricClass {
  kQuality,   ///< gated tight in both directions (losses, powers, counts)
  kTimeLike,  ///< only growth beyond the tolerance fails; never exact
  kResource,  ///< sampled RSS/scheduling telemetry; never gated
  kIgnored,   ///< benchmark repeat counts, raw timestamps
};

const char* to_string(MetricClass c);

/// Classifies one flat metric name. The rules (documented at length in
/// tools/xring_runs.cpp) in precedence order: `*.iterations`/`*.t_us`
/// are ignored; `mem.*`/`events.*` plus the scheduling telemetry (`par.*`
/// — genuinely timing-dependent, two identical runs differ) are resource;
/// `span.*`, `*_ns` timings, `*.total_s`, `*.seconds`, and trailing-`.T`
/// table cells are time-like; everything else is quality, the solver's
/// work counters (`lp.*`, `milp.*`) included.
MetricClass classify_metric(const std::string& name);

/// Below this, a time-like baseline is noise and not gated (1 ms for `_ns`
/// metrics, 100 ms for metrics in seconds).
double time_noise_floor(const std::string& name);

struct GateOptions {
  double time_tolerance = 3.0;  ///< time-like metrics may grow this factor
  double rel_tolerance = 1e-6;  ///< quality metrics may drift relatively
};

/// Applies the gate of `name`'s class to a baseline/candidate pair and
/// returns true when the candidate regresses it: quality beyond the
/// relative tolerance (either direction), time-like growth beyond
/// `time_tolerance` over max(baseline, noise floor), or a number/null
/// (NaN) mismatch. Ignored/resource metrics never regress.
bool metric_regressed(const std::string& name, double baseline,
                      double candidate, const GateOptions& opt = {});

// ---------------------------------------------------------------------------
// Cross-run records: one self-describing run.json per run directory, plus
// an append-only index.jsonl in the store root. This is the longitudinal
// layer over the single-run reports — `tools/xring_runs` lists, diffs, and
// aggregates these records.

/// One node of the name-path span aggregation: `path` is the
/// semicolon-joined open-span chain ("synth;mapping"), reconstructed from
/// the recorded per-thread depths and wall-clock containment.
struct SpanTreeNode {
  std::string path;
  long long count = 0;
  double total_s = 0.0;
};

struct RunRecord {
  std::string schema = "xring.run/1";
  std::string id;
  std::string title;
  std::string dir;  ///< run directory as recorded (not serialized)
  double unix_time = 0.0;
  std::vector<std::pair<std::string, std::string>> environment;
  std::map<std::string, double> metrics;  ///< Registry::flatten() snapshot
  std::vector<SpanTreeNode> span_tree;
  std::vector<std::pair<std::string, std::string>> artifacts;  ///< kind→path
};

/// Serializes `rec` as the run.json document.
std::string run_record_json(const RunRecord& rec);

/// Parses a run.json document (throws std::invalid_argument on anything
/// that does not match the schema). A document without a `schema` member is
/// read as a flat BENCH_*.json metrics object (metrics_from_json) into a
/// record that carries only `metrics`.
RunRecord parse_run_record(const std::string& json);

/// Aggregates a registry's recorded spans into per-path totals, parenting
/// each span under the deepest recorded span of the same thread that
/// contains it (the same reconstruction Chrome tracing does from ts/dur).
std::vector<SpanTreeNode> span_tree(const Registry& reg);

/// 64-bit FNV-1a of `text`, hex-encoded — the `config_hash` environment
/// field, so two runs of the same resolved configuration share a hash.
std::string config_hash(const std::string& text);

struct RunRecordOptions {
  std::string id;     ///< empty: generated (UTC stamp + pid + sequence)
  std::string title;
  /// Extra environment entries appended after the automatic ones
  /// (xring_jobs_env when XRING_JOBS is set, and git when XRING_GIT_SHA or
  /// GITHUB_SHA is set — callers above the par layer add jobs themselves).
  std::vector<std::pair<std::string, std::string>> extra_environment;
  std::vector<std::pair<std::string, std::string>> artifacts;
};

/// A directory of run directories. `<root>/<id>/run.json` holds each run's
/// record; `<root>/index.jsonl` gets one append-only line per recorded run
/// ({"id","dir","title","unix_time"}). Appends are one short write each, so
/// concurrent recorders interleave whole lines.
class RunStore {
 public:
  explicit RunStore(std::string root);

  const std::string& root() const { return root_; }
  std::string index_path() const;

  /// Snapshots `reg` into `<root>/<id>/run.json` (creating directories) and
  /// appends the index line. Returns the run id.
  std::string record(const Registry& reg, const RunRecordOptions& opts = {});

  struct IndexEntry {
    std::string id;
    std::string dir;
    std::string title;
    double unix_time = 0.0;
  };

  /// Index entries in append order (empty when no index exists yet).
  std::vector<IndexEntry> list() const;

  /// Loads a record by store id, run-directory path, run.json path, or the
  /// path of a flat metrics JSON file; a record without an id is named by
  /// `id_or_path`.
  RunRecord load(const std::string& id_or_path) const;

 private:
  std::string root_;
};

// ---------------------------------------------------------------------------
// A/B diffs and aggregation.

struct MetricDelta {
  std::string name;
  MetricClass cls = MetricClass::kQuality;
  double a = 0.0;
  double b = 0.0;
  bool in_a = false;
  bool in_b = false;
  bool regressed = false;
};

struct RunDiff {
  RunRecord a, b;
  GateOptions gate;
  std::vector<MetricDelta> deltas;  ///< name-sorted; includes one-sided keys
  int compared = 0;     ///< gated pairs (quality + time-like)
  int skipped = 0;      ///< ignored / resource pairs
  int regressions = 0;  ///< includes the `missing` keys
  int missing = 0;      ///< quality keys of A that B lacks
  int one_sided = 0;    ///< keys present in only one run
};

/// Diffs two records under the regression gate. A quality key present in
/// `a` (the baseline) and absent from `b` is a regression marked missing;
/// other one-sided keys are only counted. `only_prefix` restricts the
/// comparison (and the one-sided accounting) to names with that prefix.
RunDiff diff_runs(const RunRecord& a, const RunRecord& b,
                  const GateOptions& gate = {},
                  const std::string& only_prefix = "");

/// The diff as machine-readable JSON ({"a","b","gate","summary","deltas"}).
std::string run_diff_json(const RunDiff& d);

/// One self-contained HTML page: environment side-by-side, gated metric
/// deltas classed by the gate, the span-tree time diff, and the
/// memory-by-phase diff. Inline CSS only, archivable as-is.
std::string run_diff_html(const RunDiff& d);

struct MetricAggregate {
  std::string name;
  long long count = 0;  ///< runs carrying the metric
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  double mean() const { return count > 0 ? sum / count : 0.0; }
};

/// Per-metric statistics across `runs`, name-sorted, optionally restricted
/// to names starting with `prefix`. NaN (null) values are skipped.
std::vector<MetricAggregate> aggregate_runs(const std::vector<RunRecord>& runs,
                                            const std::string& prefix = "");

}  // namespace xring::obs
