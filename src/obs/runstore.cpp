#include "obs/runstore.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "obs/export.hpp"

namespace xring::obs {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Gate classes.

const char* to_string(MetricClass c) {
  switch (c) {
    case MetricClass::kQuality: return "quality";
    case MetricClass::kTimeLike: return "time";
    case MetricClass::kResource: return "resource";
    case MetricClass::kIgnored: return "ignored";
  }
  return "unknown";
}

namespace {

bool has_suffix(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

}  // namespace

MetricClass classify_metric(const std::string& name) {
  if (has_suffix(name, ".iterations") || has_suffix(name, ".t_us")) {
    return MetricClass::kIgnored;
  }
  if (name.compare(0, 4, "mem.") == 0 || name.compare(0, 7, "events.") == 0 ||
      name.compare(0, 4, "par.") == 0) {
    return MetricClass::kResource;
  }
  if (name.compare(0, 5, "span.") == 0 || has_suffix(name, ".real_time_ns") ||
      has_suffix(name, ".cpu_time_ns") || has_suffix(name, ".total_s") ||
      has_suffix(name, ".seconds")) {
    return MetricClass::kTimeLike;
  }
  const std::size_t dot = name.rfind('.');
  if (dot != std::string::npos && name.substr(dot + 1) == "T") {
    return MetricClass::kTimeLike;
  }
  return MetricClass::kQuality;
}

double time_noise_floor(const std::string& name) {
  if (has_suffix(name, "_ns")) return 1e6;  // 1 ms, metric in ns
  return 0.1;                               // 100 ms, metric in seconds
}

bool metric_regressed(const std::string& name, double baseline,
                      double candidate, const GateOptions& opt) {
  switch (classify_metric(name)) {
    case MetricClass::kIgnored:
    case MetricClass::kResource:
      return false;
    case MetricClass::kTimeLike: {
      if (std::isnan(baseline) || std::isnan(candidate)) {
        return std::isnan(baseline) != std::isnan(candidate);
      }
      const double floor = time_noise_floor(name);
      return candidate > std::max(baseline, floor) * opt.time_tolerance;
    }
    case MetricClass::kQuality: {
      if (std::isnan(baseline) || std::isnan(candidate)) {
        return std::isnan(baseline) != std::isnan(candidate);
      }
      const double tol =
          opt.rel_tolerance *
          std::max(std::fabs(baseline), std::fabs(candidate));
      return std::fabs(candidate - baseline) > tol + 1e-9;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Span-tree aggregation.

std::vector<SpanTreeNode> span_tree(const Registry& reg) {
  const std::vector<SpanEvent> spans = reg.spans();
  std::map<std::uint64_t, std::vector<const SpanEvent*>> by_thread;
  for (const SpanEvent& ev : spans) by_thread[ev.thread_id].push_back(&ev);

  struct Agg {
    long long count = 0;
    double total_us = 0.0;
  };
  std::map<std::string, Agg> agg;

  struct Slot {
    std::string path;
    double start_us = 0.0;
    double end_us = 0.0;
  };

  for (auto& [tid, list] : by_thread) {
    // Open order = ascending start (spans are recorded at close, so the
    // stored order is close order; re-sort).
    std::stable_sort(list.begin(), list.end(),
                     [](const SpanEvent* a, const SpanEvent* b) {
                       return a->start_us < b->start_us;
                     });
    std::vector<Slot> at_depth;
    for (const SpanEvent* ev : list) {
      const int d = ev->depth >= 0 ? ev->depth : 0;
      std::string path = ev->name;
      if (d > 0 && static_cast<int>(at_depth.size()) >= d) {
        const Slot& parent = at_depth[static_cast<std::size_t>(d - 1)];
        // Containment guard (1 µs clock-rounding slack): a helper thread
        // can inherit a depth from another run's task that already closed;
        // such a stale slot fails containment and the span roots itself.
        if (!parent.path.empty() && ev->start_us >= parent.start_us - 1.0 &&
            ev->start_us + ev->dur_us <= parent.end_us + 1.0) {
          path = parent.path + ";" + path;
        }
      }
      if (static_cast<int>(at_depth.size()) < d + 1) {
        at_depth.resize(static_cast<std::size_t>(d) + 1);
      }
      at_depth[static_cast<std::size_t>(d)] =
          Slot{path, ev->start_us, ev->start_us + ev->dur_us};
      Agg& a = agg[path];
      ++a.count;
      a.total_us += ev->dur_us;
    }
  }

  std::vector<SpanTreeNode> out;
  out.reserve(agg.size());
  for (const auto& [path, a] : agg) {
    out.push_back(SpanTreeNode{path, a.count, a.total_us * 1e-6});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Records.

std::string config_hash(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;  // FNV prime
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

namespace {

void append_string_object(
    std::ostringstream& out, const char* key,
    const std::vector<std::pair<std::string, std::string>>& entries) {
  out << "\"" << key << "\": {";
  bool first = true;
  for (const auto& [k, v] : entries) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << json_escape(k) << "\": \"" << json_escape(v) << "\"";
  }
  out << "}";
}

std::vector<std::pair<std::string, std::string>> parse_string_object(
    const JsonValue* v) {
  std::vector<std::pair<std::string, std::string>> out;
  if (v == nullptr || v->kind != JsonValue::Kind::kObject) return out;
  for (const auto& [k, val] : v->object) {
    if (val.kind == JsonValue::Kind::kString) out.emplace_back(k, val.string);
  }
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream out;
  out << in.rdbuf();
  if (in.bad()) throw std::runtime_error("error reading " + path);
  return out.str();
}

/// Appends one line to `path` (creating the file), with the same post-flush
/// stream check write_text_file applies: a truncated index entry must
/// surface, not silently corrupt the store.
void append_line(const std::string& path, const std::string& line) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (!out) throw std::runtime_error("cannot open " + path);
  out << line << '\n';
  out.flush();
  if (!out) throw std::runtime_error("error writing " + path);
}

}  // namespace

std::string run_record_json(const RunRecord& rec) {
  std::ostringstream out;
  out << "{\n\"schema\": \"" << json_escape(rec.schema) << "\",\n"
      << "\"id\": \"" << json_escape(rec.id) << "\",\n"
      << "\"title\": \"" << json_escape(rec.title) << "\",\n"
      << "\"unix_time\": " << json_num(rec.unix_time) << ",\n";
  append_string_object(out, "environment", rec.environment);
  out << ",\n\"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : rec.metrics) {
    if (!first) out << ", ";
    first = false;
    out << "\n\"" << json_escape(name) << "\": " << json_num(value);
  }
  out << "\n},\n\"span_tree\": [";
  first = true;
  for (const SpanTreeNode& node : rec.span_tree) {
    if (!first) out << ",";
    first = false;
    out << "\n{\"path\": \"" << json_escape(node.path)
        << "\", \"count\": " << node.count
        << ", \"total_s\": " << json_num(node.total_s) << "}";
  }
  out << "\n],\n";
  append_string_object(out, "artifacts", rec.artifacts);
  out << "\n}\n";
  return out.str();
}

RunRecord parse_run_record(const std::string& json) {
  const JsonValue doc = parse_json(json);
  if (doc.kind != JsonValue::Kind::kObject) {
    throw std::invalid_argument("run record: root is not an object");
  }
  RunRecord rec;
  const JsonValue* schema = doc.find("schema");
  if (schema == nullptr) {  // a flat BENCH_*.json metrics object
    rec.metrics = metrics_from_json(doc);
    return rec;
  }
  if (schema->kind == JsonValue::Kind::kString) rec.schema = schema->string;
  if (rec.schema.compare(0, 10, "xring.run/") != 0) {
    throw std::invalid_argument("run record: unknown schema \"" + rec.schema +
                                "\"");
  }
  if (const JsonValue* v = doc.find("id");
      v != nullptr && v->kind == JsonValue::Kind::kString) {
    rec.id = v->string;
  }
  if (const JsonValue* v = doc.find("title");
      v != nullptr && v->kind == JsonValue::Kind::kString) {
    rec.title = v->string;
  }
  if (const JsonValue* v = doc.find("unix_time");
      v != nullptr && v->kind == JsonValue::Kind::kNumber) {
    rec.unix_time = v->number;
  }
  rec.environment = parse_string_object(doc.find("environment"));
  if (const JsonValue* v = doc.find("metrics");
      v != nullptr && v->kind == JsonValue::Kind::kObject) {
    rec.metrics = metrics_from_json(*v);
  }
  if (const JsonValue* v = doc.find("span_tree");
      v != nullptr && v->kind == JsonValue::Kind::kArray) {
    for (const JsonValue& item : v->array) {
      SpanTreeNode node;
      if (const JsonValue* p = item.find("path");
          p != nullptr && p->kind == JsonValue::Kind::kString) {
        node.path = p->string;
      }
      if (const JsonValue* c = item.find("count");
          c != nullptr && c->kind == JsonValue::Kind::kNumber) {
        node.count = static_cast<long long>(c->number);
      }
      if (const JsonValue* t = item.find("total_s");
          t != nullptr && t->kind == JsonValue::Kind::kNumber) {
        node.total_s = t->number;
      }
      rec.span_tree.push_back(std::move(node));
    }
  }
  rec.artifacts = parse_string_object(doc.find("artifacts"));
  return rec;
}

// ---------------------------------------------------------------------------
// The store.

RunStore::RunStore(std::string root)
    : root_(root.empty() ? std::string(".") : std::move(root)) {}

std::string RunStore::index_path() const {
  return (fs::path(root_) / "index.jsonl").string();
}

namespace {

std::string generated_run_id() {
  static std::atomic<int> seq{0};
  const std::time_t now =
      std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm tm{};
#if defined(_WIN32)
  gmtime_s(&tm, &now);
#else
  gmtime_r(&now, &tm);
#endif
  char stamp[32];
  std::strftime(stamp, sizeof stamp, "%Y%m%dT%H%M%S", &tm);
  std::ostringstream out;
  out << stamp << "-" << static_cast<long long>(::getpid()) << "-"
      << seq.fetch_add(1, std::memory_order_relaxed);
  return out.str();
}

std::vector<std::pair<std::string, std::string>> automatic_environment() {
  std::vector<std::pair<std::string, std::string>> env;
  if (const char* jobs = std::getenv("XRING_JOBS");
      jobs != nullptr && *jobs != '\0') {
    env.emplace_back("xring_jobs_env", jobs);
  }
  const char* git = std::getenv("XRING_GIT_SHA");
  if (git == nullptr || *git == '\0') git = std::getenv("GITHUB_SHA");
  if (git != nullptr && *git != '\0') env.emplace_back("git", git);
  return env;
}

}  // namespace

std::string RunStore::record(const Registry& reg,
                             const RunRecordOptions& opts) {
  RunRecord rec;
  rec.id = opts.id.empty() ? generated_run_id() : opts.id;
  rec.title = opts.title;
  rec.unix_time = std::chrono::duration<double>(
                      std::chrono::system_clock::now().time_since_epoch())
                      .count();
  rec.environment = automatic_environment();
  for (const auto& kv : opts.extra_environment) rec.environment.push_back(kv);
  rec.metrics = reg.flatten();
  rec.span_tree = span_tree(reg);
  rec.artifacts = opts.artifacts;

  const fs::path dir = fs::path(root_) / rec.id;
  fs::create_directories(dir);
  rec.dir = dir.string();
  write_text_file((dir / "run.json").string(), run_record_json(rec));

  std::ostringstream line;
  line << "{\"id\": \"" << json_escape(rec.id) << "\", \"dir\": \""
       << json_escape(rec.id) << "\", \"title\": \"" << json_escape(rec.title)
       << "\", \"unix_time\": " << json_num(rec.unix_time) << "}";
  append_line(index_path(), line.str());
  return rec.id;
}

std::vector<RunStore::IndexEntry> RunStore::list() const {
  std::vector<IndexEntry> out;
  std::ifstream in(index_path(), std::ios::binary);
  if (!in) return out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const JsonValue doc = parse_json(line);
    IndexEntry entry;
    if (const JsonValue* v = doc.find("id");
        v != nullptr && v->kind == JsonValue::Kind::kString) {
      entry.id = v->string;
    }
    if (const JsonValue* v = doc.find("dir");
        v != nullptr && v->kind == JsonValue::Kind::kString) {
      entry.dir = v->string;
    }
    if (const JsonValue* v = doc.find("title");
        v != nullptr && v->kind == JsonValue::Kind::kString) {
      entry.title = v->string;
    }
    if (const JsonValue* v = doc.find("unix_time");
        v != nullptr && v->kind == JsonValue::Kind::kNumber) {
      entry.unix_time = v->number;
    }
    out.push_back(std::move(entry));
  }
  return out;
}

RunRecord RunStore::load(const std::string& id_or_path) const {
  // Resolution order: store id, run-directory path, run.json path.
  const fs::path in_store = fs::path(root_) / id_or_path / "run.json";
  fs::path path;
  if (fs::exists(in_store)) {
    path = in_store;
  } else if (fs::is_directory(id_or_path)) {
    path = fs::path(id_or_path) / "run.json";
  } else {
    path = id_or_path;
  }
  RunRecord rec = parse_run_record(read_file(path.string()));
  rec.dir = path.parent_path().string();
  if (rec.id.empty()) rec.id = id_or_path;
  return rec;
}

// ---------------------------------------------------------------------------
// Diffs.

RunDiff diff_runs(const RunRecord& a, const RunRecord& b,
                  const GateOptions& gate, const std::string& only_prefix) {
  RunDiff d;
  d.a = a;
  d.b = b;
  d.gate = gate;

  const auto in_scope = [&](const std::string& name) {
    return only_prefix.empty() ||
           name.compare(0, only_prefix.size(), only_prefix) == 0;
  };

  std::map<std::string, MetricDelta> deltas;
  for (const auto& [name, value] : a.metrics) {
    if (!in_scope(name)) continue;
    MetricDelta& md = deltas[name];
    md.name = name;
    md.a = value;
    md.in_a = true;
  }
  for (const auto& [name, value] : b.metrics) {
    if (!in_scope(name)) continue;
    MetricDelta& md = deltas[name];
    md.name = name;
    md.b = value;
    md.in_b = true;
  }

  d.deltas.reserve(deltas.size());
  for (auto& [name, md] : deltas) {
    md.cls = classify_metric(name);
    if (!md.in_a || !md.in_b) {
      ++d.one_sided;
      // A quality key the baseline has and the candidate lacks is a lost
      // result (a Table cell, a counter), so it fails the gate.
      if (md.in_a && md.cls == MetricClass::kQuality) {
        md.regressed = true;
        ++d.missing;
        ++d.regressions;
      }
    } else if (md.cls == MetricClass::kQuality ||
               md.cls == MetricClass::kTimeLike) {
      ++d.compared;
      md.regressed = metric_regressed(name, md.a, md.b, gate);
      if (md.regressed) ++d.regressions;
    } else {
      ++d.skipped;
    }
    d.deltas.push_back(md);
  }
  return d;
}

namespace {

bool is_missing(const MetricDelta& md) { return md.regressed && !md.in_b; }

std::string num_or_missing(const MetricDelta& md, bool a) {
  if (a ? !md.in_a : !md.in_b) return "null";
  return json_num(a ? md.a : md.b);
}

void emit_run_header_json(std::ostringstream& out, const char* key,
                          const RunRecord& rec) {
  out << "\"" << key << "\": {\"id\": \"" << json_escape(rec.id)
      << "\", \"title\": \"" << json_escape(rec.title)
      << "\", \"unix_time\": " << json_num(rec.unix_time) << "}";
}

}  // namespace

std::string run_diff_json(const RunDiff& d) {
  std::ostringstream out;
  out << "{\n\"schema\": \"xring.diff/1\",\n";
  emit_run_header_json(out, "a", d.a);
  out << ",\n";
  emit_run_header_json(out, "b", d.b);
  out << ",\n\"gate\": {\"time_tolerance\": " << json_num(d.gate.time_tolerance)
      << ", \"rel_tolerance\": " << json_num(d.gate.rel_tolerance) << "},\n"
      << "\"summary\": {\"compared\": " << d.compared
      << ", \"skipped\": " << d.skipped
      << ", \"regressions\": " << d.regressions
      << ", \"missing\": " << d.missing
      << ", \"one_sided\": " << d.one_sided << "},\n\"deltas\": [";
  bool first = true;
  for (const MetricDelta& md : d.deltas) {
    if (!first) out << ",";
    first = false;
    out << "\n{\"name\": \"" << json_escape(md.name) << "\", \"class\": \""
        << to_string(md.cls) << "\", \"a\": " << num_or_missing(md, true)
        << ", \"b\": " << num_or_missing(md, false)
        << ", \"regressed\": " << (md.regressed ? "true" : "false")
        << ", \"missing\": " << (is_missing(md) ? "true" : "false") << "}";
  }
  out << "\n]\n}\n";
  return out.str();
}

namespace {

std::string fmt_num(double v) {
  if (std::isnan(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// Span-tree rows of the diff: union of both trees' paths in path order
/// (which groups children after parents, since a child path extends its
/// parent's).
struct SpanDiffRow {
  std::string path;
  long long count_a = 0, count_b = 0;
  double total_a = 0.0, total_b = 0.0;
  bool in_a = false, in_b = false;
};

std::vector<SpanDiffRow> span_diff_rows(const RunDiff& d) {
  std::map<std::string, SpanDiffRow> rows;
  for (const SpanTreeNode& n : d.a.span_tree) {
    SpanDiffRow& r = rows[n.path];
    r.path = n.path;
    r.count_a = n.count;
    r.total_a = n.total_s;
    r.in_a = true;
  }
  for (const SpanTreeNode& n : d.b.span_tree) {
    SpanDiffRow& r = rows[n.path];
    r.path = n.path;
    r.count_b = n.count;
    r.total_b = n.total_s;
    r.in_b = true;
  }
  std::vector<SpanDiffRow> out;
  out.reserve(rows.size());
  for (auto& [path, r] : rows) out.push_back(std::move(r));
  return out;
}

}  // namespace

std::string run_diff_html(const RunDiff& d) {
  std::ostringstream out;
  out << "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n<title>"
      << html_escape("xring run diff: " + d.a.id + " vs " + d.b.id)
      << "</title>\n<style>\n"
      << "body{font:14px/1.45 system-ui,sans-serif;margin:24px;"
         "max-width:1100px}\n"
      << "table{border-collapse:collapse;margin:8px 0}\n"
      << "th,td{border:1px solid #ccc;padding:3px 8px;text-align:left}\n"
      << "td.num{text-align:right;font-variant-numeric:tabular-nums}\n"
      << "tr.bad td{background:#fde8e8}\n"
      << "tr.changed td{background:#fdf6e3}\n"
      << "td.cls{color:#666;font-size:12px}\n"
      << "details{margin:12px 0}\nsummary{font-weight:600;cursor:pointer}\n"
      << "code{background:#f4f4f4;padding:0 3px}\n"
      << "</style></head><body>\n<h1>xring run diff</h1>\n<p><b>A</b> "
      << html_escape(d.a.id) << " (" << html_escape(d.a.title)
      << ") &rarr; <b>B</b> " << html_escape(d.b.id) << " ("
      << html_escape(d.b.title) << ")</p>\n<p>" << d.compared
      << " metrics gated &middot; " << d.skipped
      << " skipped (resource/ignored) &middot; " << d.regressions
      << " regression(s) (" << d.missing << " missing) &middot; "
      << d.one_sided << " one-sided key(s)</p>\n";

  // Environment side-by-side.
  out << "<details open id=\"environment\"><summary>Environment</summary>\n"
      << "<table><tr><th>setting</th><th>A</th><th>B</th></tr>\n";
  std::map<std::string, std::pair<std::string, std::string>> env;
  for (const auto& [k, v] : d.a.environment) env[k].first = v;
  for (const auto& [k, v] : d.b.environment) env[k].second = v;
  for (const auto& [k, ab] : env) {
    out << "<tr><td>" << html_escape(k) << "</td><td>"
        << html_escape(ab.first) << "</td><td>" << html_escape(ab.second)
        << "</td></tr>\n";
  }
  out << "</table></details>\n";

  // Gated metric deltas, regressions first.
  out << "<details open id=\"gated\"><summary>Gated metrics (quality exact, "
         "time-like tolerance "
      << fmt_num(d.gate.time_tolerance)
      << "&times;)</summary>\n<table><tr><th>metric</th><th>class</th>"
         "<th>A</th><th>B</th><th>&Delta;</th><th>status</th></tr>\n";
  for (const bool want_regressed : {true, false}) {
    for (const MetricDelta& md : d.deltas) {
      const bool missing = is_missing(md);
      if (!(md.in_a && md.in_b) && !missing) continue;
      if (md.cls != MetricClass::kQuality && md.cls != MetricClass::kTimeLike) {
        continue;
      }
      if (md.regressed != want_regressed) continue;
      const bool changed = md.a != md.b && !(std::isnan(md.a) && std::isnan(md.b));
      out << "<tr" << (md.regressed ? " class=\"bad\"" : changed ? " class=\"changed\"" : "")
          << "><td><code>" << html_escape(md.name) << "</code></td><td "
          << "class=\"cls\">" << to_string(md.cls) << "</td><td class=\"num\">"
          << fmt_num(md.a) << "</td><td class=\"num\">"
          << (missing ? "missing" : fmt_num(md.b)) << "</td><td class=\"num\">"
          << (missing ? "-" : fmt_num(md.b - md.a)) << "</td><td>"
          << (missing ? "REGRESSION (missing)"
              : md.regressed ? "REGRESSION"
              : changed      ? "changed"
                             : "=")
          << "</td></tr>\n";
    }
  }
  out << "</table></details>\n";

  // Span-tree time diff.
  const std::vector<SpanDiffRow> spans = span_diff_rows(d);
  out << "<details open id=\"spans\"><summary>Span-tree time diff</summary>\n"
      << "<table><tr><th>span path</th><th>count A</th><th>count B</th>"
         "<th>total A (s)</th><th>total B (s)</th><th>&Delta; (s)</th>"
         "<th>ratio</th></tr>\n";
  for (const SpanDiffRow& r : spans) {
    const std::size_t depth =
        static_cast<std::size_t>(std::count(r.path.begin(), r.path.end(), ';'));
    const std::size_t leaf = r.path.rfind(';');
    const std::string name =
        leaf == std::string::npos ? r.path : r.path.substr(leaf + 1);
    out << "<tr><td style=\"padding-left:" << (8 + 16 * depth)
        << "px\" title=\"" << html_escape(r.path) << "\"><code>"
        << html_escape(name) << "</code></td><td class=\"num\">"
        << (r.in_a ? std::to_string(r.count_a) : "-") << "</td><td class=\"num\">"
        << (r.in_b ? std::to_string(r.count_b) : "-") << "</td><td class=\"num\">"
        << fmt_num(r.total_a) << "</td><td class=\"num\">" << fmt_num(r.total_b)
        << "</td><td class=\"num\">" << fmt_num(r.total_b - r.total_a)
        << "</td><td class=\"num\">"
        << (r.total_a > 0 ? fmt_num(r.total_b / r.total_a) : "-")
        << "</td></tr>\n";
  }
  out << "</table></details>\n";

  // Memory by phase (resource metrics ride along ungated).
  out << "<details open id=\"memory\"><summary>Memory by phase "
         "(never gated)</summary>\n<table><tr><th>metric</th><th>A</th>"
         "<th>B</th><th>&Delta;</th></tr>\n";
  bool any_mem = false;
  for (const MetricDelta& md : d.deltas) {
    if (md.name.compare(0, 4, "mem.") != 0) continue;
    any_mem = true;
    out << "<tr><td><code>" << html_escape(md.name)
        << "</code></td><td class=\"num\">" << (md.in_a ? fmt_num(md.a) : "-")
        << "</td><td class=\"num\">" << (md.in_b ? fmt_num(md.b) : "-")
        << "</td><td class=\"num\">"
        << (md.in_a && md.in_b ? fmt_num(md.b - md.a) : "-")
        << "</td></tr>\n";
  }
  if (!any_mem) {
    out << "<tr><td colspan=\"4\">no mem.* metrics recorded (profiling "
           "off)</td></tr>\n";
  }
  out << "</table></details>\n";

  // Everything, classed.
  out << "<details id=\"metrics\"><summary>All metrics</summary>\n"
      << "<table><tr><th>metric</th><th>class</th><th>A</th><th>B</th>"
         "</tr>\n";
  for (const MetricDelta& md : d.deltas) {
    out << "<tr><td><code>" << html_escape(md.name)
        << "</code></td><td class=\"cls\">" << to_string(md.cls)
        << "</td><td class=\"num\">" << (md.in_a ? fmt_num(md.a) : "-")
        << "</td><td class=\"num\">" << (md.in_b ? fmt_num(md.b) : "-")
        << "</td></tr>\n";
  }
  out << "</table></details>\n</body></html>\n";
  return out.str();
}

// ---------------------------------------------------------------------------
// Aggregation.

std::vector<MetricAggregate> aggregate_runs(const std::vector<RunRecord>& runs,
                                            const std::string& prefix) {
  std::map<std::string, MetricAggregate> agg;
  for (const RunRecord& rec : runs) {
    for (const auto& [name, value] : rec.metrics) {
      if (!prefix.empty() && name.compare(0, prefix.size(), prefix) != 0) {
        continue;
      }
      if (std::isnan(value)) continue;
      MetricAggregate& a = agg[name];
      if (a.count == 0) {
        a.name = name;
        a.min = a.max = value;
      } else {
        a.min = std::min(a.min, value);
        a.max = std::max(a.max, value);
      }
      ++a.count;
      a.sum += value;
    }
  }
  std::vector<MetricAggregate> out;
  out.reserve(agg.size());
  for (auto& [name, a] : agg) out.push_back(std::move(a));
  return out;
}

}  // namespace xring::obs
