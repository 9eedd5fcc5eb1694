#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hpp"

namespace xring::obs {

/// JSON string escaping shared by every JSON emitter (exporters here, run
/// reports in xring_report).
std::string json_escape(const std::string& s);

/// HTML text/attribute escaping (& < > ") shared by the HTML reports (run
/// reports in xring_report, run diffs here).
std::string html_escape(const std::string& s);

/// JSON number formatting: shortest round-trippable form; NaN/Inf become
/// null (JSON has neither).
std::string json_num(double v);

/// Chrome trace_event JSON ("X" complete events for spans, "C" counter
/// events for series). Load the file at chrome://tracing or ui.perfetto.dev.
std::string trace_json(const Registry& reg);

/// Flat `{"name": value, ...}` JSON of Registry::flatten(), sorted by name.
std::string metrics_json(const Registry& reg);

/// Two-column `name,value` CSV (header row included) of Registry::flatten().
std::string metrics_csv(const Registry& reg);

/// Minimal JSON document, the reader side of the structured exporters
/// (trace JSON, run-report JSON, event JSONL lines). Object members keep
/// emission order; find() does a linear key lookup (documents here are
/// small). Numbers are doubles, JSON null maps to kNull.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// First member named `key`, or nullptr (also when not an object).
  const JsonValue* find(const std::string& key) const;
};

/// Parses one complete JSON document (any value type at the root). Throws
/// std::invalid_argument on malformed input or trailing content — the
/// round-trip tests lean on that strictness to certify the writers.
JsonValue parse_json(const std::string& text);

/// Inverse of metrics_json: parses a flat `{"name": value, ...}` object
/// (string keys, numeric or null values; null becomes NaN). This is the
/// reader side of the BENCH_*.json reports — `xring_runs diff` diffs two
/// of them. Throws std::invalid_argument on anything that is not a flat
/// one-level object of numbers.
std::map<std::string, double> metrics_from_json(const std::string& json);

/// The same conversion for a document parse_json already read.
std::map<std::string, double> metrics_from_json(const JsonValue& doc);

/// JSON array of every recorded diagnostic, in emission order:
/// [{"severity": "...", "code": "...", "message": "...", "t_us": ...,
///   "context": {"k": "v", ...}}, ...].
std::string diagnostics_json(const Registry& reg);

/// Writes `content` to `path`, checking the stream state *after* writing
/// and flushing: a full disk or a closed pipe fails the write, not the
/// open, and must surface as std::runtime_error, never as a silently
/// truncated artifact. Shared by every artifact emitter (exporters here,
/// run reports in xring_report).
void write_text_file(const std::string& path, const std::string& content);

// File-writing wrappers; throw std::runtime_error when the file can't be
// opened or the write doesn't reach the disk intact (full disk, closed
// pipe).
void write_trace_json(const std::string& path, const Registry& reg);
void write_metrics_json(const std::string& path, const Registry& reg);
void write_metrics_csv(const std::string& path, const Registry& reg);

}  // namespace xring::obs
