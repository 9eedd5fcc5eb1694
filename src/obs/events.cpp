#include "obs/events.hpp"

#include <cmath>
#include <cstring>

#include "obs/context.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"

namespace xring::obs {

namespace {

bool starts_with(const char* s, const char* prefix) {
  return std::strncmp(s, prefix, std::strlen(prefix)) == 0;
}

/// The calling thread's sink: the installed context's event log, or
/// nullptr when no context (or a context without a log) is installed.
EventLog* installed_log() {
  const Context* c = current_context();
  return c != nullptr ? c->event_log() : nullptr;
}

}  // namespace

void EventLog::record(const char* kind,
                      std::initializer_list<events::Field> fields) {
  const double t_us = clock_.now_us();
  std::string line = "{\"t_us\":" + json_num(t_us) + ",\"kind\":\"" +
                     json_escape(kind) + "\"";
  for (const events::Field& f : fields) {
    line += ",\"" + json_escape(f.name) + "\":" + json_num(f.value);
  }
  line += "}";
  std::lock_guard<std::mutex> lock(mu_);
  lines_.push_back(std::move(line));
  if (progress_to_ != nullptr) {
    for (const events::Field& f : fields) {
      if (std::isnan(f.value)) continue;
      if (std::strcmp(f.name, "nodes") == 0) {
        p_nodes_ = f.value;
      } else if (std::strcmp(f.name, "open") == 0) {
        p_open_ = f.value;
      } else if (std::strcmp(f.name, "incumbent") == 0) {
        p_incumbent_ = f.value;
        p_has_incumbent_ = true;
      } else if (std::strcmp(f.name, "bound") == 0) {
        p_bound_ = f.value;
        p_has_bound_ = true;
      } else if (std::strcmp(f.name, "gap") == 0) {
        p_gap_ = f.value;
        p_has_gap_ = true;
      } else if (std::strcmp(f.name, "refactorizations") == 0) {
        p_refactorizations_ = f.value;
      }
    }
    update_progress_locked(kind, t_us);
  }
}

std::size_t EventLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lines_.size();
}

std::string EventLog::jsonl() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const std::string& line : lines_) {
    out += line;
    out += '\n';
  }
  return out;
}

void EventLog::write(const std::string& path) const {
  write_text_file(path, jsonl());
}

void EventLog::enable_progress(std::FILE* to, double min_interval_s) {
  std::lock_guard<std::mutex> lock(mu_);
  progress_to_ = to;
  progress_interval_us_ = min_interval_s * 1e6;
  progress_last_us_ = -1e300;
}

void EventLog::finish_progress() {
  std::lock_guard<std::mutex> lock(mu_);
  if (progress_to_ != nullptr && progress_printed_) {
    std::fputc('\n', progress_to_);
    std::fflush(progress_to_);
    progress_printed_ = false;
  }
}

void EventLog::update_progress_locked(const char* kind, double t_us) {
  const bool terminal = std::strcmp(kind, "milp.done") == 0;
  if (!starts_with(kind, "milp.") && !starts_with(kind, "lp.")) return;
  if (!terminal && t_us - progress_last_us_ < progress_interval_us_) return;
  progress_last_us_ = t_us;
  std::string line = "[progress]";
  char buf[64];
  std::snprintf(buf, sizeof buf, " t=%.1fs", t_us * 1e-6);
  line += buf;
  std::snprintf(buf, sizeof buf, " nodes=%.0f open=%.0f", p_nodes_, p_open_);
  line += buf;
  if (p_has_incumbent_) {
    std::snprintf(buf, sizeof buf, " incumbent=%.6g", p_incumbent_);
    line += buf;
  }
  if (p_has_bound_) {
    std::snprintf(buf, sizeof buf, " bound=%.6g", p_bound_);
    line += buf;
  }
  if (p_has_gap_) {
    std::snprintf(buf, sizeof buf, " gap=%.2f%%", p_gap_ * 100.0);
    line += buf;
  }
  if (p_refactorizations_ > 0) {
    std::snprintf(buf, sizeof buf, " refactor=%.0f", p_refactorizations_);
    line += buf;
  }
  std::fprintf(progress_to_, "\r%-78s", line.c_str());
  if (terminal) {
    std::fputc('\n', progress_to_);
    progress_printed_ = false;
  } else {
    progress_printed_ = true;
  }
  std::fflush(progress_to_);
}

namespace events {

bool enabled() { return installed_log() != nullptr; }

void emit(const char* kind, std::initializer_list<Field> fields) {
  EventLog* sink = installed_log();
  if (sink != nullptr) sink->record(kind, fields);
}

}  // namespace events
}  // namespace xring::obs
