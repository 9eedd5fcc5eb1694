#include "obs/sampler.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "obs/export.hpp"
#include "obs/memprof.hpp"

namespace xring::obs {

PhaseSampler::PhaseSampler(Registry* reg, long long interval_us)
    : reg_(reg), interval_us_(interval_us > 0 ? interval_us : 2000) {}

PhaseSampler::~PhaseSampler() { stop(); }

void PhaseSampler::start() {
  if (running_.load(std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = false;
  }
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { run(); });
}

void PhaseSampler::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
  // One final sample so even sub-interval runs record at least one point,
  // then the process-wide gauges for the exporters.
  sample_once();
  memprof::publish(*reg_);
}

void PhaseSampler::run() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_requested_) {
    lock.unlock();
    sample_once();
    lock.lock();
    cv_.wait_for(lock, std::chrono::microseconds(interval_us_),
                 [this] { return stop_requested_; });
  }
}

void PhaseSampler::sample_once() {
  reg_->append_series("mem.rss_bytes",
                      static_cast<double>(memprof::rss_bytes()));
  const std::vector<ThreadPath> paths = open_span_paths();
  std::lock_guard<std::mutex> lock(mu_);
  for (const ThreadPath& path : paths) {
    if (path.names.empty() && path.label.empty()) continue;
    std::string key = path.label;
    for (const char* name : path.names) {
      if (!key.empty()) key += ';';
      key += name;
    }
    ++counts_[key];
  }
  samples_.fetch_add(1, std::memory_order_acq_rel);
}

std::map<std::string, long long> PhaseSampler::folded_counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}

std::string PhaseSampler::folded() const {
  std::ostringstream out;
  for (const auto& [path, count] : folded_counts()) {
    out << path << ' ' << count << '\n';
  }
  return out.str();
}

void PhaseSampler::write_folded(const std::string& path) const {
  write_text_file(path, folded());
}

std::map<std::string, SpanRss> rss_by_span(const Registry& reg) {
  std::map<std::string, SpanRss> out;
  const auto series = reg.series();
  const auto it = series.find("mem.rss_bytes");
  if (it == series.end() || it->second.empty()) return out;
  const std::vector<SeriesPoint>& rss = it->second;  // appended in time order
  for (const SpanEvent& ev : reg.spans()) {
    // First sample at or after the span start (the series is sorted by t).
    auto lo = std::lower_bound(
        rss.begin(), rss.end(), ev.start_us,
        [](const SeriesPoint& p, double t) { return p.t_us < t; });
    double peak = 0.0;
    long long n = 0;
    for (auto p = lo; p != rss.end() && p->t_us <= ev.start_us + ev.dur_us;
         ++p) {
      peak = std::max(peak, p->value);
      ++n;
    }
    if (n == 0) continue;
    // RSS entering the span: the last sample before it opened, or the first
    // inside it when the span opened before sampling began.
    const double start = lo != rss.begin() ? std::prev(lo)->value : lo->value;
    SpanRss& agg = out[ev.name];
    if (peak > agg.peak_bytes) {
      agg.peak_bytes = peak;
      agg.start_bytes = start;
    }
    agg.samples += n;
  }
  return out;
}

}  // namespace xring::obs
