#include "obs/obs.hpp"

#include <algorithm>
#include <array>
#include <thread>

#include "obs/context.hpp"

namespace xring::obs {

namespace {

using Clock = std::chrono::steady_clock;

/// Per-thread span nesting level; roots open at depth 0.
thread_local int t_depth = 0;

std::uint64_t this_thread_id() {
  return static_cast<std::uint64_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

// ---------------------------------------------------------------------------
// Per-thread open-span stacks, published for the phase sampler. The recording
// side (Span open/close) writes only its own thread's slots with relaxed
// atomics; the sampler reads every registered stack under the registration
// mutex. A racing sample can pair a new depth with an old frame (or vice
// versa) — both are valid paths the thread held an instant apart, which is
// exactly the resolution a statistical profiler has anyway.

constexpr int kMaxSampledDepth = 64;

struct ThreadStack {
  std::uint64_t id = 0;
  std::atomic<const char*> label{nullptr};
  std::atomic<int> depth{0};
  std::array<std::atomic<const char*>, kMaxSampledDepth> names{};
};

// Both intentionally leaked (never destroyed): pool worker threads are
// joined by static destructors that may run *after* these objects' atexit
// hooks would have fired, and every exiting thread's StackRegistration
// destructor must find the lock and the list alive whenever it runs.
std::mutex& stacks_mutex() {
  static std::mutex* mu = new std::mutex;
  return *mu;
}

std::vector<ThreadStack*>& stacks_list() {
  static std::vector<ThreadStack*>* list = new std::vector<ThreadStack*>();
  return *list;
}

/// Registers the stack for the thread's lifetime; the destructor runs at
/// thread exit and withdraws it before the storage dies.
struct StackRegistration {
  ThreadStack stack;
  StackRegistration() {
    stack.id = this_thread_id();
    std::lock_guard<std::mutex> lock(stacks_mutex());
    stacks_list().push_back(&stack);
  }
  ~StackRegistration() {
    std::lock_guard<std::mutex> lock(stacks_mutex());
    auto& list = stacks_list();
    list.erase(std::remove(list.begin(), list.end(), &stack), list.end());
  }
};

ThreadStack& thread_stack() {
  thread_local StackRegistration reg;
  return reg.stack;
}

void push_open_span(const char* name) {
  ThreadStack& st = thread_stack();
  const int d = st.depth.load(std::memory_order_relaxed);
  if (d >= 0 && d < kMaxSampledDepth) {
    st.names[static_cast<std::size_t>(d)].store(name,
                                                std::memory_order_relaxed);
  }
  st.depth.store(d + 1, std::memory_order_release);
}

void pop_open_span() {
  ThreadStack& st = thread_stack();
  const int d = st.depth.load(std::memory_order_relaxed);
  if (d > 0) st.depth.store(d - 1, std::memory_order_release);
}

}  // namespace

void set_thread_label(const char* label) {
  thread_stack().label.store(label, std::memory_order_release);
}

std::vector<ThreadPath> open_span_paths() {
  std::vector<ThreadPath> out;
  std::lock_guard<std::mutex> lock(stacks_mutex());
  for (const ThreadStack* st : stacks_list()) {
    ThreadPath path;
    path.thread_id = st->id;
    if (const char* label = st->label.load(std::memory_order_acquire)) {
      path.label = label;
    }
    const int depth = std::min(st->depth.load(std::memory_order_acquire),
                               kMaxSampledDepth);
    for (int i = 0; i < depth; ++i) {
      const char* name =
          st->names[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
      if (name != nullptr) path.names.push_back(name);
    }
    out.push_back(std::move(path));
  }
  return out;
}

void Histogram::observe(double v) {
  std::lock_guard<std::mutex> lock(mu_);
  if (snap_.count == 0) {
    snap_.min = snap_.max = v;
  } else {
    snap_.min = std::min(snap_.min, v);
    snap_.max = std::max(snap_.max, v);
  }
  ++snap_.count;
  snap_.sum += v;
}

HistogramSnapshot Histogram::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snap_;
}

const char* to_string(Severity s) {
  switch (s) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "unknown";
}

Registry::Registry() : epoch_(Clock::now()) {}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_[name];
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return gauges_[name];
}

Histogram& Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return histograms_[name];
}

void Registry::append_series(const std::string& name, double value) {
  const double t = now_us();
  std::lock_guard<std::mutex> lock(mu_);
  series_[name].push_back(SeriesPoint{t, value});
}

void Registry::diagnose(Diagnostic d) {
  d.t_us = now_us();
  std::lock_guard<std::mutex> lock(mu_);
  diagnostics_.push_back(std::move(d));
}

void Registry::record_span(SpanEvent ev) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(ev));
}

double Registry::now_us() const { return to_epoch_us(Clock::now()); }

double Registry::to_epoch_us(Clock::time_point t) const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::chrono::duration<double, std::micro>(t - epoch_).count();
}

std::vector<SpanEvent> Registry::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, long long> Registry::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, long long> out;
  for (const auto& [name, c] : counters_) out[name] = c.value();
  return out;
}

std::map<std::string, double> Registry::gauges() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const auto& [name, g] : gauges_) out[name] = g.value();
  return out;
}

std::map<std::string, HistogramSnapshot> Registry::histograms() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, HistogramSnapshot> out;
  for (const auto& [name, h] : histograms_) out[name] = h.snapshot();
  return out;
}

std::map<std::string, std::vector<SeriesPoint>> Registry::series() const {
  std::lock_guard<std::mutex> lock(mu_);
  return series_;
}

std::vector<Diagnostic> Registry::diagnostics() const {
  std::lock_guard<std::mutex> lock(mu_);
  return diagnostics_;
}

std::map<std::string, double> Registry::flatten() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const auto& [name, c] : counters_) {
    out[name] = static_cast<double>(c.value());
  }
  for (const auto& [name, g] : gauges_) out[name] = g.value();
  for (const auto& [name, h] : histograms_) {
    const HistogramSnapshot s = h.snapshot();
    out[name + ".count"] = static_cast<double>(s.count);
    // An unobserved histogram has no sum/mean/min/max; emitting zeros would
    // read as a real observation of 0.
    if (s.count == 0) continue;
    out[name + ".sum"] = s.sum;
    out[name + ".mean"] = s.mean();
    out[name + ".min"] = s.min;
    out[name + ".max"] = s.max;
  }
  for (const auto& [name, points] : series_) {
    out[name + ".count"] = static_cast<double>(points.size());
    if (!points.empty()) out[name + ".last"] = points.back().value;
  }
  // Aggregate spans by name: invocation count and total wall time.
  struct SpanAgg {
    long long count = 0;
    double total_us = 0.0;
  };
  std::map<std::string, SpanAgg> by_name;
  for (const SpanEvent& ev : spans_) {
    SpanAgg& agg = by_name[ev.name];
    ++agg.count;
    agg.total_us += ev.dur_us;
  }
  for (const auto& [name, agg] : by_name) {
    out["span." + name + ".count"] = static_cast<double>(agg.count);
    out["span." + name + ".total_s"] = agg.total_us * 1e-6;
  }
  if (!diagnostics_.empty()) {
    for (const Diagnostic& d : diagnostics_) {
      out[std::string("diag.") + to_string(d.severity)] += 1.0;
    }
  }
  return out;
}

void diagnose(Severity severity, std::string code, std::string message,
              std::vector<std::pair<std::string, std::string>> context) {
  Context* ctx = current_context();
  if (ctx == nullptr) return;
  Diagnostic d;
  d.severity = severity;
  d.code = std::move(code);
  d.message = std::move(message);
  d.context = std::move(context);
  ctx->registry().diagnose(std::move(d));
}

Span::Span(const char* name) : name_(name), start_(Clock::now()) {
  if (Context* ctx = current_context()) {
    reg_ = &ctx->registry();
    depth_ = t_depth++;
    push_open_span(name_);
  }
}

double Span::elapsed_seconds() const {
  return std::chrono::duration<double>(Clock::now() - start_).count();
}

void Span::close() {
  if (reg_ == nullptr) return;
  Registry* reg = std::exchange(reg_, nullptr);
  --t_depth;
  pop_open_span();
  const Clock::time_point end = Clock::now();
  SpanEvent ev;
  ev.name = name_;
  ev.start_us = reg->to_epoch_us(start_);
  ev.dur_us = std::chrono::duration<double, std::micro>(end - start_).count();
  ev.depth = depth_;
  ev.thread_id = this_thread_id();
  reg->record_span(std::move(ev));
}

}  // namespace xring::obs
