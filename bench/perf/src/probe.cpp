#include "probe.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>

namespace perf {

namespace {

/// Pause between probe sorts: the probe takes about 4% of one processor.
constexpr std::chrono::milliseconds kPeriod{25};

/// 16 Ki keys (128 KiB) fit a core's private cache, so the probe measures
/// the processor rather than memory traffic.
constexpr std::size_t kKeys = std::size_t{1} << 14;

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

SpeedProbe::SpeedProbe() { thread_ = std::thread([this] { loop(); }); }

SpeedProbe::~SpeedProbe() { stop(); }

void SpeedProbe::stop() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

double SpeedProbe::sort_seconds() const {
  std::vector<double> v;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    v = samples_;
  }
  if (v.empty()) throw std::logic_error("the speed probe has no sample");
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

double SpeedProbe::cpu_seconds() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return cpu_s_;
}

void SpeedProbe::loop() {
  std::vector<std::uint64_t> keys(kKeys);
  std::uint64_t state = 0x5eed;
  for (std::uint64_t& k : keys) k = splitmix(state);
  std::vector<std::uint64_t> work(kKeys);
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    lock.unlock();
    std::copy(keys.begin(), keys.end(), work.begin());
    const double t0 = thread_cpu_seconds();
    std::sort(work.begin(), work.end());
    const double t1 = thread_cpu_seconds();
    lock.lock();
    median_key_ = work[kKeys / 2];  // uses the sort's result
    samples_.push_back(t1 - t0);
    cpu_s_ = t1;
    cv_.wait_for(lock, kPeriod, [this] { return stop_; });
  }
}

}  // namespace perf
