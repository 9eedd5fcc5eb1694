#include "obs/memprof.hpp"

#include <cstdio>

#include "obs/obs.hpp"

#if defined(__linux__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

namespace xring::obs::memprof {

long long rss_bytes() noexcept {
#if defined(__linux__)
  // /proc/self/statm: size resident shared text lib data dt (pages).
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f != nullptr) {
    long long size_pages = 0, resident_pages = 0;
    const int got = std::fscanf(f, "%lld %lld", &size_pages, &resident_pages);
    std::fclose(f);
    if (got == 2) {
      const long long page = static_cast<long long>(::sysconf(_SC_PAGESIZE));
      return resident_pages * page;
    }
  }
  return 0;
#else
  return 0;
#endif
}

long long peak_rss_bytes() noexcept {
#if defined(__linux__) || defined(__APPLE__)
  struct rusage ru;
  if (::getrusage(RUSAGE_SELF, &ru) == 0) {
#if defined(__APPLE__)
    return static_cast<long long>(ru.ru_maxrss);  // bytes on macOS
#else
    return static_cast<long long>(ru.ru_maxrss) * 1024;  // KiB on Linux
#endif
  }
  return 0;
#else
  return 0;
#endif
}

void publish(Registry& reg) {
  reg.gauge("mem.rss_bytes").set(static_cast<double>(rss_bytes()));
  reg.gauge("mem.peak_rss_bytes").set(static_cast<double>(peak_rss_bytes()));
}

}  // namespace xring::obs::memprof
