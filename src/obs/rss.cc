#include "obs/rss.h"

#include <cstdio>

#include "obs/metrics.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

namespace tpiin {

int64_t PeakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<int64_t>(usage.ru_maxrss);  // Bytes on Darwin.
#else
  return static_cast<int64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux.
#endif
#else
  return 0;
#endif
}

int64_t CurrentRssBytes() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long long total_pages = 0;
  long long resident_pages = 0;
  const int parsed =
      std::fscanf(f, "%lld %lld", &total_pages, &resident_pages);
  std::fclose(f);
  if (parsed != 2) return 0;
  return static_cast<int64_t>(resident_pages) *
         static_cast<int64_t>(::sysconf(_SC_PAGESIZE));
#else
  return 0;
#endif
}

int64_t SampleRssGauges() {
  const int64_t peak = PeakRssBytes();
  TPIIN_GAUGE_MAX("process.peak_rss_bytes", peak);
  TPIIN_GAUGE_SET("process.current_rss_bytes", CurrentRssBytes());
  return peak;
}

}  // namespace tpiin
