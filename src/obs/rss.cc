#include "obs/rss.h"

#include <atomic>
#include <cstdio>

#include "obs/metrics.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

namespace tpiin {

namespace {

// ru_maxrss and /proc/self/statm are two kernel counters, and a statm
// read routinely exceeds a later ru_maxrss by a few dozen pages. Every
// size either function returns folds into this process-wide running
// maximum, so a returned peak never falls below a current size already
// returned and never decreases.
std::atomic<int64_t> g_rss_high_water{0};

int64_t RaiseHighWater(int64_t bytes) {
  int64_t seen = g_rss_high_water.load(std::memory_order_relaxed);
  while (bytes > seen && !g_rss_high_water.compare_exchange_weak(
                             seen, bytes, std::memory_order_relaxed)) {
  }
  return bytes > seen ? bytes : seen;
}

int64_t KernelPeakRssBytes() {
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

int64_t KernelCurrentRssBytes() {
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

}  // namespace

int64_t PeakRssBytes() {
  const int64_t kernel_peak = KernelPeakRssBytes();
  if (kernel_peak == 0) return 0;
  return RaiseHighWater(kernel_peak);
}

int64_t CurrentRssBytes() {
  const int64_t current = KernelCurrentRssBytes();
  RaiseHighWater(current);
  return current;
}

int64_t SampleRssGauges() {
  // Current first: the peak read after it is then never below it.
  [[maybe_unused]] const int64_t current = CurrentRssBytes();
  const int64_t peak = PeakRssBytes();
  TPIIN_GAUGE_MAX("process.peak_rss_bytes", peak);
  TPIIN_GAUGE_SET("process.current_rss_bytes", current);
  return peak;
}

}  // namespace tpiin
