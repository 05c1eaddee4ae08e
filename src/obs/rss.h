#ifndef TPIIN_OBS_RSS_H_
#define TPIIN_OBS_RSS_H_

#include <cstdint>

namespace tpiin {

/// High-water resident set size of this process in bytes: getrusage
/// ru_maxrss, raised to any larger CurrentRssBytes() already returned
/// (the two are separate kernel counters). Monotone over the process
/// lifetime — it never decreases even after memory is released — so
/// out-of-core claims must be measured in a fresh process per
/// configuration. Returns 0 when the platform cannot report it.
int64_t PeakRssBytes();

/// Instantaneous resident set size in bytes (/proc/self/statm); never
/// above a PeakRssBytes() read after it. Returns 0 on platforms without
/// procfs.
int64_t CurrentRssBytes();

/// Samples both sizes into the global MetricsRegistry:
/// `process.peak_rss_bytes` (a running-max gauge) and
/// `process.current_rss_bytes`. Called at stage boundaries
/// (RunReport::AddStage) so memory-boundedness is observable in every
/// run report, not just claimed. Returns the peak in bytes.
int64_t SampleRssGauges();

}  // namespace tpiin

#endif  // TPIIN_OBS_RSS_H_
