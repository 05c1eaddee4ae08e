#ifndef TPIIN_CORE_DETECTOR_H_
#define TPIIN_CORE_DETECTOR_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/result.h"
#include "core/matcher.h"
#include "core/subtpiin.h"
#include "fusion/tpiin.h"

namespace tpiin {

class ArenaPool;

/// A suspicious trade internal to a contracted investment SCC (§4.3
/// closing remark): seller and buyer sit in one strongly connected
/// shareholding circle, so a proof chain (the `chain` of original
/// companies from seller to buyer along internal investment arcs) always
/// exists and the trade is suspicious unconditionally.
struct IntraSyndicateFinding {
  NodeId syndicate_node = kInvalidNode;
  CompanyId seller = 0;
  CompanyId buyer = 0;
  /// seller, ..., buyer along internal investment arcs.
  std::vector<CompanyId> chain;
};

/// Resource envelope for one detection run (graceful degradation, §7's
/// "big data" operating point). All limits default to 0 = unlimited, in
/// which case detection behaves exactly as before — bit-identical at any
/// thread count. When a limit binds, the run *completes* with partial
/// results instead of failing: over-cap subTPIINs are skipped with a
/// recorded reason, over-deadline pattern walks truncate cleanly, and
/// the result carries `degraded = true` so callers (and the CLI, via
/// exit code 2) can tell a full answer from a best-effort one.
struct RunBudget {
  /// Wall-clock budget for the whole DetectSuspiciousGroups call,
  /// measured from its entry. Once expired, subTPIINs not yet started
  /// are skipped (reason kDeadline) and in-flight pattern walks
  /// truncate at their next poll.
  double deadline_seconds = 0;

  /// Per-subTPIIN slice: each subTPIIN's pattern generation gets at
  /// most this much wall time (the sooner of slice and global deadline
  /// applies), so one pathological component cannot starve the rest.
  double sub_slice_seconds = 0;

  /// Structural caps decided *before* mining in emission-index order —
  /// deterministic regardless of thread count or machine speed.
  /// SubTPIINs whose node/arc count exceeds a cap are skipped whole
  /// (reasons kNodeCap / kArcCap).
  size_t max_sub_nodes = 0;
  size_t max_sub_arcs = 0;

  bool Unlimited() const {
    return deadline_seconds <= 0 && sub_slice_seconds <= 0 &&
           max_sub_nodes == 0 && max_sub_arcs == 0;
  }
};

/// Why a subTPIIN produced no (or partial) mining output.
enum class SubSkip : uint8_t {
  kNone = 0,          ///< Mined normally.
  kNodeCap,           ///< Skipped: nodes > budget.max_sub_nodes.
  kArcCap,            ///< Skipped: arcs > budget.max_sub_arcs.
  kDeadline,          ///< Skipped: global deadline expired before start.
  kSliceTruncated,    ///< Mined, but the pattern walk hit its time slice
                      ///< (or the global deadline) and truncated.
};

/// Stable lowercase token for reports ("none", "node_cap", ...).
const char* SubSkipName(SubSkip skip);

struct DetectorOptions {
  MatchOptions match;
  /// Detect intra-syndicate trades.
  bool include_intra_syndicate = true;
  /// Trail-generation safety valves (0 = unlimited).
  size_t max_trails_per_subtpiin = 0;

  /// Worker threads for the per-subTPIIN stage (§7's parallel-processing
  /// direction; subTPIINs are independent by construction). 0 auto-detects
  /// hardware_concurrency(); 1 runs single-threaded. Work is executed on
  /// the shared persistent ThreadPool (no per-call thread spawn). Results
  /// are identical for any thread count; only the per-stage timing
  /// attribution differs (worker time is summed).
  uint32_t num_threads = 1;

  /// Optional caller-owned buffer pool (core/arena_pool.h), sized by the
  /// previous run: each worker acquires a recycled patterns tree per
  /// subTPIIN and releases it after matching, so repeated
  /// DetectSuspiciousGroups calls — the serving-style workload — stop
  /// reallocating generation storage. Must outlive the call; safe to
  /// share across concurrent calls. Results are identical with or
  /// without a pool.
  ArenaPool* arena_pool = nullptr;

  /// Resource envelope; all-zero (the default) means unlimited and
  /// changes nothing. See RunBudget.
  RunBudget budget;
};

/// Wall-clock attribution across Algorithm 1's stages. The wall stages
/// (segment + mine + finalize) partition the run, so their sum tracks
/// total_seconds; pattern/match_seconds are *worker* time summed across
/// threads inside the mine stage and can exceed mine_seconds.
struct DetectionTimings {
  double segment_seconds = 0;
  double mine_seconds = 0;      ///< Parallel per-subTPIIN stage (wall).
  double finalize_seconds = 0;  ///< Merge + dedup + intra-syndicate.
  double pattern_seconds = 0;   ///< Summed worker pattern-gen time.
  double match_seconds = 0;     ///< Summed worker matching time.
  double total_seconds = 0;
  double segment_cpu_seconds = 0;
  double mine_cpu_seconds = 0;
  double finalize_cpu_seconds = 0;
};

/// Per-subTPIIN work profile, kept for report breakdowns (the top-K
/// slowest table). Index-addressed, so identical at any thread count.
struct SubTpiinProfile {
  size_t index = 0;       ///< SegmentTpiin emission order.
  size_t num_nodes = 0;
  size_t num_arcs = 0;
  size_t num_trails = 0;
  size_t num_groups = 0;  ///< Matched groups (all kinds).
  double pattern_seconds = 0;
  double match_seconds = 0;
  /// Degradation record: anything but kNone means this subTPIIN's
  /// contribution is missing or partial (see RunBudget).
  SubSkip skip = SubSkip::kNone;
  double Seconds() const { return pattern_seconds + match_seconds; }
};

/// Aggregated output of Algorithm 1 over a whole TPIIN.
struct DetectionResult {
  std::vector<SuspiciousGroup> groups;  // Iff options.match.collect_groups.
  std::vector<IntraSyndicateFinding> intra_syndicate;

  size_t num_simple = 0;        // Pairwise simple groups.
  size_t num_complex = 0;       // Pairwise complex groups.
  size_t num_cycle_groups = 0;  // In-trail circle groups.

  /// Seller/buyer TPIIN node pairs of suspicious trading arcs, sorted and
  /// deduplicated (excludes intra-syndicate trades, reported above).
  std::vector<std::pair<NodeId, NodeId>> suspicious_trades;

  size_t total_trading_arcs = 0;  // Trading arcs in the TPIIN.
  size_t num_subtpiins = 0;
  size_t num_trails = 0;          // Component patterns generated.
  bool truncated = false;

  /// True when the run completed under a binding RunBudget limit:
  /// groups/trades are a sound but possibly incomplete answer. The CLI
  /// maps this to exit code 2. num_skipped_subs counts whole-subTPIIN
  /// skips (kNodeCap/kArcCap/kDeadline); slice truncations are visible
  /// per profile.
  bool degraded = false;
  size_t num_skipped_subs = 0;

  DetectionTimings timings;
  SegmentStats segment_stats;
  /// One profile per subTPIIN, in emission order.
  std::vector<SubTpiinProfile> sub_profiles;

  size_t TotalGroups() const {
    return num_simple + num_complex + num_cycle_groups +
           intra_syndicate.size();
  }

  /// Fraction of trading arcs flagged suspicious (Table 1 last column),
  /// in percent.
  double SuspiciousTradePercent() const;

  std::string Summary() const;
};

/// Algorithm 1: segments `net` into subTPIINs, generates each potential
/// component patterns base (Algorithm 2), matches component patterns
/// into suspicious groups, and handles intra-syndicate trades.
Result<DetectionResult> DetectSuspiciousGroups(
    const Tpiin& net, const DetectorOptions& options = {});

class RunReport;

/// Folds a detection run into `report`: the wall stages (segment, mine,
/// finalize), a "detection" section of scalar counts, a "segmentation"
/// section mirroring SegmentStats, and a "slowest_subtpiins" table of
/// the top-`top_k` subTPIINs by worker seconds.
void AddDetectionToReport(const DetectionResult& result, size_t top_k,
                          RunReport* report);

}  // namespace tpiin

#endif  // TPIIN_CORE_DETECTOR_H_
