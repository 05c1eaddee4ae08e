#ifndef TPIIN_SHARD_DETECT_H_
#define TPIIN_SHARD_DETECT_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "core/detector.h"
#include "shard/canonical.h"
#include "shard/manifest.h"

namespace tpiin {

class RunReport;

struct ShardDetectOptions {
  /// Threads inside one shard's detection; 0 auto-detects
  /// (ResolveThreadCount). Forced to 1 when shard_parallel > 1 (one
  /// level of parallelism at a time; results are identical either way).
  uint32_t num_threads = 1;
  /// Shards detected concurrently. 1 = sequential, the minimal-memory
  /// operating point.
  uint32_t shard_parallel = 1;
  /// Per-shard resource envelope (core/detector.h). A budget that binds
  /// marks the shard's result degraded; merge propagates the flag.
  RunBudget budget;
};

struct ShardDetectStats {
  uint64_t shards_detected = 0;
  uint64_t groups = 0;
  bool degraded = false;
  bool truncated = false;
};

/// Runs Algorithm 1 + scoring over every non-empty shard of the sharded
/// build in `dir` (written by BuildShards), producing one
/// `part-XXXXX.result` file per shard — each a self-contained, CRC'd
/// canonical-report serialization in global ids/labels. Shards are
/// mined sequentially (or `shard_parallel` at a time); each result file
/// is written atomically, so a crash leaves finished shards reusable.
/// `report`, when non-null, receives the resolved thread count, the
/// shard_detect stage and a "shard_detect" section.
Result<ShardDetectStats> DetectShards(const std::string& dir,
                                      const ShardDetectOptions& options,
                                      RunReport* report = nullptr);

/// `dir`-relative result path for one shard: the snapshot path with its
/// extension replaced by ".result".
std::string ShardResultPath(const std::string& dir,
                            const ShardManifest& manifest, uint32_t shard);

/// Serializes one shard's canonical report ("tpiin-shard-result v1"
/// text: counts line, tab-separated trade/intra lines with escaped
/// labels, CRC-32C trailer).
std::string SerializeShardResult(uint32_t shard,
                                 const CanonicalReport& report);

/// Strict inverse of SerializeShardResult; any truncation, bad escape,
/// CRC or shard-number mismatch is Corruption.
Result<CanonicalReport> ParseShardResult(const std::string& contents,
                                         const std::string& path,
                                         uint32_t expect_shard);

}  // namespace tpiin

#endif  // TPIIN_SHARD_DETECT_H_
