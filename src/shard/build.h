#ifndef TPIIN_SHARD_BUILD_H_
#define TPIIN_SHARD_BUILD_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "shard/manifest.h"

namespace tpiin {

class RunReport;

struct ShardBuildOptions {
  uint32_t num_shards = 1;
  /// Worker threads for each per-shard fusion (shards themselves build
  /// one at a time — that sequencing is the memory bound). 0
  /// auto-detects (ResolveThreadCount).
  uint32_t num_threads = 1;
  /// Per-(shard, table) routing buffer before an append flush. Small
  /// values bound router memory at high shard counts; large values cut
  /// open/append/close churn.
  size_t spill_buffer_bytes = 1 << 20;
  /// Keep the routed per-shard CSV spill directories after the build
  /// (debugging; they are normally deleted once the manifest commits).
  bool keep_spill = false;
  /// Precompute each shard snapshot's segmentation index.
  bool include_wcc_index = true;
};

/// Builds a sharded TPIIN out of the CSV dataset in `data_dir` without
/// ever materializing the whole population: pass 1 plans (streaming
/// union-find, see PlanShards), pass 2 routes raw rows verbatim into
/// per-shard spill datasets, then each shard is loaded, fused, and
/// written as a PR 5 snapshot one at a time — peak memory is
/// O(entities + largest shard), not O(dataset).
///
/// Output layout under `out_dir`:
///   part-00000.tpiin ...   per-shard snapshots (empty shards omitted)
///   part-00000.tpiin.gids  local->global company id sidecars
///   MANIFEST.shards        written last, atomically: its presence is
///                          the commit point (crash mid-build leaves
///                          finished shards valid and no manifest).
///
/// `report`, when non-null, receives the resolved thread count,
/// plan/route/fuse stages and a "shard" section.
Result<ShardManifest> BuildShards(const std::string& data_dir,
                                  const std::string& out_dir,
                                  const ShardBuildOptions& options,
                                  RunReport* report = nullptr);

}  // namespace tpiin

#endif  // TPIIN_SHARD_BUILD_H_
