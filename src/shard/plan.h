#ifndef TPIIN_SHARD_PLAN_H_
#define TPIIN_SHARD_PLAN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "io/ingest.h"

namespace tpiin {

/// One trades.csv row as the planning pass resolved it.
struct PlannedTrade {
  std::string_view raw;  ///< The row as read; valid during the call only.
  uint32_t seller = 0;   ///< Dense company index.
  uint32_t buyer = 0;    ///< Dense company index.
  /// The endpoints lie in different antecedent components.
  bool cross = false;
  /// The seller's component (the buyer's too, unless `cross`).
  uint32_t component = 0;
};

struct ShardPlanOptions {
  uint32_t num_shards = 1;
  /// Optional: receives every trades.csv row in row order, as the trade
  /// scan resolves it, so a shard build reads trades.csv only once.
  /// Without it the rows are only counted.
  std::function<Status(const PlannedTrade&)> trade_sink = nullptr;
};

/// The out-of-core partition decision: every antecedent weakly connected
/// component (computed by a streaming union-find over the relation CSVs,
/// never materializing the dataset) is assigned whole to one shard.
/// Components are the paper's Algorithm 1 segmentation unit — no
/// suspicious group, proof chain or SCC ever spans two of them — so any
/// component-preserving partition mines to identical results.
struct ShardPlan {
  uint32_t num_shards = 0;
  uint64_t num_persons = 0;
  uint64_t num_companies = 0;
  uint64_t num_components = 0;

  /// Dense entity index -> antecedent component (component ids are
  /// first-appearance dense, so the plan is deterministic).
  std::vector<uint32_t> person_component;
  std::vector<uint32_t> company_component;
  /// Component -> shard, balanced greedily by row weight.
  std::vector<uint32_t> component_shard;
  /// Planned row weight per shard (entities + relation + intra trades).
  std::vector<uint64_t> shard_weight;

  /// Id lookup for the routing pass (second streaming pass). Dense
  /// indices here match LoadDatasetCsv's remapping (id column order = row
  /// order), which is what makes a per-shard load agree with the global
  /// one.
  EntityIdIndex person_index;
  EntityIdIndex company_index;

  /// Trading-layer census from the planning pass. Rows whose endpoints
  /// lie in different components are counted cross (they cannot be
  /// suspicious — no common antecedent — and are not routed to shards).
  uint64_t trade_rows = 0;
  uint64_t cross_trade_rows = 0;

  uint32_t ShardOfPersonRow(uint64_t dense_index) const {
    return component_shard[person_component[dense_index]];
  }
  uint32_t ShardOfCompanyRow(uint64_t dense_index) const {
    return component_shard[company_component[dense_index]];
  }
};

/// First streaming pass: scans the six CSV tables of `data_dir` once
/// (strict ingest that resolves ids only — shard building wants clean
/// input; run the hardened single-process loader to triage a damaged
/// extract; errors name the table and line), unions persons
/// and companies over interdependence/influence/investment rows, hands
/// each trade to `options.trade_sink`, and balances the resulting
/// components across `options.num_shards` shards by descending row
/// weight. Peak memory is O(entities), independent of the relation and
/// trading row counts.
Result<ShardPlan> PlanShards(const std::string& data_dir,
                             const ShardPlanOptions& options);

}  // namespace tpiin

#endif  // TPIIN_SHARD_PLAN_H_
