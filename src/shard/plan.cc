#include "shard/plan.h"

#include <algorithm>
#include <functional>
#include <queue>

#include "common/failpoint.h"
#include "graph/union_find.h"
#include "io/dataset_csv.h"
#include "obs/trace.h"

namespace tpiin {

Result<ShardPlan> PlanShards(const std::string& data_dir,
                             const ShardPlanOptions& options) {
  TPIIN_SPAN("shard_plan");
  TPIIN_FAILPOINT("shard.plan.scan");
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be positive");
  }
  ShardPlan plan;
  plan.num_shards = options.num_shards;
  // Strict: the planner must see exactly the rows the router and the
  // per-shard loads will see; resilience policies belong to the
  // single-process loader.
  const IngestOptions strict;
  LoadReport report;
  IngestSink sink(strict, &report);

  // --- Entity tables: register ids in row order.
  TPIIN_RETURN_IF_ERROR(ScanDatasetTable(
      data_dir, DatasetTable::kPersons, sink,
      [&](const CsvRow& row, const char** cls) -> Status {
        TPIIN_ASSIGN_OR_RETURN(
            int64_t id,
            plan.person_index.ParseNewId(row.fields[0], "person", cls));
        return plan.person_index.Add(id);
      }));
  TPIIN_RETURN_IF_ERROR(ScanDatasetTable(
      data_dir, DatasetTable::kCompanies, sink,
      [&](const CsvRow& row, const char** cls) -> Status {
        TPIIN_ASSIGN_OR_RETURN(
            int64_t id,
            plan.company_index.ParseNewId(row.fields[0], "company", cls));
        return plan.company_index.Add(id);
      }));
  plan.num_persons = plan.person_index.size();
  plan.num_companies = plan.company_index.size();
  const uint64_t num_entities = plan.num_persons + plan.num_companies;
  if (num_entities > 0xFFFFFFFFull) {
    return Status::InvalidArgument(
        "entity population exceeds 32-bit id space");
  }

  // Union-find over persons [0, P) and companies [P, P+C); relation rows
  // union their endpoints — exactly the edges that become antecedent
  // connectivity after fusion (interdependence merges persons into
  // syndicates, influence links persons to companies, investment links
  // companies), so these components are in bijection with the fused
  // net's antecedent WCCs.
  UnionFind uf(static_cast<NodeId>(num_entities));
  // Relation rows incident to each entity, the balance weight.
  std::vector<uint32_t> entity_rows(num_entities, 0);
  const uint32_t person_count = static_cast<uint32_t>(plan.num_persons);
  const EntityIdIndex& persons = plan.person_index;
  const EntityIdIndex& companies = plan.company_index;

  TPIIN_RETURN_IF_ERROR(ScanDatasetTable(
      data_dir, DatasetTable::kInterdependence, sink,
      [&](const CsvRow& row, const char** cls) -> Status {
        TPIIN_ASSIGN_OR_RETURN(uint32_t a,
                               persons.Resolve(row.fields[0], "person", cls));
        TPIIN_ASSIGN_OR_RETURN(uint32_t b,
                               persons.Resolve(row.fields[1], "person", cls));
        uf.Union(a, b);
        ++entity_rows[a];
        return Status::OK();
      }));
  TPIIN_RETURN_IF_ERROR(ScanDatasetTable(
      data_dir, DatasetTable::kInfluence, sink,
      [&](const CsvRow& row, const char** cls) -> Status {
        TPIIN_ASSIGN_OR_RETURN(uint32_t p,
                               persons.Resolve(row.fields[0], "person", cls));
        TPIIN_ASSIGN_OR_RETURN(
            uint32_t c, companies.Resolve(row.fields[1], "company", cls));
        uf.Union(p, person_count + c);
        ++entity_rows[p];
        return Status::OK();
      }));
  TPIIN_RETURN_IF_ERROR(ScanDatasetTable(
      data_dir, DatasetTable::kInvestment, sink,
      [&](const CsvRow& row, const char** cls) -> Status {
        TPIIN_ASSIGN_OR_RETURN(
            uint32_t a, companies.Resolve(row.fields[0], "company", cls));
        TPIIN_ASSIGN_OR_RETURN(
            uint32_t b, companies.Resolve(row.fields[1], "company", cls));
        uf.Union(person_count + a, person_count + b);
        ++entity_rows[person_count + a];
        return Status::OK();
      }));

  // --- Dense component ids and weights.
  std::vector<NodeId> component_of = uf.DenseComponentIds();
  plan.num_components = uf.NumSets();
  std::vector<uint64_t> component_weight(plan.num_components, 0);
  for (uint64_t e = 0; e < num_entities; ++e) {
    component_weight[component_of[e]] += 1 + entity_rows[e];
  }
  entity_rows.clear();
  entity_rows.shrink_to_fit();

  // --- Trading layer: intra-component rows add weight to their
  // component; cross-component rows are only counted. Both go to the
  // trade sink.
  TPIIN_RETURN_IF_ERROR(ScanDatasetTable(
      data_dir, DatasetTable::kTrades, sink,
      [&](const CsvRow& row, const char** cls) -> Status {
        PlannedTrade trade;
        TPIIN_ASSIGN_OR_RETURN(
            trade.seller, companies.Resolve(row.fields[0], "company", cls));
        TPIIN_ASSIGN_OR_RETURN(
            trade.buyer, companies.Resolve(row.fields[1], "company", cls));
        ++plan.trade_rows;
        trade.component = component_of[person_count + trade.seller];
        trade.cross =
            trade.component != component_of[person_count + trade.buyer];
        if (trade.cross) {
          ++plan.cross_trade_rows;
        } else {
          ++component_weight[trade.component];
        }
        if (!options.trade_sink) return Status::OK();
        trade.raw = row.raw;
        return options.trade_sink(trade);
      }));

  // --- Greedy balance: heaviest component first onto the least-loaded
  // shard (ties: lower component id, lower shard id) — deterministic,
  // and within 4/3 of optimal makespan, which is what bounds per-shard
  // peak memory.
  std::vector<uint32_t> order(plan.num_components);
  for (uint32_t i = 0; i < plan.num_components; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (component_weight[a] != component_weight[b]) {
      return component_weight[a] > component_weight[b];
    }
    return a < b;
  });
  plan.component_shard.assign(plan.num_components, 0);
  plan.shard_weight.assign(plan.num_shards, 0);
  using Load = std::pair<uint64_t, uint32_t>;
  std::priority_queue<Load, std::vector<Load>, std::greater<Load>> heap;
  for (uint32_t s = 0; s < plan.num_shards; ++s) heap.push({0, s});
  for (uint32_t comp : order) {
    auto [load, shard] = heap.top();
    heap.pop();
    plan.component_shard[comp] = shard;
    load += component_weight[comp];
    plan.shard_weight[shard] = load;
    heap.push({load, shard});
  }

  plan.person_component.assign(component_of.begin(),
                               component_of.begin() + person_count);
  plan.company_component.assign(component_of.begin() + person_count,
                                component_of.end());
  return plan;
}

}  // namespace tpiin
