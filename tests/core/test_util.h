#ifndef TPIIN_TESTS_CORE_TEST_UTIL_H_
#define TPIIN_TESTS_CORE_TEST_UTIL_H_

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/matcher.h"
#include "core/subtpiin.h"
#include "fusion/tpiin.h"

namespace tpiin {

/// Builds a random small valid TPIIN: persons with influence arcs into
/// companies, an index-ordered (hence acyclic) company investment layer,
/// and a random trading layer. Some companies intentionally receive no
/// influence arc so the influence-indegree-zero root rule is exercised.
inline Tpiin RandomTpiin(uint64_t seed, NodeId max_persons = 6,
                         NodeId max_companies = 10) {
  Rng rng(seed);
  const NodeId persons = 1 + static_cast<NodeId>(rng.UniformU64(max_persons));
  const NodeId companies =
      2 + static_cast<NodeId>(rng.UniformU64(max_companies - 1));
  TpiinBuilder builder;
  std::vector<NodeId> person_nodes;
  std::vector<NodeId> company_nodes;
  for (NodeId i = 0; i < persons; ++i) {
    person_nodes.push_back(
        builder.AddPersonNode(StringPrintf("P%u", i)));
  }
  for (NodeId i = 0; i < companies; ++i) {
    company_nodes.push_back(
        builder.AddCompanyNode(StringPrintf("C%u", i)));
  }
  // Person -> company influence.
  for (NodeId p = 0; p < persons; ++p) {
    uint64_t links = rng.UniformU64(3);
    for (uint64_t k = 0; k < links; ++k) {
      builder.AddInfluenceArc(
          person_nodes[p],
          company_nodes[rng.UniformU64(companies)]);
    }
  }
  // Company -> company investment, index-ordered so the antecedent stays
  // a DAG.
  for (NodeId c = 1; c < companies; ++c) {
    if (rng.Bernoulli(0.5)) {
      builder.AddInfluenceArc(company_nodes[rng.UniformU64(c)],
                              company_nodes[c]);
    }
    if (c >= 2 && rng.Bernoulli(0.2)) {
      builder.AddInfluenceArc(company_nodes[rng.UniformU64(c)],
                              company_nodes[c]);
    }
  }
  // Trading layer.
  uint64_t trades = 1 + rng.UniformU64(2 * companies);
  for (uint64_t k = 0; k < trades; ++k) {
    NodeId a = static_cast<NodeId>(rng.UniformU64(companies));
    NodeId b = static_cast<NodeId>(rng.UniformU64(companies));
    if (a == b) continue;
    builder.AddTradingArc(company_nodes[a], company_nodes[b]);
  }
  Result<Tpiin> net = builder.Build();
  TPIIN_CHECK(net.ok()) << net.status().ToString();
  return std::move(net).value();
}

/// A subTPIIN's local arc table rebuilt from its CSR: row `id` is the
/// local arc `id`, colored by the class span it sits in.
inline std::vector<Arc> LocalArcTable(const SubTpiin& sub) {
  const FrozenGraph& fg = sub.frozen;
  std::vector<Arc> arcs(fg.NumArcs());
  for (NodeId v = 0; v < fg.NumNodes(); ++v) {
    const AdjSpan influence = fg.InfluenceOut(v);
    for (size_t i = 0; i < influence.size(); ++i) {
      arcs[influence.arcs[i]] = Arc{v, influence.nodes[i], kArcInfluence};
    }
    const AdjSpan trading = fg.TradingOut(v);
    for (size_t i = 0; i < trading.size(); ++i) {
      arcs[trading.arcs[i]] = Arc{v, trading.nodes[i], kArcTrading};
    }
  }
  return arcs;
}

/// Canonical comparison key of a pairwise suspicious group.
using GroupKey = std::tuple<NodeId, std::vector<NodeId>, NodeId,
                            std::vector<NodeId>>;

inline GroupKey KeyOf(const SuspiciousGroup& group) {
  return {group.antecedent, group.trade_trail, group.trade_buyer,
          group.partner_trail};
}

inline std::vector<GroupKey> PairwiseKeys(
    const std::vector<SuspiciousGroup>& groups) {
  std::vector<GroupKey> keys;
  for (const SuspiciousGroup& group : groups) {
    if (!group.from_cycle) keys.push_back(KeyOf(group));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace tpiin

#endif  // TPIIN_TESTS_CORE_TEST_UTIL_H_
