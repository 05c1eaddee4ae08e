#include "fusion/layers.h"

#include <unordered_set>

namespace tpiin {

namespace {

// Packs an ordered node pair into one key for dedup sets.
uint64_t PairKey(NodeId a, NodeId b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

}  // namespace

std::vector<Arc> BuildInterdependenceGraph(const RawDataset& dataset) {
  std::vector<Arc> arcs;
  std::unordered_set<uint64_t> seen;
  for (const InterdependenceRecord& rec : dataset.interdependence()) {
    NodeId a = rec.person_a;
    NodeId b = rec.person_b;
    if (a > b) std::swap(a, b);
    if (!seen.insert(PairKey(a, b)).second) continue;
    ArcColor color = rec.kind == InterdependenceKind::kKinship
                         ? kLayerKinship
                         : kLayerInterlocking;
    arcs.push_back(Arc{a, b, color});
  }
  return arcs;
}

std::vector<Arc> BuildInfluenceLayerGraph(const RawDataset& dataset) {
  const NodeId num_persons = static_cast<NodeId>(dataset.persons().size());
  std::vector<Arc> arcs;
  std::unordered_set<uint64_t> seen;
  for (const InfluenceRecord& rec : dataset.influence()) {
    NodeId src = rec.person;
    NodeId dst = num_persons + rec.company;
    if (!seen.insert(PairKey(src, dst)).second) continue;
    arcs.push_back(Arc{src, dst, kLayerInfluence});
  }
  return arcs;
}

std::vector<Arc> BuildInvestmentGraph(const RawDataset& dataset) {
  std::vector<Arc> arcs;
  std::unordered_set<uint64_t> seen;
  for (const InvestmentRecord& rec : dataset.investments()) {
    if (!seen.insert(PairKey(rec.investor, rec.investee)).second) continue;
    arcs.push_back(Arc{rec.investor, rec.investee, kLayerInvestment});
  }
  return arcs;
}

std::vector<Arc> BuildTradingGraph(const RawDataset& dataset) {
  std::vector<Arc> arcs;
  std::unordered_set<uint64_t> seen;
  for (const TradeRecord& rec : dataset.trades()) {
    if (!seen.insert(PairKey(rec.seller, rec.buyer)).second) continue;
    arcs.push_back(Arc{rec.seller, rec.buyer, kLayerTrading});
  }
  return arcs;
}

}  // namespace tpiin
