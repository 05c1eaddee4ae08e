#include "fusion/layers.h"

#include <algorithm>
#include <utility>

namespace tpiin {

namespace {

// Keeps the arcs whose (src, dst) pair first occurs at their row, in
// row order.
std::vector<Arc> KeepFirstOccurrences(std::vector<Arc> arcs) {
  std::vector<uint64_t> keys;
  keys.reserve(arcs.size());
  for (const Arc& arc : arcs) keys.push_back(PairKey(arc.src, arc.dst));
  const std::vector<uint32_t> first = FirstOccurrences(keys);
  size_t kept = 0;
  for (size_t i = 0; i < arcs.size(); ++i) {
    if (first[i] == i) arcs[kept++] = arcs[i];
  }
  arcs.resize(kept);
  return arcs;
}

}  // namespace

std::vector<uint32_t> FirstOccurrences(std::span<const uint64_t> keys) {
  std::vector<std::pair<uint64_t, uint32_t>> sorted(keys.size());
  for (uint32_t i = 0; i < keys.size(); ++i) sorted[i] = {keys[i], i};
  std::sort(sorted.begin(), sorted.end());
  std::vector<uint32_t> first(keys.size());
  uint32_t run_first = 0;
  for (size_t k = 0; k < sorted.size(); ++k) {
    if (k == 0 || sorted[k].first != sorted[k - 1].first) {
      run_first = sorted[k].second;
    }
    first[sorted[k].second] = run_first;
  }
  return first;
}

std::vector<Arc> BuildInterdependenceGraph(const RawDataset& dataset) {
  std::vector<Arc> arcs;
  arcs.reserve(dataset.interdependence().size());
  for (const InterdependenceRecord& rec : dataset.interdependence()) {
    const auto [a, b] = std::minmax(rec.person_a, rec.person_b);
    ArcColor color = rec.kind == InterdependenceKind::kKinship
                         ? kLayerKinship
                         : kLayerInterlocking;
    arcs.push_back(Arc{a, b, color});
  }
  return KeepFirstOccurrences(std::move(arcs));
}

std::vector<Arc> BuildInfluenceLayerGraph(const RawDataset& dataset) {
  const NodeId num_persons = static_cast<NodeId>(dataset.persons().size());
  std::vector<Arc> arcs;
  arcs.reserve(dataset.influence().size());
  for (const InfluenceRecord& rec : dataset.influence()) {
    arcs.push_back(Arc{rec.person, num_persons + rec.company, kLayerInfluence});
  }
  return KeepFirstOccurrences(std::move(arcs));
}

std::vector<Arc> BuildInvestmentGraph(const RawDataset& dataset) {
  std::vector<Arc> arcs;
  arcs.reserve(dataset.investments().size());
  for (const InvestmentRecord& rec : dataset.investments()) {
    arcs.push_back(Arc{rec.investor, rec.investee, kLayerInvestment});
  }
  return KeepFirstOccurrences(std::move(arcs));
}

std::vector<Arc> BuildTradingGraph(const RawDataset& dataset) {
  std::vector<Arc> arcs;
  arcs.reserve(dataset.trades().size());
  for (const TradeRecord& rec : dataset.trades()) {
    arcs.push_back(Arc{rec.seller, rec.buyer, kLayerTrading});
  }
  return KeepFirstOccurrences(std::move(arcs));
}

}  // namespace tpiin
