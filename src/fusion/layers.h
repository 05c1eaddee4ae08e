#ifndef TPIIN_FUSION_LAYERS_H_
#define TPIIN_FUSION_LAYERS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.h"
#include "model/dataset.h"

namespace tpiin {

/// Arc colors used inside the homogeneous layer graphs (before fusion
/// collapses everything to Influence/Trading). Values are arbitrary but
/// stable — exporters key legends off them.
inline constexpr ArcColor kLayerKinship = 10;       // brown edges (Fig. 11)
inline constexpr ArcColor kLayerInterlocking = 11;  // yellow edges (Fig. 11)
inline constexpr ArcColor kLayerInfluence = 12;     // blue arcs (Fig. 12)
inline constexpr ArcColor kLayerInvestment = 13;    // green/red arcs (Fig. 13)
inline constexpr ArcColor kLayerTrading = 14;       // black arcs (Fig. 15)

/// Packs an ordered node pair into one sortable key.
inline uint64_t PairKey(NodeId a, NodeId b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

/// Fusion's one deduplication (CNBM relationship layers are sets): for
/// each position i of `keys`, the position of the first equal key, so i
/// is a first occurrence iff the result holds i there. Sorts (key,
/// position) pairs; no hash table is built.
std::vector<uint32_t> FirstOccurrences(std::span<const uint64_t> keys);

/// Each layer builder returns its deduplicated arc table: arc `id` is
/// row `id`, in first-record order. The node count is implied by the
/// dataset and stated per layer; FrozenGraph and LayerToDot take the
/// table as is.

/// G1, the interdependence graph (§4.1): one node per person, one
/// unidirectional edge per deduplicated person pair (when both a kinship
/// and an interlocking record exist for a pair, only the first is kept —
/// the fusion contraction is insensitive to which). Stored as a single
/// directed arc a->b with a < b.
std::vector<Arc> BuildInterdependenceGraph(const RawDataset& dataset);

/// G2, the influence bipartite graph (§4.1): nodes [0, P) are persons,
/// [P, P + C) are companies; arcs run person -> company. Duplicate
/// (person, company) records collapse to one arc.
std::vector<Arc> BuildInfluenceLayerGraph(const RawDataset& dataset);

/// GI (G3 in the experiment figures), the investment graph: one node per
/// company, deduplicated investor -> investee arcs.
std::vector<Arc> BuildInvestmentGraph(const RawDataset& dataset);

/// G4, the trading graph: one node per company, deduplicated
/// seller -> buyer arcs.
std::vector<Arc> BuildTradingGraph(const RawDataset& dataset);

}  // namespace tpiin

#endif  // TPIIN_FUSION_LAYERS_H_
