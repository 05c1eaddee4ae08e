#ifndef TPIIN_CORE_SUBTPIIN_H_
#define TPIIN_CORE_SUBTPIIN_H_

#include <string>
#include <string_view>
#include <vector>

#include "fusion/tpiin.h"
#include "graph/frozen.h"
#include "graph/types.h"

namespace tpiin {

/// One weakly connected subgraph of a TPIIN (Definition 4): a maximal
/// weakly connected subgraph (MWCS) of the antecedent network plus every
/// trading arc joining two of its Company nodes.
///
/// Nodes and arcs are re-indexed locally (dense ids) so the per-subgraph
/// algorithms run cache-friendly; `global_of_local` / `global_arc_of_local`
/// map results back to TPIIN ids.
struct SubTpiin {
  const Tpiin* parent = nullptr;

  /// Local graph, built by SegmentTpiin straight from the local arc
  /// table; influence arcs occupy ids [0, num_influence_arcs).
  FrozenGraph frozen;
  ArcId num_influence_arcs = 0;

  std::vector<NodeId> global_of_local;
  std::vector<ArcId> global_arc_of_local;

  NodeId ToGlobal(NodeId local) const { return global_of_local[local]; }
  ArcId ToGlobalArc(ArcId local) const { return global_arc_of_local[local]; }

  ArcId num_trading_arcs() const {
    return frozen.NumArcs() - num_influence_arcs;
  }

  /// Label of a local node (delegates to the parent TPIIN).
  std::string_view Label(NodeId local) const {
    return parent->Label(ToGlobal(local));
  }
};

struct SegmentOptions {
  /// Skip components with no internal trading arc: they cannot contain a
  /// suspicious group (Definition 2 requires exactly one trading arc), so
  /// Algorithm 2 would enumerate trails for nothing. Disable to obtain
  /// every MWCS (e.g. for the worked-example figures).
  bool skip_tradeless = true;

  /// Skip single-node components (no arcs of any color can be internal).
  bool skip_singletons = true;
};

/// Statistics of one segmentation run.
struct SegmentStats {
  size_t num_components = 0;        // All MWCS of the antecedent network.
  size_t num_emitted = 0;           // SubTpiins returned.
  size_t trading_arcs_internal = 0; // Trading arcs inside some component.
  size_t trading_arcs_cross = 0;    // Unsuspicious by the divide rule.
};

/// Algorithm 1 steps 3-6: splits `net` into subTPIINs. A trading arc
/// between two different components is unsuspicious (no party can sit in
/// both components behind it) and is dropped — this is the paper's
/// divide-and-conquer entry point.
std::vector<SubTpiin> SegmentTpiin(const Tpiin& net,
                                   const SegmentOptions& options = {},
                                   SegmentStats* stats = nullptr);

}  // namespace tpiin

#endif  // TPIIN_CORE_SUBTPIIN_H_
