#ifndef TPIIN_GRAPH_CONNECTED_H_
#define TPIIN_GRAPH_CONNECTED_H_

#include <vector>

#include "graph/frozen.h"
#include "graph/types.h"

namespace tpiin {

/// Result of a weakly-connected-component decomposition.
struct WccResult {
  /// Dense component id per node.
  std::vector<NodeId> component_of;
  NodeId num_components = 0;
  /// Node lists per component, each sorted ascending.
  std::vector<std::vector<NodeId>> members;
};

/// Weakly connected components over the arc class `arc_class`; nodes
/// touched by no such arc form singleton components. This implements
/// the MWCS segmentation of Algorithm 1 step 3 (union-find rather than
/// the paper's improved DFS — identical output, simpler to reason about;
/// the DFS variant is benchmarked in bench_ablation). Union-find
/// component ids depend only on the partition, not on union order.
WccResult WeaklyConnectedComponents(
    const FrozenGraph& graph,
    FrozenArcClass arc_class = FrozenArcClass::kAll);

}  // namespace tpiin

#endif  // TPIIN_GRAPH_CONNECTED_H_
