#ifndef TPIIN_GRAPH_TRAVERSAL_H_
#define TPIIN_GRAPH_TRAVERSAL_H_

#include <vector>

#include "graph/connected.h"
#include "graph/types.h"

namespace tpiin {

/// Nodes reachable from `start` by directed arcs of one class (start
/// itself included).
std::vector<bool> ReachableFrom(const FrozenGraph& graph, NodeId start,
                                FrozenArcClass arc_class = FrozenArcClass::kAll);

/// The paper's `findsubgraph()` (Appendix B): weakly connected components
/// by depth-first search over the out- and in-adjacency of one arc
/// class. Produces the same decomposition as WeaklyConnectedComponents;
/// kept as a faithful alternative implementation and for the ablation
/// bench.
WccResult FindSubgraphsDfs(const FrozenGraph& graph,
                           FrozenArcClass arc_class = FrozenArcClass::kAll);

}  // namespace tpiin

#endif  // TPIIN_GRAPH_TRAVERSAL_H_
