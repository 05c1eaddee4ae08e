#ifndef TPIIN_GRAPH_SCC_H_
#define TPIIN_GRAPH_SCC_H_

#include <vector>

#include "graph/frozen.h"
#include "graph/types.h"

namespace tpiin {

/// Result of a strongly-connected-component decomposition.
struct SccResult {
  /// Component id per node, in [0, num_components). Component ids are
  /// emitted in reverse topological order of the condensation (Tarjan's
  /// property): if u's component has an arc to v's component then
  /// component_of[u] > component_of[v].
  std::vector<NodeId> component_of;
  NodeId num_components = 0;

  /// Node lists per component (members[c] holds the nodes of component c).
  std::vector<std::vector<NodeId>> members;

  /// Ids of components with more than one node, or with a self-loop arc
  /// of the walked class. These are the "strongly connected subgraphs"
  /// (SCS) the paper contracts into Company syndicates.
  std::vector<NodeId> nontrivial_components;
};

/// Iterative Tarjan SCC over one arc class of the graph. O(V + E);
/// recursion-free so million-node provinces cannot overflow the stack.
/// The fusion layer depends on the numbering: SCC ids become TPIIN
/// company-syndicate node ids.
SccResult StronglyConnectedComponents(
    const FrozenGraph& graph,
    FrozenArcClass arc_class = FrozenArcClass::kAll);

}  // namespace tpiin

#endif  // TPIIN_GRAPH_SCC_H_
