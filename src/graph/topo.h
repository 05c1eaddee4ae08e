#ifndef TPIIN_GRAPH_TOPO_H_
#define TPIIN_GRAPH_TOPO_H_

#include <vector>

#include "common/result.h"
#include "graph/frozen.h"
#include "graph/types.h"

namespace tpiin {

/// Kahn topological order over one arc class of the graph. Returns
/// FailedPrecondition if that class has a cycle.
Result<std::vector<NodeId>> TopologicalSort(
    const FrozenGraph& graph,
    FrozenArcClass arc_class = FrozenArcClass::kAll);

/// True iff the arc class is acyclic. Used to verify the antecedent
/// network after SCC contraction (the paper's DAG guarantee).
bool IsDag(const FrozenGraph& graph,
           FrozenArcClass arc_class = FrozenArcClass::kAll);

}  // namespace tpiin

#endif  // TPIIN_GRAPH_TOPO_H_
