#ifndef TPIIN_GRAPH_DEGREE_H_
#define TPIIN_GRAPH_DEGREE_H_

#include <cstdint>

#include "graph/frozen.h"

namespace tpiin {

/// Summary statistics over one arc class of a graph, matching the
/// quantities reported in the paper's network figures and Table 1
/// ("average node degree" is Gephi's |E|/|V| for directed graphs).
struct DegreeStats {
  NodeId num_nodes = 0;
  ArcId num_arcs = 0;
  double average_degree = 0;  // num_arcs / num_nodes (Gephi convention).
  uint32_t max_in_degree = 0;
  uint32_t max_out_degree = 0;
  NodeId num_indegree_zero = 0;
  NodeId num_outdegree_zero = 0;
  NodeId num_isolated = 0;  // Zero degree within the arc class.
};

DegreeStats ComputeDegreeStats(
    const FrozenGraph& graph,
    FrozenArcClass arc_class = FrozenArcClass::kAll);

}  // namespace tpiin

#endif  // TPIIN_GRAPH_DEGREE_H_
