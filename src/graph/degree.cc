#include "graph/degree.h"

#include <algorithm>

namespace tpiin {

DegreeStats ComputeDegreeStats(const FrozenGraph& graph,
                               FrozenArcClass arc_class) {
  const NodeId n = graph.NumNodes();
  DegreeStats stats;
  stats.num_nodes = n;
  std::vector<uint32_t> in(n, 0);
  ArcId arcs = 0;
  for (NodeId v = 0; v < n; ++v) {
    const AdjSpan out = graph.OutClass(v, arc_class);
    arcs += out.size();
    stats.max_out_degree =
        std::max(stats.max_out_degree, static_cast<uint32_t>(out.size()));
    for (NodeId dst : out.nodes) ++in[dst];
  }
  stats.num_arcs = arcs;
  stats.average_degree = n == 0 ? 0.0 : static_cast<double>(arcs) / n;
  for (NodeId v = 0; v < n; ++v) {
    const uint32_t out_degree =
        static_cast<uint32_t>(graph.OutClass(v, arc_class).size());
    stats.max_in_degree = std::max(stats.max_in_degree, in[v]);
    if (in[v] == 0) ++stats.num_indegree_zero;
    if (out_degree == 0) ++stats.num_outdegree_zero;
    if (in[v] == 0 && out_degree == 0) ++stats.num_isolated;
  }
  return stats;
}

}  // namespace tpiin
