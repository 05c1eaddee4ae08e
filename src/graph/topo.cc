#include "graph/topo.h"

#include <deque>

namespace tpiin {

Result<std::vector<NodeId>> TopologicalSort(const FrozenGraph& graph,
                                            FrozenArcClass arc_class) {
  const NodeId n = graph.NumNodes();
  std::vector<uint32_t> in_degree(n, 0);
  std::deque<NodeId> frontier;
  for (NodeId v = 0; v < n; ++v) {
    in_degree[v] =
        static_cast<uint32_t>(graph.InClass(v, arc_class).size());
    if (in_degree[v] == 0) frontier.push_back(v);
  }
  std::vector<NodeId> order;
  order.reserve(n);
  while (!frontier.empty()) {
    NodeId u = frontier.front();
    frontier.pop_front();
    order.push_back(u);
    for (NodeId dst : graph.OutClass(u, arc_class).nodes) {
      if (--in_degree[dst] == 0) frontier.push_back(dst);
    }
  }
  if (order.size() != n) {
    return Status::FailedPrecondition("graph has a directed cycle");
  }
  return order;
}

bool IsDag(const FrozenGraph& graph, FrozenArcClass arc_class) {
  return TopologicalSort(graph, arc_class).ok();
}

}  // namespace tpiin
