#include "graph/traversal.h"

#include <algorithm>

#include "common/logging.h"

namespace tpiin {

std::vector<bool> ReachableFrom(const FrozenGraph& graph, NodeId start,
                                FrozenArcClass arc_class) {
  TPIIN_CHECK(start < graph.NumNodes());
  std::vector<bool> seen(graph.NumNodes(), false);
  std::vector<NodeId> stack = {start};
  seen[start] = true;
  while (!stack.empty()) {
    NodeId u = stack.back();
    stack.pop_back();
    for (NodeId v : graph.OutClass(u, arc_class).nodes) {
      if (!seen[v]) {
        seen[v] = true;
        stack.push_back(v);
      }
    }
  }
  return seen;
}

WccResult FindSubgraphsDfs(const FrozenGraph& graph,
                           FrozenArcClass arc_class) {
  const NodeId n = graph.NumNodes();
  WccResult result;
  result.component_of.assign(n, kInvalidNode);
  std::vector<NodeId> stack;
  for (NodeId root = 0; root < n; ++root) {
    if (result.component_of[root] != kInvalidNode) continue;
    NodeId comp = result.num_components++;
    result.members.emplace_back();
    stack.push_back(root);
    result.component_of[root] = comp;
    while (!stack.empty()) {
      NodeId u = stack.back();
      stack.pop_back();
      result.members[comp].push_back(u);
      for (NodeId v : graph.OutClass(u, arc_class).nodes) {
        if (result.component_of[v] == kInvalidNode) {
          result.component_of[v] = comp;
          stack.push_back(v);
        }
      }
      for (NodeId v : graph.InClass(u, arc_class).nodes) {
        if (result.component_of[v] == kInvalidNode) {
          result.component_of[v] = comp;
          stack.push_back(v);
        }
      }
    }
    std::sort(result.members[comp].begin(), result.members[comp].end());
  }
  return result;
}

}  // namespace tpiin
