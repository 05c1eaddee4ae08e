#include "graph/scc.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/trace.h"

namespace tpiin {

namespace {

constexpr NodeId kUnvisited = kInvalidNode;

// One frame of the explicit DFS stack. `arc_pos` is the next position in
// the node's out-arc list to examine.
struct Frame {
  NodeId node;
  uint32_t arc_pos;
};

}  // namespace

SccResult StronglyConnectedComponents(const FrozenGraph& graph,
                                      FrozenArcClass arc_class) {
  TPIIN_SPAN("scc");
  const NodeId n = graph.NumNodes();
  SccResult result;
  result.component_of.assign(n, kUnvisited);

  std::vector<NodeId> index(n, kUnvisited);   // Discovery order.
  std::vector<NodeId> lowlink(n, kUnvisited);
  std::vector<bool> on_stack(n, false);
  std::vector<NodeId> stack;        // Tarjan's component stack.
  std::vector<Frame> dfs;           // Explicit recursion stack.
  std::vector<bool> has_self_loop(n, false);
  NodeId next_index = 0;

  for (NodeId root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    dfs.push_back(Frame{root, 0});
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;

    while (!dfs.empty()) {
      Frame& frame = dfs.back();
      NodeId u = frame.node;
      const std::span<const NodeId> out = graph.OutClass(u, arc_class).nodes;
      bool descended = false;
      while (frame.arc_pos < out.size()) {
        NodeId v = out[frame.arc_pos];
        ++frame.arc_pos;
        if (v == u) has_self_loop[u] = true;
        if (index[v] == kUnvisited) {
          index[v] = lowlink[v] = next_index++;
          stack.push_back(v);
          on_stack[v] = true;
          dfs.push_back(Frame{v, 0});
          descended = true;
          break;
        }
        if (on_stack[v]) {
          lowlink[u] = std::min(lowlink[u], index[v]);
        }
      }
      if (descended) continue;

      // u is finished: pop a component if u is its root, then propagate
      // the lowlink to the parent.
      if (lowlink[u] == index[u]) {
        std::vector<NodeId> comp;
        while (true) {
          NodeId w = stack.back();
          stack.pop_back();
          on_stack[w] = false;
          result.component_of[w] = result.num_components;
          comp.push_back(w);
          if (w == u) break;
        }
        bool nontrivial =
            comp.size() > 1 || (comp.size() == 1 && has_self_loop[comp[0]]);
        if (nontrivial) {
          result.nontrivial_components.push_back(result.num_components);
        }
        result.members.push_back(std::move(comp));
        ++result.num_components;
      }
      dfs.pop_back();
      if (!dfs.empty()) {
        NodeId parent = dfs.back().node;
        lowlink[parent] = std::min(lowlink[parent], lowlink[u]);
      }
    }
  }

  TPIIN_CHECK_EQ(result.members.size(), result.num_components);
  return result;
}

}  // namespace tpiin
