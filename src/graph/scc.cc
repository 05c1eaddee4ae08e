#include "graph/scc.h"

#include <algorithm>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/trace.h"
#include "graph/connected.h"
#include "graph/frozen.h"

namespace tpiin {

namespace {

constexpr NodeId kUnvisited = kInvalidNode;

// One frame of the explicit DFS stack. `arc_pos` is the next position in
// the node's out-arc list to examine.
struct Frame {
  NodeId node;
  uint32_t arc_pos;
};

// Tarjan over any indexed adjacency view:
//   view.Degree(v)  — number of out slots of v;
//   view.Dst(v, i)  — target of slot i.
// The whole-graph and the per-partition views funnel here so the serial
// and parallel drivers stay behaviorally identical by construction. When
// `completion_root` is non-null it receives, per emitted component, the
// DFS tree root the component completed under — the partition-parallel
// driver uses these tags to restore the serial numbering.
template <typename View>
SccResult TarjanImpl(NodeId n, const View& view,
                     std::vector<NodeId>* completion_root = nullptr) {
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
      const uint32_t degree = view.Degree(u);
      bool descended = false;
      while (frame.arc_pos < degree) {
        NodeId v = view.Dst(u, frame.arc_pos);
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
        if (completion_root != nullptr) completion_root->push_back(root);
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

struct FrozenView {
  const FrozenGraph& graph;
  FrozenArcClass arc_class;

  uint32_t Degree(NodeId v) const {
    return static_cast<uint32_t>(graph.OutClass(v, arc_class).size());
  }
  NodeId Dst(NodeId v, uint32_t i) const {
    return graph.OutClass(v, arc_class).nodes[i];
  }
};

// Adjacency restricted to one weak partition, in local ids: local node i
// is members[i] (members sorted ascending, so local id order == global
// id order within the partition, and the per-node neighbor order is the
// untouched CSR span order — both facts the bit-identical renumbering
// argument rests on).
struct PartitionView {
  const FrozenGraph& graph;
  FrozenArcClass arc_class;
  const std::vector<NodeId>& members;
  const std::vector<NodeId>& local_of_global;

  uint32_t Degree(NodeId v) const {
    return static_cast<uint32_t>(
        graph.OutClass(members[v], arc_class).size());
  }
  NodeId Dst(NodeId v, uint32_t i) const {
    return local_of_global[graph.OutClass(members[v], arc_class).nodes[i]];
  }
};

// Below this many nodes the WCC pass plus merge bookkeeping costs more
// than the serial Tarjan it parallelizes.
constexpr NodeId kParallelSccMinNodes = 1u << 13;

}  // namespace

SccResult StronglyConnectedComponents(const FrozenGraph& graph,
                                      FrozenArcClass arc_class) {
  TPIIN_SPAN("scc");
  return TarjanImpl(graph.NumNodes(), FrozenView{graph, arc_class});
}

SccResult StronglyConnectedComponents(const FrozenGraph& graph,
                                      FrozenArcClass arc_class,
                                      uint32_t num_threads) {
  const NodeId n = graph.NumNodes();
  if (num_threads <= 1 || n < kParallelSccMinNodes) {
    return StronglyConnectedComponents(graph, arc_class);
  }
  TPIIN_SPAN("scc_parallel");
  WccResult wcc = WeaklyConnectedComponents(graph, arc_class, num_threads);
  if (wcc.num_components <= 1) {
    return StronglyConnectedComponents(graph, arc_class);
  }

  std::vector<NodeId> local_of_global(n);
  ThreadPool::Global().ParallelFor(
      wcc.num_components, num_threads, [&](size_t p) {
        const std::vector<NodeId>& part = wcc.members[p];
        for (size_t i = 0; i < part.size(); ++i) {
          local_of_global[part[i]] = static_cast<NodeId>(i);
        }
      });

  struct PartResult {
    SccResult scc;
    std::vector<NodeId> completion_roots;  // Local ids.
    std::vector<uint8_t> nontrivial;       // Per local component.
  };
  std::vector<PartResult> parts(wcc.num_components);
  ThreadPool::Global().ParallelFor(
      wcc.num_components, num_threads, [&](size_t p) {
        const std::vector<NodeId>& members = wcc.members[p];
        PartResult& pr = parts[p];
        pr.scc = TarjanImpl(
            static_cast<NodeId>(members.size()),
            PartitionView{graph, arc_class, members, local_of_global},
            &pr.completion_roots);
        pr.nontrivial.assign(pr.scc.num_components, 0);
        for (NodeId c : pr.scc.nontrivial_components) pr.nontrivial[c] = 1;
      });

  // A component's serial number is its rank under (global id of the DFS
  // root it completed under, per-partition completion index): the serial
  // driver walks roots in ascending global id, and everything a root
  // emits — and the order it emits it in — is confined to the root's
  // partition.
  struct Tag {
    NodeId root_gid;
    uint32_t part;
    NodeId local;
    bool nontrivial;
  };
  std::vector<Tag> tags;
  NodeId total = 0;
  for (uint32_t p = 0; p < wcc.num_components; ++p) {
    total += parts[p].scc.num_components;
  }
  tags.reserve(total);
  for (uint32_t p = 0; p < wcc.num_components; ++p) {
    const PartResult& pr = parts[p];
    for (NodeId c = 0; c < pr.scc.num_components; ++c) {
      tags.push_back(Tag{wcc.members[p][pr.completion_roots[c]], p, c,
                         pr.nontrivial[c] != 0});
    }
  }
  std::sort(tags.begin(), tags.end(), [](const Tag& a, const Tag& b) {
    if (a.root_gid != b.root_gid) return a.root_gid < b.root_gid;
    return a.local < b.local;
  });

  SccResult result;
  result.num_components = total;
  result.component_of.resize(n);
  result.members.resize(total);
  ThreadPool::Global().ParallelFor(total, num_threads, [&](size_t k) {
    const Tag& tag = tags[k];
    const std::vector<NodeId>& part_nodes = wcc.members[tag.part];
    const std::vector<NodeId>& locals =
        parts[tag.part].scc.members[tag.local];
    std::vector<NodeId> globals;
    globals.reserve(locals.size());
    for (NodeId lv : locals) globals.push_back(part_nodes[lv]);
    for (NodeId g : globals) result.component_of[g] = static_cast<NodeId>(k);
    result.members[k] = std::move(globals);
  });
  for (NodeId k = 0; k < total; ++k) {
    if (tags[k].nontrivial) result.nontrivial_components.push_back(k);
  }
  TPIIN_CHECK_EQ(result.members.size(), result.num_components);
  return result;
}

}  // namespace tpiin
