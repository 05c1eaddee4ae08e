#include "graph/connected.h"

#include <algorithm>
#include <memory>

#include "common/thread_pool.h"
#include "graph/union_find.h"
#include "obs/trace.h"

namespace tpiin {

namespace {

WccResult FromUnionFind(UnionFind& uf, NodeId num_nodes) {
  WccResult result;
  result.component_of = uf.DenseComponentIds();
  result.num_components = uf.NumSets();
  result.members.resize(result.num_components);
  for (NodeId v = 0; v < num_nodes; ++v) {
    result.members[result.component_of[v]].push_back(v);
  }
  return result;
}

// Below this many nodes the O(num_nodes) per-forest construct + merge
// overhead of the parallel driver exceeds the serial scan.
constexpr NodeId kParallelWccMinNodes = 1u << 13;

}  // namespace

WccResult WeaklyConnectedComponents(const FrozenGraph& graph,
                                    FrozenArcClass arc_class) {
  TPIIN_SPAN("wcc");
  UnionFind uf(graph.NumNodes());
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    for (NodeId target : graph.OutClass(v, arc_class).nodes) {
      uf.Union(v, target);
    }
  }
  return FromUnionFind(uf, graph.NumNodes());
}

WccResult WeaklyConnectedComponents(const FrozenGraph& graph,
                                    FrozenArcClass arc_class,
                                    uint32_t num_threads) {
  const NodeId n = graph.NumNodes();
  if (num_threads <= 1 || n < kParallelWccMinNodes) {
    return WeaklyConnectedComponents(graph, arc_class);
  }
  TPIIN_SPAN("wcc_parallel");

  const uint32_t chunks = num_threads;
  std::vector<std::unique_ptr<UnionFind>> forests(chunks);
  ThreadPool::Global().ParallelFor(chunks, num_threads, [&](size_t c) {
    auto uf = std::make_unique<UnionFind>(n);
    const NodeId lo = static_cast<NodeId>(uint64_t{n} * c / chunks);
    const NodeId hi = static_cast<NodeId>(uint64_t{n} * (c + 1) / chunks);
    for (NodeId v = lo; v < hi; ++v) {
      for (NodeId target : graph.OutClass(v, arc_class).nodes) {
        uf->Union(v, target);
      }
    }
    forests[c] = std::move(uf);
  });

  UnionFind merged = std::move(*forests[0]);
  for (uint32_t c = 1; c < chunks; ++c) merged.MergeFrom(*forests[c]);
  return FromUnionFind(merged, n);
}

}  // namespace tpiin
