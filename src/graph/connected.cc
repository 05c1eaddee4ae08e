#include "graph/connected.h"

#include "graph/union_find.h"
#include "obs/trace.h"

namespace tpiin {

WccResult WeaklyConnectedComponents(const FrozenGraph& graph,
                                    FrozenArcClass arc_class) {
  TPIIN_SPAN("wcc");
  const NodeId n = graph.NumNodes();
  UnionFind uf(n);
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId target : graph.OutClass(v, arc_class).nodes) {
      uf.Union(v, target);
    }
  }
  WccResult result;
  result.component_of = uf.DenseComponentIds();
  result.num_components = uf.NumSets();
  result.members.resize(result.num_components);
  for (NodeId v = 0; v < n; ++v) {
    result.members[result.component_of[v]].push_back(v);
  }
  return result;
}

}  // namespace tpiin
