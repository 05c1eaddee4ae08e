#include "graph/union_find.h"

namespace tpiin {

std::vector<NodeId> UnionFind::DenseComponentIds() {
  std::vector<NodeId> ids(parent_.size(), kInvalidNode);
  std::vector<NodeId> root_to_dense(parent_.size(), kInvalidNode);
  NodeId next = 0;
  for (NodeId i = 0; i < parent_.size(); ++i) {
    NodeId r = Find(i);
    if (root_to_dense[r] == kInvalidNode) root_to_dense[r] = next++;
    ids[i] = root_to_dense[r];
  }
  return ids;
}

}  // namespace tpiin
