#ifndef TPIIN_GRAPH_UNION_FIND_H_
#define TPIIN_GRAPH_UNION_FIND_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/types.h"

namespace tpiin {

/// Disjoint-set forest with union by size and path halving. Backs the
/// person-syndicate contraction (every connected component of the
/// interdependence graph collapses into one syndicate) and weak
/// connectivity.
class UnionFind {
 public:
  explicit UnionFind(NodeId n) : parent_(n), size_(n, 1) {
    for (NodeId i = 0; i < n; ++i) parent_[i] = i;
  }

  NodeId Find(NodeId x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];  // Path halving.
      x = parent_[x];
    }
    return x;
  }

  /// Merges the sets of a and b; returns true if they were distinct.
  bool Union(NodeId a, NodeId b) {
    NodeId ra = Find(a);
    NodeId rb = Find(b);
    if (ra == rb) return false;
    if (size_[ra] < size_[rb]) std::swap(ra, rb);
    parent_[rb] = ra;
    size_[ra] += size_[rb];
    --num_sets_delta_;
    return true;
  }

  bool Connected(NodeId a, NodeId b) { return Find(a) == Find(b); }

  NodeId SizeOf(NodeId x) { return size_[Find(x)]; }

  NodeId num_elements() const {
    return static_cast<NodeId>(parent_.size());
  }

  /// Number of disjoint sets remaining.
  NodeId NumSets() const {
    return static_cast<NodeId>(parent_.size()) + num_sets_delta_;
  }

  /// Assigns dense component ids [0, NumSets()) in order of first
  /// appearance; returns component id per element.
  std::vector<NodeId> DenseComponentIds();

 private:
  std::vector<NodeId> parent_;
  std::vector<NodeId> size_;
  int64_t num_sets_delta_ = 0;
};

}  // namespace tpiin

#endif  // TPIIN_GRAPH_UNION_FIND_H_
