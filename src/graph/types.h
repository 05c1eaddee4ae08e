#ifndef TPIIN_GRAPH_TYPES_H_
#define TPIIN_GRAPH_TYPES_H_

#include <cstdint>
#include <limits>

namespace tpiin {

/// Dense node index within one graph. 32 bits comfortably covers the
/// paper's "big data" scale for a single provincial TPIIN (millions of
/// taxpayers) while halving adjacency memory versus 64-bit ids.
using NodeId = uint32_t;

/// Dense arc index within one graph.
using ArcId = uint32_t;

inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();
inline constexpr ArcId kInvalidArc = std::numeric_limits<ArcId>::max();

/// Arc color label. The graph layer treats colors as opaque small
/// integers; model/fusion layers define the concrete palettes
/// (Influence/Trading, Kinship/Interlocking, ...).
using ArcColor = int32_t;

/// A directed edge with a color. Plain aggregate; an arc table lists
/// arcs by id, so an arc's position is its stable handle.
struct Arc {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  ArcColor color = 0;

  friend bool operator==(const Arc&, const Arc&) = default;
};

}  // namespace tpiin

#endif  // TPIIN_GRAPH_TYPES_H_
