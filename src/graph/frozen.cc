#include "graph/frozen.h"

#include <array>
#include <functional>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/trace.h"

namespace tpiin {

namespace {

// One direction of the CSR: a stable counting sort of `arcs` by their
// `key` endpoint, storing the `other` endpoint as the neighbor. Returns
// the number of partition-color arcs.
ArcId BuildHalf(NodeId n, std::span<const Arc> arcs, ArcColor partition,
                NodeId Arc::*key, NodeId Arc::*other, Col<ArcId>& offsets_col,
                Col<ArcId>& influence_end_col, Col<NodeId>& neighbors_col,
                Col<ArcId>& arc_ids_col) {
  std::vector<ArcId>& offsets = offsets_col.vec();
  std::vector<ArcId>& influence_end = influence_end_col.vec();
  std::vector<NodeId>& neighbors = neighbors_col.vec();
  std::vector<ArcId>& arc_ids = arc_ids_col.vec();
  offsets.assign(n + 1, 0);
  influence_end.assign(n, 0);
  neighbors.resize(arcs.size());
  arc_ids.resize(arcs.size());

  // Counting pass: total degree into offsets[v + 1], partition-color
  // degree into influence_end (both turned into absolute positions
  // below).
  ArcId influence_arcs = 0;
  for (const Arc& arc : arcs) {
    TPIIN_CHECK_LT(arc.*key, n) << "arc endpoint is not a node";
    ++offsets[arc.*key + 1];
    if (arc.color == partition) {
      ++influence_end[arc.*key];
      ++influence_arcs;
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    offsets[v + 1] += offsets[v];
    influence_end[v] += offsets[v];
  }

  // Placement pass in arc-id order, which makes the sort stable: two
  // cursors per node, partition-color arcs filling [offset,
  // influence_end) and the rest [influence_end, next offset), each in
  // ascending arc id.
  std::vector<ArcId> cursor(offsets.begin(), offsets.end() - 1);
  std::vector<ArcId> other_cursor(influence_end);
  for (ArcId id = 0; id < arcs.size(); ++id) {
    const Arc& arc = arcs[id];
    ArcId& slot = arc.color == partition ? cursor[arc.*key]
                                         : other_cursor[arc.*key];
    neighbors[slot] = arc.*other;
    arc_ids[slot] = id;
    ++slot;
  }
  offsets_col.Seal();
  influence_end_col.Seal();
  neighbors_col.Seal();
  arc_ids_col.Seal();
  return influence_arcs;
}

}  // namespace

FrozenGraph::FrozenGraph(NodeId num_nodes, std::span<const Arc> arcs,
                         ArcColor influence_color, uint32_t num_threads)
    : num_nodes_(num_nodes),
      num_arcs_(static_cast<ArcId>(arcs.size())),
      influence_color_(influence_color) {
  TPIIN_SPAN("freeze");
  const std::array<std::function<void()>, 2> halves = {
      [&] {
        num_influence_arcs_ = BuildHalf(
            num_nodes, arcs, influence_color, &Arc::src, &Arc::dst,
            out_offsets_, out_influence_end_, out_targets_, out_arc_ids_);
      },
      [&] {
        BuildHalf(num_nodes, arcs, influence_color, &Arc::dst, &Arc::src,
                  in_offsets_, in_influence_end_, in_sources_, in_arc_ids_);
      },
  };
  ThreadPool::Global().RunTasks(halves, num_threads);
}

FrozenGraph::Parts FrozenGraph::parts() const {
  return Parts{
      out_offsets_.span(),  out_influence_end_.span(), out_targets_.span(),
      out_arc_ids_.span(),  in_offsets_.span(),        in_influence_end_.span(),
      in_sources_.span(),   in_arc_ids_.span(),
  };
}

FrozenGraph FrozenGraph::FromParts(NodeId num_nodes, ArcId num_arcs,
                                   ArcId num_influence_arcs,
                                   ArcColor influence_color,
                                   const Parts& parts) {
  FrozenGraph graph;
  graph.num_nodes_ = num_nodes;
  graph.num_arcs_ = num_arcs;
  graph.num_influence_arcs_ = num_influence_arcs;
  graph.influence_color_ = influence_color;
  graph.out_offsets_.BindView(parts.out_offsets.data(),
                              parts.out_offsets.size());
  graph.out_influence_end_.BindView(parts.out_influence_end.data(),
                                    parts.out_influence_end.size());
  graph.out_targets_.BindView(parts.out_targets.data(),
                              parts.out_targets.size());
  graph.out_arc_ids_.BindView(parts.out_arc_ids.data(),
                              parts.out_arc_ids.size());
  graph.in_offsets_.BindView(parts.in_offsets.data(),
                             parts.in_offsets.size());
  graph.in_influence_end_.BindView(parts.in_influence_end.data(),
                                   parts.in_influence_end.size());
  graph.in_sources_.BindView(parts.in_sources.data(),
                             parts.in_sources.size());
  graph.in_arc_ids_.BindView(parts.in_arc_ids.data(),
                             parts.in_arc_ids.size());
  return graph;
}

}  // namespace tpiin
