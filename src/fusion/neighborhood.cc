#include "fusion/neighborhood.h"

#include <algorithm>
#include <deque>
#include <vector>

#include "common/logging.h"

namespace tpiin {

Result<Tpiin> ExtractEgoNetwork(const Tpiin& net, NodeId center,
                                const EgoOptions& options) {
  if (center >= net.NumNodes()) {
    return Status::InvalidArgument("ego center out of range");
  }
  // Undirected BFS over the selected colors: out and in spans of the
  // CSR, so the extraction works on snapshot-backed networks too. The
  // kept set is sorted below, so visit order does not matter.
  const FrozenGraph& fg = net.frozen();
  const bool follow_any = options.follow_influence || options.follow_trading;
  const FrozenArcClass arc_class =
      !options.follow_trading    ? FrozenArcClass::kInfluence
      : !options.follow_influence ? FrozenArcClass::kTrading
                                  : FrozenArcClass::kAll;
  constexpr uint32_t kUnseen = UINT32_MAX;
  std::vector<uint32_t> distance(net.NumNodes(), kUnseen);
  std::deque<NodeId> frontier = {center};
  distance[center] = 0;
  std::vector<NodeId> kept = {center};
  while (follow_any && !frontier.empty()) {
    NodeId u = frontier.front();
    frontier.pop_front();
    if (distance[u] >= options.depth) continue;
    for (const AdjSpan& span : {fg.OutClass(u, arc_class),
                                fg.InClass(u, arc_class)}) {
      for (NodeId v : span.nodes) {
        if (distance[v] != kUnseen) continue;
        distance[v] = distance[u] + 1;
        kept.push_back(v);
        frontier.push_back(v);
      }
    }
  }
  std::sort(kept.begin(), kept.end());

  std::vector<NodeId> local_of_global(net.NumNodes(), kInvalidNode);
  TpiinBuilder builder;
  for (NodeId global : kept) {
    const TpiinNode node = net.node(global);
    NodeId local;
    if (node.color == NodeColor::kPerson) {
      local = builder.AddPersonNode(
          node.label, {node.person_members.begin(), node.person_members.end()});
    } else {
      local = builder.AddCompanyNode(
          node.label,
          {node.company_members.begin(), node.company_members.end()});
      if (!node.internal_investments.empty()) {
        builder.SetInternalInvestments(local,
                                       {node.internal_investments.begin(),
                                        node.internal_investments.end()});
      }
    }
    local_of_global[global] = local;
  }

  // All arcs between retained nodes, influence first (arc-id order of
  // the source network preserves that invariant).
  for (ArcId id = 0; id < net.NumArcs(); ++id) {
    const Arc arc = net.arc(id);
    NodeId src = local_of_global[arc.src];
    NodeId dst = local_of_global[arc.dst];
    if (src == kInvalidNode || dst == kInvalidNode) continue;
    if (IsInfluenceArc(arc)) {
      builder.AddInfluenceArc(src, dst, net.ArcWeight(id));
    } else {
      builder.AddTradingArc(src, dst);
    }
  }
  return builder.Build();
}

}  // namespace tpiin
