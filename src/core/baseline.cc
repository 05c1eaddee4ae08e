#include "core/baseline.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "common/logging.h"

namespace tpiin {

namespace {

// All influence-only simple paths from `anchor` (including the trivial
// path {anchor}), plus every trade-terminated trail formed by joining a
// trading arc to a path end (Lemma 1).
//
// Walks the CSR: the DFS descends over each node's influence span and
// trail termination sweeps its trading span, each in arc-id order.
struct Enumeration {
  std::vector<std::vector<NodeId>> paths;  // Influence-only paths.
  // (path index, buyer node) pairs: the trail paths[i] plus the trading
  // arc from its end node to the buyer.
  std::vector<std::pair<size_t, NodeId>> trade_trails;
  // Path indices grouped by end node.
  std::unordered_map<NodeId, std::vector<size_t>> paths_by_end;
};

Enumeration EnumerateFrom(const FrozenGraph& fg, NodeId anchor) {
  Enumeration result;

  struct Frame {
    NodeId node;
    uint32_t arc_pos;
  };
  std::vector<Frame> frames = {{anchor, 0}};
  std::vector<NodeId> path = {anchor};

  auto record_path = [&]() {
    size_t index = result.paths.size();
    result.paths.push_back(path);
    result.paths_by_end[path.back()].push_back(index);
    for (NodeId buyer : fg.TradingOut(path.back()).nodes) {
      result.trade_trails.emplace_back(index, buyer);
    }
  };
  record_path();  // The trivial path {anchor} is a trail too.

  while (!frames.empty()) {
    Frame& frame = frames.back();
    std::span<const NodeId> influence = fg.InfluenceOut(frame.node).nodes;
    if (frame.arc_pos < influence.size()) {
      NodeId dst = influence[frame.arc_pos];
      ++frame.arc_pos;
      frames.push_back(Frame{dst, 0});
      path.push_back(dst);
      record_path();  // Every DFS prefix is a distinct path.
      continue;
    }
    path.pop_back();
    frames.pop_back();
  }
  return result;
}

}  // namespace

BaselineResult DetectBaseline(const Tpiin& net,
                              const BaselineOptions& options) {
  const FrozenGraph& fg = net.frozen();
  BaselineResult result;

  std::set<std::pair<NodeId, NodeId>> trades;
  std::vector<uint8_t> in_trade_trail(fg.NumNodes(), 0);

  auto over_budget = [&]() {
    return options.max_groups != 0 &&
           result.num_simple + result.num_complex >= options.max_groups;
  };

  for (NodeId anchor = 0; anchor < fg.NumNodes(); ++anchor) {
    if (options.anchor == BaselineAnchor::kIndegreeZeroOnly &&
        fg.InfluenceInDegree(anchor) != 0) {
      continue;
    }
    if (over_budget()) break;
    Enumeration enumeration = EnumerateFrom(fg, anchor);
    result.num_trails_enumerated +=
        enumeration.paths.size() + enumeration.trade_trails.size();

    if (options.naive_pairing) {
      // Pair every trade-terminated trail against every influence trail
      // and test Definition 2 membership directly (end-node equality),
      // without the paths_by_end index.
      for (const auto& [path_index, buyer] : enumeration.trade_trails) {
        if (over_budget()) break;
        const std::vector<NodeId>& p = enumeration.paths[path_index];
        const NodeId seller = p.back();
        for (size_t i = 1; i < p.size(); ++i) in_trade_trail[p[i]] = 1;
        for (const std::vector<NodeId>& q : enumeration.paths) {
          if (q.back() != buyer) continue;  // Ends must coincide.
          if (over_budget()) break;
          bool is_simple = true;
          for (size_t i = 1; i + 1 < q.size(); ++i) {
            if (in_trade_trail[q[i]]) {
              is_simple = false;
              break;
            }
          }
          if (is_simple) {
            ++result.num_simple;
          } else {
            ++result.num_complex;
          }
          trades.emplace(seller, buyer);
          if (options.collect_groups) {
            SuspiciousGroup group;
            group.antecedent = anchor;
            group.trade_trail = p;
            group.trade_seller = seller;
            group.trade_buyer = buyer;
            group.partner_trail = q;
            group.is_simple = is_simple;
            group.members = p;
            group.members.insert(group.members.end(), q.begin(), q.end());
            group.members.push_back(buyer);
            std::sort(group.members.begin(), group.members.end());
            group.members.erase(
                std::unique(group.members.begin(), group.members.end()),
                group.members.end());
            result.groups.push_back(std::move(group));
          }
        }
        for (size_t i = 1; i < p.size(); ++i) in_trade_trail[p[i]] = 0;
      }
      continue;
    }

    for (const auto& [path_index, buyer] : enumeration.trade_trails) {
      if (over_budget()) break;
      const std::vector<NodeId>& p = enumeration.paths[path_index];
      const NodeId seller = p.back();
      auto partners = enumeration.paths_by_end.find(buyer);
      if (partners == enumeration.paths_by_end.end()) continue;

      for (size_t i = 1; i < p.size(); ++i) in_trade_trail[p[i]] = 1;
      for (size_t partner_index : partners->second) {
        if (over_budget()) break;
        const std::vector<NodeId>& q = enumeration.paths[partner_index];
        bool is_simple = true;
        for (size_t i = 1; i + 1 < q.size(); ++i) {
          if (in_trade_trail[q[i]]) {
            is_simple = false;
            break;
          }
        }
        if (is_simple) {
          ++result.num_simple;
        } else {
          ++result.num_complex;
        }
        trades.emplace(seller, buyer);
        if (options.collect_groups) {
          SuspiciousGroup group;
          group.antecedent = anchor;
          group.trade_trail = p;
          group.trade_seller = seller;
          group.trade_buyer = buyer;
          group.partner_trail = q;
          group.is_simple = is_simple;
          group.members = p;
          group.members.insert(group.members.end(), q.begin(), q.end());
          group.members.push_back(buyer);
          std::sort(group.members.begin(), group.members.end());
          group.members.erase(
              std::unique(group.members.begin(), group.members.end()),
              group.members.end());
          result.groups.push_back(std::move(group));
        }
      }
      for (size_t i = 1; i < p.size(); ++i) in_trade_trail[p[i]] = 0;
    }
  }

  result.truncated = over_budget();
  result.suspicious_trades.assign(trades.begin(), trades.end());
  return result;
}

}  // namespace tpiin
