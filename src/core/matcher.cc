#include "core/matcher.h"

#include <algorithm>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "core/pattern_tree.h"

namespace tpiin {

namespace {

// FNV-1a style hash over a node sequence, used to bucket in-trail
// circles; equality is exact (vector ==), so collisions only cost time.
struct NodeVecHash {
  size_t operator()(const std::vector<NodeId>& v) const {
    uint64_t h = 1469598103934665603ULL;
    for (NodeId x : v) {
      h ^= x;
      h *= 1099511628211ULL;
    }
    return static_cast<size_t>(h);
  }
};

std::vector<NodeId> ToGlobalVec(const SubTpiin& sub,
                                std::span<const NodeId> local) {
  std::vector<NodeId> out;
  out.reserve(local.size());
  for (NodeId v : local) out.push_back(sub.ToGlobal(v));
  return out;
}

// Assembles a pairwise group record from local trails. `trade_nodes` is
// the influence part A1..Am of the trade-carrying trail; `partner` ends
// at cj.
SuspiciousGroup BuildPairGroup(const SubTpiin& sub,
                               std::span<const NodeId> trade_nodes,
                               NodeId cj,
                               std::span<const NodeId> partner,
                               bool is_simple) {
  SuspiciousGroup group;
  group.antecedent = sub.ToGlobal(trade_nodes[0]);
  group.trade_trail = ToGlobalVec(sub, trade_nodes);
  group.trade_seller = sub.ToGlobal(trade_nodes.back());
  group.trade_buyer = sub.ToGlobal(cj);
  group.partner_trail = ToGlobalVec(sub, partner);
  group.is_simple = is_simple;
  group.members = group.trade_trail;
  group.members.insert(group.members.end(), group.partner_trail.begin(),
                       group.partner_trail.end());
  group.members.push_back(group.trade_buyer);
  std::sort(group.members.begin(), group.members.end());
  group.members.erase(
      std::unique(group.members.begin(), group.members.end()),
      group.members.end());
  return group;
}

// Assembles the in-trail circle group anchored at cj; `suffix` runs from
// the cj occurrence to the seller.
SuspiciousGroup BuildCycleGroup(const SubTpiin& sub,
                                std::span<const NodeId> suffix,
                                NodeId cj) {
  SuspiciousGroup group;
  group.antecedent = sub.ToGlobal(cj);
  group.trade_trail = ToGlobalVec(sub, suffix);
  group.trade_seller = sub.ToGlobal(suffix.back());
  group.trade_buyer = sub.ToGlobal(cj);
  group.partner_trail = {sub.ToGlobal(cj)};
  group.is_simple = true;
  group.from_cycle = true;
  group.members = group.trade_trail;
  std::sort(group.members.begin(), group.members.end());
  return group;
}

}  // namespace

std::string SuspiciousGroup::Format(const Tpiin& net) const {
  std::string out(net.Label(antecedent));
  out += ": {";
  for (size_t i = 0; i < trade_trail.size(); ++i) {
    if (i > 0) out += ", ";
    out += net.Label(trade_trail[i]);
  }
  out += " -> ";
  out += net.Label(trade_buyer);
  out += "} | {";
  for (size_t i = 0; i < partner_trail.size(); ++i) {
    if (i > 0) out += ", ";
    out += net.Label(partner_trail[i]);
  }
  out += "}";
  if (from_cycle) out += " [circle]";
  out += is_simple ? " [simple]" : " [complex]";
  return out;
}

MatchResult MatchPatternsTree(const SubTpiin& sub, const PatternsTree& tree,
                              const MatchOptions& options) {
  MatchResult result;
  const NodeId n = sub.frozen.NumNodes();
  std::vector<uint8_t> in_trade_trail(n, 0);
  std::unordered_set<ArcId> suspicious_local_arcs;
  std::unordered_set<std::vector<NodeId>, NodeVecHash> seen_cycles;

  auto over_budget = [&]() {
    return options.max_groups != 0 &&
           result.num_simple + result.num_complex + result.num_cycle_groups >=
               options.max_groups;
  };

  std::unordered_map<NodeId, std::vector<int32_t>> occurrences;
  std::vector<int32_t> trade_leaves;
  std::vector<NodeId> trade_path;  // Reused across leaves (no per-leaf alloc).
  std::vector<NodeId> partner;     // Reused across partners.
  for (size_t r = 0; r < tree.roots.size() && !over_budget(); ++r) {
    int32_t begin = tree.roots[r];
    int32_t end = r + 1 < tree.roots.size()
                      ? tree.roots[r + 1]
                      : static_cast<int32_t>(tree.nodes.size());
    occurrences.clear();
    trade_leaves.clear();
    // A tree node IS one distinct trail from this root, so indexing tree
    // nodes by graph node enumerates every partner component pattern
    // exactly once — the efficiency the patterns tree buys.
    for (int32_t i = begin; i < end; ++i) {
      if (tree.nodes[i].via_trading_arc) {
        trade_leaves.push_back(i);
      } else {
        occurrences[tree.nodes[i].graph_node].push_back(i);
      }
    }

    for (int32_t leaf : trade_leaves) {
      if (over_budget()) break;
      const NodeId cj = tree.nodes[leaf].graph_node;
      const ArcId trade_arc = tree.nodes[leaf].via_arc;
      tree.PathTo(tree.nodes[leaf].parent, &trade_path);
      for (size_t i = 1; i < trade_path.size(); ++i) {
        in_trade_trail[trade_path[i]] = 1;
      }

      auto occ_it = occurrences.find(cj);
      if (occ_it != occurrences.end()) {
        for (int32_t partner_index : occ_it->second) {
          if (over_budget()) break;
          tree.PathTo(partner_index, &partner);
          bool is_simple = true;
          for (size_t i = 1; i + 1 < partner.size(); ++i) {
            if (in_trade_trail[partner[i]]) {
              is_simple = false;
              break;
            }
          }
          if (is_simple) {
            ++result.num_simple;
          } else {
            ++result.num_complex;
          }
          suspicious_local_arcs.insert(trade_arc);
          if (options.collect_groups) {
            result.groups.push_back(
                BuildPairGroup(sub, trade_path, cj, partner, is_simple));
          }
        }
      }

      for (size_t i = 1; i < trade_path.size(); ++i) {
        in_trade_trail[trade_path[i]] = 0;
      }

      if (options.detect_cycles) {
        for (uint32_t pos = 0; pos < trade_path.size(); ++pos) {
          if (trade_path[pos] != cj) continue;
          std::vector<NodeId> suffix(trade_path.begin() + pos,
                                     trade_path.end());
          std::vector<NodeId> key = suffix;
          key.push_back(cj);
          if (seen_cycles.insert(key).second && !over_budget()) {
            ++result.num_cycle_groups;
            suspicious_local_arcs.insert(trade_arc);
            if (options.collect_groups) {
              result.groups.push_back(BuildCycleGroup(sub, suffix, cj));
            }
          }
          break;  // A DAG path contains cj at most once.
        }
      }
    }
  }

  result.truncated = over_budget();
  result.suspicious_trading_arcs.reserve(suspicious_local_arcs.size());
  for (ArcId local : suspicious_local_arcs) {
    result.suspicious_trading_arcs.push_back(sub.ToGlobalArc(local));
  }
  std::sort(result.suspicious_trading_arcs.begin(),
            result.suspicious_trading_arcs.end());
  return result;
}

}  // namespace tpiin
