#ifndef TPIIN_CORE_PATTERN_TREE_H_
#define TPIIN_CORE_PATTERN_TREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/result.h"
#include "core/subtpiin.h"

namespace tpiin {

/// Row of the paper's `listD` node ordering (Fig. 9(a)): nodes sorted by
/// increasing indegree, then decreasing outdegree, then node id. Degrees
/// are computed over the whole subTPIIN (influence and trading arcs).
struct ListDEntry {
  NodeId node = kInvalidNode;
  uint32_t in_degree = 0;
  uint32_t out_degree = 0;
};

std::vector<ListDEntry> ComputeListD(const SubTpiin& sub);

/// The patterns tree (Fig. 9(b)): every DFS visit becomes a tree node, so
/// a tree node uniquely identifies one directed trail from an
/// indegree-zero root (the path root -> ... -> node). Shared prefixes are
/// stored once — the reason the paper builds a tree rather than a flat
/// trail list, and what makes component-pattern matching linear in the
/// number of matched pairs (see MatchPatternsTree).
///
/// The tree is also the potential component patterns base (Fig. 10):
/// the suspicious relationship trails Algorithm 2 emits are the tree
/// nodes that end a component pattern (EndsPattern), in index order.
/// Each is one of two walk kinds:
///  - InOT-OutOSP walk (Definition 5): {A1, ..., Am}, all influence arcs,
///    from an indegree-zero node to an outdegree-zero node; or
///  - InOT-FTAOP walk (Definition 6): {A1, ..., Am, -> Cj}, an influence
///    trail joined with its first trading arc (Lemma 1).
struct PatternsTree {
  struct TreeNode {
    NodeId graph_node = kInvalidNode;
    int32_t parent = -1;            // Index into `nodes`; -1 for roots.
    bool via_trading_arc = false;   // Arc from the parent was trading.
    ArcId via_arc = kInvalidArc;    // Local arc id from the parent.
  };

  /// Nodes in DFS order; each root's subtree occupies a contiguous
  /// range, delimited by `roots` (plus nodes.size() as the last bound).
  std::vector<TreeNode> nodes;
  std::vector<int32_t> roots;

  /// Graph nodes along the path from the tree root to `index`,
  /// inclusive.
  std::vector<NodeId> PathTo(int32_t index) const;

  /// Allocation-free variant: clears and fills `*out`. Matching calls
  /// this once per emitted group; reusing the buffer keeps the hot loop
  /// free of per-pattern allocations.
  void PathTo(int32_t index, std::vector<NodeId>* out) const;

  /// True when tree node `index` ends a component pattern of `sub`:
  ///  - a trade leaf (Rule 2), whose InOT-FTAOP walk is the path to its
  ///    parent plus the trading arc `via_arc` into `graph_node`; or
  ///  - any other node whose graph node has outdegree zero (Rule 1),
  ///    whose InOT-OutOSP walk is the path to it.
  /// Algorithm 2 counts a trail in the step that adds its ending node,
  /// truncation included, so these nodes are exactly its num_trails.
  bool EndsPattern(const SubTpiin& sub, int32_t index) const {
    return nodes[index].via_trading_arc ||
           sub.frozen.OutDegree(nodes[index].graph_node) == 0;
  }

  /// Renders the component pattern that ends at `index` (see
  /// EndsPattern) in the paper's notation, e.g. "L1, C2, C5 -> C6" or
  /// "L1, C4".
  std::string FormatTrail(const SubTpiin& sub, int32_t index) const;

  /// Removes every tree node but keeps vector capacity, for recycling
  /// across GeneratePatternBase calls (see core/arena_pool.h).
  void Clear() {
    nodes.clear();
    roots.clear();
  }

  /// Indented textual rendering (Fig. 9(b) style).
  std::string ToString(const SubTpiin& sub) const;
};

/// Renders the potential component patterns base, one numbered trail
/// per line (Fig. 10 layout): every node of `tree` that ends a component
/// pattern, in emission order.
std::string FormatPatternBase(const SubTpiin& sub, const PatternsTree& tree);

struct PatternGenOptions {
  /// Safety valves for adversarial inputs; 0 = unlimited.
  size_t max_trails = 0;
  size_t max_trail_length = 0;

  /// Time budget for this generation (graceful degradation). When it
  /// expires mid-walk the DFS unwinds cleanly and returns whatever was
  /// emitted so far with truncated and deadline_expired set — a partial
  /// tree is still a valid tree (every emitted trail is complete), it
  /// just under-approximates the pattern set. Unlimited by default.
  Deadline deadline;

  /// Optional recycled buffer: when set, generation takes over its
  /// storage (cleared, capacity kept) for the returned tree instead of
  /// growing fresh vectors, so a caller that recycles trees — typically
  /// through an ArenaPool (core/arena_pool.h) — stops paying
  /// per-subTPIIN reallocation on repeated detection runs. The emitted
  /// tree is identical with or without scratch.
  PatternsTree* scratch = nullptr;
};

struct PatternGenResult {
  PatternsTree tree;
  size_t num_trails = 0;  // Rule 1 + Rule 2 stops.
  bool truncated = false;
  /// Truncation was (at least in part) caused by the deadline rather
  /// than the max_trails/max_trail_length valves.
  bool deadline_expired = false;
};

/// Algorithm 2: builds the patterns tree of `sub` by depth-first search
/// from every indegree-zero node in listD order, ending each walk at an
/// outdegree-zero node (Rule 1) or right after the first trading arc
/// (Rule 2); each root-to-stop trail is one component pattern of the
/// potential component patterns base.
///
/// Returns FailedPrecondition if the influence (antecedent) subgraph of
/// `sub` contains a directed cycle — Property 1 requires a DAG, and
/// TPIINs built through fusion or TpiinBuilder guarantee it.
Result<PatternGenResult> GeneratePatternBase(
    const SubTpiin& sub, const PatternGenOptions& options = {});

}  // namespace tpiin

#endif  // TPIIN_CORE_PATTERN_TREE_H_
