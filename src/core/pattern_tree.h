#ifndef TPIIN_CORE_PATTERN_TREE_H_
#define TPIIN_CORE_PATTERN_TREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/result.h"
#include "core/component_pattern.h"
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

  /// Removes every tree node but keeps vector capacity, for recycling
  /// across GeneratePatternBase calls (see core/arena_pool.h).
  void Clear() {
    nodes.clear();
    roots.clear();
  }

  /// Indented textual rendering (Fig. 9(b) style).
  std::string ToString(const SubTpiin& sub) const;
};

/// Reusable generation buffers: a PatternBase arena plus a PatternsTree.
/// When handed to GeneratePatternBase via PatternGenOptions::scratch,
/// the generator moves the buffers into its result (cleared, capacity
/// kept) instead of default-constructing them, so a caller that recycles
/// the buffers — typically through an ArenaPool (core/arena_pool.h) —
/// stops paying per-subTPIIN reallocation on repeated detection runs.
struct PatternScratch {
  PatternBase base;
  PatternsTree tree;
};

struct PatternGenOptions {
  /// Materialize the trail list (the potential component patterns base,
  /// Fig. 10). Mining itself only needs the tree; the detector turns
  /// this off.
  bool emit_trails = true;

  /// Build the patterns tree. On by default — matching consumes it.
  bool build_tree = true;

  /// Emit roots in listD order (paper fidelity). When false, roots come
  /// in node-id order; the resulting base is a permutation.
  bool order_roots_by_list_d = true;

  /// Safety valves for adversarial inputs; 0 = unlimited.
  size_t max_trails = 0;
  size_t max_trail_length = 0;

  /// Time budget for this generation (graceful degradation). When it
  /// expires mid-walk the DFS unwinds cleanly and returns whatever was
  /// emitted so far with truncated and deadline_expired set — a partial
  /// base is still a valid base (every emitted trail is complete), it
  /// just under-approximates the pattern set. Unlimited by default.
  Deadline deadline;

  /// Optional recycled buffers: when set, generation takes over
  /// scratch->base/tree storage (cleared, capacity kept) for the
  /// returned result instead of growing fresh vectors. The emitted
  /// content is identical with or without scratch.
  PatternScratch* scratch = nullptr;
};

struct PatternGenResult {
  PatternBase base;   // Populated iff options.emit_trails.
  PatternsTree tree;  // Populated iff options.build_tree.
  size_t num_trails = 0;  // Always counted (Rule 1 + Rule 2 stops).
  bool truncated = false;
  /// Truncation was (at least in part) caused by the deadline rather
  /// than the max_trails/max_trail_length valves.
  bool deadline_expired = false;
};

/// Algorithm 2: builds the patterns tree of `sub` by depth-first search
/// from every indegree-zero node, ending each walk at an outdegree-zero
/// node (Rule 1) or right after the first trading arc (Rule 2), and
/// emits each root-to-stop trail into the potential component patterns
/// base.
///
/// Returns FailedPrecondition if the influence (antecedent) subgraph of
/// `sub` contains a directed cycle — Property 1 requires a DAG, and
/// TPIINs built through fusion or TpiinBuilder guarantee it.
Result<PatternGenResult> GeneratePatternBase(
    const SubTpiin& sub, const PatternGenOptions& options = {});

}  // namespace tpiin

#endif  // TPIIN_CORE_PATTERN_TREE_H_
