#include "core/detector.h"

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/arena_pool.h"
#include "core/pattern_tree.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace tpiin {

namespace {

// BFS over a syndicate's internal investment arcs; strong connectivity
// of the contracted SCS guarantees a chain exists.
std::vector<CompanyId> InternalChain(const TpiinNode& syndicate,
                                     CompanyId from, CompanyId to) {
  std::unordered_map<CompanyId, std::vector<CompanyId>> adj;
  adj.reserve(syndicate.internal_investments.size());
  for (const auto& [src, dst] : syndicate.internal_investments) {
    adj[src].push_back(dst);
  }
  std::unordered_map<CompanyId, CompanyId> parent;
  parent.reserve(adj.size() + 1);
  std::deque<CompanyId> frontier = {from};
  parent[from] = from;
  while (!frontier.empty()) {
    CompanyId u = frontier.front();
    frontier.pop_front();
    if (u == to) break;
    // find() rather than operator[]: a sink company has no outgoing
    // internal investments, and operator[] would insert an empty list
    // for it on every visit, rehashing the map mid-BFS.
    auto it = adj.find(u);
    if (it == adj.end()) continue;
    for (CompanyId v : it->second) {
      if (parent.emplace(v, u).second) frontier.push_back(v);
    }
  }
  std::vector<CompanyId> chain;
  if (!parent.count(to)) return chain;  // Malformed syndicate; empty chain.
  for (CompanyId v = to; v != from; v = parent[v]) chain.push_back(v);
  chain.push_back(from);
  std::reverse(chain.begin(), chain.end());
  return chain;
}

}  // namespace

const char* SubSkipName(SubSkip skip) {
  switch (skip) {
    case SubSkip::kNone: return "none";
    case SubSkip::kNodeCap: return "node_cap";
    case SubSkip::kArcCap: return "arc_cap";
    case SubSkip::kDeadline: return "deadline";
    case SubSkip::kSliceTruncated: return "slice_truncated";
  }
  return "unknown";
}

double DetectionResult::SuspiciousTradePercent() const {
  size_t total = total_trading_arcs + intra_syndicate.size();
  if (total == 0) return 0;
  return 100.0 * (suspicious_trades.size() + intra_syndicate.size()) /
         static_cast<double>(total);
}

std::string DetectionResult::Summary() const {
  return StringPrintf(
      "subTPIINs=%zu trails=%zu groups: complex=%zu simple=%zu circle=%zu "
      "intra-SCC=%zu; suspicious trades=%zu of %zu (%.4f%%)%s",
      num_subtpiins, num_trails, num_complex, num_simple, num_cycle_groups,
      intra_syndicate.size(), suspicious_trades.size() + intra_syndicate.size(),
      total_trading_arcs + intra_syndicate.size(), SuspiciousTradePercent(),
      degraded ? " [DEGRADED]" : (truncated ? " [TRUNCATED]" : ""));
}

Result<DetectionResult> DetectSuspiciousGroups(const Tpiin& net,
                                               const DetectorOptions& options) {
  TPIIN_SPAN("detect");
  DetectionResult result;
  result.total_trading_arcs = net.num_trading_arcs();
  WallTimer total_timer;
  WallTimer stage_timer;
  double stage_cpu = ProcessCpuSeconds();
  const auto close_stage = [&](double* wall_sink, double* cpu_sink) {
    *wall_sink = stage_timer.ElapsedSeconds();
    const double cpu_now = ProcessCpuSeconds();
    *cpu_sink = cpu_now - stage_cpu;
    stage_timer.Restart();
    stage_cpu = cpu_now;
  };

  std::vector<SubTpiin> subs;
  {
    TPIIN_SPAN("segment");
    subs = SegmentTpiin(net, SegmentOptions{}, &result.segment_stats);
  }
  close_stage(&result.timings.segment_seconds,
              &result.timings.segment_cpu_seconds);
  result.num_subtpiins = subs.size();
  TPIIN_COUNTER_ADD("detect.subtpiins", subs.size());

  // Per-subTPIIN outcomes, index-addressed so the merge below is
  // deterministic regardless of worker scheduling.
  struct SubOutcome {
    size_t num_trails = 0;
    bool truncated = false;
    SubSkip skip = SubSkip::kNone;
    MatchResult match;
    double pattern_seconds = 0;
    double match_seconds = 0;
  };
  std::vector<SubOutcome> outcomes(subs.size());

  // The run deadline covers the whole call, segmentation included.
  const Deadline run_deadline =
      Deadline::After(options.budget.deadline_seconds);

  // Structural cap decisions happen serially, in emission-index order,
  // before any mining — so which subTPIINs are skipped never depends on
  // thread count or machine speed. Deadline-based skips (below) are
  // inherently time-dependent; caps are the deterministic knob.
  for (size_t index = 0; index < subs.size(); ++index) {
    if (options.budget.max_sub_nodes != 0 &&
        subs[index].frozen.NumNodes() > options.budget.max_sub_nodes) {
      outcomes[index].skip = SubSkip::kNodeCap;
    } else if (options.budget.max_sub_arcs != 0 &&
               subs[index].frozen.NumArcs() > options.budget.max_sub_arcs) {
      outcomes[index].skip = SubSkip::kArcCap;
    }
  }

  auto process_one = [&](size_t index) -> Status {
    TPIIN_SPAN("sub_mine");
    TPIIN_FAILPOINT("core.sub_mine");
    SubOutcome& outcome = outcomes[index];
    if (outcome.skip != SubSkip::kNone) return Status::OK();
    if (run_deadline.Expired()) {
      outcome.skip = SubSkip::kDeadline;
      return Status::OK();
    }
    const SubTpiin& sub = subs[index];
    PatternGenOptions gen_options;
    gen_options.max_trails = options.max_trails_per_subtpiin;
    gen_options.deadline = Deadline::Sooner(
        run_deadline, Deadline::After(options.budget.sub_slice_seconds));
    PatternsTree scratch;
    if (options.arena_pool != nullptr) {
      scratch = options.arena_pool->Acquire();
      gen_options.scratch = &scratch;
    }
    Result<PatternGenResult> gen = [&] {
      TPIIN_SPAN("pattern_base");
      ScopedTimer timer(&outcome.pattern_seconds);
      return GeneratePatternBase(sub, gen_options);
    }();
    TPIIN_RETURN_IF_ERROR(gen.status());
    outcome.num_trails = gen->num_trails;
    outcome.truncated = gen->truncated;
    if (gen->deadline_expired) outcome.skip = SubSkip::kSliceTruncated;
    {
      TPIIN_SPAN("match");
      ScopedTimer timer(&outcome.match_seconds);
      outcome.match = MatchPatternsTree(sub, gen->tree, options.match);
    }
    if (options.arena_pool != nullptr) {
      // Matching consumed the tree, so its grown buffers go straight
      // back to the pool for the next subTPIIN (or the next detection
      // run).
      options.arena_pool->Release(std::move(gen->tree));
    }
    return Status::OK();
  };

  // The persistent pool's threads are reused across DetectSuspiciousGroups
  // calls; a single-threaded request never touches the pool's queue. A
  // failing subTPIIN (bad precondition, injected fault) cancels siblings
  // not yet started and surfaces the lowest-index error; completed
  // siblings' outcomes are simply dropped with the whole result.
  {
    TPIIN_SPAN("mine");
    CancelToken cancel;
    TPIIN_RETURN_IF_ERROR(ThreadPool::Global().ParallelForChecked(
        subs.size(), ResolveThreadCount(options.num_threads), process_one,
        &cancel));
  }
  close_stage(&result.timings.mine_seconds,
              &result.timings.mine_cpu_seconds);

  TraceSpan finalize_span("finalize");
  result.sub_profiles.reserve(subs.size());
  std::vector<ArcId> suspicious_arcs;
  for (size_t index = 0; index < outcomes.size(); ++index) {
    SubOutcome& outcome = outcomes[index];
    SubTpiinProfile profile;
    profile.index = index;
    profile.num_nodes = subs[index].frozen.NumNodes();
    profile.num_arcs = subs[index].frozen.NumArcs();
    profile.num_trails = outcome.num_trails;
    profile.skip = outcome.skip;
    if (outcome.skip != SubSkip::kNone) {
      result.degraded = true;
      if (outcome.skip != SubSkip::kSliceTruncated) {
        ++result.num_skipped_subs;
      }
    }
    profile.num_groups = outcome.match.num_simple +
                         outcome.match.num_complex +
                         outcome.match.num_cycle_groups;
    profile.pattern_seconds = outcome.pattern_seconds;
    profile.match_seconds = outcome.match_seconds;
    result.sub_profiles.push_back(profile);
    result.timings.pattern_seconds += outcome.pattern_seconds;
    result.timings.match_seconds += outcome.match_seconds;
    result.num_trails += outcome.num_trails;
    result.truncated =
        result.truncated || outcome.truncated || outcome.match.truncated;
    result.num_simple += outcome.match.num_simple;
    result.num_complex += outcome.match.num_complex;
    result.num_cycle_groups += outcome.match.num_cycle_groups;
    if (options.match.collect_groups) {
      result.groups.insert(
          result.groups.end(),
          std::make_move_iterator(outcome.match.groups.begin()),
          std::make_move_iterator(outcome.match.groups.end()));
    }
    suspicious_arcs.insert(suspicious_arcs.end(),
                           outcome.match.suspicious_trading_arcs.begin(),
                           outcome.match.suspicious_trading_arcs.end());
  }

  // Arc ids -> (seller, buyer) node pairs. Arc ids are unique across
  // subTPIINs (each trading arc lands in at most one component).
  std::sort(suspicious_arcs.begin(), suspicious_arcs.end());
  suspicious_arcs.erase(
      std::unique(suspicious_arcs.begin(), suspicious_arcs.end()),
      suspicious_arcs.end());
  result.suspicious_trades.reserve(suspicious_arcs.size());
  for (ArcId id : suspicious_arcs) {
    const Arc arc = net.arc(id);
    result.suspicious_trades.emplace_back(arc.src, arc.dst);
  }
  std::sort(result.suspicious_trades.begin(),
            result.suspicious_trades.end());

  if (options.include_intra_syndicate) {
    for (const IntraSyndicateTrade& trade : net.intra_syndicate_trades()) {
      IntraSyndicateFinding finding;
      finding.syndicate_node = trade.syndicate_node;
      finding.seller = trade.seller;
      finding.buyer = trade.buyer;
      finding.chain = InternalChain(net.node(trade.syndicate_node),
                                    trade.seller, trade.buyer);
      result.intra_syndicate.push_back(std::move(finding));
    }
  }

  close_stage(&result.timings.finalize_seconds,
              &result.timings.finalize_cpu_seconds);
  result.timings.total_seconds = total_timer.ElapsedSeconds();
  TPIIN_COUNTER_ADD("detect.trails", result.num_trails);
  TPIIN_COUNTER_ADD("detect.groups", result.TotalGroups());
  TPIIN_COUNTER_ADD("detect.suspicious_trades",
                    result.suspicious_trades.size());
  return result;
}

void AddDetectionToReport(const DetectionResult& result, size_t top_k,
                          RunReport* report) {
  const DetectionTimings& t = result.timings;
  report->AddStage("segment", t.segment_seconds, t.segment_cpu_seconds);
  report->AddStage("mine", t.mine_seconds, t.mine_cpu_seconds);
  report->AddStage("finalize", t.finalize_seconds, t.finalize_cpu_seconds);
  report->set_total_seconds(t.total_seconds);

  ReportSection& section = report->Section("detection");
  section.Set("num_subtpiins", result.num_subtpiins);
  section.Set("num_trails", result.num_trails);
  section.Set("num_simple", result.num_simple);
  section.Set("num_complex", result.num_complex);
  section.Set("num_cycle_groups", result.num_cycle_groups);
  section.Set("num_intra_syndicate", result.intra_syndicate.size());
  section.Set("total_groups", result.TotalGroups());
  section.Set("suspicious_trades", result.suspicious_trades.size());
  section.Set("total_trading_arcs", result.total_trading_arcs);
  section.Set("suspicious_trade_percent", result.SuspiciousTradePercent());
  section.Set("truncated", result.truncated);
  section.Set("degraded", result.degraded);
  section.Set("num_skipped_subtpiins", result.num_skipped_subs);
  section.Set("pattern_worker_seconds", t.pattern_seconds);
  section.Set("match_worker_seconds", t.match_seconds);

  ReportSection& seg = report->Section("segmentation");
  seg.Set("num_components", result.segment_stats.num_components);
  seg.Set("num_emitted", result.segment_stats.num_emitted);
  seg.Set("trading_arcs_internal",
          result.segment_stats.trading_arcs_internal);
  seg.Set("trading_arcs_cross", result.segment_stats.trading_arcs_cross);

  // Degradation table: one row per subTPIIN that was skipped or
  // truncated by the RunBudget, in emission order, so a degraded run
  // documents exactly which components its answer is missing.
  if (result.degraded) {
    ReportTable& skipped = report->AddTable(
        "degraded_subtpiins", {"index", "nodes", "arcs", "reason"});
    for (const SubTpiinProfile& p : result.sub_profiles) {
      if (p.skip == SubSkip::kNone) continue;
      skipped.AddRow()
          .Append(p.index)
          .Append(p.num_nodes)
          .Append(p.num_arcs)
          .Append(SubSkipName(p.skip));
    }
  }

  // Top-K slowest subTPIINs by worker seconds; ties break toward the
  // lower emission index so the table is deterministic.
  std::vector<const SubTpiinProfile*> ranked;
  ranked.reserve(result.sub_profiles.size());
  for (const SubTpiinProfile& profile : result.sub_profiles) {
    ranked.push_back(&profile);
  }
  const size_t k = std::min(top_k, ranked.size());
  std::partial_sort(ranked.begin(), ranked.begin() + k, ranked.end(),
                    [](const SubTpiinProfile* a, const SubTpiinProfile* b) {
                      if (a->Seconds() != b->Seconds()) {
                        return a->Seconds() > b->Seconds();
                      }
                      return a->index < b->index;
                    });
  ReportTable& table = report->AddTable(
      "slowest_subtpiins",
      {"index", "nodes", "arcs", "trails", "groups", "pattern_seconds",
       "match_seconds"});
  for (size_t i = 0; i < k; ++i) {
    const SubTpiinProfile& p = *ranked[i];
    table.AddRow()
        .Append(p.index)
        .Append(p.num_nodes)
        .Append(p.num_arcs)
        .Append(p.num_trails)
        .Append(p.num_groups)
        .Append(p.pattern_seconds)
        .Append(p.match_seconds);
  }
}

}  // namespace tpiin
