#include "serve/service.h"

#include <algorithm>
#include <condition_variable>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "core/explain.h"
#include "core/matcher.h"
#include "core/pattern_tree.h"
#include "core/subtpiin.h"
#include "io/pattern_file.h"

namespace tpiin {

namespace {

Response ErrorResponse(const Request& request, const Status& status) {
  Response resp;
  resp.id = request.id;
  resp.verb = request.verb;
  resp.status = "error";
  resp.error = status.ToString();
  return resp;
}

Response PayloadResponse(const Request& request, std::string payload,
                         bool degraded) {
  Response resp;
  resp.id = request.id;
  resp.verb = request.verb;
  resp.status = degraded ? "degraded" : "ok";
  resp.payload = std::move(payload);
  return resp;
}

void FillDetectTimings(const DetectionTimings& timings,
                       RequestTelemetry* telemetry) {
  if (telemetry == nullptr) return;
  telemetry->detect_seconds = timings.total_seconds;
  telemetry->segment_seconds = timings.segment_seconds;
  telemetry->mine_seconds = timings.mine_seconds;
  telemetry->finalize_seconds = timings.finalize_seconds;
}

}  // namespace

bool TimeDegraded(const DetectionResult& detection) {
  for (const SubTpiinProfile& profile : detection.sub_profiles) {
    if (profile.skip == SubSkip::kDeadline ||
        profile.skip == SubSkip::kSliceTruncated) {
      return true;
    }
  }
  return false;
}

ServeSharedState::ServeSharedState(const ServiceOptions& options,
                                   MetricsRegistry& metrics)
    : bundle_cache(options.bundle_cache_entries, metrics,
                   "serve.cache.bundle_"),
      sub_cache(options.cache_entries, metrics, "serve.cache.") {}

QueryService::QueryService(const Tpiin& net, uint32_t snapshot_crc,
                           const ServiceOptions& options,
                           ServeSharedState& shared)
    : net_(net),
      snapshot_crc_(snapshot_crc),
      options_(options),
      shared_(&shared) {
  // First occurrence wins, mirroring the batch CLI's linear label scan.
  node_by_label_.reserve(net.NumNodes());
  for (NodeId v = 0; v < net.NumNodes(); ++v) {
    node_by_label_.emplace(std::string(net.Label(v)), v);
  }
}

std::string QueryService::BundleKey(const RunBudget& budget) const {
  // Only the deterministic budget fields participate: a deadline does
  // not change *which* answer is correct, just whether this run got to
  // finish it (unfinished runs are never cached).
  return StringPrintf("crc=%08x|max_nodes=%zu|max_arcs=%zu", snapshot_crc_,
                      budget.max_sub_nodes, budget.max_sub_arcs);
}

RunBudget QueryService::EffectiveBudget(const Request& request) const {
  RunBudget budget = options_.default_budget;
  if (request.deadline_ms > 0) budget.deadline_seconds = request.deadline_ms / 1e3;
  if (request.sub_slice_ms > 0) {
    budget.sub_slice_seconds = request.sub_slice_ms / 1e3;
  }
  if (request.max_sub_nodes > 0) {
    budget.max_sub_nodes = static_cast<size_t>(request.max_sub_nodes);
  }
  if (request.max_sub_arcs > 0) {
    budget.max_sub_arcs = static_cast<size_t>(request.max_sub_arcs);
  }
  // The service-level ceiling caps whatever the request asked for: the
  // effective deadline is the sooner of the two, and a caller cannot
  // opt out of it by sending a huge (or no) deadline_ms.
  if (options_.request_deadline_seconds > 0 &&
      (budget.deadline_seconds <= 0 ||
       budget.deadline_seconds > options_.request_deadline_seconds)) {
    budget.deadline_seconds = options_.request_deadline_seconds;
  }
  return budget;
}

struct QueryService::BundleFlight {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Status status;
  std::shared_ptr<const DetectionBundle> bundle;
};

Result<std::shared_ptr<const DetectionBundle>> QueryService::GetBundle(
    const RunBudget& budget, RequestTelemetry* telemetry) {
  const std::string key = BundleKey(budget);
  if (std::shared_ptr<const DetectionBundle> hit =
          shared_->bundle_cache.Get(key)) {
    if (telemetry != nullptr) telemetry->cache = RequestTelemetry::Cache::kHit;
    return hit;
  }
  // Hit or not, the caller is now on the cold path; a single-flight
  // follower reports a miss too, because it paid cold-path latency.
  if (telemetry != nullptr) telemetry->cache = RequestTelemetry::Cache::kMiss;

  // Single-flight: N concurrent cold requests for one key must cost one
  // detection run, not N (a cold run can take minutes on a large
  // snapshot, so a thundering herd would multiply cold-start load by
  // up to max_inflight). The first miss becomes the leader; later
  // misses wait on its flight and share the outcome, error and all.
  std::shared_ptr<BundleFlight> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(flight_mu_);
    auto [it, inserted] = bundle_flights_.try_emplace(key);
    if (inserted) it->second = std::make_shared<BundleFlight>();
    flight = it->second;
    leader = inserted;
  }
  if (!leader) {
    std::unique_lock<std::mutex> lock(flight->mu);
    flight->cv.wait(lock, [&] { return flight->done; });
    if (!flight->status.ok()) return flight->status;
    FillDetectTimings(flight->bundle->detection.timings, telemetry);
    return flight->bundle;
  }

  Status status;
  std::shared_ptr<DetectionBundle> bundle;
  DetectorOptions options;
  options.num_threads = options_.threads;
  options.budget = budget;
  options.arena_pool = &shared_->arena_pool;
  Result<DetectionResult> detection = DetectSuspiciousGroups(net_, options);
  if (!detection.ok()) {
    status = detection.status();
  } else {
    bundle = std::make_shared<DetectionBundle>();
    bundle->scoring = ScoreDetection(net_, *detection);
    bundle->detection = std::move(*detection);
    bundle->groups_payload =
        RenderSuspiciousGroups(net_, bundle->detection.groups);
    // A deadline-truncated run reflects this machine's clock, not the
    // data; serving it once (marked degraded) is honest, caching it
    // would pin the degradation. A retired generation likewise answers
    // but no longer caches: the registry already evicted its keys.
    if (!TimeDegraded(bundle->detection) && !retired()) {
      shared_->bundle_cache.Put(key, bundle);
    }
    FillDetectTimings(bundle->detection.timings, telemetry);
  }

  // Publish to waiting followers, then retire the flight. Cache Put
  // happened first, so a request landing after the erase either hits
  // the cache or — for an uncached (failed/degraded) outcome — starts
  // an honest fresh leader of its own.
  {
    std::lock_guard<std::mutex> lock(flight->mu);
    flight->status = status;
    flight->bundle = bundle;
    flight->done = true;
  }
  flight->cv.notify_all();
  {
    std::lock_guard<std::mutex> lock(flight_mu_);
    bundle_flights_.erase(key);
  }
  if (!status.ok()) return status;
  return std::shared_ptr<const DetectionBundle>(std::move(bundle));
}

Response QueryService::Handle(const Request& request,
                              RequestTelemetry* telemetry) {
  if (request.verb == "groups") return HandleGroups(request, telemetry);
  if (request.verb == "explain") return HandleExplain(request, telemetry);
  if (request.verb == "rescore") return HandleRescore(request, telemetry);
  return ErrorResponse(
      request,
      Status::InvalidArgument(
          "unknown verb: " + request.verb +
          " (expected groups, explain, rescore, stats, slow, metrics, "
          "healthz, reload)"));
}

Response QueryService::HandleGroups(const Request& request,
                                    RequestTelemetry* telemetry) {
  NodeId filter = kInvalidNode;
  if (!request.company.empty()) {
    auto it = node_by_label_.find(request.company);
    if (it == node_by_label_.end()) {
      return ErrorResponse(
          request, Status::NotFound("no node labeled " + request.company));
    }
    if (net_.node(it->second).color != NodeColor::kCompany) {
      return ErrorResponse(request, Status::InvalidArgument(
                                        request.company +
                                        " is a Person node"));
    }
    filter = it->second;
  }
  Result<std::shared_ptr<const DetectionBundle>> bundle =
      GetBundle(EffectiveBudget(request), telemetry);
  if (!bundle.ok()) return ErrorResponse(request, bundle.status());
  const DetectionResult& detection = (*bundle)->detection;
  std::string payload;
  if (filter == kInvalidNode) {
    // The full susGroup.txt bytes (rendered once per bundle), so the
    // batch artifact diffs clean.
    payload = (*bundle)->groups_payload;
  } else {
    // The filtered view keeps the exact susGroup.txt line rendering and
    // the exact detection order — a subsequence of the full payload.
    for (const SuspiciousGroup& group : detection.groups) {
      if (std::binary_search(group.members.begin(), group.members.end(),
                             filter)) {
        payload += group.Format(net_);
        payload += "\n";
      }
    }
  }
  return PayloadResponse(request, std::move(payload), detection.degraded);
}

Response QueryService::HandleExplain(const Request& request,
                                     RequestTelemetry* telemetry) {
  if (request.company.empty()) {
    return ErrorResponse(
        request, Status::InvalidArgument("explain requires company=LABEL"));
  }
  auto it = node_by_label_.find(request.company);
  if (it == node_by_label_.end()) {
    return ErrorResponse(
        request, Status::NotFound("no node labeled " + request.company));
  }
  if (net_.node(it->second).color != NodeColor::kCompany) {
    return ErrorResponse(
        request,
        Status::InvalidArgument(request.company + " is a Person node"));
  }
  Result<std::shared_ptr<const DetectionBundle>> bundle =
      GetBundle(EffectiveBudget(request), telemetry);
  if (!bundle.ok()) return ErrorResponse(request, bundle.status());
  CompanyDossier dossier = BuildCompanyDossier(
      net_, (*bundle)->detection, (*bundle)->scoring, it->second);
  return PayloadResponse(request, FormatCompanyDossier(net_, dossier),
                         (*bundle)->detection.degraded);
}

Response QueryService::HandleRescore(const Request& request,
                                     RequestTelemetry* telemetry) {
  if (request.sub < 0) {
    return ErrorResponse(
        request, Status::InvalidArgument("rescore requires sub=INDEX"));
  }
  const RunBudget budget = EffectiveBudget(request);
  const std::string key =
      BundleKey(budget) +
      StringPrintf("|sub=%lld", static_cast<long long>(request.sub));
  if (std::shared_ptr<const std::string> hit = shared_->sub_cache.Get(key)) {
    if (telemetry != nullptr) telemetry->cache = RequestTelemetry::Cache::kHit;
    return PayloadResponse(request, *hit, /*degraded=*/false);
  }
  if (telemetry != nullptr) telemetry->cache = RequestTelemetry::Cache::kMiss;

  // Cold path: re-segment from the (mmap'd, WCC-indexed) network and
  // re-mine just the requested subTPIIN.
  std::vector<SubTpiin> subs = SegmentTpiin(net_);
  if (static_cast<size_t>(request.sub) >= subs.size()) {
    return ErrorResponse(
        request,
        Status::NotFound(StringPrintf(
            "no subTPIIN %lld (segmentation emitted %zu)",
            static_cast<long long>(request.sub), subs.size())));
  }
  const SubTpiin& sub = subs[static_cast<size_t>(request.sub)];

  bool degraded = false;
  if ((budget.max_sub_nodes != 0 &&
       sub.frozen.NumNodes() > budget.max_sub_nodes) ||
      (budget.max_sub_arcs != 0 &&
       sub.frozen.NumArcs() > budget.max_sub_arcs)) {
    // The detector would skip this subTPIIN whole; say so instead of
    // mining past the caller's own cap.
    std::string payload = StringPrintf(
        "subTPIIN %lld of %zu: %u nodes, %u arcs — skipped (over budget "
        "cap)\n",
        static_cast<long long>(request.sub), subs.size(),
        sub.frozen.NumNodes(), sub.frozen.NumArcs());
    return PayloadResponse(request, std::move(payload), /*degraded=*/true);
  }

  PatternGenOptions gen_options;
  gen_options.emit_trails = false;
  gen_options.deadline = Deadline::Sooner(
      Deadline::After(budget.deadline_seconds),
      Deadline::After(budget.sub_slice_seconds));
  PatternScratch scratch = shared_->arena_pool.Acquire();
  gen_options.scratch = &scratch;
  Result<PatternGenResult> gen = GeneratePatternBase(sub, gen_options);
  if (!gen.ok()) return ErrorResponse(request, gen.status());
  MatchResult match = MatchPatternsTree(sub, gen->tree);
  scratch.base = std::move(gen->base);
  scratch.tree = std::move(gen->tree);
  shared_->arena_pool.Release(std::move(scratch));
  degraded = gen->deadline_expired;

  std::string payload = StringPrintf(
      "subTPIIN %lld of %zu: %u nodes, %u arcs (%u influence, %u "
      "trading)\ntrails: %zu, groups: %zu simple, %zu complex, %zu "
      "cycle\n",
      static_cast<long long>(request.sub), subs.size(),
      sub.frozen.NumNodes(), sub.frozen.NumArcs(), sub.num_influence_arcs,
      sub.num_trading_arcs(), gen->num_trails, match.num_simple,
      match.num_complex, match.num_cycle_groups);
  payload += RenderSuspiciousGroups(net_, match.groups);

  if (!degraded && !retired()) {
    shared_->sub_cache.Put(key, std::make_shared<const std::string>(payload));
  }
  return PayloadResponse(request, std::move(payload), degraded);
}

}  // namespace tpiin
