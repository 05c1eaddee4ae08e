#include "serve/registry.h"

#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/timer.h"

namespace tpiin {

namespace {

/// Failpoint evaluation without the return-macro: a fired reload
/// failpoint must take the rejection path (counters, structured event,
/// old generation keeps serving), not silently unwind the function.
Status CheckFailpoint(const char* site) {
  if (!Failpoints::AnyActive()) return Status::OK();
  return Failpoints::Check(site);
}

}  // namespace

SnapshotRegistry::SnapshotRegistry(const ServiceOptions& service_options,
                                   const SnapshotOpenOptions& open_options,
                                   MetricsRegistry& metrics,
                                   JsonLogSink* event_sink)
    : service_options_(service_options),
      open_options_(open_options),
      event_sink_(event_sink),
      attempts_(metrics.GetCounter("serve.reload.attempts")),
      swaps_(metrics.GetCounter("serve.reload.success")),
      noops_(metrics.GetCounter("serve.reload.unchanged")),
      failures_(metrics.GetCounter("serve.reload.failures")),
      generation_(metrics.GetGauge("serve.generation")),
      shared_(service_options, metrics) {}

Result<std::shared_ptr<SnapshotGeneration>> SnapshotRegistry::OpenCandidate(
    const std::string& path) {
  // A torn candidate (a writer mid-replace, a partial copy) fails the
  // ladder inside Open and never reaches publish.
  auto generation = std::make_shared<SnapshotGeneration>();
  generation->path = path;
  TPIIN_ASSIGN_OR_RETURN(generation->view,
                         SnapshotView::Open(path, open_options_));
  generation->loaded_unix_micros = UnixMicrosNow();
  generation->service = std::make_unique<QueryService>(
      generation->view->net(), generation->view->header_crc(),
      service_options_, shared_);
  return generation;
}

Status SnapshotRegistry::Fail(const std::string& path, const Status& status) {
  failures_.Add(1);
  TPIIN_LOG(Warning) << "snapshot reload rejected (" << path
                     << "): " << status.ToString()
                     << "; keeping current generation";
  if (event_sink_ != nullptr) {
    std::vector<LogField> fields;
    fields.emplace_back("path", path);
    fields.emplace_back("error", status.ToString());
    std::shared_ptr<const SnapshotGeneration> current = Current();
    if (current != nullptr) {
      fields.emplace_back("generation", current->id);
      fields.emplace_back("crc", StringPrintf("%08x", current->crc()));
    }
    event_sink_->Event(LogLevel::kWarning, "serve", "reload_failed", fields);
  }
  return status;
}

Status SnapshotRegistry::LoadInitial(const std::string& path) {
  std::lock_guard<std::mutex> reload_lock(reload_mu_);
  TPIIN_ASSIGN_OR_RETURN(std::shared_ptr<SnapshotGeneration> generation,
                         OpenCandidate(path));
  std::lock_guard<std::mutex> lock(mu_);
  generation->id = next_id_++;
  generation_.Set(static_cast<int64_t>(generation->id));
  current_ = std::move(generation);
  return Status::OK();
}

Result<ReloadOutcome> SnapshotRegistry::Reload(
    const std::string& path_override) {
  std::lock_guard<std::mutex> reload_lock(reload_mu_);
  attempts_.Add(1);

  std::shared_ptr<SnapshotGeneration> old;
  {
    std::lock_guard<std::mutex> lock(mu_);
    old = current_;
  }
  if (old == nullptr) {
    return Status::FailedPrecondition(
        "reload before LoadInitial: no serving generation");
  }
  const std::string path = path_override.empty() ? old->path : path_override;

  WallTimer timer;
  Status injected = CheckFailpoint("serve.reload");
  if (!injected.ok()) return Fail(path, injected);

  // serve.reload.open models a candidate whose *open* fails (torn file,
  // ENOENT race with a deployer). Evaluated here rather than inside
  // OpenCandidate so a blanket serve.* fault spec cannot kill startup's
  // LoadInitial — a reload failure rolls back, a startup failure has
  // nothing to roll back to.
  Status open_fault = CheckFailpoint("serve.reload.open");
  if (!open_fault.ok()) return Fail(path, open_fault);

  Result<std::shared_ptr<SnapshotGeneration>> candidate = OpenCandidate(path);
  if (!candidate.ok()) return Fail(path, candidate.status());

  if ((*candidate)->crc() == old->crc()) {
    // Same content as what is serving (the common logrotate-SIGHUP
    // case): drop the freshly validated copy, keep the old generation
    // and its warm caches. Deliberately quiet — no access-log event.
    noops_.Add(1);
    TPIIN_LOG(Info) << "snapshot reload: " << path << " unchanged (crc "
                    << StringPrintf("%08x", old->crc()) << "), no-op";
    ReloadOutcome outcome;
    outcome.swapped = false;
    outcome.generation = old;
    return outcome;
  }

  Status publish = CheckFailpoint("serve.reload.publish");
  if (!publish.ok()) return Fail(path, publish);

  // Publish: one pointer swap under the lock. In-flight requests hold
  // their own shared_ptr and finish on the snapshot they started with.
  std::shared_ptr<SnapshotGeneration> fresh = std::move(*candidate);
  {
    std::lock_guard<std::mutex> lock(mu_);
    fresh->id = next_id_++;
    generation_.Set(static_cast<int64_t>(fresh->id));
    current_ = fresh;
  }

  // Retire the superseded generation: its in-flight requests still
  // answer, but stop writing to the shared caches, and its CRC's
  // entries are evicted so cache memory tracks live data. (The CRCs
  // differ here by construction, so this cannot touch the new
  // generation's keys.)
  old->service->Retire();
  const std::string dead_prefix = StringPrintf("crc=%08x", old->crc());
  const size_t evicted = shared_.bundle_cache.EvictKeysWithPrefix(dead_prefix) +
                         shared_.sub_cache.EvictKeysWithPrefix(dead_prefix);

  swaps_.Add(1);
  TPIIN_LOG(Info) << "snapshot reload: generation " << fresh->id << " ("
                  << path << ", crc "
                  << StringPrintf("%08x", fresh->crc()) << ") replaces "
                  << old->id << " in " << timer.ElapsedMicros() << "us, "
                  << evicted << " cache entr(ies) evicted";
  if (event_sink_ != nullptr) {
    std::vector<LogField> fields;
    fields.emplace_back("generation", fresh->id);
    fields.emplace_back("path", path);
    fields.emplace_back("crc", StringPrintf("%08x", fresh->crc()));
    fields.emplace_back("old_generation", old->id);
    fields.emplace_back("old_crc", StringPrintf("%08x", old->crc()));
    fields.emplace_back("evicted", static_cast<uint64_t>(evicted));
    fields.emplace_back("load_us",
                        static_cast<uint64_t>(timer.ElapsedMicros()));
    event_sink_->Event(LogLevel::kInfo, "serve", "reload", fields);
  }

  ReloadOutcome outcome;
  outcome.swapped = true;
  outcome.generation = std::move(fresh);
  return outcome;
}

std::shared_ptr<const SnapshotGeneration> SnapshotRegistry::Current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

}  // namespace tpiin
