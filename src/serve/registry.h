#ifndef TPIIN_SERVE_REGISTRY_H_
#define TPIIN_SERVE_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/result.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "serve/service.h"
#include "snapshot/snapshot.h"

namespace tpiin {

/// One loaded snapshot: the mmap'd view, the QueryService bound to it,
/// and the metadata the healthz/stats/metrics surfaces report about it.
///
/// Generations are handed out as shared_ptr<const SnapshotGeneration>;
/// a request grabs the current generation once at dispatch and keeps it
/// for its whole evaluation, so a hot-reload can never unmap a snapshot
/// out from under an in-flight request — a superseded generation is
/// destroyed (service first, then the mmap it reads) only when its last
/// holder drops.
struct SnapshotGeneration {
  uint64_t id = 0;                 ///< 1-based load serial.
  std::string path;                ///< The file this generation mapped.
  int64_t loaded_unix_micros = 0;  ///< Wall-clock load time.
  std::unique_ptr<SnapshotView> view;
  std::unique_ptr<QueryService> service;

  uint32_t crc() const { return view->header_crc(); }
  const Tpiin& net() const { return view->net(); }
};

/// What a successful SnapshotRegistry::Reload did.
struct ReloadOutcome {
  /// False = the candidate's content CRC matched the serving
  /// generation's: a no-op reload (a logrotate SIGHUP, a redundant
  /// verb). Nothing was swapped and every warm cache entry survives.
  bool swapped = false;
  /// The generation serving after the call (the new one on a swap, the
  /// unchanged current one on a no-op).
  std::shared_ptr<const SnapshotGeneration> generation;
};

/// Owns the generations of snapshots a serving daemon loads over its
/// lifetime and publishes the current one RCU-style.
///
/// Validate-then-swap: Reload() runs the full snapshot validation
/// ladder (magic/version/endianness, header+directory CRC, shape and
/// bounds checks, per-section CRC-32C, meta checks — everything
/// SnapshotView::Open enforces) on the candidate file *before* touching
/// the serving generation. A candidate that fails any rung is rejected:
/// the error is returned, a structured `reload_failed` event is logged,
/// serve.reload.failures is bumped, and the old generation keeps
/// serving untouched — rollback is the default, not a recovery step.
///
/// Cache lifecycle: all generations share one ServeSharedState (keys
/// embed the snapshot CRC, so entries can never cross generations). On
/// a swap the superseded generation is retired — its service stops
/// writing to the shared caches — and its CRC's entries are evicted so
/// memory stays bounded by live data. A same-CRC reload is a no-op and
/// keeps every warm entry.
///
/// Thread-safe: Current() is a mutex-guarded shared_ptr copy callable
/// from any request thread; Reload() is serialized by its own mutex so
/// concurrent SIGHUP + verb reloads queue instead of racing.
class SnapshotRegistry {
 public:
  /// `metrics` owns every count the registry keeps: the reload counters
  /// (serve.reload.{attempts,success,unchanged,failures}), the serving
  /// generation gauge (serve.generation) and the shared caches'
  /// serve.cache.* entries, all registered here so they exist — at
  /// zero — from startup. `event_sink` (nullable) receives one
  /// structured event per swap ("reload") and per rejected candidate
  /// ("reload_failed") — the daemon wires its access log here. Both
  /// must outlive the registry.
  SnapshotRegistry(const ServiceOptions& service_options,
                   const SnapshotOpenOptions& open_options,
                   MetricsRegistry& metrics, JsonLogSink* event_sink);

  SnapshotRegistry(const SnapshotRegistry&) = delete;
  SnapshotRegistry& operator=(const SnapshotRegistry&) = delete;

  /// Loads generation 1. Call once, before Current()/Reload(); a
  /// failure here is a startup failure (there is no old generation to
  /// roll back to).
  Status LoadInitial(const std::string& path);

  /// Validates the candidate file (the current generation's path, or
  /// `path_override` when non-empty — the reload verb's `path=` form)
  /// and swaps it in if it differs from what is serving. On any
  /// validation or I/O failure the current generation is untouched and
  /// keeps serving; the status says why the candidate was rejected.
  Result<ReloadOutcome> Reload(const std::string& path_override = "");

  /// The serving generation (never null after LoadInitial succeeds).
  std::shared_ptr<const SnapshotGeneration> Current() const;

  /// Lifetime reload counters (attempts = swaps + no-ops + failures),
  /// read back from the metrics registry.
  uint64_t reload_attempts() const { return attempts_.Value(); }
  uint64_t reload_swaps() const { return swaps_.Value(); }
  uint64_t reload_noops() const { return noops_.Value(); }
  uint64_t reload_failures() const { return failures_.Value(); }

  const ServeSharedState& shared_state() const { return shared_; }

 private:
  /// Opens + validates `path` into a fresh generation (id assigned by
  /// the caller on publish). The full validation ladder runs here,
  /// before anything is swapped.
  Result<std::shared_ptr<SnapshotGeneration>> OpenCandidate(
      const std::string& path);

  /// Failure bookkeeping shared by every rejection path: logs the
  /// structured reload_failed event, bumps counters, returns `status`.
  Status Fail(const std::string& path, const Status& status);

  const ServiceOptions service_options_;
  const SnapshotOpenOptions open_options_;
  JsonLogSink* const event_sink_;
  Counter& attempts_;
  Counter& swaps_;
  Counter& noops_;
  Counter& failures_;
  Gauge& generation_;
  /// Cache/arena substrate shared across generations; outlives every
  /// generation's QueryService.
  ServeSharedState shared_;

  /// Serializes Reload() calls end-to-end (open, validate, publish):
  /// a SIGHUP racing a reload verb queues behind it.
  std::mutex reload_mu_;
  /// Guards current_ only; held for pointer copies, never for I/O.
  mutable std::mutex mu_;
  std::shared_ptr<SnapshotGeneration> current_;
  uint64_t next_id_ = 1;
};

}  // namespace tpiin

#endif  // TPIIN_SERVE_REGISTRY_H_
