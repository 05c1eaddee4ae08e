#ifndef TPIIN_SERVE_CACHE_H_
#define TPIIN_SERVE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"

namespace tpiin {

/// A bounded, thread-safe LRU cache from string keys to shared
/// immutable values — the serve layer's result cache. Values are
/// handed out as shared_ptr<const V>, so an entry evicted while a
/// request still holds it stays alive until the request finishes.
///
/// Keys embed the snapshot CRC and the detector-option fingerprint
/// (see QueryService::BundleKey), so two snapshots or two option sets
/// can never collide: a different file or a different budget is a
/// different key, not a stale hit.
///
/// `capacity == 0` disables the cache entirely (every Get misses and
/// Put is a no-op) — the "cold every time" configuration the
/// byte-identity tests diff against.
///
/// The cache keeps no counts of its own: hits, misses, evictions,
/// resident entries and capacity live in `metrics` under `prefix`
/// (`<prefix>hit`, `<prefix>miss`, `<prefix>eviction`,
/// `<prefix>entries`, `<prefix>capacity`), which must outlive the
/// cache. The accessors below read them back.
template <typename V>
class LruCache {
 public:
  LruCache(size_t capacity, MetricsRegistry& metrics,
           const std::string& prefix)
      : capacity_(capacity),
        hit_count_(metrics.GetCounter(prefix + "hit")),
        miss_count_(metrics.GetCounter(prefix + "miss")),
        eviction_count_(metrics.GetCounter(prefix + "eviction")),
        size_gauge_(metrics.GetGauge(prefix + "entries")) {
    metrics.GetGauge(prefix + "capacity")
        .Set(static_cast<int64_t>(capacity));
  }

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  /// Returns the cached value and refreshes its recency, or nullptr.
  std::shared_ptr<const V> Get(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) {
      miss_count_.Add(1);
      return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    hit_count_.Add(1);
    return it->second->value;
  }

  /// Inserts (or replaces) `key`, evicting the least recently used
  /// entry when over capacity.
  void Put(const std::string& key, std::shared_ptr<const V> value) {
    if (capacity_ == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->value = std::move(value);
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.push_front(Entry{key, std::move(value)});
    index_.emplace(key, lru_.begin());
    if (lru_.size() > capacity_) {
      index_.erase(lru_.back().key);
      lru_.pop_back();
      eviction_count_.Add(1);
    }
    size_gauge_.Set(static_cast<int64_t>(lru_.size()));
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lru_.size();
  }

  /// True iff `key` is resident (no recency update, no counters) —
  /// test introspection.
  bool Contains(const std::string& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    return index_.find(key) != index_.end();
  }

  /// Evicts every entry whose key starts with `prefix` and returns how
  /// many were dropped. The hot-reload path uses this to discard a
  /// retired generation's entries (keys embed the snapshot CRC, so a
  /// dead generation is exactly one prefix) without disturbing the live
  /// generation's warm entries. Counted as evictions.
  size_t EvictKeysWithPrefix(const std::string& prefix) {
    std::lock_guard<std::mutex> lock(mu_);
    size_t dropped = 0;
    for (auto it = lru_.begin(); it != lru_.end();) {
      if (it->key.compare(0, prefix.size(), prefix) == 0) {
        index_.erase(it->key);
        it = lru_.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    eviction_count_.Add(dropped);
    size_gauge_.Set(static_cast<int64_t>(lru_.size()));
    return dropped;
  }

  size_t capacity() const { return capacity_; }
  uint64_t hits() const { return hit_count_.Value(); }
  uint64_t misses() const { return miss_count_.Value(); }
  uint64_t evictions() const { return eviction_count_.Value(); }

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const V> value;
  };

  const size_t capacity_;
  Counter& hit_count_;
  Counter& miss_count_;
  Counter& eviction_count_;
  Gauge& size_gauge_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // Front = most recently used.
  std::unordered_map<std::string, typename std::list<Entry>::iterator>
      index_;
};

}  // namespace tpiin

#endif  // TPIIN_SERVE_CACHE_H_
