// Bounded memoization cache for the formal-feedback hot path (see
// DESIGN.md "Feedback memoization"): one map, one FIFO of insertion order
// and one mutex. Once the map holds `capacity` entries, inserting a new
// key evicts the oldest one, so the footprint is capped at `capacity`
// entries regardless of workload.
//
// The cache is only correct for *pure* functions of the key: a hit returns
// a copy of a previously computed value, so hits must be indistinguishable
// from recomputation. `get_or_compute` runs the compute under the lock, so
// it is single-flight by construction: each key is computed once, and a
// concurrent caller of the same key takes the result as a hit. The
// hit/miss counters are therefore deterministic — misses = unique keys —
// at any thread count (as long as nothing is evicted), which keeps bench
// output byte-identical across DPOAF_THREADS settings. A compute may take
// another cache's lock (a feedback compute takes the Büchi cache's) but
// never its own cache's.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>

#include "util/check.hpp"

namespace dpoaf::util {

/// Counter snapshot of a cache's activity. hits + misses = lookups.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;

  /// Fraction of lookups that hit; 0 when there were no lookups.
  [[nodiscard]] double hit_rate() const;
  /// "hits=120 misses=16 hit_rate=88.2% inserts=16 evictions=0"
  [[nodiscard]] std::string summary() const;
};

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class BoundedCache {
 public:
  /// `capacity` bounds size() (≥ 1).
  explicit BoundedCache(std::size_t capacity) : capacity_(capacity) {
    DPOAF_CHECK(capacity >= 1);
  }

  /// Copy of the cached value, or compute-and-insert on a miss (evicting
  /// the oldest entry when full). `compute` runs under the lock, at most
  /// once per missing key, and must be a pure function of `key`; if it
  /// throws, nothing is inserted and the next caller recomputes.
  template <typename Fn>
  Value get_or_compute(const Key& key, Fn&& compute) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto it = map_.find(key); it != map_.end()) {
      ++stats_.hits;
      return it->second;
    }
    ++stats_.misses;
    Value value = compute();
    if (map_.size() >= capacity_) {
      map_.erase(fifo_.front());
      fifo_.pop_front();
      ++stats_.evictions;
    }
    map_.emplace(key, value);
    fifo_.push_back(key);
    ++stats_.inserts;
    return value;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return map_.size();
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    map_.clear();
    fifo_.clear();
  }

  [[nodiscard]] CacheStats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

  void reset_stats() {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_ = CacheStats{};
  }

 private:
  mutable std::mutex mutex_;
  std::unordered_map<Key, Value, Hash> map_;
  std::deque<Key> fifo_;  // insertion order, for bounded FIFO eviction
  CacheStats stats_;
  std::size_t capacity_;
};

}  // namespace dpoaf::util
