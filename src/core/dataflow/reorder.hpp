// Sequence-numbered reassembly — the streaming pipeline's determinism
// hinge (docs/PIPELINE.md).
//
// Producers stamp every item with the sequence number it was *submitted*
// under (assigned serially before the fan-out, exactly like the serial
// per-candidate RNG splits) and push completions in any order; pop()
// releases items strictly in sequence order, blocking until the next
// expected number arrives. The consumer therefore observes the same order
// a serial run would have produced, regardless of which stage worker
// finished first — this is what makes the streaming pipeline's output
// bitwise-identical at any thread count and schedule.
//
// close() marks the producer side done: pop() keeps releasing the
// in-order prefix, then returns nullopt. fail() aborts — pending items
// are abandoned and pop() returns nullopt immediately. A gap below a
// buffered item at close() (a sequence number that will never arrive)
// also ends the stream rather than deadlocking.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "obs/metrics.hpp"

namespace dpoaf::core::dataflow {

template <typename T>
class Reorder {
 public:
  explicit Reorder(std::string name = "reorder", std::uint64_t first_seq = 0)
      : name_(std::move(name)), next_(first_seq) {}

  Reorder(const Reorder&) = delete;
  Reorder& operator=(const Reorder&) = delete;

  ~Reorder() { publish_gauges(); }

  /// Buffer a completed item. Sequence numbers must be unique; pushing a
  /// number below the consumption cursor is a contract violation and is
  /// dropped. Returns false once failed (item dropped).
  bool push(std::uint64_t seq, T value) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (failed_) return false;
    if (seq < next_) return false;  // already consumed past this number
    pending_.emplace(seq, std::move(value));
    if (pending_.size() > max_pending_) max_pending_ = pending_.size();
    const bool ready = pending_.begin()->first == next_;
    lock.unlock();
    if (ready) ready_.notify_all();
    return true;
  }

  /// Next item in sequence order; blocks until it arrives. nullopt when
  /// the stream is done: failed, or closed with no (reachable) next item.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [this] {
      return failed_ || closed_ ||
             (!pending_.empty() && pending_.begin()->first == next_);
    });
    if (failed_) return std::nullopt;
    if (!pending_.empty() && pending_.begin()->first == next_) {
      T value = std::move(pending_.begin()->second);
      pending_.erase(pending_.begin());
      ++next_;
      return value;
    }
    if (closed_) {
      // Closed with a gap at the cursor: whatever is still buffered can
      // never be released in order — the stream ends here.
      return std::nullopt;
    }
    return std::nullopt;  // unreachable; predicate covers all cases
  }

  /// Producer side done — pop() drains the in-order prefix then ends.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    ready_.notify_all();
    publish_gauges();
  }

  /// Abort: abandon pending items, wake the consumer with nullopt.
  void fail() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      failed_ = true;
      closed_ = true;
    }
    ready_.notify_all();
  }

  /// Items buffered out of order right now.
  [[nodiscard]] std::size_t pending() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return pending_.size();
  }

  /// High-water mark of the out-of-order buffer.
  [[nodiscard]] std::size_t max_pending() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return max_pending_;
  }

 private:
  void publish_gauges() const {
    if (!obs::enabled()) return;
    obs::gauge("dataflow." + name_ + ".pending.max")
        .record_max(static_cast<std::int64_t>(max_pending()));
  }

  const std::string name_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::map<std::uint64_t, T> pending_;
  std::uint64_t next_ = 0;
  std::size_t max_pending_ = 0;
  bool closed_ = false;
  bool failed_ = false;
};

}  // namespace dpoaf::core::dataflow
