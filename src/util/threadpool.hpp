// Fixed-size thread pool with a deterministic parallel-for primitive.
//
// Design constraints (see DESIGN.md "Threading model"):
//  - No work stealing and no dynamic scheduling of *result order*: callers
//    partition an index range into fixed contiguous chunks, each index is
//    processed by exactly one chunk, and every chunk runs the same code the
//    serial loop would. Reductions must stay within a chunk (partition over
//    the independent dimension), so single-thread and N-thread runs produce
//    bitwise-identical floats — no atomics on floats, ever.
//  - The pool is shared process-wide (global_pool()). Only outer loops
//    use it — serve's per-slot decode step; tensor ops never do.
//  - Nested parallel_for calls run inline on the calling thread. This keeps
//    the scheduler trivial (no re-entrancy, no deadlock) and keeps outer
//    loops as the unit of parallelism.
//  - Thread count resolves, in priority order: explicit set_global_threads()
//    (e.g. from PipelineConfig::threads), the DPOAF_THREADS environment
//    variable, then std::thread::hardware_concurrency().
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dpoaf::util {

class ThreadPool {
 public:
  /// Total parallelism, including the calling thread: a pool of size n
  /// spawns n−1 workers. n < 1 is clamped to 1 (purely serial).
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int threads() const { return threads_; }

  /// Partition [begin, end) into at most threads() contiguous chunks of at
  /// least `grain` indices each and run `fn(chunk_begin, chunk_end)` on
  /// each chunk; blocks until all chunks finish. The caller executes the
  /// first chunk itself. Runs fully inline when only one chunk results,
  /// when the pool is serial, or when called from inside another
  /// parallel_for (nesting).
  void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                    const std::function<void(std::int64_t, std::int64_t)>& fn);

 private:
  void worker_loop();

  int threads_ = 1;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  bool shutting_down_ = false;
};

/// The process-wide pool. Created on first use with the resolved default
/// thread count (DPOAF_THREADS env var, else hardware_concurrency).
ThreadPool& global_pool();

/// Resize the global pool. threads == 0 re-resolves the default
/// (DPOAF_THREADS env var, else hardware_concurrency); threads >= 1 pins
/// the count. Must not be called while parallel work is in flight.
void set_global_threads(int threads);

/// Current size of the global pool (creating it if needed).
int global_threads();

/// Convenience: parallel_for on the global pool.
inline void parallel_for(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t)>& fn) {
  global_pool().parallel_for(begin, end, grain, fn);
}

}  // namespace dpoaf::util
