#include "util/threadpool.hpp"

#include <atomic>
#include <cstdlib>
#include <memory>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace dpoaf::util {

namespace {

// True while the current thread is executing a parallel_for chunk (worker
// or caller). Nested parallel_for calls detect this and run inline.
thread_local bool t_in_parallel_region = false;

int resolve_default_threads() {
  if (const char* env = std::getenv("DPOAF_THREADS")) {
    const int n = std::atoi(env);
    if (n >= 1) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

ThreadPool::ThreadPool(int threads) : threads_(threads < 1 ? 1 : threads) {
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int i = 0; i < threads_ - 1; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  t_in_parallel_region = true;  // work items are always chunk bodies
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock,
                           [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down, queue drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

void ThreadPool::parallel_for(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t)>& fn) {
  if (begin >= end) return;
  // Scheduling telemetry only — counts and queue depth, never timing that
  // could feed back into the computation (see DESIGN.md "Observability").
  static obs::Counter& calls = obs::counter("threadpool.parallel_for.calls");
  static obs::Counter& inline_calls =
      obs::counter("threadpool.parallel_for.inline");
  static obs::Counter& jobs = obs::counter("threadpool.jobs");
  static obs::Gauge& depth_max = obs::gauge("threadpool.queue_depth.max");
  static obs::Gauge& pool_threads = obs::gauge("threadpool.threads");
  calls.add();
  pool_threads.set(threads_);
  const std::int64_t n = end - begin;
  if (grain < 1) grain = 1;
  std::int64_t chunks = (n + grain - 1) / grain;
  if (chunks > threads_) chunks = threads_;
  if (chunks <= 1 || t_in_parallel_region || workers_.empty()) {
    // Serial (or nested) path: one chunk, the loop body unchanged.
    inline_calls.add();
    fn(begin, end);
    return;
  }

  // Fixed contiguous partition: chunk c covers [begin + c·span, …), the
  // same split regardless of which thread runs which chunk.
  const std::int64_t span = (n + chunks - 1) / chunks;
  struct Completion {
    std::atomic<std::int64_t> remaining;
    std::mutex m;
    std::condition_variable done;
  };
  auto state = std::make_shared<Completion>();
  state->remaining.store(chunks - 1, std::memory_order_relaxed);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::int64_t c = 1; c < chunks; ++c) {
      const std::int64_t lo = begin + c * span;
      const std::int64_t hi = lo + span < end ? lo + span : end;
      queue_.push_back([state, &fn, lo, hi] {
        fn(lo, hi);
        if (state->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          std::lock_guard<std::mutex> done_lock(state->m);
          state->done.notify_one();
        }
      });
    }
    jobs.add(static_cast<std::uint64_t>(chunks - 1));
    depth_max.record_max(static_cast<std::int64_t>(queue_.size()));
  }
  work_available_.notify_all();

  // The caller runs chunk 0 (marked as a parallel region so nested
  // parallel_for calls inline), then waits for the workers.
  t_in_parallel_region = true;
  fn(begin, begin + span < end ? begin + span : end);
  t_in_parallel_region = false;

  std::unique_lock<std::mutex> done_lock(state->m);
  state->done.wait(done_lock, [&state] {
    return state->remaining.load(std::memory_order_acquire) == 0;
  });
}

namespace {

std::unique_ptr<ThreadPool>& global_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

std::mutex& global_mutex() {
  static std::mutex m;
  return m;
}

}  // namespace

ThreadPool& global_pool() {
  std::lock_guard<std::mutex> lock(global_mutex());
  auto& slot = global_slot();
  if (!slot) slot = std::make_unique<ThreadPool>(resolve_default_threads());
  return *slot;
}

void set_global_threads(int threads) {
  DPOAF_CHECK_MSG(threads >= 0, "thread count must be >= 0 (0 = auto)");
  const int n = threads == 0 ? resolve_default_threads() : threads;
  std::lock_guard<std::mutex> lock(global_mutex());
  auto& slot = global_slot();
  if (slot && slot->threads() == n) return;
  slot = std::make_unique<ThreadPool>(n);
}

int global_threads() { return global_pool().threads(); }

}  // namespace dpoaf::util
