// Stage workers for the streaming pipeline (docs/PIPELINE.md).
//
// A StageSet owns the worker threads of a dataflow graph. Workers are
// dedicated std::threads, NOT jobs on util::ThreadPool — a pool job that
// blocked on an empty/full channel would starve the very parallel_for
// chunks (tensor ops, scoring fan-outs) its upstream stage needs to make
// progress, which is a deadlock. Stage *compute* still draws on the
// shared pool: worker counts are derived from util::global_threads(),
// and per-item work either fans out through parallel_for or pins itself
// serial with util::InlineComputeGuard so the stage's worker count is
// the unit of parallelism.
//
// Error model ("clean shutdown/drain on error"): the first exception a
// worker throws is captured; the set's on_error hook fires once (the
// graph's channels get fail()-ed there, unblocking every other stage so
// its workers can unwind), and join() rethrows the captured exception on
// the owning thread. on_stage_done fires exactly once when the last
// worker of a spawn() group returns without error — the canonical place
// to close() the stage's output channel.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace dpoaf::core::dataflow {

class StageSet {
 public:
  /// `on_error` runs at most once, from the first failing worker's thread;
  /// it must unblock every channel in the graph (fail() them all).
  explicit StageSet(std::function<void()> on_error = {})
      : on_error_(std::move(on_error)) {}

  StageSet(const StageSet&) = delete;
  StageSet& operator=(const StageSet&) = delete;

  ~StageSet() {
    for (std::thread& t : threads_)
      if (t.joinable()) t.join();
  }

  /// Launch `workers` threads running `body(worker_index)`. When the last
  /// of them returns without having thrown, `on_stage_done` fires (from
  /// that worker's thread) — close the stage's downstream edge there. On
  /// error the done hook is skipped; the set-level on_error has already
  /// failed the graph.
  void spawn(std::string name, int workers, std::function<void(int)> body,
             std::function<void()> on_stage_done = {}) {
    if (workers < 1) workers = 1;
    if (obs::enabled())
      obs::gauge("dataflow.stage." + name + ".workers").record_max(workers);
    auto group = std::make_shared<Group>();
    group->remaining = workers;
    group->on_done = std::move(on_stage_done);
    auto shared_body = std::make_shared<std::function<void(int)>>(std::move(body));
    for (int i = 0; i < workers; ++i) {
      threads_.emplace_back([this, group, shared_body, i] {
        try {
          (*shared_body)(i);
        } catch (...) {
          record_error(std::current_exception());
        }
        bool last = false;
        {
          std::lock_guard<std::mutex> lock(group->mutex);
          last = --group->remaining == 0;
        }
        if (last && group->on_done && !has_error()) group->on_done();
      });
    }
  }

  /// Wait for every worker of every stage, then rethrow the first error.
  void join() {
    for (std::thread& t : threads_)
      if (t.joinable()) t.join();
    threads_.clear();
    std::exception_ptr err;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      err = first_error_;
    }
    if (err) std::rethrow_exception(err);
  }

  [[nodiscard]] bool has_error() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return first_error_ != nullptr;
  }

 private:
  struct Group {
    std::mutex mutex;
    int remaining = 0;
    std::function<void()> on_done;
  };

  void record_error(std::exception_ptr err) {
    bool fire = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (first_error_ == nullptr) {
        first_error_ = std::move(err);
        fire = true;
      }
    }
    if (fire && on_error_) on_error_();
  }

  std::function<void()> on_error_;
  std::vector<std::thread> threads_;
  mutable std::mutex mutex_;
  std::exception_ptr first_error_ = nullptr;
};

}  // namespace dpoaf::core::dataflow
