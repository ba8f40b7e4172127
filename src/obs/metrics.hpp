// Process-wide observability: a registry of named counters, gauges, and
// histograms feeding the RunReport exporter (obs/report.hpp).
//
// Design constraints (see DESIGN.md "Observability"):
//  - Zero cost when disabled. Every record path starts with one relaxed
//    atomic load of the global enable flag and returns immediately when it
//    is off — no clock reads, no allocation, no locks.
//  - Locked registration, lock-free recording. Looking a metric up by
//    name takes the registry's one mutex; the returned reference is
//    stable for the process lifetime, so hot paths resolve once
//    (function-local static) and then only touch std::atomic fields.
//  - Deterministic values. Counters count logical events (cache hits, DPO
//    steps, matmul calls), which are identical across runs of the same
//    configuration; wall-clock lives only in histograms and trace spans,
//    which are reported but never fed back into any computed metric — the
//    property tests compare RunResult numbers with observability on vs off.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace dpoaf::obs {

/// Global observability switch (default off). Recording into counters,
/// gauges, histograms, and trace spans is a no-op while disabled.
void set_enabled(bool on);
[[nodiscard]] bool enabled();

/// Monotonic event counter. add() is a relaxed atomic increment.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (enabled()) value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value, plus a high-water-mark helper.
class Gauge {
 public:
  void set(std::int64_t v) {
    if (enabled()) value_.store(v, std::memory_order_relaxed);
  }
  /// Raise the gauge to `v` if it is below it (e.g. max queue depth).
  void record_max(std::int64_t v) {
    if (!enabled()) return;
    std::int64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < v &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Snapshot of a histogram: count/sum/min/max plus log2 buckets —
/// buckets[i] counts recorded values v with bit_width(v) == i (v = 0 goes
/// to bucket 0).
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  // 0 when count == 0
  std::uint64_t max = 0;
  std::array<std::uint64_t, 64> buckets{};

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Lock-free log2-bucketed histogram of non-negative integer samples
/// (durations in nanoseconds, sizes, …).
class Histogram {
 public:
  void record(std::uint64_t v);
  [[nodiscard]] HistogramSnapshot snapshot() const;
  void reset();

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{UINT64_MAX};
  std::atomic<std::uint64_t> max_{0};
  std::array<std::atomic<std::uint64_t>, 64> buckets_{};
};

/// RAII wall-clock timer recording one duration (ns) into a histogram on
/// destruction. Unlike a trace Span it emits no trace event, so it is safe
/// on paths hot enough that per-call events would swamp the trace buffer.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& hist);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* hist_;       // nullptr when observability was off at entry
  std::uint64_t start_ns_ = 0;
};

/// One (name, value) snapshot row.
struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};
struct GaugeSample {
  std::string name;
  std::int64_t value = 0;
};
struct HistogramSample {
  std::string name;
  HistogramSnapshot snapshot;
};

/// Full registry snapshot, each section sorted by name for stable output.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

/// The process-wide named-metric registry. Metric objects are created on
/// first lookup and never destroyed or moved, so references returned here
/// stay valid for the process lifetime.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  [[nodiscard]] MetricsSnapshot snapshot() const;
  /// Zero every registered metric (registrations survive).
  void reset();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::unique_ptr<Counter>> counters_;
  std::unordered_map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::unordered_map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Shorthands for the hot-path idiom:
///   static auto& c = obs::counter("tensor.matmul.calls");
///   c.add();
inline Counter& counter(std::string_view name) {
  return MetricsRegistry::instance().counter(name);
}
inline Gauge& gauge(std::string_view name) {
  return MetricsRegistry::instance().gauge(name);
}
inline Histogram& histogram(std::string_view name) {
  return MetricsRegistry::instance().histogram(name);
}

/// Monotonic nanoseconds since an arbitrary process-local epoch (the first
/// call). Shared by ScopedTimer and the trace spans so all timestamps in a
/// report are mutually comparable.
[[nodiscard]] std::uint64_t monotonic_now_ns();

}  // namespace dpoaf::obs
