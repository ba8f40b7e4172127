#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <chrono>

namespace dpoaf::obs {

namespace {

std::atomic<bool> g_enabled{false};

// The metric named `name` in `map`, created on first lookup.
template <typename Metric>
Metric& find_or_add(
    std::unordered_map<std::string, std::unique_ptr<Metric>>& map,
    std::string_view name) {
  auto& slot = map[std::string(name)];
  if (!slot) slot = std::make_unique<Metric>();
  return *slot;
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::uint64_t monotonic_now_ns() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                           epoch)
          .count());
}

void Histogram::record(std::uint64_t v) {
  if (!enabled()) return;
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  std::uint64_t cur = min_.load(std::memory_order_relaxed);
  while (v < cur &&
         !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  buckets_[static_cast<std::size_t>(std::bit_width(v))].fetch_add(
      1, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  const std::uint64_t min = min_.load(std::memory_order_relaxed);
  s.min = min == UINT64_MAX ? 0 : min;
  s.max = max_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < s.buckets.size(); ++i)
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  return s;
}

void Histogram::reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

ScopedTimer::ScopedTimer(Histogram& hist)
    : hist_(enabled() ? &hist : nullptr) {
  if (hist_ != nullptr) start_ns_ = monotonic_now_ns();
}

ScopedTimer::~ScopedTimer() {
  if (hist_ != nullptr) hist_->record(monotonic_now_ns() - start_ns_);
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return find_or_add(counters_, name);
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return find_or_add(gauges_, name);
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return find_or_add(histograms_, name);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, c] : counters_)
      out.counters.push_back({name, c->value()});
    for (const auto& [name, g] : gauges_)
      out.gauges.push_back({name, g->value()});
    for (const auto& [name, h] : histograms_)
      out.histograms.push_back({name, h->snapshot()});
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(out.counters.begin(), out.counters.end(), by_name);
  std::sort(out.gauges.begin(), out.gauges.end(), by_name);
  std::sort(out.histograms.begin(), out.histograms.end(), by_name);
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

}  // namespace dpoaf::obs
