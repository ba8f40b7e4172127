#include "serve/service.hpp"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/threadpool.hpp"

namespace dpoaf::serve {

const char* to_string(FinishReason reason) {
  switch (reason) {
    case FinishReason::kEos: return "eos";
    case FinishReason::kLength: return "length";
    case FinishReason::kContext: return "context";
    case FinishReason::kInvalid: return "invalid";
  }
  return "unknown";
}

/// A request waiting in the admission queue.
struct GenerationService::Pending {
  GenerateRequest req;
  std::promise<GenerateResult> promise;
  std::uint64_t admit_ns = 0;
};

/// One decode slot. Slots are touched only by the scheduler thread and, via
/// parallel_for, by at most one worker per iteration; the pool's fork/join
/// orders those accesses.
struct GenerationService::Slot {
  bool active = false;
  bool finished = false;
  std::unique_ptr<nn::DecodeSession> session;
  Rng rng{0};
  GenerateRequest req;
  std::promise<GenerateResult> promise;
  std::uint64_t admit_ns = 0;
  bool prefilled = false;
  GenerateResult result;
  std::exception_ptr error;  // a fault caught in advance(), for retire()
};

namespace {

/// A lifetime total for stats(), added to its `serve.*` obs counter in
/// the same call: each event is recorded once, where it happens.
struct Tally {
  explicit Tally(const char* name) : counter(obs::counter(name)) {}
  void add(std::uint64_t n = 1) {
    total.fetch_add(n, std::memory_order_relaxed);
    counter.add(n);
  }
  [[nodiscard]] std::uint64_t get() const {
    return total.load(std::memory_order_relaxed);
  }
  std::atomic<std::uint64_t> total{0};
  obs::Counter& counter;
};

}  // namespace

struct GenerationService::Impl {
  std::mutex mutex;
  std::condition_variable work_cv;  // wakes the scheduler
  std::deque<Pending> queue;        // admission order
  bool draining = false;  // no new admissions
  int active_count = 0;
  std::vector<Slot> slots;
  std::thread scheduler;
  std::mutex join_mutex;

  Tally accepted{"serve.requests"};
  Tally rejected_invalid{"serve.rejected"};
  Tally completed{"serve.completed"};
  Tally generated_tokens{"serve.generated_tokens"};
  Tally iterations{"serve.iterations"};
  Tally prefill_steps{"serve.prefill_steps"};
};

GenerationService::GenerationService(const nn::TinyGpt& model,
                                     ServiceConfig config)
    : model_(model), config_(config), impl_(std::make_unique<Impl>()) {
  DPOAF_CHECK_MSG(config_.slots >= 1, "service needs at least one slot");
  impl_->slots.resize(static_cast<std::size_t>(config_.slots));
  for (Slot& slot : impl_->slots)
    slot.session = std::make_unique<nn::DecodeSession>(model_);
  impl_->scheduler = std::thread([this] { scheduler_loop(); });
}

GenerationService::~GenerationService() { shutdown(); }

std::string GenerationService::validate(const GenerateRequest& req) const {
  // Everything the decode loop would CHECK about a request is rejected
  // here instead, so only a fault of the model itself (say, NaN weights)
  // can fail a decode step.
  const auto& cfg = model_.config();
  if (req.prompt.empty()) return "prompt is empty";
  if (static_cast<std::int64_t>(req.prompt.size()) > cfg.max_seq)
    return "prompt alone exceeds max_seq";
  for (const int t : req.prompt)
    if (t < 0 || t >= cfg.vocab_size)
      return "prompt token out of vocabulary range";
  if (req.max_new_tokens < 0) return "max_new_tokens must be >= 0";
  if (!(req.temperature > 0.0f)) return "temperature must be > 0";
  return {};
}

std::future<GenerateResult> GenerationService::submit(GenerateRequest req) {
  std::vector<GenerateRequest> one;
  one.push_back(std::move(req));
  return std::move(submit_all(std::move(one)).front());
}

std::vector<std::future<GenerateResult>> GenerationService::submit_all(
    std::vector<GenerateRequest> requests) {
  auto& im = *impl_;
  std::vector<std::future<GenerateResult>> futures;
  futures.reserve(requests.size());
  std::vector<Pending> valid;
  for (GenerateRequest& req : requests) {
    std::promise<GenerateResult> promise;
    futures.push_back(promise.get_future());
    if (!validate(req).empty()) {
      // Rejected requests never reach the scheduler: resolve the future
      // right here instead of crashing the caller (or worse, letting an
      // empty prompt reach the prefill loop).
      im.rejected_invalid.add();
      GenerateResult r;
      r.finish = FinishReason::kInvalid;
      promise.set_value(std::move(r));
      continue;
    }
    valid.push_back(Pending{std::move(req), std::move(promise)});
  }
  if (valid.empty()) return futures;
  {
    std::lock_guard<std::mutex> lock(im.mutex);
    DPOAF_CHECK_MSG(!im.draining, "submit() after shutdown");
    const std::uint64_t now_ns = obs::monotonic_now_ns();
    for (Pending& p : valid) {
      p.admit_ns = now_ns;
      im.queue.push_back(std::move(p));
    }
    im.accepted.add(valid.size());
  }
  im.work_cv.notify_all();
  return futures;
}

void GenerationService::shutdown() {
  auto& im = *impl_;
  {
    std::lock_guard<std::mutex> lock(im.mutex);
    im.draining = true;
  }
  im.work_cv.notify_all();
  std::lock_guard<std::mutex> join_lock(im.join_mutex);
  if (im.scheduler.joinable()) im.scheduler.join();
}

ServiceStats GenerationService::stats() const {
  const auto& im = *impl_;
  ServiceStats s;
  s.accepted = im.accepted.get();
  s.rejected_invalid = im.rejected_invalid.get();
  s.completed = im.completed.get();
  s.generated_tokens = im.generated_tokens.get();
  s.iterations = im.iterations.get();
  s.prefill_steps = im.prefill_steps.get();
  return s;
}

void GenerationService::admit_locked(std::uint64_t now_ns) {
  auto& im = *impl_;
  while (!im.queue.empty() && im.active_count < config_.slots) {
    std::size_t si = 0;
    while (im.slots[si].active) ++si;  // lowest free slot
    Slot& slot = im.slots[si];
    Pending p = std::move(im.queue.front());
    im.queue.pop_front();
    slot.active = true;
    slot.finished = false;
    slot.req = std::move(p.req);
    slot.promise = std::move(p.promise);
    slot.admit_ns = p.admit_ns;
    slot.prefilled = false;
    slot.result = GenerateResult{};
    slot.result.queue_ns = now_ns - p.admit_ns;
    slot.rng = nn::request_rng(config_.seed, slot.req.seed);
    slot.session->reset();
    ++im.active_count;
  }
}

void GenerationService::advance(Slot& slot, std::uint64_t now_ns) {
  const GenerateRequest& req = slot.req;
  GenerateResult& r = slot.result;
  const auto stop = [&](FinishReason why) {
    r.finish = why;
    slot.finished = true;
  };
  // validate() rejects empty prompts before admission; this guard keeps a
  // future regression from dereferencing prompt.back() below.
  if (req.prompt.empty()) return stop(FinishReason::kInvalid);
  const auto prompt_len = static_cast<std::int64_t>(req.prompt.size());
  if (!slot.prefilled) {
    // Feed every prompt token but the last; the first decode step feeds
    // that one.
    for (std::int64_t i = 0; i + 1 < prompt_len; ++i)
      slot.session->step(req.prompt[static_cast<std::size_t>(i)]);
    slot.prefilled = true;
    impl_->prefill_steps.add(static_cast<std::uint64_t>(prompt_len - 1));
  }
  // The stop rule, in order: the budget (checked before and after the
  // step), the context window (feeding would fill max_seq: truncated),
  // then eos (never appended).
  const auto& cfg = model_.config();
  if (static_cast<std::int64_t>(r.ids.size()) >= req.max_new_tokens)
    return stop(FinishReason::kLength);
  const std::int64_t fed = slot.session->position();
  if (fed + 1 >= cfg.max_seq) return stop(FinishReason::kContext);
  const std::vector<float>& logits =
      slot.session->step(r.ids.empty() ? req.prompt.back() : r.ids.back());
  // Time-to-first-token on the iteration clock, recorded for the first
  // decode step no matter what it samples (eos included).
  if (fed + 1 == prompt_len) r.ttft_ns = now_ns - slot.admit_ns;
  const int next = nn::sample_token(logits.data(), cfg.vocab_size,
                                    req.temperature, req.top_k, slot.rng);
  if (next == req.eos_id) return stop(FinishReason::kEos);
  r.ids.push_back(next);
  if (static_cast<std::int64_t>(r.ids.size()) >= req.max_new_tokens)
    stop(FinishReason::kLength);
}

void GenerationService::retire(Slot& slot, std::uint64_t now_ns) {
  static obs::Histogram& latency_h = obs::histogram("serve.latency_ns");
  static obs::Histogram& ttft_h = obs::histogram("serve.ttft_ns");
  static obs::Histogram& queue_h = obs::histogram("serve.queue_ns");
  auto& im = *impl_;
  slot.active = false;
  if (slot.error) {
    // The fault fails this request alone; its partial output is dropped
    // and it counts in no completion total.
    slot.promise.set_exception(std::exchange(slot.error, nullptr));
    return;
  }
  GenerateResult r = std::move(slot.result);
  r.total_ns = now_ns - slot.admit_ns;
  im.completed.add();
  im.generated_tokens.add(r.ids.size());
  latency_h.record(r.total_ns);
  if (r.ttft_ns != 0) ttft_h.record(r.ttft_ns);
  queue_h.record(r.queue_ns);
  slot.promise.set_value(std::move(r));
}

void GenerationService::scheduler_loop() {
  static obs::Gauge& queue_depth = obs::gauge("serve.queue_depth");
  static obs::Gauge& queue_depth_max = obs::gauge("serve.queue_depth.max");
  static obs::Gauge& active_gauge = obs::gauge("serve.active_slots");
  static obs::Gauge& active_max = obs::gauge("serve.active_slots.max");
  auto& im = *impl_;
  // One "serve" span per contiguous busy period (armed only while
  // observability is on), closed whenever the service goes idle.
  std::optional<obs::Span> busy;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(im.mutex);
      im.work_cv.wait(lock, [&] {
        return im.draining || im.active_count > 0 || !im.queue.empty();
      });
      admit_locked(obs::monotonic_now_ns());
      const auto depth = static_cast<std::int64_t>(im.queue.size());
      queue_depth.set(depth);
      queue_depth_max.record_max(depth);
      active_gauge.set(im.active_count);
      active_max.record_max(im.active_count);
      if (im.active_count == 0) {
        // All slots free ⇒ admit drained the whole queue.
        busy.reset();
        if (im.draining) return;
        continue;
      }
    }

    if (!busy && obs::enabled()) {
      static obs::Histogram& busy_ns = obs::histogram("serve.busy_ns");
      busy.emplace("serve", busy_ns);
    }
    im.iterations.add();
    const std::uint64_t iter_ns = obs::monotonic_now_ns();
    auto& slots = im.slots;
    util::parallel_for(
        0, static_cast<std::int64_t>(slots.size()), 1,
        [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t i = lo; i < hi; ++i) {
            Slot& slot = slots[static_cast<std::size_t>(i)];
            if (!slot.active || slot.finished) continue;
            // Caught here, inside the chunk: a throw escaping a pool
            // worker terminates the process, and one escaping the
            // caller's chunk would return before the workers finish.
            try {
              advance(slot, iter_ns);
            } catch (...) {
              slot.error = std::current_exception();
              slot.finished = true;
            }
          }
        });
    const std::uint64_t end_ns = obs::monotonic_now_ns();
    int retired = 0;
    for (Slot& slot : slots) {
      if (slot.active && slot.finished) {
        retire(slot, end_ns);
        ++retired;
      }
    }
    if (retired > 0) {
      std::lock_guard<std::mutex> lock(im.mutex);
      im.active_count -= retired;
    }
  }
}

}  // namespace dpoaf::serve
