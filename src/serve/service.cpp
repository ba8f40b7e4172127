#include "serve/service.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
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
  std::uint64_t id = 0;
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
  std::uint64_t id = 0;
  std::uint64_t admit_ns = 0;
  bool prefilled = false;
  bool registered = false;     // prompt prefix anchored in the tree
  std::int64_t cached = 0;     // prompt positions adopted from the tree
  std::int64_t worst_blocks = 0;  // admission-time block reservation
  GenerateResult result;
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
  // Pool outlives the tree and every session (members destroy in reverse
  // declaration order; sessions and the tree release block references on
  // destruction).
  std::unique_ptr<nn::KvBlockPool> pool;
  std::unique_ptr<nn::PrefixTree> tree;  // scheduler-thread confined

  std::mutex mutex;
  std::condition_variable work_cv;   // wakes the scheduler
  std::condition_variable space_cv;  // wakes blocking submitters
  // Per-priority FIFO lanes (highest priority first); admission pops the
  // front of the first non-empty lane in O(log #priorities) instead of
  // scanning the whole backlog per admitted request.
  std::map<int, std::deque<Pending>, std::greater<int>> queue;
  int queue_size = 0;
  bool draining = false;  // no new admissions
  std::uint64_t next_id = 1;
  int active_count = 0;
  std::vector<Slot> slots;
  std::thread scheduler;
  std::mutex join_mutex;

  Tally accepted{"serve.requests"};
  Tally rejected_invalid{"serve.rejected"};
  Tally completed{"serve.completed"};
  Tally generated_tokens{"serve.generated_tokens"};
  Tally iterations{"serve.iterations"};
  Tally prefix_hits{"serve.prefix_hits"};
  Tally prefix_tokens_reused{"serve.prefix_tokens_reused"};
  Tally prefill_steps{"serve.prefill_steps"};
  Tally cow_copies{"serve.cow_copies"};
  Tally evicted_blocks{"serve.evicted_blocks"};
};

GenerationService::GenerationService(const nn::TinyGpt& model,
                                     ServiceConfig config)
    : model_(model), config_(config), impl_(std::make_unique<Impl>()) {
  DPOAF_CHECK_MSG(config_.slots >= 1, "service needs at least one slot");
  DPOAF_CHECK_MSG(config_.queue_capacity >= 1,
                  "queue_capacity must be >= 1");
  DPOAF_CHECK_MSG(config_.kv_block_tokens >= 1,
                  "kv_block_tokens must be >= 1");
  const auto& cfg = model_.config();
  const std::int64_t bt = config_.kv_block_tokens;
  const std::int64_t per_seq = (cfg.max_seq + bt - 1) / bt;
  std::int64_t total = config_.kv_blocks_total > 0
                           ? config_.kv_blocks_total
                           : per_seq * config_.slots;
  // The reservation floor: the pool must fit at least one worst-case
  // sequence or no admission reservation could ever succeed.
  DPOAF_CHECK_MSG(total >= per_seq,
                  "kv_blocks_total smaller than one max_seq sequence");
  impl_->pool = std::make_unique<nn::KvBlockPool>(cfg.n_layers, cfg.d_model,
                                                  bt, total);
  impl_->tree = std::make_unique<nn::PrefixTree>(impl_->pool.get());
  impl_->slots.resize(static_cast<std::size_t>(config_.slots));
  for (Slot& slot : impl_->slots)
    slot.session =
        std::make_unique<nn::DecodeSession>(model_, impl_->pool.get());
  impl_->scheduler = std::thread([this] { scheduler_loop(); });
}

GenerationService::~GenerationService() { shutdown(); }

std::string GenerationService::validate(const GenerateRequest& req) const {
  // Everything the decode loop would CHECK is rejected here instead, so the
  // scheduler thread never throws.
  const auto& cfg = model_.config();
  if (req.prompt.empty()) return "prompt is empty";
  if (static_cast<std::int64_t>(req.prompt.size()) > cfg.max_seq)
    return "prompt alone exceeds max_seq";
  for (const int t : req.prompt)
    if (t < 0 || t >= cfg.vocab_size)
      return "prompt token out of vocabulary range";
  if (req.max_new_tokens < 0) return "max_new_tokens must be >= 0";
  if (!req.greedy && !(req.temperature > 0.0f))
    return "temperature must be > 0";
  return {};
}

Submission GenerationService::submit(GenerateRequest req) {
  std::vector<GenerateRequest> one;
  one.push_back(std::move(req));
  return std::move(submit_all(std::move(one)).front());
}

std::vector<Submission> GenerationService::submit_all(
    std::vector<GenerateRequest> requests) {
  auto& im = *impl_;
  std::vector<Submission> subs(requests.size());
  std::vector<std::pair<std::size_t, Pending>> valid;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    std::promise<GenerateResult> promise;
    subs[i].result = promise.get_future();
    if (!validate(requests[i]).empty()) {
      // Rejected requests never reach the scheduler: resolve the future
      // right here instead of crashing the caller (or worse, letting an
      // empty prompt reach the prefill loop).
      im.rejected_invalid.add();
      GenerateResult r;
      r.finish = FinishReason::kInvalid;
      promise.set_value(std::move(r));
      continue;
    }
    valid.emplace_back(i, Pending{std::move(requests[i]), std::move(promise)});
  }
  if (valid.empty()) return subs;
  const auto n = static_cast<int>(valid.size());
  DPOAF_CHECK_MSG(n <= config_.queue_capacity,
                  "submit_all: more valid requests than queue_capacity");
  {
    std::unique_lock<std::mutex> lock(im.mutex);
    im.space_cv.wait(lock, [&] {
      return im.draining || im.queue_size + n <= config_.queue_capacity;
    });
    DPOAF_CHECK_MSG(!im.draining, "submit() after shutdown");
    const std::uint64_t now_ns = obs::monotonic_now_ns();
    for (auto& [i, p] : valid) {
      p.id = subs[i].id = im.next_id++;
      p.admit_ns = now_ns;
      im.queue[p.req.priority].push_back(std::move(p));
    }
    im.queue_size += n;
    im.accepted.add(valid.size());
  }
  im.work_cv.notify_all();
  return subs;
}

std::vector<GenerateResult> GenerationService::generate_all(
    const std::vector<GenerateRequest>& requests) {
  std::vector<Submission> subs;
  subs.reserve(requests.size());
  for (const GenerateRequest& req : requests) subs.push_back(submit(req));
  std::vector<GenerateResult> out;
  out.reserve(subs.size());
  for (Submission& sub : subs) out.push_back(sub.result.get());
  return out;
}

void GenerationService::shutdown() {
  auto& im = *impl_;
  {
    std::lock_guard<std::mutex> lock(im.mutex);
    im.draining = true;
  }
  im.work_cv.notify_all();
  im.space_cv.notify_all();
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
  s.blocks_total = im.pool->total_blocks();
  s.blocks_free = im.pool->free_blocks();
  s.prefix_hits = im.prefix_hits.get();
  s.prefix_tokens_reused = im.prefix_tokens_reused.get();
  s.prefill_steps = im.prefill_steps.get();
  s.cow_copies = im.cow_copies.get();
  s.evicted_blocks = im.evicted_blocks.get();
  return s;
}

std::int64_t GenerationService::worst_case_blocks(
    const GenerateRequest& req) const {
  const std::int64_t positions =
      std::min<std::int64_t>(static_cast<std::int64_t>(req.prompt.size()) +
                                 req.max_new_tokens,
                             model_.config().max_seq);
  return impl_->pool->blocks_for(positions);
}

std::int64_t GenerationService::remaining_need(const Slot& slot) const {
  // Blocks the slot's session may still allocate: its admission-time
  // worst case minus what its table already holds, plus one replacement
  // when the (adopted) tail is still shared and awaits copy-on-write.
  const auto held =
      static_cast<std::int64_t>(slot.session->block_table().size());
  const std::int64_t cow = slot.session->pending_cow() ? 1 : 0;
  return std::max<std::int64_t>(0, slot.worst_blocks - held + cow);
}

void GenerationService::admit_locked(std::uint64_t now_ns) {
  auto& im = *impl_;
  while (im.queue_size > 0 && im.active_count < config_.slots) {
    // Outstanding reservations for everything already admitted.
    std::int64_t reserved = 0;
    for (const Slot& s : im.slots)
      if (s.active) reserved += remaining_need(s);

    auto lane = im.queue.begin();  // highest priority, FIFO within
    Pending& head = lane->second.front();
    const auto prompt_len =
        static_cast<std::int64_t>(head.req.prompt.size());

    // Worst-case need first; a prefix match can only shrink it, so only
    // pay for the tree walk when the conservative bound doesn't fit.
    std::int64_t need = worst_case_blocks(head.req);
    nn::PrefixTree::Match match;
    bool matched = false;
    const auto affordable = [&] {
      if (im.pool->free_blocks() >= reserved + need) return true;
      im.evicted_blocks.add(static_cast<std::uint64_t>(
          im.tree->evict_until_free(reserved + need)));
      return im.pool->free_blocks() >= reserved + need;
    };
    if (config_.prefix_sharing && prompt_len > 1) {
      if (!affordable()) {
        // Retry with the adopted prefix discounted. Matched full blocks
        // are already resident, so they drop out of the reservation.
        match = im.tree->match(head.req.prompt, prompt_len - 1);
        matched = true;
        need = worst_case_blocks(head.req) -
               match.tokens / config_.kv_block_tokens;
      }
      if (!affordable()) {
        for (const std::int32_t b : match.blocks) im.pool->decref(b);
        break;  // head-of-line blocks; retirements will free space
      }
      if (!matched) match = im.tree->match(head.req.prompt, prompt_len - 1);
    } else if (!affordable()) {
      break;
    }

    std::size_t si = 0;
    while (im.slots[si].active) ++si;  // lowest free slot
    Slot& slot = im.slots[si];
    Pending p = std::move(head);
    lane->second.pop_front();
    if (lane->second.empty()) im.queue.erase(lane);
    --im.queue_size;
    slot.active = true;
    slot.finished = false;
    slot.req = std::move(p.req);
    slot.promise = std::move(p.promise);
    slot.id = p.id;
    slot.admit_ns = p.admit_ns;
    slot.prefilled = false;
    slot.registered = false;
    slot.cached = 0;
    slot.worst_blocks = worst_case_blocks(slot.req);
    slot.result = GenerateResult{};
    slot.result.queue_ns = now_ns - p.admit_ns;
    slot.rng = nn::request_rng(config_.seed, slot.req.seed);
    slot.session->reset();
    if (match.tokens > 0) {
      slot.session->adopt_prefix(match.blocks, match.tokens);
      slot.cached = match.tokens;
      im.prefix_hits.add();
      im.prefix_tokens_reused.add(static_cast<std::uint64_t>(match.tokens));
    }
    ++im.active_count;
  }
}

void GenerationService::advance(Slot& slot, std::uint64_t now_ns) {
  GenerateResult& r = slot.result;
  if (slot.req.prompt.empty()) {
    // validate() rejects empty prompts before admission; this guard keeps
    // a future regression from dereferencing prompt.back() below.
    r.finish = FinishReason::kInvalid;
    slot.finished = true;
    return;
  }
  const auto prompt_len = static_cast<std::int64_t>(slot.req.prompt.size());
  if (!slot.prefilled) {
    // Adopted prefix positions [0, cached) are already in the KV cache;
    // prefill only the un-cached suffix of the prompt.
    for (std::int64_t i = slot.cached; i + 1 < prompt_len; ++i)
      slot.session->step(slot.req.prompt[static_cast<std::size_t>(i)]);
    slot.prefilled = true;
    impl_->prefill_steps.add(
        static_cast<std::uint64_t>(prompt_len - 1 - slot.cached));
  }
  const GenerateRequest& req = slot.req;
  const std::int64_t fed = slot.session->position();
  const nn::DecodeStatus status = nn::decode_step(
      *slot.session, req.prompt,
      {req.max_new_tokens, req.temperature, req.top_k, req.eos_id, req.greedy},
      slot.rng, r.ids);
  // Time-to-first-token on the iteration clock, recorded for the first
  // decode step no matter what it samples (eos included).
  if (fed + 1 == prompt_len && slot.session->position() > fed)
    r.ttft_ns = now_ns - slot.admit_ns;
  switch (status) {
    case nn::DecodeStatus::kContinue:
      return;
    case nn::DecodeStatus::kEos:
      r.finish = FinishReason::kEos;
      break;
    case nn::DecodeStatus::kLength:
      r.finish = FinishReason::kLength;
      break;
    case nn::DecodeStatus::kContext:  // context exhausted before eos/max_new
      r.finish = FinishReason::kContext;
      break;
  }
  slot.finished = true;
}

void GenerationService::register_prefixes() {
  auto& im = *impl_;
  if (!config_.prefix_sharing) return;
  const std::int64_t bt = config_.kv_block_tokens;
  for (Slot& slot : im.slots) {
    if (!slot.active || slot.registered || !slot.prefilled) continue;
    slot.registered = true;
    // Cache-resident prompt positions: the full prompt once the first
    // decode step fed prompt.back(), one less when the slot finished
    // before that step (max_new == 0 or immediate context exhaustion).
    const std::int64_t len =
        std::min(slot.session->position(),
                 static_cast<std::int64_t>(slot.req.prompt.size()));
    if (len <= 0) continue;
    const auto& chain = slot.session->block_table();
    std::int32_t partial = -1;
    if (len % bt != 0 && !im.tree->has_anchor(slot.req.prompt.data(), len)) {
      // The tail block keeps receiving generated-token rows, so the tree
      // anchors a snapshot copy — paid for only when the pool can spare a
      // block beyond every admitted request's reservation.
      std::int64_t reserved = 0;
      for (const Slot& s : im.slots)
        if (s.active) reserved += remaining_need(s);
      if (im.pool->free_blocks() > reserved) {
        partial = im.pool->allocate();
        im.pool->copy_rows(chain[static_cast<std::size_t>(len / bt)],
                           partial, len % bt);
      }
    }
    im.tree->insert(slot.req.prompt.data(), len, chain, partial);
  }
}

void GenerationService::retire(Slot& slot, std::uint64_t now_ns) {
  static obs::Histogram& latency_h = obs::histogram("serve.latency_ns");
  static obs::Histogram& ttft_h = obs::histogram("serve.ttft_ns");
  static obs::Histogram& queue_h = obs::histogram("serve.queue_ns");
  auto& im = *impl_;
  GenerateResult r = std::move(slot.result);
  r.total_ns = now_ns - slot.admit_ns;
  im.completed.add();
  im.generated_tokens.add(r.ids.size());
  im.cow_copies.add(static_cast<std::uint64_t>(slot.session->cow_copies()));
  latency_h.record(r.total_ns);
  if (r.ttft_ns != 0) ttft_h.record(r.ttft_ns);
  queue_h.record(r.queue_ns);
  // Release this sequence's block references immediately so the freed
  // space is visible to the very next admission pass (tree-anchored
  // prefix blocks stay resident until evicted).
  slot.session->reset();
  slot.active = false;
  slot.promise.set_value(std::move(r));
}

void GenerationService::scheduler_loop() {
  static obs::Gauge& queue_depth = obs::gauge("serve.queue_depth");
  static obs::Gauge& queue_depth_max = obs::gauge("serve.queue_depth.max");
  static obs::Gauge& active_gauge = obs::gauge("serve.active_slots");
  static obs::Gauge& active_max = obs::gauge("serve.active_slots.max");
  static obs::Gauge& blocks_total_g = obs::gauge("serve.kv_blocks_total");
  static obs::Gauge& blocks_free_g = obs::gauge("serve.kv_blocks_free");
  auto& im = *impl_;
  blocks_total_g.set(im.pool->total_blocks());
  // One "serve" span per contiguous busy period (armed only while
  // observability is on), closed whenever the service goes idle.
  std::optional<obs::Span> busy;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(im.mutex);
      im.work_cv.wait(lock, [&] {
        return im.draining || im.active_count > 0 || im.queue_size > 0;
      });
      admit_locked(obs::monotonic_now_ns());
      im.space_cv.notify_all();
      queue_depth.set(im.queue_size);
      queue_depth_max.record_max(im.queue_size);
      active_gauge.set(im.active_count);
      active_max.record_max(im.active_count);
      blocks_free_g.set(im.pool->free_blocks());
      if (im.active_count == 0) {
        // All slots free ⇒ admit drained the whole queue.
        busy.reset();
        if (im.draining) return;
        continue;
      }
    }

    if (!busy && obs::enabled())
      busy.emplace("serve", obs::histogram("serve.busy_ns"));
    im.iterations.add();
    const std::uint64_t iter_ns = obs::monotonic_now_ns();
    auto& slots = im.slots;
    util::parallel_for(
        0, static_cast<std::int64_t>(slots.size()), 1,
        [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t i = lo; i < hi; ++i) {
            Slot& slot = slots[static_cast<std::size_t>(i)];
            if (slot.active && !slot.finished) advance(slot, iter_ns);
          }
        });
    // Anchor freshly prefilled prompts before retirement can release
    // their blocks; runs on the scheduler thread, after the fork/join.
    register_prefixes();
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
