// Continuous-batching generation service (Orca-style iteration-level
// scheduling) over block-paged KV storage.
//
// A GenerationService owns a fixed fleet of decode slots, one shared
// KvBlockPool, and one scheduler thread. Requests enter a bounded
// admission queue (per-priority FIFO lanes); every scheduler iteration
// admits queued requests into free slots — gated on free KV blocks, not
// just slot count — and advances each active slot by one generated token,
// fanning the per-slot steps across util::ThreadPool. Finished requests
// retire at the end of the iteration, release their blocks, and their slot
// is re-admitted immediately — new work never waits for the whole batch to
// drain. Admission reserves each request's worst-case block need, so an
// admitted request can always run to completion — the pool can never
// strand a slot mid-decode.
//
// Determinism: a request's output depends only on the model weights, its
// own fields, and nn::request_rng(config.seed, request.seed). Attention
// walks positions in the same order at any block size — so token ids are
// bitwise-identical regardless of arrival order, slot count, thread count
// or KV block size. No wall-clock input reaches the scheduler's decisions
// about a request's tokens; the latency fields are report-only.
#pragma once

#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "nn/decoder.hpp"
#include "nn/gpt.hpp"
#include "nn/kv_cache.hpp"

namespace dpoaf::serve {

/// Why a request stopped decoding.
enum class FinishReason {
  kEos,       // sampled the eos token
  kLength,    // emitted max_new_tokens
  kContext,   // hit the model's max_seq context limit (truncated)
  kInvalid,   // rejected by validate() without ever reaching a slot
};

[[nodiscard]] const char* to_string(FinishReason reason);

struct GenerateRequest {
  std::vector<int> prompt;  // token ids; non-empty, each in [0, vocab)
  int max_new_tokens = 72;
  float temperature = 0.7f;  // > 0 unless greedy
  int top_k = 6;             // <= 0 keeps the full distribution
  int eos_id = -1;           // -1: never stop on eos
  /// Greedy argmax decoding (temperature/top_k/seed unused).
  bool greedy = false;
  /// Per-request RNG seed; the decode stream is nn::request_rng(service
  /// seed, this seed) — independent of every other request.
  std::uint64_t seed = 0;
  /// Higher-priority requests are admitted first; ties are FIFO.
  int priority = 0;
};

struct GenerateResult {
  std::vector<int> ids;  // generated tokens (eos never included)
  FinishReason finish = FinishReason::kEos;
  // Wall-clock latency breakdown, report-only (never fed back into token
  // selection): admission→slot, admission→first decode step (recorded on
  // the iteration clock even when that step sampled eos; 0 only when no
  // decode step ran), admission→retirement.
  std::uint64_t queue_ns = 0;
  std::uint64_t ttft_ns = 0;
  std::uint64_t total_ns = 0;
};

struct ServiceConfig {
  int slots = 8;            // concurrent decode sessions (>= 1)
  int queue_capacity = 64;  // queued requests (>= 1), excluding active slots
  std::uint64_t seed = 0;  // mixed into every per-request RNG
  /// Tokens per KV block. Smaller blocks waste less tail space; larger
  /// blocks cut per-block bookkeeping. Results are bitwise-identical at
  /// any value (>= 1).
  int kv_block_tokens = 16;
  /// Total blocks in the shared pool; 0 sizes it to fit `slots`
  /// worst-case sequences (slots * ceil(max_seq / kv_block_tokens)).
  /// Must fit at least one worst-case sequence — admission reserves every
  /// admitted request's remaining need, so smaller pools throttle
  /// concurrency instead of stranding requests.
  std::int64_t kv_blocks_total = 0;
};

/// Lifetime totals (monotone; read with stats()).
struct ServiceStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected_invalid = 0;
  std::uint64_t completed = 0;
  std::uint64_t generated_tokens = 0;
  std::uint64_t iterations = 0;  // scheduler iterations that advanced work
  // Paged-KV telemetry.
  std::int64_t blocks_total = 0;    // pool size (constant)
  std::int64_t blocks_free = 0;     // free blocks at sampling time
  std::uint64_t prefill_steps = 0;  // prompt positions computed
};

class GenerationService {
 public:
  /// Binds to `model`, which must outlive the service and must not be
  /// mutated while the service is running.
  GenerationService(const nn::TinyGpt& model, ServiceConfig config);
  /// Drains outstanding work (shutdown()) before returning.
  ~GenerationService();

  GenerationService(const GenerationService&) = delete;
  GenerationService& operator=(const GenerationService&) = delete;

  /// Empty when the request is valid for this service's model.
  [[nodiscard]] std::string validate(const GenerateRequest& req) const;

  /// Admission: waits for queue space (backpressure). An invalid request never
  /// reaches the scheduler — its future resolves immediately with
  /// FinishReason::kInvalid. Throws ContractViolation only when called
  /// after shutdown.
  std::future<GenerateResult> submit(GenerateRequest req);

  /// submit() for a whole list: every valid request enters the queue under
  /// one lock. With no other submitter, the scheduler's decisions — and so
  /// every ServiceStats total — then depend only on the list, never on when
  /// the caller's thread ran. Waits for room for all of them; CHECKs that
  /// they fit queue_capacity. Futures come back in input order.
  std::vector<std::future<GenerateResult>> submit_all(
      std::vector<GenerateRequest> requests);

  /// Submit every request (blocking for space) and wait; results come back
  /// in input order.
  std::vector<GenerateResult> generate_all(
      const std::vector<GenerateRequest>& requests);

  /// Stop accepting requests and complete all admitted work first.
  /// Idempotent; safe to call from multiple threads.
  void shutdown();

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] const ServiceConfig& config() const { return config_; }

 private:
  struct Pending;
  struct Slot;
  struct Impl;

  void scheduler_loop();
  /// Move queued requests into free slots while their worst-case block
  /// need fits the unreserved pool; caller holds mutex_.
  void admit_locked(std::uint64_t now_ns);
  /// One nn::decode_step (after the prompt prefill, on first call) for an
  /// active slot, plus the serving-only parts: prefill accounting and
  /// TTFT.
  void advance(Slot& slot, std::uint64_t now_ns);
  /// Fulfill a finished slot's promise and free it.
  void retire(Slot& slot, std::uint64_t now_ns);
  /// KV blocks the slot may still allocate (drives admission reservation).
  [[nodiscard]] std::int64_t remaining_need(const Slot& slot) const;
  /// Worst-case block count for a request: its prompt plus its token
  /// budget, capped at max_seq.
  [[nodiscard]] std::int64_t worst_case_blocks(
      const GenerateRequest& req) const;

  const nn::TinyGpt& model_;
  ServiceConfig config_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dpoaf::serve
