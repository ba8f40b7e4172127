// Continuous-batching generation service (Orca-style iteration-level
// scheduling) over KV-cache decode sessions.
//
// A GenerationService owns a fixed fleet of decode slots, each with its
// own nn::DecodeSession (a KV cache for one max_seq sequence), and one
// scheduler thread. Requests wait in one unbounded FIFO queue; every
// scheduler iteration moves queued requests into free slots, oldest first,
// and advances each active slot by one generated token, fanning the
// per-slot steps across util::ThreadPool. Finished requests retire at the
// end of the iteration and their slot is re-admitted immediately — new
// work never waits for the whole batch to drain. A free slot is all
// admission needs: an admitted request can always run to completion. A
// fault inside one slot's decode step fails only that request's future.
//
// Determinism: a request's output depends only on the model weights, its
// own fields, and nn::request_rng(config.seed, request.seed) — so token
// ids are bitwise-identical regardless of arrival order, slot count or
// thread count. No wall-clock input reaches the scheduler's decisions
// about a request's tokens; the latency fields are report-only.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "nn/decoder.hpp"
#include "nn/gpt.hpp"

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
  float temperature = 0.7f;  // > 0
  int top_k = 6;             // <= 0 keeps the full distribution
  int eos_id = -1;           // -1: never stop on eos
  /// Per-request RNG seed; the decode stream is nn::request_rng(service
  /// seed, this seed) — independent of every other request.
  std::uint64_t seed = 0;
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
  int slots = 8;           // concurrent decode sessions (>= 1)
  std::uint64_t seed = 0;  // mixed into every per-request RNG
};

/// Lifetime totals (monotone; read with stats()).
struct ServiceStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected_invalid = 0;
  std::uint64_t completed = 0;
  std::uint64_t generated_tokens = 0;
  std::uint64_t iterations = 0;  // scheduler iterations that advanced work
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

  /// Queues the request and returns at once; the queue has no bound. An
  /// invalid request never reaches the scheduler — its future resolves
  /// immediately with FinishReason::kInvalid. A fault inside the request's
  /// decode step (e.g. a CHECK on NaN logits) is rethrown by the future's
  /// get(). Throws ContractViolation only when called after shutdown.
  std::future<GenerateResult> submit(GenerateRequest req);

  /// submit() for a whole list: every valid request enters the queue under
  /// one lock. With no other submitter, the scheduler's decisions — and so
  /// every ServiceStats total — then depend only on the list, never on when
  /// the caller's thread ran. Futures come back in input order.
  std::vector<std::future<GenerateResult>> submit_all(
      std::vector<GenerateRequest> requests);

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
  /// Move queued requests into free slots, oldest first; caller holds the
  /// service mutex.
  void admit_locked(std::uint64_t now_ns);
  /// One decode step for an active slot (after the prompt prefill, on
  /// first call): feed the newest token, sample the next one, and set the
  /// result's FinishReason once the request stops. Also records prefill
  /// accounting and TTFT.
  void advance(Slot& slot, std::uint64_t now_ns);
  /// Fulfill a finished slot's promise (with its decode fault, if one
  /// was caught) and free it.
  void retire(Slot& slot, std::uint64_t now_ns);

  const nn::TinyGpt& model_;
  ServiceConfig config_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dpoaf::serve
