// Incremental decoding over block-paged KV storage. TinyGpt::forward
// recomputes the whole prefix for every generated token (O(T³·d) per
// response); a DecodeSession feeds one token at a time, caching each
// layer's keys and values, for O(T²·d) generation — the same optimization
// every production LLM server applies. Inference-only (no tape).
//
// Storage is a KvBlockPool block table rather than contiguous per-layer
// vectors (see nn/kv_cache.hpp): position p lives in row p % block_tokens
// of block table[p / block_tokens]. A standalone session owns a private,
// exactly-sized pool; the serve layer instead passes a shared pool so
// concurrent requests can adopt each other's prompt-prefix blocks
// (copy-on-write isolates appends into shared blocks). Attention walks
// positions in the same order and with the same arithmetic as the old
// contiguous layout, so logits are bit-identical across block sizes and
// sharing decisions.
//
// Numerical note: the cached path accumulates in a different order than
// the batch forward, so logits agree to float tolerance (~1e-4), not
// bit-exactly; the test suite checks closeness and identical greedy
// decodes.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/gpt.hpp"
#include "nn/kv_cache.hpp"

namespace dpoaf::nn {

/// Sample one token id from a next-token logit row with temperature and
/// top-k truncation (the top-k candidate set breaks logit ties by
/// ascending token id). Requires temperature > 0; top_k <= 0 keeps the
/// full distribution.
int sample_token(const float* logits, std::int64_t vocab, float temperature,
                 int top_k, Rng& rng);

/// Greedy argmax over a logit row; ties go to the lowest token id.
int argmax_token(const float* logits, std::int64_t vocab);

/// The decode RNG of one request: a pure function of a stream seed (the
/// pipeline or service seed) and the request's own seed, so a request's
/// stream never depends on which other requests ran, in what order, or
/// on which scheduler. Every sampled decode in the library derives its
/// RNG here.
[[nodiscard]] Rng request_rng(std::uint64_t stream_seed,
                              std::uint64_t request_seed);

/// Token choice and stopping rule of one autoregressive decode.
struct DecodeParams {
  int max_new = 72;          // generated-token budget
  float temperature = 0.7f;  // > 0 unless greedy
  int top_k = 6;             // <= 0 keeps the full distribution
  int eos_id = -1;           // -1: never stop on eos
  bool greedy = false;       // argmax; temperature, top_k and rng unused
};

/// Why decode_step stopped, or kContinue when more tokens may follow.
enum class DecodeStatus { kContinue, kEos, kLength, kContext };

class DecodeSession {
 public:
  /// Binds to `model` (which must outlive the session). With `pool` null
  /// the session owns a private pool sized for one max_seq sequence at
  /// `block_tokens` tokens per block (0 picks a default); with a shared
  /// pool the session allocates, adopts, and releases that pool's blocks
  /// and `block_tokens` is taken from the pool.
  explicit DecodeSession(const TinyGpt& model, KvBlockPool* pool = nullptr,
                         std::int64_t block_tokens = 0);
  ~DecodeSession();

  DecodeSession(const DecodeSession&) = delete;
  DecodeSession& operator=(const DecodeSession&) = delete;

  /// Feed one token; returns the next-token logits (vocab_size floats).
  /// Position advances automatically; throws past max_seq.
  const std::vector<float>& step(int token_id);

  /// Number of tokens consumed so far.
  [[nodiscard]] std::int64_t position() const { return position_; }

  /// Reset to an empty prefix (all block references released, position 0).
  void reset();

  /// Install an already-computed prefix: `blocks` hold the K/V of the
  /// first `tokens` positions and the session takes ownership of one
  /// reference per block (the caller must have increffed them, e.g. via
  /// PrefixTree::match). Only valid on a fresh/reset session. If the last
  /// block is partially filled and shared, the first append copies it
  /// (copy-on-write) so other readers never observe the write.
  void adopt_prefix(const std::vector<std::int32_t>& blocks,
                    std::int64_t tokens);

  /// The block chain backing positions [0, position()).
  [[nodiscard]] const std::vector<std::int32_t>& block_table() const {
    return table_;
  }

  /// True while the tail block is (or may be) shared, i.e. the next step
  /// will allocate a copy-on-write replacement. The serve scheduler folds
  /// this into its free-block reservation.
  [[nodiscard]] bool pending_cow() const { return pending_cow_; }

  /// Copy-on-write block copies performed since construction/reset.
  [[nodiscard]] std::int64_t cow_copies() const { return cow_copies_; }

  [[nodiscard]] const KvBlockPool& pool() const { return *pool_; }
  [[nodiscard]] const TinyGpt& model() const { return model_; }

 private:
  const TinyGpt& model_;
  std::unique_ptr<KvBlockPool> owned_pool_;  // null when pool is shared
  KvBlockPool* pool_;
  std::int64_t position_ = 0;
  std::vector<std::int32_t> table_;
  bool pending_cow_ = false;
  std::int64_t cow_copies_ = 0;
  std::vector<float> logits_;
  // Scratch buffers reused across steps (scores_ holds the per-head
  // attention row — sized to max_seq once, never reallocated per token).
  std::vector<float> x_, h_, qkv_, attn_out_, mlp_, scores_;
};

/// One autoregressive decode step — the single step behind
/// TinyGpt::generate, TinyGpt::generate_greedy and the serve scheduler.
/// `session` holds every prompt token but the last plus every id in
/// `ids` but the last; the step feeds the newest token (ids.back(), or
/// prompt.back() before the first step) and picks the next one. Returns
/// kLength once `ids` holds params.max_new tokens (checked before and
/// after the step), kContext when feeding would fill the model's max_seq
/// window (the response is truncated), kEos when the eos token was picked
/// (never appended), and kContinue after appending a token.
DecodeStatus decode_step(DecodeSession& session,
                         const std::vector<int>& prompt,
                         const DecodeParams& params, Rng& rng,
                         std::vector<int>& ids);

}  // namespace dpoaf::nn
