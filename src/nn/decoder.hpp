// Incremental decoding over a KV cache. TinyGpt::forward recomputes the
// whole prefix for every generated token (O(T³·d) per response); a
// DecodeSession feeds one token at a time, caching each layer's keys and
// values, for O(T²·d) generation — the same optimization every production
// LLM server applies. Inference-only (no tape).
//
// Each session owns contiguous per-layer key and value buffers of max_seq
// rows of d_model floats, allocated once: position p lives at row p.
//
// Bitwise contract: a step runs the batch forward's own row code in its
// order, so its logits are the bytes of TinyGpt::forward's row on the
// active backend: responses are sampled from exactly the distribution DPO
// scores.
//
// The library's one decode loop is serve::GenerationService: each slot
// owns a session, picks every token with sample_token and draws from
// request_rng's stream.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/gpt.hpp"

namespace dpoaf::nn {

/// Sample one token id from a next-token logit row with temperature and
/// top-k truncation (the top-k candidate set breaks logit ties by
/// ascending token id). Requires temperature > 0; top_k <= 0 keeps the
/// full distribution.
int sample_token(const float* logits, std::int64_t vocab, float temperature,
                 int top_k, Rng& rng);

/// The decode RNG of one request: a pure function of a stream seed (the
/// pipeline or service seed) and the request's own seed, so a request's
/// stream never depends on which other requests ran, in what order, or
/// on which scheduler. Every sampled decode in the library derives its
/// RNG here.
[[nodiscard]] Rng request_rng(std::uint64_t stream_seed,
                              std::uint64_t request_seed);

class DecodeSession {
 public:
  /// Binds to `model` (which must outlive the session) and allocates the
  /// KV cache for one max_seq sequence.
  explicit DecodeSession(const TinyGpt& model);

  DecodeSession(const DecodeSession&) = delete;
  DecodeSession& operator=(const DecodeSession&) = delete;

  /// Feed one token; returns the next-token logits (vocab_size floats).
  /// Position advances automatically; throws past max_seq.
  const std::vector<float>& step(int token_id);

  /// Number of tokens consumed so far.
  [[nodiscard]] std::int64_t position() const { return position_; }

  /// Reset to an empty prefix. Rows past position() are never read, so
  /// the cache keeps its stale contents.
  void reset() { position_ = 0; }

  [[nodiscard]] const TinyGpt& model() const { return model_; }

 private:
  const TinyGpt& model_;
  std::int64_t position_ = 0;
  // Per layer, max_seq rows of d_model floats: layer l's row p is at
  // (l * max_seq + p) * d_model.
  std::vector<float> keys_, values_;
  std::vector<float> logits_;
  // Scratch sized once, so a step never allocates: row activations, one
  // head's gathered kᵀ, v, scores and weights, and forward_row's LoRA
  // scratch.
  std::vector<float> x_, h_, qkv_, attn_out_, mlp_, kt_, v_, scores_, attn_,
      lora_;
};

}  // namespace dpoaf::nn
