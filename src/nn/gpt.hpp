// TinyGpt — a small GPT-style causal language model. This is the
// repository's stand-in for Llama2-7B (see DESIGN.md): DPO's optimization
// dynamics only require a causal LM with sampling and differentiable
// sequence log-probabilities, which this provides at laptop scale.
#pragma once

#include <vector>

#include "nn/modules.hpp"

namespace dpoaf::nn {

struct GptConfig {
  std::int64_t vocab_size = 0;
  std::int64_t d_model = 48;
  std::int64_t n_heads = 4;
  std::int64_t n_layers = 2;
  std::int64_t d_ff = 192;
  std::int64_t max_seq = 96;
  float init_scale = 0.02f;
};

class TinyGpt {
 public:
  TinyGpt() = default;
  TinyGpt(GptConfig config, Rng& rng);

  /// Next-token logits [T, vocab] for a token id sequence (T ≤ max_seq).
  [[nodiscard]] Tensor forward(Tape* tape, const std::vector<int>& ids) const;

  /// Mean next-token cross-entropy over the whole sequence.
  [[nodiscard]] Tensor nll_loss(Tape* tape, const std::vector<int>& ids) const;

  /// Differentiable log P(ids[prompt_len:] | ids[:prompt_len]) — the
  /// quantity DPO optimizes. Scalar tensor.
  [[nodiscard]] Tensor response_log_prob(Tape* tape,
                                         const std::vector<int>& ids,
                                         std::int64_t prompt_len) const;

  /// Same value without recording gradients.
  [[nodiscard]] double response_log_prob_value(const std::vector<int>& ids,
                                               std::int64_t prompt_len) const;

  /// Attach LoRA adapters to every Linear in the blocks and freeze all
  /// base parameters (embeddings and head included) — only the adapters
  /// train afterwards.
  void enable_lora(std::int64_t rank, float alpha, Rng& rng);
  [[nodiscard]] bool lora_enabled() const { return lora_rank_ > 0; }

  [[nodiscard]] ParamList parameters() const;
  [[nodiscard]] ParamList trainable_parameters() const;
  [[nodiscard]] std::size_t parameter_count() const;
  [[nodiscard]] std::size_t trainable_parameter_count() const;

  /// Flat snapshot of every parameter (canonical order) / restore. Used
  /// for reference-model cloning and the every-20-epochs checkpoints.
  [[nodiscard]] std::vector<float> state() const;
  void load_state(const std::vector<float>& state);

  /// Deep copy (same config, LoRA layout and weights, independent storage).
  [[nodiscard]] TinyGpt clone() const;

  [[nodiscard]] const GptConfig& config() const { return config_; }

 private:
  friend class DecodeSession;
  GptConfig config_;
  Tensor tok_emb_;  // [vocab, d]
  Tensor pos_emb_;  // [max_seq, d]
  std::vector<TransformerBlock> blocks_;
  LayerNorm ln_f_;
  Linear head_;  // [d, vocab]
  std::int64_t lora_rank_ = 0;
  float lora_alpha_ = 0.0f;
};

}  // namespace dpoaf::nn
