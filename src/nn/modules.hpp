// Neural-network building blocks: Linear (with optional LoRA adapter, Hu
// et al. 2021 — the paper fine-tunes a low-rank approximation instead of
// the full weights, App. E), Embedding, LayerNorm, multi-head causal
// self-attention, and the pre-LN transformer block.
#pragma once

#include <vector>

#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace dpoaf::nn {

using tensor::Tape;
using tensor::Tensor;

/// Collects a module's parameters; `out` accumulates across modules.
using ParamList = std::vector<Tensor>;

class Linear {
 public:
  Linear() = default;
  Linear(std::int64_t in, std::int64_t out, Rng& rng, float init_scale);

  /// x·W + b (+ the adapter's update): one ops::linear tape node.
  [[nodiscard]] Tensor forward(Tape* tape, const Tensor& x) const;

  /// One row of forward() without a tape: y[out] from x[in] by the same
  /// ops::linear_rows call on one row, so y is bitwise forward()'s row.
  /// With an adapter, `lora` is rank + out floats of caller scratch.
  void forward_row(const float* x, float* y, float* lora) const;

  /// Attach a LoRA adapter W̃ = W + (α/k)·A·B with A ∈ R^{in×k} Gaussian,
  /// B ∈ R^{k×out} zero (so the adapted model starts identical to the
  /// base). Freezes W and b; only A and B remain trainable.
  void enable_lora(std::int64_t rank, float alpha, Rng& rng);

  void collect_params(ParamList& out) const;

  Tensor weight;  // [in, out]
  Tensor bias;    // [1, out]
  Tensor lora_a;  // [in, rank]
  Tensor lora_b;  // [rank, out]

 private:
  std::int64_t lora_rank_ = 0;
  float lora_scale_ = 0.0f;
};

class LayerNorm {
 public:
  LayerNorm() = default;
  explicit LayerNorm(std::int64_t dim);
  [[nodiscard]] Tensor forward(Tape* tape, const Tensor& x) const;
  void collect_params(ParamList& out) const;

  Tensor gamma;  // [1, dim]
  Tensor beta;   // [1, dim]
};

/// Multi-head causal self-attention (combined QKV projection).
class CausalSelfAttention {
 public:
  CausalSelfAttention() = default;
  CausalSelfAttention(std::int64_t d_model, std::int64_t n_heads, Rng& rng,
                      float init_scale);
  [[nodiscard]] Tensor forward(Tape* tape, const Tensor& x) const;
  void enable_lora(std::int64_t rank, float alpha, Rng& rng);
  void collect_params(ParamList& out) const;

  Linear qkv;   // [d, 3d]
  Linear proj;  // [d, d]

  [[nodiscard]] std::int64_t heads() const { return n_heads_; }

 private:
  std::int64_t n_heads_ = 1;
};

/// Pre-LN transformer block: x + attn(ln1(x)); x + mlp(ln2(x)).
class TransformerBlock {
 public:
  TransformerBlock() = default;
  TransformerBlock(std::int64_t d_model, std::int64_t n_heads,
                   std::int64_t d_ff, Rng& rng, float init_scale);
  [[nodiscard]] Tensor forward(Tape* tape, const Tensor& x) const;
  void enable_lora(std::int64_t rank, float alpha, Rng& rng);
  void collect_params(ParamList& out) const;

  LayerNorm ln1, ln2;
  CausalSelfAttention attn;
  Linear fc1, fc2;  // MLP with GELU
};

}  // namespace dpoaf::nn
