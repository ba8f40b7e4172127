#include "nn/modules.hpp"

#include "util/check.hpp"

namespace dpoaf::nn {

namespace ops = tensor::ops;

Linear::Linear(std::int64_t in, std::int64_t out, Rng& rng,
               float init_scale) {
  weight = Tensor::randn({in, out}, rng, init_scale).set_requires_grad(true);
  bias = Tensor::zeros({1, out}).set_requires_grad(true);
}

Tensor Linear::forward(Tape* tape, const Tensor& x) const {
  const ops::LoRA lora{lora_a, lora_b, lora_scale_};
  return ops::linear(tape, x, weight, bias, lora_rank_ > 0 ? &lora : nullptr);
}

void Linear::forward_row(const float* x, float* y, float* lora) const {
  const ops::LoRA adapter{lora_a, lora_b, lora_scale_};
  ops::linear_rows(x, 1, weight, bias, lora_rank_ > 0 ? &adapter : nullptr,
                   y, lora, lora + lora_rank_);
}

void Linear::enable_lora(std::int64_t rank, float alpha, Rng& rng) {
  DPOAF_CHECK_MSG(rank > 0, "LoRA rank must be positive");
  DPOAF_CHECK_MSG(lora_rank_ == 0, "LoRA already enabled");
  const std::int64_t in = weight.rows();
  const std::int64_t out = weight.cols();
  // A Gaussian, B zero: the adapter starts as the identity update.
  lora_a = Tensor::randn({in, rank}, rng, 0.02f).set_requires_grad(true);
  lora_b = Tensor::zeros({rank, out}).set_requires_grad(true);
  lora_rank_ = rank;
  lora_scale_ = alpha / static_cast<float>(rank);
  weight.set_requires_grad(false);
  bias.set_requires_grad(false);
}

void Linear::collect_params(ParamList& out) const {
  out.push_back(weight);
  out.push_back(bias);
  if (lora_rank_ > 0) {
    out.push_back(lora_a);
    out.push_back(lora_b);
  }
}

LayerNorm::LayerNorm(std::int64_t dim) {
  gamma = Tensor::full({1, dim}, 1.0f).set_requires_grad(true);
  beta = Tensor::zeros({1, dim}).set_requires_grad(true);
}

Tensor LayerNorm::forward(Tape* tape, const Tensor& x) const {
  return ops::layer_norm(tape, x, gamma, beta);
}

void LayerNorm::collect_params(ParamList& out) const {
  out.push_back(gamma);
  out.push_back(beta);
}

CausalSelfAttention::CausalSelfAttention(std::int64_t d_model,
                                         std::int64_t n_heads, Rng& rng,
                                         float init_scale)
    : qkv(d_model, 3 * d_model, rng, init_scale),
      proj(d_model, d_model, rng, init_scale),
      n_heads_(n_heads) {
  DPOAF_CHECK_MSG(n_heads >= 1, "n_heads must be >= 1");
  DPOAF_CHECK_MSG(d_model % n_heads == 0,
                  "d_model must be divisible by n_heads");
}

Tensor CausalSelfAttention::forward(Tape* tape, const Tensor& x) const {
  const Tensor fused = qkv.forward(tape, x);  // [T, 3d]
  return proj.forward(tape, ops::causal_attention(tape, fused, n_heads_));
}

void CausalSelfAttention::enable_lora(std::int64_t rank, float alpha,
                                      Rng& rng) {
  qkv.enable_lora(rank, alpha, rng);
  proj.enable_lora(rank, alpha, rng);
}

void CausalSelfAttention::collect_params(ParamList& out) const {
  qkv.collect_params(out);
  proj.collect_params(out);
}

TransformerBlock::TransformerBlock(std::int64_t d_model, std::int64_t n_heads,
                                   std::int64_t d_ff, Rng& rng,
                                   float init_scale)
    : ln1(d_model),
      ln2(d_model),
      attn(d_model, n_heads, rng, init_scale),
      fc1(d_model, d_ff, rng, init_scale),
      fc2(d_ff, d_model, rng, init_scale) {}

Tensor TransformerBlock::forward(Tape* tape, const Tensor& x) const {
  Tensor h = ops::add(tape, x, attn.forward(tape, ln1.forward(tape, x)));
  const Tensor mlp = fc2.forward(
      tape, ops::gelu(tape, fc1.forward(tape, ln2.forward(tape, h))));
  return ops::add(tape, h, mlp);
}

void TransformerBlock::enable_lora(std::int64_t rank, float alpha,
                                   Rng& rng) {
  attn.enable_lora(rank, alpha, rng);
  fc1.enable_lora(rank, alpha, rng);
  fc2.enable_lora(rank, alpha, rng);
}

void TransformerBlock::collect_params(ParamList& out) const {
  ln1.collect_params(out);
  ln2.collect_params(out);
  attn.collect_params(out);
  fc1.collect_params(out);
  fc2.collect_params(out);
}

}  // namespace dpoaf::nn
