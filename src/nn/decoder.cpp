#include "nn/decoder.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "tensor/backend/backend.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace dpoaf::nn {

namespace ops = tensor::ops;

int sample_token(const float* logits, std::int64_t vocab, float temperature,
                 int top_k, Rng& rng) {
  DPOAF_CHECK(temperature > 0.0f);
  DPOAF_CHECK(vocab > 0);
  // Collect (logit, id), optionally truncated to the top-k. Ties break
  // by ascending token id: partial_sort's ordering of equal keys is
  // implementation-defined, and the candidate set must not depend on
  // the standard library.
  std::vector<std::pair<float, int>> cand;
  cand.reserve(static_cast<std::size_t>(vocab));
  for (std::int64_t j = 0; j < vocab; ++j)
    cand.emplace_back(logits[j], static_cast<int>(j));
  if (top_k > 0 && top_k < static_cast<int>(cand.size())) {
    std::partial_sort(cand.begin(), cand.begin() + top_k, cand.end(),
                      [](const auto& a, const auto& b) {
                        if (a.first != b.first) return a.first > b.first;
                        return a.second < b.second;
                      });
    cand.resize(static_cast<std::size_t>(top_k));
  }
  float mx = -1e30f;
  for (const auto& [logit, id] : cand) mx = std::max(mx, logit);
  std::vector<double> weights;
  weights.reserve(cand.size());
  for (const auto& [logit, id] : cand)
    weights.push_back(std::exp((logit - mx) / temperature));
  return cand[rng.weighted(weights)].second;
}

Rng request_rng(std::uint64_t stream_seed, std::uint64_t request_seed) {
  // Mix both seeds into one 64-bit value with two splitmix64 rounds; Rng's
  // reseed expands it to the full 256-bit state.
  std::uint64_t s = stream_seed ^ (0x9E3779B97F4A7C15ULL *
                                   (request_seed + 0x632BE59BD9B4E019ULL));
  std::uint64_t z = splitmix64(s);
  z ^= splitmix64(s);
  return Rng(z);
}

DecodeSession::DecodeSession(const TinyGpt& model) : model_(model) {
  const auto& cfg = model_.config();
  const auto d = static_cast<std::size_t>(cfg.d_model);
  const auto dh = d / static_cast<std::size_t>(cfg.n_heads);
  const auto t = static_cast<std::size_t>(cfg.max_seq);
  keys_.resize(static_cast<std::size_t>(cfg.n_layers) * t * d);
  values_.resize(keys_.size());
  logits_.resize(static_cast<std::size_t>(cfg.vocab_size));
  x_.resize(d);
  h_.resize(d);
  qkv_.resize(3 * d);
  attn_out_.resize(d);
  mlp_.resize(static_cast<std::size_t>(cfg.d_ff));
  kt_.resize(dh * t);
  v_.resize(t * dh);
  scores_.resize(t);
  attn_.resize(t);
  lora_.resize(static_cast<std::size_t>(
      model_.lora_rank_ +
      std::max({3 * cfg.d_model, cfg.d_ff, cfg.vocab_size})));
}

const std::vector<float>& DecodeSession::step(int token_id) {
  const auto& cfg = model_.config();
  DPOAF_CHECK_MSG(position_ < cfg.max_seq,
                  "decode session exceeded max_seq");
  DPOAF_CHECK(token_id >= 0 && token_id < cfg.vocab_size);
  const std::int64_t d = cfg.d_model;
  const std::int64_t dh = d / cfg.n_heads;

  // The batch forward's row, op for op: the same row kernels and backend
  // calls in the same order, so the logits are its bytes.
  const tensor::backend::ComputeBackend& be = tensor::backend::active();
  float* const x = x_.data();
  float* const h = h_.data();
  float* const qkv = qkv_.data();
  float* const kt = kt_.data();
  float* const v = v_.data();
  const auto layer_norm = [&](const LayerNorm& ln) {
    ops::layer_norm_row(x, ln.gamma.data(), ln.beta.data(), d, h);
  };
  ops::add_row(model_.tok_emb_.data() + token_id * d,
               model_.pos_emb_.data() + position_ * d, x, d);

  const std::int64_t t_len = position_ + 1;
  for (std::size_t l = 0; l < model_.blocks_.size(); ++l) {
    const TransformerBlock& block = model_.blocks_[l];
    const std::size_t layer_off =
        l * static_cast<std::size_t>(cfg.max_seq * d);
    float* const keys = keys_.data() + layer_off;
    float* const values = values_.data() + layer_off;

    layer_norm(block.ln1);
    block.attn.qkv.forward_row(h, qkv, lora_.data());
    std::copy(qkv + d, qkv + 2 * d, keys + position_ * d);
    std::copy(qkv + 2 * d, qkv + 3 * d, values + position_ * d);
    for (std::int64_t head = 0; head < cfg.n_heads; ++head) {
      // Gather this head's kᵀ [dh, t_len] and v [t_len, dh] from the
      // cache, position by position.
      for (std::int64_t t = 0; t < t_len; ++t) {
        const float* kr = keys + t * d + head * dh;
        for (std::int64_t j = 0; j < dh; ++j) kt[j * t_len + t] = kr[j];
        const float* vr = values + t * d + head * dh;
        std::copy(vr, vr + dh, v + t * dh);
      }
      ops::attention_head(qkv + head * dh, kt, v, 1, t_len, dh,
                          scores_.data(), attn_.data(),
                          attn_out_.data() + head * dh);
    }
    block.attn.proj.forward_row(attn_out_.data(), h, lora_.data());
    ops::add_row(x, h, x, d);

    layer_norm(block.ln2);
    block.fc1.forward_row(h, mlp_.data(), lora_.data());
    be.gelu_fwd(mlp_.data(), mlp_.data(), nullptr, cfg.d_ff);
    block.fc2.forward_row(mlp_.data(), h, lora_.data());
    ops::add_row(x, h, x, d);
  }

  layer_norm(model_.ln_f_);
  model_.head_.forward_row(h, logits_.data(), lora_.data());
  ++position_;
  return logits_;
}

}  // namespace dpoaf::nn
