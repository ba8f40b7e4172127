#include "nn/gpt.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace dpoaf::nn {

namespace ops = tensor::ops;

TinyGpt::TinyGpt(GptConfig config, Rng& rng) : config_(config) {
  DPOAF_CHECK(config.vocab_size > 0);
  tok_emb_ = Tensor::randn({config.vocab_size, config.d_model}, rng,
                           config.init_scale)
                 .set_requires_grad(true);
  pos_emb_ =
      Tensor::randn({config.max_seq, config.d_model}, rng, config.init_scale)
          .set_requires_grad(true);
  blocks_.reserve(static_cast<std::size_t>(config.n_layers));
  for (std::int64_t l = 0; l < config.n_layers; ++l)
    blocks_.emplace_back(config.d_model, config.n_heads, config.d_ff, rng,
                         config.init_scale);
  ln_f_ = LayerNorm(config.d_model);
  head_ = Linear(config.d_model, config.vocab_size, rng, config.init_scale);
}

Tensor TinyGpt::forward(Tape* tape, const std::vector<int>& ids) const {
  DPOAF_CHECK_MSG(!ids.empty(), "forward() needs at least one token");
  DPOAF_CHECK_MSG(static_cast<std::int64_t>(ids.size()) <= config_.max_seq,
                  "sequence exceeds max_seq");
  std::vector<int> positions(ids.size());
  for (std::size_t t = 0; t < ids.size(); ++t)
    positions[t] = static_cast<int>(t);
  Tensor x = ops::add(tape, ops::embedding(tape, tok_emb_, ids),
                      ops::embedding(tape, pos_emb_, positions));
  for (const TransformerBlock& block : blocks_) x = block.forward(tape, x);
  return head_.forward(tape, ln_f_.forward(tape, x));
}

namespace {
// Next-token targets: position t predicts ids[t+1]; last position unused.
std::vector<int> shift_targets(const std::vector<int>& ids) {
  std::vector<int> targets(ids.size(), -1);
  for (std::size_t t = 0; t + 1 < ids.size(); ++t)
    targets[t] = ids[t + 1];
  return targets;
}
}  // namespace

Tensor TinyGpt::nll_loss(Tape* tape, const std::vector<int>& ids) const {
  return ops::cross_entropy(tape, forward(tape, ids), shift_targets(ids));
}

Tensor TinyGpt::response_log_prob(Tape* tape, const std::vector<int>& ids,
                                  std::int64_t prompt_len) const {
  DPOAF_CHECK_MSG(prompt_len >= 1 &&
                      prompt_len < static_cast<std::int64_t>(ids.size()),
                  "prompt_len must leave at least one response token");
  // Position prompt_len−1 predicts the first response token.
  return ops::sum_log_probs(tape, forward(tape, ids), shift_targets(ids),
                            prompt_len - 1);
}

double TinyGpt::response_log_prob_value(const std::vector<int>& ids,
                                        std::int64_t prompt_len) const {
  return static_cast<double>(
      response_log_prob(nullptr, ids, prompt_len).item());
}

void TinyGpt::enable_lora(std::int64_t rank, float alpha, Rng& rng) {
  DPOAF_CHECK_MSG(lora_rank_ == 0, "LoRA already enabled");
  for (TransformerBlock& block : blocks_) block.enable_lora(rank, alpha, rng);
  tok_emb_.set_requires_grad(false);
  pos_emb_.set_requires_grad(false);
  ln_f_.gamma.set_requires_grad(false);
  ln_f_.beta.set_requires_grad(false);
  head_.weight.set_requires_grad(false);
  head_.bias.set_requires_grad(false);
  for (TransformerBlock& block : blocks_) {
    block.ln1.gamma.set_requires_grad(false);
    block.ln1.beta.set_requires_grad(false);
    block.ln2.gamma.set_requires_grad(false);
    block.ln2.beta.set_requires_grad(false);
  }
  lora_rank_ = rank;
  lora_alpha_ = alpha;
}

ParamList TinyGpt::parameters() const {
  ParamList out;
  out.push_back(tok_emb_);
  out.push_back(pos_emb_);
  for (const TransformerBlock& block : blocks_) block.collect_params(out);
  ln_f_.collect_params(out);
  head_.collect_params(out);
  return out;
}

ParamList TinyGpt::trainable_parameters() const {
  ParamList out;
  for (const Tensor& p : parameters())
    if (p.requires_grad()) out.push_back(p);
  return out;
}

std::size_t TinyGpt::parameter_count() const {
  std::size_t n = 0;
  for (const Tensor& p : parameters()) n += static_cast<std::size_t>(p.numel());
  return n;
}

std::size_t TinyGpt::trainable_parameter_count() const {
  std::size_t n = 0;
  for (const Tensor& p : trainable_parameters())
    n += static_cast<std::size_t>(p.numel());
  return n;
}

std::vector<float> TinyGpt::state() const {
  std::vector<float> out;
  for (const Tensor& p : parameters())
    out.insert(out.end(), p.data(), p.data() + p.numel());
  return out;
}

void TinyGpt::load_state(const std::vector<float>& state) {
  std::size_t off = 0;
  for (Tensor p : parameters()) {
    DPOAF_CHECK_MSG(off + static_cast<std::size_t>(p.numel()) <= state.size(),
                    "state vector too short for this model layout");
    std::copy(state.begin() + static_cast<std::ptrdiff_t>(off),
              state.begin() + static_cast<std::ptrdiff_t>(
                                  off + static_cast<std::size_t>(p.numel())),
              p.data());
    off += static_cast<std::size_t>(p.numel());
  }
  DPOAF_CHECK_MSG(off == state.size(),
                  "state vector size does not match the model layout");
}

TinyGpt TinyGpt::clone() const {
  Rng scratch(0);  // weights are overwritten by load_state below
  TinyGpt copy(config_, scratch);
  if (lora_rank_ > 0) copy.enable_lora(lora_rank_, lora_alpha_, scratch);
  copy.load_state(state());
  return copy;
}

}  // namespace dpoaf::nn
