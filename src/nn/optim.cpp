#include "nn/optim.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "nn/gpt.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace dpoaf::nn {

AdamW::AdamW(std::vector<tensor::Tensor> params, AdamWConfig config)
    : params_(std::move(params)), config_(config) {
  DPOAF_CHECK_MSG(!params_.empty(), "AdamW needs at least one parameter");
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    m_.emplace_back(static_cast<std::size_t>(p.numel()), 0.0f);
    v_.emplace_back(static_cast<std::size_t>(p.numel()), 0.0f);
  }
}

void AdamW::step() {
  ++t_;
  // Global-norm clipping across all parameters.
  double norm_sq = 0.0;
  for (auto& p : params_) {
    const float* g = p.grad();
    for (std::int64_t i = 0; i < p.numel(); ++i)
      norm_sq += static_cast<double>(g[i]) * static_cast<double>(g[i]);
  }
  last_grad_norm_ = std::sqrt(norm_sq);
  float clip_scale = 1.0f;
  if (config_.grad_clip > 0.0f && last_grad_norm_ > config_.grad_clip)
    clip_scale = config_.grad_clip / static_cast<float>(last_grad_norm_);

  const float bc1 =
      1.0f - std::pow(config_.beta1, static_cast<float>(t_));
  const float bc2 =
      1.0f - std::pow(config_.beta2, static_cast<float>(t_));

  // Elementwise and independent per index, so the loop vectorizes without
  // changing a bit: the hyperparameters sit in locals, the buffers do not
  // alias, and optim.cpp builds with -fno-math-errno so sqrt has no errno
  // branch.
  const float beta1 = config_.beta1;
  const float beta2 = config_.beta2;
  const float lr = config_.lr;
  const float eps = config_.eps;
  const float weight_decay = config_.weight_decay;
  for (std::size_t pi = 0; pi < params_.size(); ++pi) {
    auto& p = params_[pi];
    float* __restrict w = p.data();
    const float* __restrict g = p.grad();
    float* __restrict m = m_[pi].data();
    float* __restrict v = v_[pi].data();
    const std::int64_t n = p.numel();
    for (std::int64_t i = 0; i < n; ++i) {
      const float gi = g[i] * clip_scale;
      m[i] = beta1 * m[i] + (1.0f - beta1) * gi;
      v[i] = beta2 * v[i] + (1.0f - beta2) * gi * gi;
      const float mhat = m[i] / bc1;
      const float vhat = v[i] / bc2;
      w[i] -= lr * (mhat / (std::sqrt(vhat) + eps) + weight_decay * w[i]);
    }
  }
}

void AdamW::zero_grad() {
  for (auto& p : params_) p.zero_grad();
}

void AdamW::load_state(const std::vector<std::vector<float>>& m,
                       const std::vector<std::vector<float>>& v,
                       std::int64_t steps) {
  DPOAF_CHECK_MSG(m.size() == params_.size() && v.size() == params_.size(),
                  "optimizer state parameter count mismatch");
  for (std::size_t pi = 0; pi < params_.size(); ++pi)
    DPOAF_CHECK_MSG(
        m[pi].size() == m_[pi].size() && v[pi].size() == v_[pi].size(),
        "optimizer moment buffer size mismatch");
  DPOAF_CHECK(steps >= 0);
  m_ = m;
  v_ = v;
  t_ = steps;
}

MinibatchLoop::MinibatchLoop(TinyGpt& model, float lr, Rng& rng,
                             std::size_t items, const LoopState* resume)
    : model_(model),
      rng_(rng),
      opt_(model.trainable_parameters(), AdamWConfig{.lr = lr}),
      order_(items) {
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  if (resume == nullptr) return;
  const LoopState& state = *resume;
  if (state.completed_epochs < 0 || state.opt_steps < 0)
    throw LoopStateError("loop state has a negative epoch or step count");
  if (state.order.size() != items)
    throw LoopStateError("loop state order has " +
                         std::to_string(state.order.size()) +
                         " entries but the loop trains on " +
                         std::to_string(items) + " items");
  std::vector<bool> seen(items, false);
  for (const std::uint64_t i : state.order) {
    if (i >= items || seen[i])
      throw LoopStateError("loop state order is not a permutation of [0, " +
                           std::to_string(items) + ")");
    seen[i] = true;
  }
  if (state.weights.size() != model.parameter_count())
    throw LoopStateError("loop state holds " +
                         std::to_string(state.weights.size()) +
                         " weights but the model has " +
                         std::to_string(model.parameter_count()));
  const auto& live_m = opt_.moments_m();
  bool moments_fit = state.opt_m.size() == live_m.size() &&
                     state.opt_v.size() == live_m.size();
  for (std::size_t p = 0; moments_fit && p < live_m.size(); ++p)
    moments_fit = state.opt_m[p].size() == live_m[p].size() &&
                  state.opt_v[p].size() == live_m[p].size();
  if (!moments_fit)
    throw LoopStateError(
        "loop state optimizer moments do not fit the model's trainable "
        "parameters");
  if (state.rng_state == std::array<std::uint64_t, 4>{})
    throw LoopStateError("loop state RNG words are all zero");
  model.load_state(state.weights);
  opt_.load_state(state.opt_m, state.opt_v, state.opt_steps);
  rng.set_state_words(state.rng_state);
  order_.assign(state.order.begin(), state.order.end());
  completed_ = state.completed_epochs;
}

std::size_t MinibatchLoop::epoch(std::size_t items,
                                 const ItemLoss& item_loss) {
  DPOAF_CHECK(items <= order_.size());
  rng_.shuffle(order_);
  std::size_t steps = 0;
  for (std::size_t i = 0; i < items; i += kBatchSize, ++steps) {
    const std::size_t batch_end = std::min(items, i + kBatchSize);
    const auto n_in_batch = static_cast<float>(batch_end - i);
    opt_.zero_grad();
    for (std::size_t j = batch_end; j-- > i;) {
      tape_.reset();
      tape_.backward(tensor::ops::scale(
          &tape_, item_loss(&tape_, order_[j]), 1.0f / n_in_batch));
    }
    opt_.step();
  }
  ++completed_;
  return steps;
}

LoopState MinibatchLoop::capture() const {
  return {completed_,       model_.state(),     opt_.moments_m(),
          opt_.moments_v(), opt_.steps_taken(), rng_.state_words(),
          {order_.begin(), order_.end()}};
}

}  // namespace dpoaf::nn
