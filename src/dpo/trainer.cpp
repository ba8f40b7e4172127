#include "dpo/trainer.hpp"

#include <algorithm>

#include "nn/optim.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace dpoaf::dpo {

namespace ops = tensor::ops;
using tensor::Tape;
using tensor::Tensor;

DpoTrainer::DpoTrainer(TinyGpt policy, DpoConfig config, Rng& rng)
    : policy_(std::move(policy)), config_(config), rng_(rng.split()) {
  // Reference = frozen snapshot of the pre-trained policy (before LoRA, so
  // cloning stays cheap; LoRA starts as the identity update anyway).
  reference_ = policy_.clone();
  if (config_.lora_rank > 0 && !policy_.lora_enabled())
    policy_.enable_lora(config_.lora_rank, config_.lora_alpha, rng_);
}

std::vector<EpochMetrics> DpoTrainer::train(
    const std::vector<PreferencePair>& pairs, const TrainHooks& hooks,
    const TrainerCheckpointState* resume) {
  DPOAF_CHECK_MSG(!pairs.empty(), "DPO requires at least one pair");
  nn::MinibatchLoop loop(policy_, config_.lr, rng_, pairs.size(),
                         resume != nullptr ? &resume->loop : nullptr);
  std::vector<EpochMetrics> history;
  if (resume != nullptr) {
    reference_.load_state(resume->reference_state);
    history = resume->history;
  }

  // The reference model is frozen: a pair's reference log-probabilities
  // are computed the first time an epoch visits it and reused after. They
  // are a pure function of (pair, reference weights), so a pair no epoch
  // visits costs nothing, and a resumed run (reference restored above)
  // gets the values the interrupted run used.
  std::vector<float> ref_w(pairs.size());
  std::vector<float> ref_l(pairs.size());
  std::vector<bool> have_ref(pairs.size(), false);

  // The epoch-0 evaluation already happened (and was persisted) before
  // the snapshot we are resuming from — re-running it would double-count.
  if (resume == nullptr && hooks.checkpoint) hooks.checkpoint(0, policy_);

  static obs::Counter& step_counter = obs::counter("dpo.steps");
  static obs::Counter& pair_counter = obs::counter("dpo.pairs_seen");
  static obs::Counter& epoch_counter = obs::counter("dpo.epochs");
  std::size_t epoch_pairs = pairs.size();
  if (config_.pairs_per_epoch > 0)
    epoch_pairs = std::min(epoch_pairs,
                           static_cast<std::size_t>(config_.pairs_per_epoch));
  // One pair's contribution to its epoch's metrics. The loop visits a
  // minibatch's pairs last to first; the epoch sums them afterwards in
  // shuffle order, so the sums' bits do not depend on that.
  struct PairMetrics {
    float loss = 0.0f;
    bool preferred = false;
    float margin = 0.0f;
    double kl = 0.0;
  };
  std::vector<PairMetrics> per_pair(pairs.size());
  while (loop.completed_epochs() < config_.epochs) {
    obs::Span epoch_span("dpo.epoch", obs::histogram("dpo.epoch_ns"));
    epoch_counter.add();
    EpochMetrics metrics;
    metrics.epoch = loop.completed_epochs() + 1;
    step_counter.add(loop.epoch(epoch_pairs, [&](Tape* tape, std::size_t i) {
      const PreferencePair& pair = pairs[i];
      if (!have_ref[i]) {
        obs::Span span("dpo.ref_precompute");
        ref_w[i] = static_cast<float>(reference_.response_log_prob_value(
            pair.chosen, pair.prompt_len));
        ref_l[i] = static_cast<float>(reference_.response_log_prob_value(
            pair.rejected, pair.prompt_len));
        have_ref[i] = true;
      }
      Tensor lp_w = policy_.response_log_prob(tape, pair.chosen,
                                              pair.prompt_len);
      Tensor lp_l = policy_.response_log_prob(tape, pair.rejected,
                                              pair.prompt_len);
      // z = (lp_w − lp_l) − (ref_w − ref_l);  loss = softplus(−β z)
      Tensor z = ops::add(tape, ops::sub(tape, lp_w, lp_l),
                          Tensor::full({1, 1}, -(ref_w[i] - ref_l[i])));
      Tensor loss = ops::softplus(tape, ops::scale(tape, z, -config_.beta));
      // Figure 8 reports the DPO loss proper, before the anchor term.
      per_pair[i] = {
          loss.item(), lp_w.item() > lp_l.item(), z.item(),
          // Sampled-KL proxy: mean (policy − reference) log-probability
          // over the pair's two responses (see EpochMetrics::kl).
          0.5 * ((static_cast<double>(lp_w.item()) - ref_w[i]) +
                 (static_cast<double>(lp_l.item()) - ref_l[i]))};
      if (config_.nll_coef > 0.0f) {
        // Anchor: keep the chosen response likely in absolute terms
        // (mean per-token NLL over its response region).
        const auto resp_tokens = static_cast<float>(
            pair.chosen.size() - static_cast<std::size_t>(pair.prompt_len));
        loss = ops::add(tape, loss,
                        ops::scale(tape, lp_w,
                                   -config_.nll_coef / resp_tokens));
      }
      return loss;
    }));
    pair_counter.add(epoch_pairs);
    for (std::size_t k = 0; k < epoch_pairs; ++k) {
      const PairMetrics& p = per_pair[loop.order()[k]];
      metrics.loss += p.loss;
      metrics.accuracy += p.preferred ? 1.0 : 0.0;
      metrics.margin += static_cast<double>(p.margin);
      metrics.kl += p.kl;
    }
    metrics.loss /= static_cast<double>(epoch_pairs);
    metrics.accuracy /= static_cast<double>(epoch_pairs);
    metrics.margin /= static_cast<double>(epoch_pairs);
    metrics.kl /= static_cast<double>(epoch_pairs);
    history.push_back(metrics);

    // Evaluation first, snapshot second: a snapshot must carry every
    // evaluation recorded up to and including its own epoch, so a resumed
    // run can splice the history without gaps or duplicates.
    const bool last = metrics.epoch == config_.epochs;
    if (hooks.checkpoint && loop.due(config_.checkpoint_every, last))
      hooks.checkpoint(metrics.epoch, policy_);
    if (hooks.snapshot && loop.due(hooks.snapshot_every, last))
      hooks.snapshot({loop.capture(), reference_.state(), history});
  }
  return history;
}

}  // namespace dpoaf::dpo
