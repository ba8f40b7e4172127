// Pre-training loop (next-token cross-entropy over the synthetic corpus)
// plus the sampler settings and response decoding of "querying the
// pre-trained model" in the paper's pipeline. After pre-training, sampled
// responses mirror the corpus's variant distribution, so the model starts
// with generic-but-imperfect domain behaviour exactly as the paper assumes
// of Llama2-7B.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "lm/corpus.hpp"
#include "nn/gpt.hpp"
#include "nn/optim.hpp"

namespace dpoaf::lm {

using nn::TinyGpt;

struct PretrainConfig {
  int epochs = 12;
  float lr = 3e-3f;
};

struct PretrainStats {
  std::vector<double> epoch_losses;  // mean CE per epoch
};

/// Resumable pre-training state captured at an epoch boundary: the loop
/// state (model weights, AdamW moments, the caller's RNG stream — pretrain
/// shuffles consume it in place — and the shuffle permutation) plus the
/// losses so far.
struct PretrainState {
  nn::LoopState loop;
  std::vector<double> epoch_losses;
};

/// Snapshot hooks for pretrain(): `snapshot` fires every `snapshot_every`
/// completed epochs (and after the final epoch); 0 disables.
struct PretrainHooks {
  std::function<void(const PretrainState&)> snapshot;
  int snapshot_every = 0;
};

/// Train `model` in place; returns per-epoch losses. With `resume`
/// non-null the model/optimizer/RNG/permutation are restored and training
/// continues at the next epoch; the final weights, losses, and the
/// caller's RNG stream end up bitwise-identical to an uninterrupted run.
/// Throws nn::LoopStateError if `resume` does not fit this corpus.
PretrainStats pretrain(TinyGpt& model,
                       const std::vector<CorpusExample>& corpus,
                       const PretrainConfig& config, Rng& rng,
                       const PretrainHooks& hooks = {},
                       const PretrainState* resume = nullptr);

struct SamplerConfig {
  int max_new_tokens = 72;
  float temperature = 0.7f;
  int top_k = 6;
};

/// Decode one finished generation into response text and count it in the
/// lm.responses / lm.generated_tokens / lm.truncated_responses metrics.
/// The only place those counters are recorded: every sampled response,
/// decoded by a serve::GenerationService (the pipeline's or
/// bench/fig11_empirical_eval's), finishes here.
std::string decode_response(const Tokenizer& tok, const std::vector<int>& ids,
                            bool truncated);

}  // namespace dpoaf::lm
