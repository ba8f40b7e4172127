// Pre-training loop (next-token cross-entropy over the synthetic corpus)
// and response sampling — "querying the pre-trained model" in the paper's
// pipeline. After pre-training, sampled responses mirror the corpus's
// variant distribution, so the model starts with generic-but-imperfect
// domain behaviour exactly as the paper assumes of Llama2-7B.
#pragma once

#include <cstdint>
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
  int batch_size = 8;
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

/// Decoded response texts (the step lists, ready for GLM2FSA) plus which
/// of them hit the model's context limit — truncated step lists usually
/// fail alignment, and the caller must be able to tell that apart from a
/// genuinely malformed response.
struct SampledResponses {
  std::vector<std::string> texts;
  std::vector<bool> truncated;  // parallel to texts
};

/// Sample m responses for a task prompt — the library's one sampling
/// entry point. Response s decodes with its own stream
/// nn::request_rng(stream_seed, rng()), the m seeds drawn serially from
/// `rng`: the derivation a deterministic serve::GenerationService seeded
/// with `stream_seed` applies to requests whose seeds come from the same
/// draws, so direct and served sampling return identical texts.
SampledResponses sample_responses(const TinyGpt& model, const Tokenizer& tok,
                                  const std::string& task_prompt, int m,
                                  const SamplerConfig& config,
                                  std::uint64_t stream_seed, Rng& rng);

/// Decode one finished generation into response text and count it in the
/// lm.responses / lm.generated_tokens / lm.truncated_responses metrics.
/// The only place those counters are recorded: sample_responses and the
/// pipeline's serve-backed sampler both finish every response here.
std::string decode_response(const Tokenizer& tok, const std::vector<int>& ids,
                            bool truncated);

}  // namespace dpoaf::lm
