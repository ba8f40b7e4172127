#include "lm/pretrain.hpp"

#include "nn/optim.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace dpoaf::lm {

using tensor::Tape;
using tensor::Tensor;

PretrainStats pretrain(TinyGpt& model,
                       const std::vector<CorpusExample>& corpus,
                       const PretrainConfig& config, Rng& rng,
                       const PretrainHooks& hooks,
                       const PretrainState* resume) {
  DPOAF_CHECK(!corpus.empty());
  nn::MinibatchLoop loop(model, config.lr, rng, corpus.size(),
                         resume != nullptr ? &resume->loop : nullptr);
  PretrainStats stats;
  if (resume != nullptr) stats.epoch_losses = resume->epoch_losses;

  std::vector<float> item_losses(corpus.size());
  while (loop.completed_epochs() < config.epochs) {
    obs::ScopedTimer timer(obs::histogram("lm.pretrain.epoch_ns"));
    loop.epoch(corpus.size(), [&](Tape* tape, std::size_t item) {
      Tensor loss = model.nll_loss(tape, corpus[item].ids);
      item_losses[item] = loss.item();
      return loss;
    });
    // Summed in shuffle order: the loop visits each minibatch last to
    // first.
    double epoch_loss = 0.0;
    for (const std::size_t item : loop.order()) epoch_loss += item_losses[item];
    stats.epoch_losses.push_back(epoch_loss /
                                 static_cast<double>(corpus.size()));
    if (hooks.snapshot &&
        loop.due(hooks.snapshot_every,
                 loop.completed_epochs() == config.epochs))
      hooks.snapshot({loop.capture(), stats.epoch_losses});
  }
  return stats;
}

std::string decode_response(const Tokenizer& tok, const std::vector<int>& ids,
                            bool truncated) {
  static obs::Counter& responses = obs::counter("lm.responses");
  static obs::Counter& tokens = obs::counter("lm.generated_tokens");
  static obs::Counter& truncations = obs::counter("lm.truncated_responses");
  responses.add();
  tokens.add(ids.size());
  if (truncated) truncations.add();
  return tok.decode(ids);
}

}  // namespace dpoaf::lm
