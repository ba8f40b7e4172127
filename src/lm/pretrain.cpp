#include "lm/pretrain.hpp"

#include <numeric>

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
  DPOAF_CHECK(config.batch_size > 0);
  nn::AdamWConfig opt_cfg;
  opt_cfg.lr = config.lr;
  nn::AdamW opt(model.trainable_parameters(), opt_cfg);

  PretrainStats stats;
  std::vector<std::size_t> order(corpus.size());
  std::iota(order.begin(), order.end(), std::size_t{0});

  int start_epoch = 0;
  if (resume != nullptr) {
    nn::restore_loop_state(resume->loop, model, opt, rng, order);
    stats.epoch_losses = resume->epoch_losses;
    start_epoch = resume->loop.completed_epochs;
  }

  // One tape for every minibatch: reset() rewinds its arena, so steady
  // state reuses the same activation and gradient memory.
  Tape tape;
  for (int epoch = start_epoch; epoch < config.epochs; ++epoch) {
    obs::ScopedTimer timer(obs::histogram("lm.pretrain.epoch_ns"));
    rng.shuffle(order);
    double epoch_loss = 0.0;
    std::size_t i = 0;
    while (i < order.size()) {
      const std::size_t batch_end =
          std::min(order.size(), i + static_cast<std::size_t>(config.batch_size));
      tape.reset();
      Tensor batch_loss;
      const auto n_in_batch = static_cast<float>(batch_end - i);
      bool first = true;
      for (; i < batch_end; ++i) {
        Tensor loss = model.nll_loss(&tape, corpus[order[i]].ids);
        epoch_loss += loss.item();
        Tensor scaled = tensor::ops::scale(&tape, loss, 1.0f / n_in_batch);
        batch_loss = first ? scaled : tensor::ops::add(&tape, batch_loss, scaled);
        first = false;
      }
      opt.zero_grad();
      tape.backward(batch_loss);
      opt.step();
    }
    stats.epoch_losses.push_back(epoch_loss /
                                 static_cast<double>(corpus.size()));
    const int completed = epoch + 1;
    if (hooks.snapshot && hooks.snapshot_every > 0 &&
        (completed % hooks.snapshot_every == 0 || completed == config.epochs))
      hooks.snapshot({nn::capture_loop_state(completed, model, opt, rng, order),
                      stats.epoch_losses});
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
