#include "lm/pretrain.hpp"

#include <numeric>

#include "nn/decoder.hpp"
#include "nn/optim.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace dpoaf::lm {

using tensor::Tape;
using tensor::Tensor;

PretrainStats pretrain(TinyGpt& model,
                       const std::vector<CorpusExample>& corpus,
                       const PretrainConfig& config, Rng& rng) {
  return pretrain(model, corpus, config, rng, PretrainHooks{}, nullptr);
}

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
    DPOAF_CHECK_MSG(resume->order.size() == corpus.size(),
                    "resume state was captured over a different corpus");
    DPOAF_CHECK(resume->completed_epochs >= 0);
    model.load_state(resume->model_state);
    opt.load_state(resume->opt_m, resume->opt_v, resume->opt_steps);
    rng.set_state_words(resume->rng_state);
    for (std::size_t i = 0; i < order.size(); ++i)
      order[i] = static_cast<std::size_t>(resume->order[i]);
    stats.epoch_losses = resume->epoch_losses;
    start_epoch = resume->completed_epochs;
  }

  const auto capture = [&](int completed) {
    PretrainState s;
    s.completed_epochs = completed;
    s.model_state = model.state();
    s.opt_m = opt.moments_m();
    s.opt_v = opt.moments_v();
    s.opt_steps = opt.steps_taken();
    s.rng_state = rng.state_words();
    s.order.assign(order.begin(), order.end());
    s.epoch_losses = stats.epoch_losses;
    return s;
  };

  for (int epoch = start_epoch; epoch < config.epochs; ++epoch) {
    obs::ScopedTimer timer(obs::histogram("lm.pretrain.epoch_ns"));
    rng.shuffle(order);
    double epoch_loss = 0.0;
    std::size_t i = 0;
    while (i < order.size()) {
      const std::size_t batch_end =
          std::min(order.size(), i + static_cast<std::size_t>(config.batch_size));
      Tape tape;
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
      hooks.snapshot(capture(completed));
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

SampledResponses sample_responses(const TinyGpt& model, const Tokenizer& tok,
                                  const std::string& task_prompt, int m,
                                  const SamplerConfig& config,
                                  std::uint64_t stream_seed, Rng& rng) {
  DPOAF_CHECK(m > 0);
  // "generation" is one of the five pipeline phases in the RunReport; every
  // sampled batch of m responses is one span (plus per-response counters).
  obs::Span span("generation", obs::histogram("lm.sample_responses_ns"));
  const std::vector<int> prompt = encode_prompt(tok, task_prompt);
  SampledResponses out;
  out.texts.reserve(static_cast<std::size_t>(m));
  out.truncated.reserve(static_cast<std::size_t>(m));
  for (int s = 0; s < m; ++s) {
    Rng request = nn::request_rng(stream_seed, rng());
    const auto gen =
        model.generate(prompt, config.max_new_tokens, config.temperature,
                       config.top_k, tok.eos(), request);
    out.texts.push_back(decode_response(tok, gen.ids, gen.truncated));
    out.truncated.push_back(gen.truncated);
  }
  return out;
}

}  // namespace dpoaf::lm
