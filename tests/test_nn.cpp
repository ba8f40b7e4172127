#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "nn/gpt.hpp"
#include "nn/optim.hpp"
#include "nn/tokenizer.hpp"
#include "obs/metrics.hpp"
#include "one_tape_epoch.hpp"
#include "serve/service.hpp"
#include "tensor/backend/backend.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace dpoaf::nn {
namespace {

namespace ops = tensor::ops;
using tensor::Tape;
using tensor::Tensor;

// ------------------------------------------------------------ tokenizer ---

TEST(Tokenizer, WordSplitLowercasesAndSeparatesPunctuation) {
  const auto w = Tokenizer::words("1. Observe the Traffic light.");
  ASSERT_EQ(w.size(), 7u);
  EXPECT_EQ(w[0], "1");
  EXPECT_EQ(w[1], ".");
  EXPECT_EQ(w[2], "observe");
  EXPECT_EQ(w[6], ".");
}

TEST(Tokenizer, NewlinesBecomeTokens) {
  const auto w = Tokenizer::words("a\nb");
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w[1], "<nl>");
}

TEST(Tokenizer, EncodeDecodeRoundTripsStepLists) {
  const std::string text =
      "1. Observe the traffic light.\n2. If no car from the left, turn "
      "right.";
  Tokenizer tok = Tokenizer::build({text});
  const auto ids = tok.encode(text);
  const std::string back = tok.decode(ids);
  EXPECT_EQ(back,
            "1. observe the traffic light.\n2. if no car from the left, "
            "turn right.");
}

TEST(Tokenizer, PunctuationRunsStayOrderedAndRoundTrip) {
  // Regression: the tail used to be built with insert-at-front (quadratic
  // on long runs); append-then-reverse must keep the emission order.
  const auto w = Tokenizer::words("stop.,.,.");
  ASSERT_EQ(w.size(), 6u);
  EXPECT_EQ(w[0], "stop");
  EXPECT_EQ(w[1], ".");
  EXPECT_EQ(w[2], ",");
  EXPECT_EQ(w[3], ".");
  EXPECT_EQ(w[4], ",");
  EXPECT_EQ(w[5], ".");

  const std::string text = "wait, then stop... go, now.";
  Tokenizer tok = Tokenizer::build({text});
  const auto ids = tok.encode(text);
  EXPECT_EQ(tok.decode(ids), "wait, then stop... go, now.");
}

TEST(Tokenizer, PathologicalPunctuationRunIsLinear) {
  // A long all-punctuation token must come back verbatim (and quickly).
  std::string text = "stop";
  text.append(2000, '.');
  const auto w = Tokenizer::words(text);
  ASSERT_EQ(w.size(), 2001u);
  EXPECT_EQ(w.front(), "stop");
  for (std::size_t i = 1; i < w.size(); ++i) ASSERT_EQ(w[i], ".");
}

TEST(Tokenizer, UnknownWordsMapToUnk) {
  Tokenizer tok = Tokenizer::build({"known words"});
  const auto ids = tok.encode("unknown");
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], tok.unk());
}

TEST(Tokenizer, SpecialTokensAreRegistered) {
  Tokenizer tok = Tokenizer::build({});
  EXPECT_NE(tok.bos(), tok.eos());
  EXPECT_EQ(tok.id_of("<s>"), tok.bos());
  EXPECT_EQ(tok.id_of("[INST]"), tok.inst_open());
  EXPECT_EQ(tok.id_of("[/INST]"), tok.inst_close());
  EXPECT_EQ(tok.vocab_size(), 6u);  // specials only
}

TEST(Tokenizer, SpecialTokensSurviveEncode) {
  Tokenizer tok = Tokenizer::build({"steps for x"});
  const auto ids = tok.encode("<s> [INST] steps for x [/INST]");
  ASSERT_GE(ids.size(), 2u);
  EXPECT_EQ(ids[0], tok.bos());
  EXPECT_EQ(ids[1], tok.inst_open());
  EXPECT_EQ(ids.back(), tok.inst_close());
}

// Lossiness (case folding, OOV -> <unk>) means decode(encode(x)) != x in
// general, but one round must reach a fixpoint: re-encoding the decoded
// text reproduces the ids exactly, and re-decoding reproduces the text.
void expect_round_trip_fixpoint(const Tokenizer& tok, const std::string& text) {
  const auto ids = tok.encode(text);
  const std::string decoded = tok.decode(ids);
  EXPECT_EQ(tok.encode(decoded), ids) << "input: " << text;
  EXPECT_EQ(tok.decode(tok.encode(decoded)), decoded) << "input: " << text;
}

TEST(Tokenizer, PropertyRoundTripFixpointOnPunctuationHeavyText) {
  Tokenizer tok = Tokenizer::build(
      {"1. Observe the traffic light.\n2. If no car, stop.",
       "wait, then go straight. turn left at the stop sign."});
  const std::vector<std::string> pool = {
      "observe", "Traffic", "light", "stop",  "go",     "OOV-word", "x9",
      ".",       ",",       "...",   ".,.,",  "a.b",    "<s>",      "</s>",
      "[INST]",  "[/INST]", "<nl>",  "<unk>", "stop.,", "\n",       "42."};
  Rng rng(613);
  for (int trial = 0; trial < 200; ++trial) {
    std::string text;
    for (std::uint64_t i = 0, n = 1 + rng.below(12); i < n; ++i) {
      if (!text.empty()) text += rng.chance(0.2) ? "  " : " ";
      text += pool[rng.below(pool.size())];
    }
    expect_round_trip_fixpoint(tok, text);
  }
}

TEST(Tokenizer, PropertyOovCollapsesToUnkAndStaysStable) {
  Tokenizer tok = Tokenizer::build({"known words only"});
  const auto ids = tok.encode("Zebra quux9 <nothing>");
  ASSERT_EQ(ids.size(), 3u);
  for (const int id : ids) EXPECT_EQ(id, tok.unk());
  EXPECT_EQ(tok.decode(ids), "<unk> <unk> <unk>");
  expect_round_trip_fixpoint(tok, "Zebra quux9 <nothing>");
}

TEST(Tokenizer, EmptyAndWhitespaceOnlyInputs) {
  Tokenizer tok = Tokenizer::build({"some words"});
  EXPECT_TRUE(tok.encode("").empty());
  EXPECT_TRUE(tok.encode("   \t  ").empty());
  EXPECT_EQ(tok.decode({}), "");
  EXPECT_TRUE(Tokenizer::words("").empty());
  // Newlines are structure, not whitespace: they survive as <nl> tokens.
  const auto nl = tok.encode(" \n ");
  ASSERT_EQ(nl.size(), 1u);
  EXPECT_EQ(nl[0], tok.id_of("<nl>"));
  expect_round_trip_fixpoint(tok, " \n\n ");
  expect_round_trip_fixpoint(tok, "");
}

// -------------------------------------------------------------- modules ---

TEST(Modules, LinearForwardShape) {
  Rng rng(1);
  Linear lin(4, 3, rng, 0.1f);
  Tensor x = Tensor::randn({5, 4}, rng);
  Tensor y = lin.forward(nullptr, x);
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 3);
}

TEST(Modules, LoraStartsAsIdentityUpdate) {
  Rng rng(2);
  Linear lin(4, 4, rng, 0.1f);
  Tensor x = Tensor::randn({3, 4}, rng);
  Tensor before = lin.forward(nullptr, x);
  lin.enable_lora(2, 4.0f, rng);
  Tensor after = lin.forward(nullptr, x);
  for (std::int64_t i = 0; i < before.numel(); ++i)
    EXPECT_FLOAT_EQ(after.data()[i], before.data()[i]);  // B starts at zero
}

TEST(Modules, LoraFreezesBaseAndTrainsAdapters) {
  Rng rng(3);
  Linear lin(4, 4, rng, 0.1f);
  lin.enable_lora(2, 4.0f, rng);
  EXPECT_FALSE(lin.weight.requires_grad());
  EXPECT_TRUE(lin.lora_a.requires_grad());
  EXPECT_TRUE(lin.lora_b.requires_grad());
  EXPECT_THROW(lin.enable_lora(2, 4.0f, rng), ContractViolation);

  // Gradients reach the adapters through the forward pass.
  Tensor x = Tensor::randn({2, 4}, rng);
  Tape tape;
  Tensor loss = ops::sum(&tape, lin.forward(&tape, x));
  tape.backward(loss);
  EXPECT_FALSE(lin.weight.has_grad());
  EXPECT_TRUE(lin.lora_a.has_grad());
}

TEST(Modules, AttentionIsCausal) {
  // Changing a later token must not change earlier outputs.
  Rng rng(4);
  CausalSelfAttention attn(8, 2, rng, 0.1f);
  Tensor x = Tensor::randn({4, 8}, rng);
  Tensor y1 = attn.forward(nullptr, x);
  Tensor x2 = x.clone();
  x2.at(3, 0) += 10.0f;  // perturb the last position
  Tensor y2 = attn.forward(nullptr, x2);
  for (std::int64_t t = 0; t < 3; ++t)
    for (std::int64_t j = 0; j < 8; ++j)
      EXPECT_FLOAT_EQ(y1.at(t, j), y2.at(t, j)) << "t=" << t;
}

TEST(Modules, AttentionRejectsHeadCountThatCannotSplitTheWidth) {
  // n_heads == 0 used to reach d_model % n_heads and raise SIGFPE.
  Rng rng(4);
  EXPECT_THROW(CausalSelfAttention(8, 0, rng, 0.1f), ContractViolation);
  EXPECT_THROW(CausalSelfAttention(8, 3, rng, 0.1f), ContractViolation);
}

TEST(Modules, TransformerBlockPreservesShape) {
  Rng rng(5);
  TransformerBlock block(8, 2, 16, rng, 0.1f);
  Tensor x = Tensor::randn({6, 8}, rng);
  Tensor y = block.forward(nullptr, x);
  EXPECT_EQ(y.rows(), 6);
  EXPECT_EQ(y.cols(), 8);
}

// ------------------------------------------------------------------ GPT ---

GptConfig tiny_config() {
  GptConfig c;
  c.vocab_size = 20;
  c.d_model = 16;
  c.n_heads = 2;
  c.n_layers = 2;
  c.d_ff = 32;
  c.max_seq = 16;
  return c;
}

TEST(Gpt, ForwardShapeAndCausality) {
  Rng rng(6);
  TinyGpt model(tiny_config(), rng);
  const std::vector<int> ids{1, 2, 3, 4};
  Tensor logits = model.forward(nullptr, ids);
  EXPECT_EQ(logits.rows(), 4);
  EXPECT_EQ(logits.cols(), 20);

  // Prefix logits are independent of suffix tokens.
  const std::vector<int> ids2{1, 2, 3, 7};
  Tensor logits2 = model.forward(nullptr, ids2);
  for (std::int64_t j = 0; j < 20; ++j) {
    EXPECT_FLOAT_EQ(logits.at(0, j), logits2.at(0, j));
    EXPECT_FLOAT_EQ(logits.at(2, j), logits2.at(2, j));
  }
}

TEST(Gpt, SequenceLimitsEnforced) {
  Rng rng(7);
  TinyGpt model(tiny_config(), rng);
  EXPECT_THROW((void)model.forward(nullptr, {}), ContractViolation);
  EXPECT_THROW((void)model.forward(nullptr, std::vector<int>(17, 1)),
               ContractViolation);
}

TEST(Gpt, TrainingReducesLoss) {
  Rng rng(8);
  TinyGpt model(tiny_config(), rng);
  const std::vector<int> seq{1, 5, 9, 5, 1, 5, 9, 5};
  AdamWConfig cfg;
  cfg.lr = 1e-2f;
  AdamW opt(model.trainable_parameters(), cfg);
  const float before = model.nll_loss(nullptr, seq).item();
  for (int step = 0; step < 30; ++step) {
    Tape tape;
    Tensor loss = model.nll_loss(&tape, seq);
    opt.zero_grad();
    tape.backward(loss);
    opt.step();
  }
  const float after = model.nll_loss(nullptr, seq).item();
  EXPECT_LT(after, before * 0.5f);
}

TEST(Gpt, TapeRecordsOneAttentionNodePerBlock) {
  Rng rng(8);
  const GptConfig cfg = tiny_config();
  TinyGpt model(cfg, rng);
  Tape tape;
  const Tensor loss = model.nll_loss(&tape, {1, 5, 9, 5});
  // Two embeddings and their add, then per block: ln1, qkv, attention,
  // proj, residual add, ln2, fc1, gelu, fc2 and residual add; then ln_f,
  // the head and the loss. Each linear layer is one node.
  EXPECT_EQ(tape.size(), static_cast<std::size_t>(3 + 10 * cfg.n_layers + 3));
}

// Every parameter gradient, flattened.
std::vector<float> param_grads(const TinyGpt& model) {
  std::vector<float> out;
  for (Tensor p : model.parameters())
    out.insert(out.end(), p.grad(), p.grad() + p.numel());
  return out;
}

// Loss and parameter gradients of one two-sequence minibatch on `tape`,
// which is reset first.
std::vector<float> minibatch_grads(TinyGpt& model, Tape& tape) {
  tape.reset();
  for (Tensor p : model.parameters()) p.zero_grad();
  const Tensor loss = ops::add(&tape, model.nll_loss(&tape, {1, 5, 9, 5, 2}),
                               model.nll_loss(&tape, {3, 4, 1, 7, 7, 2, 8}));
  tape.backward(loss);
  std::vector<float> out = param_grads(model);
  out.push_back(loss.item());
  return out;
}

TEST(Gpt, TapeResetRerunIsBitwiseAndReusesTheArena) {
  Rng rng(8);
  TinyGpt model(tiny_config(), rng);
  Tape tape;
  const std::vector<float> first = minibatch_grads(model, tape);
  const std::vector<float> second = minibatch_grads(model, tape);
  const std::size_t capacity = tape.arena_capacity();
  EXPECT_GT(capacity, 0u);
  const std::vector<float> third = minibatch_grads(model, tape);
  ASSERT_EQ(second.size(), first.size());
  EXPECT_EQ(std::memcmp(second.data(), first.data(),
                        first.size() * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(third.data(), first.data(),
                        first.size() * sizeof(float)),
            0);
  EXPECT_EQ(tape.arena_capacity(), capacity);
}

TEST(Gpt, ParameterGradsAndOptimizerStateSurviveTapeReset) {
  Rng rng(8);
  TinyGpt model(tiny_config(), rng);
  AdamW opt(model.trainable_parameters(), AdamWConfig{});
  Tape tape;
  (void)minibatch_grads(model, tape);
  opt.step();
  const std::vector<float> grads = param_grads(model);
  const auto m = opt.moments_m();
  const auto v = opt.moments_v();
  const std::vector<float> weights = model.state();
  tape.reset();
  // Overwrite the recycled arena memory with a different minibatch.
  (void)model.nll_loss(&tape, {2, 2, 2, 2, 2, 2, 2, 2, 2, 2});
  tape.reset();
  EXPECT_EQ(param_grads(model), grads);
  EXPECT_EQ(opt.moments_m(), m);
  EXPECT_EQ(opt.moments_v(), v);
  EXPECT_EQ(model.state(), weights);
}

TEST(Gpt, ResponseLogProbMatchesManualSum) {
  Rng rng(9);
  TinyGpt model(tiny_config(), rng);
  const std::vector<int> ids{1, 2, 3, 4, 5};
  const std::int64_t prompt_len = 2;
  const double lp = model.response_log_prob_value(ids, prompt_len);

  // Manual: Σ_{t=prompt_len-1}^{T-2} log softmax(logits[t])[ids[t+1]]
  Tensor logits = model.forward(nullptr, ids);
  double manual = 0.0;
  for (std::int64_t t = prompt_len - 1; t + 1 < 5; ++t) {
    double mx = -1e30;
    for (std::int64_t j = 0; j < 20; ++j)
      mx = std::max(mx, static_cast<double>(logits.at(t, j)));
    double z = 0.0;
    for (std::int64_t j = 0; j < 20; ++j)
      z += std::exp(static_cast<double>(logits.at(t, j)) - mx);
    manual +=
        static_cast<double>(logits.at(t, ids[static_cast<std::size_t>(t + 1)])) -
        mx - std::log(z);
  }
  EXPECT_NEAR(lp, manual, 1e-3);
}

TEST(Gpt, ResponseLogProbValidatesPromptLen) {
  Rng rng(10);
  TinyGpt model(tiny_config(), rng);
  EXPECT_THROW((void)model.response_log_prob_value({1, 2}, 2),
               ContractViolation);
  EXPECT_THROW((void)model.response_log_prob_value({1, 2}, 0),
               ContractViolation);
}

TEST(Gpt, StateRoundTrip) {
  Rng rng(11);
  TinyGpt model(tiny_config(), rng);
  const auto snapshot = model.state();
  const std::vector<int> seq{3, 1, 4, 1, 5};
  const float loss0 = model.nll_loss(nullptr, seq).item();

  // Perturb, then restore.
  AdamWConfig cfg;
  cfg.lr = 1e-2f;
  AdamW opt(model.trainable_parameters(), cfg);
  Tape tape;
  Tensor loss = model.nll_loss(&tape, seq);
  tape.backward(loss);
  opt.step();
  EXPECT_NE(model.nll_loss(nullptr, seq).item(), loss0);
  model.load_state(snapshot);
  EXPECT_FLOAT_EQ(model.nll_loss(nullptr, seq).item(), loss0);

  EXPECT_THROW(model.load_state(std::vector<float>(3, 0.0f)),
               ContractViolation);
}

TEST(Gpt, CloneIsIndependent) {
  Rng rng(12);
  TinyGpt model(tiny_config(), rng);
  TinyGpt copy = model.clone();
  const std::vector<int> seq{1, 2, 3};
  EXPECT_FLOAT_EQ(model.nll_loss(nullptr, seq).item(),
                  copy.nll_loss(nullptr, seq).item());
  // Training the original must not affect the clone.
  AdamWConfig cfg;
  cfg.lr = 5e-2f;
  AdamW opt(model.trainable_parameters(), cfg);
  Tape tape;
  Tensor loss = model.nll_loss(&tape, seq);
  tape.backward(loss);
  opt.step();
  EXPECT_NE(model.nll_loss(nullptr, seq).item(),
            copy.nll_loss(nullptr, seq).item());
}

TEST(Gpt, LoraShrinksTrainableSet) {
  Rng rng(13);
  TinyGpt model(tiny_config(), rng);
  const std::size_t full = model.trainable_parameter_count();
  model.enable_lora(2, 4.0f, rng);
  const std::size_t lora = model.trainable_parameter_count();
  EXPECT_LT(lora, full / 4);
  EXPECT_GT(lora, 0u);
  // Forward unchanged at initialization.
  TinyGpt base = model.clone();
  EXPECT_FLOAT_EQ(model.nll_loss(nullptr, {1, 2, 3}).item(),
                  base.nll_loss(nullptr, {1, 2, 3}).item());
}

TEST(Gpt, LoraCloneKeepsAdapters) {
  Rng rng(14);
  TinyGpt model(tiny_config(), rng);
  model.enable_lora(2, 4.0f, rng);
  TinyGpt copy = model.clone();
  EXPECT_TRUE(copy.lora_enabled());
  EXPECT_EQ(copy.trainable_parameter_count(),
            model.trainable_parameter_count());
}

// One request decoded on a one-slot generation service.
serve::GenerateResult serve_one(const TinyGpt& model,
                                serve::GenerateRequest req) {
  serve::GenerationService service(model, {1, 42});
  return service.submit(std::move(req)).get();
}

TEST(Gpt, GenerateStopsAtEosAndRespectsMaxNew) {
  Rng rng(15);
  TinyGpt model(tiny_config(), rng);
  serve::GenerateRequest req;
  req.prompt = {1, 2};
  req.max_new_tokens = 5;
  req.temperature = 1.0f;
  req.top_k = 0;
  req.eos_id = 0;
  const auto out = serve_one(model, req);
  EXPECT_LE(out.ids.size(), 5u);
  for (int id : out.ids) EXPECT_NE(id, 0);  // eos never included
}

TEST(Gpt, GreedyPicksArgmaxAfterOverfitting) {
  Rng rng(17);
  TinyGpt model(tiny_config(), rng);
  const std::vector<int> seq{2, 4, 6, 8, 2, 4, 6, 8};
  AdamWConfig cfg;
  cfg.lr = 1e-2f;
  AdamW opt(model.trainable_parameters(), cfg);
  for (int step = 0; step < 80; ++step) {
    Tape tape;
    Tensor loss = model.nll_loss(&tape, seq);
    opt.zero_grad();
    tape.backward(loss);
    opt.step();
  }
  // Each position's argmax continues the memorized cycle 2 4 6 8.
  const Tensor logits = model.forward(nullptr, {2, 4, 6, 8});
  const auto argmax = [&](std::int64_t row) {
    const float* r = logits.data() + row * logits.cols();
    return static_cast<int>(std::max_element(r, r + logits.cols()) - r);
  };
  EXPECT_EQ(argmax(1), 6);
  EXPECT_EQ(argmax(2), 8);
  EXPECT_EQ(argmax(3), 2);
}

TEST(Gpt, TopKTieBreaksByAscendingTokenId) {
  Rng rng(20);
  TinyGpt model(tiny_config(), rng);
  // Zero every parameter: all logits become exactly equal, so the top-k
  // candidate set is decided purely by the tie-break rule. Breaking ties
  // by ascending token id makes the set {0, 1, 2, 3}.
  model.load_state(std::vector<float>(model.state().size(), 0.0f));
  serve::GenerateRequest req;
  req.prompt = {1};
  req.max_new_tokens = 12;
  req.temperature = 1.0f;
  req.top_k = 4;
  req.eos_id = -1;
  const auto out = serve_one(model, req);
  ASSERT_FALSE(out.ids.empty());
  for (int id : out.ids) EXPECT_LT(id, 4);
}

// ---------------------------------------------------------------- AdamW ---

TEST(AdamW, ConvergesOnQuadratic) {
  // minimize (w − 3)² — gradient supplied manually.
  Tensor w = Tensor::from({1, 1}, {0.0f}).set_requires_grad(true);
  AdamWConfig cfg;
  cfg.lr = 0.1f;
  AdamW opt({w}, cfg);
  for (int i = 0; i < 300; ++i) {
    opt.zero_grad();
    w.grad()[0] = 2.0f * (w.data()[0] - 3.0f);
    opt.step();
  }
  EXPECT_NEAR(w.data()[0], 3.0f, 1e-2f);
  EXPECT_EQ(opt.steps_taken(), 300);
}

TEST(AdamW, GradClipBoundsUpdate) {
  Tensor w = Tensor::from({1, 1}, {0.0f}).set_requires_grad(true);
  AdamWConfig cfg;
  cfg.lr = 0.1f;
  cfg.grad_clip = 1.0f;
  AdamW opt({w}, cfg);
  w.grad()[0] = 1e6f;
  opt.step();
  EXPECT_NEAR(opt.last_grad_norm(), 1e6, 1e2);
  EXPECT_LT(std::fabs(w.data()[0]), 0.2f);  // clipped step stays small
}

TEST(AdamW, WeightDecayPullsTowardZero) {
  Tensor w = Tensor::from({1, 1}, {1.0f}).set_requires_grad(true);
  AdamWConfig cfg;
  cfg.lr = 0.01f;
  cfg.weight_decay = 0.1f;
  AdamW opt({w}, cfg);
  for (int i = 0; i < 100; ++i) {
    opt.zero_grad();  // zero gradient: only decay acts
    opt.step();
  }
  EXPECT_LT(w.data()[0], 1.0f);
  EXPECT_GT(w.data()[0], 0.0f);
}

// AdamW::step as it ran before its update loop was vectorized: one
// element at a time, hyperparameters read from the config.
struct ReferenceAdamW {
  AdamWConfig config;
  std::vector<std::vector<float>> m, v;
  std::int64_t t = 0;

  void step(std::vector<std::vector<float>>& ws,
            const std::vector<std::vector<float>>& gs) {
    ++t;
    double norm_sq = 0.0;
    for (const auto& g : gs)
      for (const float gi : g)
        norm_sq += static_cast<double>(gi) * static_cast<double>(gi);
    const double norm = std::sqrt(norm_sq);
    float clip_scale = 1.0f;
    if (config.grad_clip > 0.0f && norm > config.grad_clip)
      clip_scale = config.grad_clip / static_cast<float>(norm);
    const float bc1 = 1.0f - std::pow(config.beta1, static_cast<float>(t));
    const float bc2 = 1.0f - std::pow(config.beta2, static_cast<float>(t));
    for (std::size_t pi = 0; pi < ws.size(); ++pi) {
      float* w = ws[pi].data();
      const float* g = gs[pi].data();
      float* mp = m[pi].data();
      float* vp = v[pi].data();
      for (std::size_t i = 0; i < ws[pi].size(); ++i) {
        const float gi = g[i] * clip_scale;
        mp[i] = config.beta1 * mp[i] + (1.0f - config.beta1) * gi;
        vp[i] = config.beta2 * vp[i] + (1.0f - config.beta2) * gi * gi;
        const float mhat = mp[i] / bc1;
        const float vhat = vp[i] / bc2;
        w[i] -= config.lr *
                (mhat / (std::sqrt(vhat) + config.eps) +
                 config.weight_decay * w[i]);
      }
    }
  }
};

bool same_bytes(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

// The vectorized step is the reference loop bit for bit: weights and both
// moments, over several steps, on odd sizes that reach the vector tails,
// with the global-norm clip engaged and disabled.
TEST(AdamW, StepMatchesReferenceLoopBitwise) {
  const std::vector<std::int64_t> sizes = {1, 3, 7, 17, 33, 129, 1001};
  for (const float clip : {1.0f, 0.0f}) {
    SCOPED_TRACE(testing::Message() << "grad_clip=" << clip);
    Rng rng(61);
    AdamWConfig cfg;
    cfg.lr = 1e-2f;
    cfg.weight_decay = 0.01f;
    cfg.grad_clip = clip;
    std::vector<Tensor> params;
    std::vector<std::vector<float>> ref_w;
    for (const std::int64_t n : sizes) {
      params.push_back(Tensor::randn({1, n}, rng).set_requires_grad(true));
      ref_w.emplace_back(params.back().data(), params.back().data() + n);
    }
    AdamW opt(params, cfg);
    ReferenceAdamW ref{cfg, opt.moments_m(), opt.moments_v()};
    for (int step = 0; step < 5; ++step) {
      std::vector<std::vector<float>> grads;
      for (Tensor& p : params) {
        for (std::int64_t i = 0; i < p.numel(); ++i)
          p.grad()[i] = static_cast<float>(rng.normal());
        grads.emplace_back(p.grad(), p.grad() + p.numel());
      }
      opt.step();
      ref.step(ref_w, grads);
      for (std::size_t pi = 0; pi < params.size(); ++pi) {
        const std::size_t n = ref_w[pi].size();
        EXPECT_TRUE(same_bytes(params[pi].data(), ref_w[pi].data(), n))
            << "weights, step " << step << ", size " << n;
        EXPECT_TRUE(same_bytes(opt.moments_m()[pi].data(),
                               ref.m[pi].data(), n))
            << "first moment, step " << step << ", size " << n;
        EXPECT_TRUE(same_bytes(opt.moments_v()[pi].data(),
                               ref.v[pi].data(), n))
            << "second moment, step " << step << ", size " << n;
      }
    }
  }
}

TEST(AdamW, RequiresParameters) {
  AdamWConfig cfg;
  EXPECT_THROW(AdamW({}, cfg), ContractViolation);
}

// ------------------------------------------------------ minibatch loop ---

// Item i of the MinibatchLoop tests: a short sequence for tiny_config().
std::vector<int> loop_item(std::size_t i) {
  return {1, static_cast<int>(2 + i % 7), static_cast<int>(3 + i % 5), 4};
}

// One epoch over the first `items` entries; returns the items visited.
std::vector<std::uint64_t> train_epoch(MinibatchLoop& loop,
                                       const TinyGpt& model,
                                       std::size_t items) {
  std::vector<std::uint64_t> seen;
  loop.epoch(items, [&](Tape* tape, std::size_t i) {
    seen.push_back(i);
    return model.nll_loss(tape, loop_item(i));
  });
  return seen;
}

TEST(MinibatchLoop, EpochTakesOneStepPerStartedBatch) {
  Rng rng(45);
  TinyGpt model(tiny_config(), rng);
  MinibatchLoop loop(model, 1e-3f, rng, 11, nullptr);
  const std::size_t steps =
      loop.epoch(11, [&](Tape* tape, std::size_t i) {
        return model.nll_loss(tape, loop_item(i));
      });
  EXPECT_EQ(steps, 2u);  // 8 + 3
  EXPECT_EQ(loop.capture().opt_steps, 2);
  EXPECT_EQ(loop.completed_epochs(), 1);
}

TEST(MinibatchLoop, PartialEpochVisitsEachBatchOfTheShuffledPrefixLastToFirst) {
  Rng rng(46);
  TinyGpt model(tiny_config(), rng);
  MinibatchLoop loop(model, 1e-3f, rng, 11, nullptr);
  std::vector<std::uint64_t> seen;
  const std::size_t steps = loop.epoch(10, [&](Tape* tape, std::size_t i) {
    seen.push_back(i);
    return model.nll_loss(tape, loop_item(i));
  });
  EXPECT_EQ(steps, 2u);  // 8 + 2
  const LoopState state = loop.capture();
  ASSERT_EQ(state.order.size(), 11u);
  EXPECT_EQ(std::vector<std::size_t>(state.order.begin(), state.order.end()),
            loop.order());
  // The order is a permutation, so the visits cover each item of the
  // prefix once: each minibatch's slice of it, last item first.
  std::vector<std::uint64_t> want(state.order.begin(),
                                  state.order.begin() + 10);
  std::reverse(want.begin(), want.begin() + 8);
  std::reverse(want.begin() + 8, want.end());
  EXPECT_EQ(seen, want);
}

// An item's loss for the bitwise tests: one sequence, or two scored as a
// preference pair (two forwards on one tape, as DPO records them).
Tensor bitwise_item_loss(const TinyGpt& model, Tape* tape, std::size_t i,
                         bool pair) {
  if (!pair) return model.nll_loss(tape, loop_item(i));
  const Tensor lp_w = model.response_log_prob(tape, loop_item(i), 2);
  const Tensor lp_l = model.response_log_prob(tape, loop_item(i + 3), 2);
  return ops::softplus(tape, ops::sub(tape, lp_l, lp_w));
}

TEST(MinibatchLoop, PerItemBackwardBitwiseEqualsOneTapeMinibatch) {
  for (const char* be : {"scalar", "simd"}) {
    if (std::string(be) == "simd" && !tensor::backend::simd_supported())
      continue;
    tensor::backend::select(be);
    for (const bool lora : {false, true}) {
      for (const bool pair : {false, true}) {
        SCOPED_TRACE(std::string(be) + (lora ? " lora" : "") +
                     (pair ? " pair" : ""));
        Rng init_a(50), rng_a(51), init_b(50), rng_b(51);
        TinyGpt a(tiny_config(), init_a);
        TinyGpt b(tiny_config(), init_b);
        if (lora) {
          a.enable_lora(2, 4.0f, init_a);
          b.enable_lora(2, 4.0f, init_b);
        }
        MinibatchLoop loop(a, 1e-2f, rng_a, 11, nullptr);
        AdamW opt(b.trainable_parameters(), AdamWConfig{.lr = 1e-2f});
        std::vector<std::size_t> order(11);
        std::iota(order.begin(), order.end(), std::size_t{0});
        Tape tape;
        for (int epoch = 0; epoch < 2; ++epoch) {  // 8 + 3 items each
          const std::size_t steps =
              loop.epoch(11, [&](Tape* t, std::size_t i) {
                return bitwise_item_loss(a, t, i, pair);
              });
          EXPECT_EQ(steps, reference::one_tape_epoch(
                               opt, rng_b, order, tape, 11,
                               [&](Tape* t, std::size_t i) {
                                 return bitwise_item_loss(b, t, i, pair);
                               }));
        }
        EXPECT_EQ(loop.order(), order);
        const LoopState got = loop.capture();
        const std::vector<float> want = b.state();
        ASSERT_EQ(got.weights.size(), want.size());
        EXPECT_EQ(std::memcmp(got.weights.data(), want.data(),
                              want.size() * sizeof(float)),
                  0);
        ASSERT_EQ(got.opt_m.size(), opt.moments_m().size());
        for (std::size_t p = 0; p < got.opt_m.size(); ++p) {
          const std::size_t bytes = got.opt_m[p].size() * sizeof(float);
          ASSERT_EQ(got.opt_m[p].size(), opt.moments_m()[p].size());
          EXPECT_EQ(
              std::memcmp(got.opt_m[p].data(), opt.moments_m()[p].data(),
                          bytes),
              0)
              << "m of parameter " << p;
          EXPECT_EQ(
              std::memcmp(got.opt_v[p].data(), opt.moments_v()[p].data(),
                          bytes),
              0)
              << "v of parameter " << p;
        }
      }
    }
  }
  tensor::backend::select("");
}

TEST(MinibatchLoop, ArenaPeaksAtOneItemWhateverTheBatch) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::Gauge& peak = obs::gauge("tensor.tape.arena_peak_bytes");
  const auto peak_after_epoch = [&peak](std::size_t copies) {
    peak.set(0);
    Rng rng(52);
    TinyGpt model(tiny_config(), rng);
    {
      MinibatchLoop loop(model, 1e-3f, rng, copies, nullptr);
      loop.epoch(copies, [&](Tape* tape, std::size_t) {
        return model.nll_loss(tape, loop_item(0));
      });
    }  // the loop's tape publishes its peak as it is destroyed
    return peak.value();
  };
  const std::int64_t one = peak_after_epoch(1);
  EXPECT_GT(one, 0);
  EXPECT_EQ(peak_after_epoch(kBatchSize), one);
  obs::set_enabled(was_enabled);
}

TEST(MinibatchLoop, ResumedEpochMatchesAStraightRun) {
  Rng init_a(47), rng_a(48);
  TinyGpt straight(tiny_config(), init_a);
  MinibatchLoop a(straight, 1e-2f, rng_a, 11, nullptr);
  train_epoch(a, straight, 11);
  train_epoch(a, straight, 11);

  Rng init_b(47), rng_b(48);
  TinyGpt first(tiny_config(), init_b);
  MinibatchLoop before(first, 1e-2f, rng_b, 11, nullptr);
  train_epoch(before, first, 11);
  const LoopState mid = before.capture();
  // Different initial weights and RNG stream: the resume must replace both.
  Rng init_c(99), rng_c(7);
  TinyGpt second(tiny_config(), init_c);
  MinibatchLoop b(second, 1e-2f, rng_c, 11, &mid);
  train_epoch(b, second, 11);

  const LoopState sa = a.capture();
  const LoopState sb = b.capture();
  ASSERT_EQ(sa.weights.size(), sb.weights.size());
  EXPECT_EQ(std::memcmp(sa.weights.data(), sb.weights.data(),
                        sa.weights.size() * sizeof(float)),
            0);
  EXPECT_NE(sa.weights, mid.weights);
  EXPECT_EQ(sa.opt_m, sb.opt_m);
  EXPECT_EQ(sa.opt_v, sb.opt_v);
  EXPECT_EQ(sa.opt_steps, 4);
  EXPECT_EQ(sb.opt_steps, 4);
  EXPECT_EQ(sa.rng_state, sb.rng_state);
  EXPECT_EQ(rng_a.state_words(), rng_c.state_words());
  EXPECT_EQ(sa.order, sb.order);
  EXPECT_EQ(sb.completed_epochs, 2);
}

TEST(LoopState, RestoreRejectsStateThatDoesNotFit) {
  // Checkpoints arrive from outside the program, and a CRC-clean file can
  // still carry an order that would index past the loop's items.
  Rng rng(44);
  TinyGpt model(tiny_config(), rng);
  MinibatchLoop live(model, 1e-3f, rng, 3, nullptr);
  train_epoch(live, model, 3);
  const LoopState before = live.capture();
  LoopState good = before;
  for (float& w : good.weights) w += 1.0f;
  good.order = {good.order[1], good.order[2], good.order[0]};
  good.rng_state[0] ^= 1;

  std::vector<LoopState> bad(8, good);
  bad[0].order = {0, 1, 3};          // out of range
  bad[1].order = {0, 1, 1ULL << 62};  // far out of range
  bad[2].order = {2, 0, 2};          // duplicate
  bad[3].order = {0, 1};             // wrong length
  bad[4].completed_epochs = -1;
  bad[5].weights.pop_back();
  bad[6].opt_v.back().push_back(0.0f);
  bad[7].rng_state = {0, 0, 0, 0};
  for (std::size_t i = 0; i < bad.size(); ++i)
    EXPECT_THROW(MinibatchLoop(model, 1e-3f, rng, 3, &bad[i]), LoopStateError)
        << "case " << i;
  // A rejected state touches nothing: the live loop's weights, RNG words
  // and order are as they were. The unmodified state restores.
  const LoopState after = live.capture();
  EXPECT_EQ(after.weights, before.weights);
  EXPECT_EQ(after.rng_state, before.rng_state);
  EXPECT_EQ(after.order, before.order);
  const MinibatchLoop restored(model, 1e-3f, rng, 3, &good);
  EXPECT_EQ(model.state(), good.weights);
  EXPECT_EQ(rng.state_words(), good.rng_state);
  EXPECT_EQ(restored.capture().order, good.order);
  EXPECT_EQ(restored.completed_epochs(), 1);
}

}  // namespace
}  // namespace dpoaf::nn
