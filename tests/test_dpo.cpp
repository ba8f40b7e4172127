#include <gtest/gtest.h>

#include "dpo/trainer.hpp"
#include "lm/corpus.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace dpoaf::dpo {
namespace {

using nn::Tokenizer;

class DatasetTest : public ::testing::Test {
 protected:
  DatasetTest()
      : tok_(Tokenizer::build(
            {"steps for the task : alpha beta gamma delta epsilon"})) {}
  Tokenizer tok_;
};

TEST_F(DatasetTest, StrictOrderingOnly) {
  const std::vector<Candidate> cands{
      {"alpha", 15}, {"beta", 10}, {"gamma", 10}};
  const auto pairs =
      build_preference_pairs("t", "the task", cands, tok_, 64);
  // (alpha,beta) and (alpha,gamma); the 10-10 tie is skipped.
  ASSERT_EQ(pairs.size(), 2u);
  for (const auto& p : pairs) {
    EXPECT_EQ(p.score_chosen, 15);
    EXPECT_EQ(p.score_rejected, 10);
    EXPECT_GT(p.chosen.size(), 0u);
  }
}

TEST_F(DatasetTest, WinnerIsHigherScoreRegardlessOfOrder) {
  const std::vector<Candidate> cands{{"beta", 3}, {"alpha", 12}};
  const auto pairs =
      build_preference_pairs("t", "the task", cands, tok_, 64);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].score_chosen, 12);
  // chosen sequence must encode "alpha"
  const auto alpha = lm::encode_example(tok_, "the task", "alpha");
  EXPECT_EQ(pairs[0].chosen, alpha);
}

TEST_F(DatasetTest, DuplicateTextsDeduplicated) {
  const std::vector<Candidate> cands{
      {"alpha", 15}, {"alpha", 15}, {"beta", 3}};
  const auto pairs =
      build_preference_pairs("t", "the task", cands, tok_, 64);
  EXPECT_EQ(pairs.size(), 1u);
}

TEST_F(DatasetTest, MaxPairCountIsChoose2) {
  // m distinct-scored candidates yield C2(m) pairs (paper §4.3).
  std::vector<Candidate> cands;
  for (int i = 0; i < 5; ++i)
    cands.push_back({"alpha beta gamma" + std::string(static_cast<std::size_t>(i), 'x'), i});
  // Texts must tokenize distinctly: use repeated words instead.
  cands.clear();
  const char* words[] = {"alpha", "beta", "gamma", "delta", "epsilon"};
  for (int i = 0; i < 5; ++i) cands.push_back({words[i], i});
  const auto pairs =
      build_preference_pairs("t", "the task", cands, tok_, 64);
  EXPECT_EQ(pairs.size(), 10u);  // C2(5)
}

TEST_F(DatasetTest, OverlongSequencesDropped) {
  std::string longtext;
  for (int i = 0; i < 100; ++i) longtext += "alpha ";
  const std::vector<Candidate> cands{{longtext, 15}, {"beta", 3}};
  std::size_t dropped = 0;
  const auto pairs = build_preference_pairs("t", "the task", cands, tok_,
                                            32, &dropped);
  EXPECT_TRUE(pairs.empty());
  EXPECT_EQ(dropped, 1u);
}

TEST_F(DatasetTest, PromptLenCoversPromptTokens) {
  const std::vector<Candidate> cands{{"alpha", 2}, {"beta", 1}};
  const auto pairs =
      build_preference_pairs("t", "the task", cands, tok_, 64);
  ASSERT_EQ(pairs.size(), 1u);
  const auto prompt = lm::encode_prompt(tok_, "the task");
  EXPECT_EQ(pairs[0].prompt_len, static_cast<std::int64_t>(prompt.size()));
}

// ---------------------------------------------------------------- trainer ---

class TrainerTest : public ::testing::Test {
 protected:
  TrainerTest()
      : tok_(Tokenizer::build({"steps for the task : good good good bad bad "
                               "bad fine poor"})) {}

  nn::TinyGpt make_model(Rng& rng) const {
    nn::GptConfig cfg;
    cfg.vocab_size = static_cast<std::int64_t>(tok_.vocab_size());
    cfg.d_model = 16;
    cfg.n_heads = 2;
    cfg.n_layers = 1;
    cfg.d_ff = 32;
    cfg.max_seq = 32;
    return nn::TinyGpt(cfg, rng);
  }

  std::vector<PreferencePair> make_pairs() const {
    const std::vector<Candidate> cands{
        {"good good good", 15}, {"bad bad bad", 5}, {"fine poor", 9}};
    return build_preference_pairs("t", "the task", cands, tok_, 32);
  }

  Tokenizer tok_;
};

TEST_F(TrainerTest, LossDropsAccuracyAndMarginRise) {
  Rng rng(21);
  nn::TinyGpt model = make_model(rng);
  DpoConfig cfg;
  cfg.epochs = 60;
  cfg.lr = 3e-3f;
  cfg.beta = 1.0f;
  cfg.nll_coef = 0.0f;
  cfg.lora_rank = 2;
  cfg.checkpoint_every = 10;
  DpoTrainer trainer(model.clone(), cfg, rng);
  const auto history = trainer.train(make_pairs());
  ASSERT_EQ(history.size(), 60u);
  EXPECT_LT(history.back().loss, history.front().loss * 0.5);
  EXPECT_GT(history.back().margin, 0.0);
  EXPECT_GE(history.back().accuracy, 2.0 / 3.0);
}

TEST_F(TrainerTest, PolicyPrefersChosenAfterTraining) {
  Rng rng(22);
  nn::TinyGpt model = make_model(rng);
  DpoConfig cfg;
  cfg.epochs = 40;
  cfg.lr = 3e-3f;
  cfg.nll_coef = 0.0f;
  cfg.lora_rank = 2;
  DpoTrainer trainer(model.clone(), cfg, rng);
  const auto pairs = make_pairs();
  trainer.train(pairs);
  for (const auto& pair : pairs) {
    const double lp_w =
        trainer.policy().response_log_prob_value(pair.chosen, pair.prompt_len);
    const double lp_l = trainer.policy().response_log_prob_value(
        pair.rejected, pair.prompt_len);
    const double ref_w = trainer.reference().response_log_prob_value(
        pair.chosen, pair.prompt_len);
    const double ref_l = trainer.reference().response_log_prob_value(
        pair.rejected, pair.prompt_len);
    // Implicit reward difference must be positive for every pair.
    EXPECT_GT((lp_w - ref_w) - (lp_l - ref_l), 0.0);
  }
}

TEST_F(TrainerTest, ReferenceModelStaysFrozen) {
  Rng rng(23);
  nn::TinyGpt model = make_model(rng);
  DpoConfig cfg;
  cfg.epochs = 5;
  cfg.lora_rank = 2;
  DpoTrainer trainer(model.clone(), cfg, rng);
  const auto before = trainer.reference().state();
  trainer.train(make_pairs());
  EXPECT_EQ(trainer.reference().state(), before);
}

TEST_F(TrainerTest, LoraRestrictsTraining) {
  Rng rng(24);
  nn::TinyGpt model = make_model(rng);
  DpoConfig cfg;
  cfg.epochs = 1;
  cfg.lora_rank = 2;
  DpoTrainer trainer(model.clone(), cfg, rng);
  EXPECT_TRUE(trainer.policy().lora_enabled());
  EXPECT_LT(trainer.policy().trainable_parameter_count(),
            trainer.policy().parameter_count() / 4);
}

TEST_F(TrainerTest, CheckpointHookFiresOnSchedule) {
  Rng rng(25);
  nn::TinyGpt model = make_model(rng);
  DpoConfig cfg;
  cfg.epochs = 10;
  cfg.checkpoint_every = 4;
  cfg.lora_rank = 2;
  DpoTrainer trainer(model.clone(), cfg, rng);
  std::vector<int> epochs;
  TrainHooks hooks;
  hooks.checkpoint = [&epochs](int e, const nn::TinyGpt&) {
    epochs.push_back(e);
  };
  trainer.train(make_pairs(), hooks);
  // epoch 0 (pre-training state), 4, 8, and the final epoch 10.
  EXPECT_EQ(epochs, (std::vector<int>{0, 4, 8, 10}));
}

TEST_F(TrainerTest, EmptyPairsRejected) {
  Rng rng(26);
  nn::TinyGpt model = make_model(rng);
  DpoConfig cfg;
  cfg.lora_rank = 2;
  DpoTrainer trainer(model.clone(), cfg, rng);
  EXPECT_THROW(trainer.train({}), ContractViolation);
}

TEST_F(TrainerTest, UnvisitedPairCostsNoReferenceForward) {
  // One epoch of one pair visits one pair, so train() runs the same
  // forwards whether the other pairs number 0 or 11: the policy's and the
  // reference's on the visited pair.
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::Counter& forwards = obs::counter("tensor.matmul.calls");
  const PreferencePair pair = make_pairs().front();
  const auto matmuls_of_train = [&](std::size_t copies) {
    Rng rng(28);
    nn::TinyGpt model = make_model(rng);
    DpoConfig cfg;
    cfg.epochs = 1;
    cfg.pairs_per_epoch = 1;
    cfg.lora_rank = 2;
    DpoTrainer trainer(model.clone(), cfg, rng);
    const std::uint64_t before = forwards.value();
    trainer.train(std::vector<PreferencePair>(copies, pair));
    return forwards.value() - before;
  };
  const std::uint64_t one = matmuls_of_train(1);
  EXPECT_GT(one, 0u);
  EXPECT_EQ(matmuls_of_train(12), one);
  obs::set_enabled(was_enabled);
}

TEST_F(TrainerTest, NllAnchorKeepsChosenLikely) {
  // With the anchor, the absolute log-probability of chosen responses must
  // not collapse (the failure mode the anchor exists to prevent).
  Rng rng(27);
  nn::TinyGpt model = make_model(rng);
  const auto pairs = make_pairs();

  DpoConfig cfg;
  cfg.epochs = 60;
  cfg.lr = 3e-3f;
  cfg.nll_coef = 0.5f;
  cfg.lora_rank = 2;
  DpoTrainer anchored(model.clone(), cfg, rng);
  anchored.train(pairs);

  for (const auto& pair : pairs) {
    const double lp_ref = anchored.reference().response_log_prob_value(
        pair.chosen, pair.prompt_len);
    const double lp_pol = anchored.policy().response_log_prob_value(
        pair.chosen, pair.prompt_len);
    EXPECT_GT(lp_pol, lp_ref - 2.0)
        << "anchored DPO should not push chosen responses down";
  }
}

}  // namespace
}  // namespace dpoaf::dpo
