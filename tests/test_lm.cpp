#include <gtest/gtest.h>

#include <map>

#include "driving/domain.hpp"
#include "lm/pretrain.hpp"
#include "util/strings.hpp"

namespace dpoaf::lm {
namespace {

class LmTest : public ::testing::Test {
 protected:
  static const std::vector<driving::Task>& tasks() {
    static const std::vector<driving::Task> t = driving::task_catalog();
    return t;
  }
  static const Tokenizer& tok() {
    static const Tokenizer t = build_tokenizer(tasks());
    return t;
  }
};

TEST_F(LmTest, PromptFormatFollowsAppendixE) {
  const std::string p = format_prompt_text("turn right at the traffic light");
  EXPECT_EQ(p, "[INST] steps for turn right at the traffic light : [/INST]");
  const auto ids = encode_prompt(tok(), "turn right at the traffic light");
  EXPECT_EQ(ids.front(), tok().bos());
  EXPECT_EQ(ids.back(), tok().inst_close());
}

TEST_F(LmTest, EncodeExampleAppendsResponseAndEos) {
  const auto prompt = encode_prompt(tok(), tasks()[0].prompt);
  const auto full =
      encode_example(tok(), tasks()[0].prompt, tasks()[0].variants[0].text);
  EXPECT_GT(full.size(), prompt.size());
  EXPECT_EQ(full.back(), tok().eos());
  for (std::size_t i = 0; i < prompt.size(); ++i)
    EXPECT_EQ(full[i], prompt[i]);
}

TEST_F(LmTest, NoCatalogTextProducesUnkTokens) {
  // The tokenizer must cover the entire catalog: no variant text may
  // contain out-of-vocabulary words.
  for (const auto& task : tasks()) {
    for (const auto& variant : task.variants) {
      for (int id : tok().encode(variant.text))
        EXPECT_NE(id, tok().unk()) << task.id;
    }
  }
}

TEST_F(LmTest, VariantTextsSurviveTokenizerRoundTrip) {
  // decode(encode(text)) must re-parse to the same controller text shape
  // (lowercased); this is what lets sampled generations flow back into
  // GLM2FSA.
  for (const auto& task : tasks()) {
    for (const auto& variant : task.variants) {
      const std::string back = tok().decode(tok().encode(variant.text));
      EXPECT_EQ(back, to_lower(variant.text)) << task.id;
    }
  }
}

TEST_F(LmTest, CorpusRespectsWeights) {
  VariantWeights weights;  // defaults skew toward flaws
  Rng rng(5);
  const auto corpus = build_corpus(tasks(), tok(), 400, weights, rng);
  EXPECT_EQ(corpus.size(), tasks().size() * 400u);

  std::map<driving::FlawTag, int> counts;
  for (const auto& ex : corpus) counts[ex.tag]++;
  // Unaligned has the largest weight; Good one of the smallest.
  EXPECT_GT(counts[driving::FlawTag::Unaligned],
            counts[driving::FlawTag::Good] * 2);
  EXPECT_GT(counts[driving::FlawTag::Good], 0);
}

TEST_F(LmTest, CorpusPromptLenMatchesPrompt) {
  VariantWeights weights;
  Rng rng(6);
  const auto corpus = build_corpus(tasks(), tok(), 3, weights, rng);
  for (const auto& ex : corpus) {
    bool found = false;
    for (const auto& task : tasks()) {
      if (task.id != ex.task_id) continue;
      found = true;
      const auto prompt = encode_prompt(tok(), task.prompt);
      ASSERT_EQ(ex.prompt_len, static_cast<std::int64_t>(prompt.size()));
      // The sequence must literally start with the prompt.
      for (std::size_t i = 0; i < prompt.size(); ++i)
        EXPECT_EQ(ex.ids[i], prompt[i]);
    }
    EXPECT_TRUE(found);
  }
}

TEST_F(LmTest, MaxSequenceLengthIsTight) {
  VariantWeights weights;
  Rng rng(7);
  const auto corpus = build_corpus(tasks(), tok(), 10, weights, rng);
  const std::int64_t mx = max_sequence_length(corpus);
  for (const auto& ex : corpus)
    EXPECT_LE(static_cast<std::int64_t>(ex.ids.size()), mx);
  EXPECT_GT(mx, 10);
}

TEST_F(LmTest, PretrainingReducesLoss) {
  VariantWeights weights;
  Rng rng(8);
  const auto corpus = build_corpus(tasks(), tok(), 6, weights, rng);

  nn::GptConfig cfg;
  cfg.vocab_size = static_cast<std::int64_t>(tok().vocab_size());
  cfg.d_model = 16;
  cfg.n_heads = 2;
  cfg.n_layers = 1;
  cfg.d_ff = 32;
  cfg.max_seq = max_sequence_length(corpus) + 2;
  nn::TinyGpt model(cfg, rng);

  PretrainConfig pt;
  pt.epochs = 6;
  const auto stats = pretrain(model, corpus, pt, rng);
  ASSERT_EQ(stats.epoch_losses.size(), 6u);
  EXPECT_LT(stats.epoch_losses.back(), stats.epoch_losses.front() * 0.9);
}

}  // namespace
}  // namespace dpoaf::lm
