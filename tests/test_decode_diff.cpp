// Differential property test: the KV-cache DecodeSession must agree with
// the batch TinyGpt::forward across randomized model shapes (parameters
// perturbed as after training; LoRA on and off, adapters perturbed so
// they contribute). A decode step runs the batch forward's own row
// kernels in the same order, so every step's logits must equal the
// matching forward row byte for byte on the active backend, and sampled
// decodes on the generation service must be token-identical, with no
// tolerance, to the batch-forward reference under the same request RNG.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "nn/decoder.hpp"
#include "nn/gpt.hpp"
#include "reference_decode.hpp"
#include "serve/service.hpp"
#include "tensor/backend/backend.hpp"
#include "util/check.hpp"

namespace dpoaf {
namespace {

constexpr std::int64_t kVocab = 32;

struct Shape {
  nn::GptConfig cfg;
  std::int64_t lora_rank = 1;
};

// A random small shape, or (one draw in four) the production model shape
// of the pipeline: d_model 48, 4 heads, d_ff 192, max_seq 96, LoRA rank 4.
Shape random_shape(Rng& rng) {
  Shape s;
  s.cfg.vocab_size = kVocab;
  if (rng.below(4) == 0) {
    s.cfg.d_model = 48;
    s.cfg.n_heads = 4;
    s.cfg.n_layers = 2;
    s.cfg.d_ff = 192;
    s.cfg.max_seq = 96;
    s.lora_rank = 4;
    return s;
  }
  s.cfg.n_heads = static_cast<std::int64_t>(rng.between(1, 4));
  s.cfg.d_model = s.cfg.n_heads * static_cast<std::int64_t>(rng.between(4, 12));
  s.cfg.n_layers = static_cast<std::int64_t>(rng.between(1, 3));
  s.cfg.d_ff = static_cast<std::int64_t>(rng.between(8, 48));
  s.cfg.max_seq = static_cast<std::int64_t>(rng.between(8, 40));
  s.lora_rank = static_cast<std::int64_t>(rng.between(1, 4));
  return s;
}

void perturb(const nn::ParamList& params, Rng& rng) {
  for (nn::Tensor p : params)
    for (std::int64_t i = 0; i < p.numel(); ++i)
      p.data()[i] += static_cast<float>(rng.normal()) * 0.05f;
}

// A model of `shape` with every parameter perturbed, as after training
// (nonzero biases and layer-norm offsets). With `lora`, adapters of the
// shape's rank are attached and perturbed too: enable_lora zero-fills B,
// which would make every adapter delta exactly 0.
nn::TinyGpt random_model(const Shape& shape, bool lora, Rng& rng) {
  nn::TinyGpt model(shape.cfg, rng);
  perturb(model.parameters(), rng);
  if (lora) {
    model.enable_lora(shape.lora_rank, 8.0f, rng);
    perturb(model.trainable_parameters(), rng);
  }
  return model;
}

std::vector<int> random_prompt(Rng& rng, std::int64_t max_len) {
  std::vector<int> prompt(
      static_cast<std::size_t>(rng.between(1, max_len)));
  for (auto& t : prompt) t = static_cast<int>(rng.below(kVocab));
  return prompt;
}

// Feed `ids` token by token; every step's logits must be the bytes of the
// matching row of the batch forward.
void expect_logits_bitwise(const nn::TinyGpt& model,
                           const std::vector<int>& ids) {
  const auto batch = model.forward(nullptr, ids);
  ASSERT_EQ(batch.rows(), static_cast<std::int64_t>(ids.size()));
  ASSERT_EQ(batch.cols(), kVocab);
  nn::DecodeSession session(model);
  for (std::size_t t = 0; t < ids.size(); ++t) {
    const auto& cached = session.step(ids[t]);
    const float* row = batch.data() + static_cast<std::int64_t>(t) * kVocab;
    ASSERT_EQ(0, std::memcmp(cached.data(), row, kVocab * sizeof(float)))
        << "position " << t;
  }
}

// Three requests for `prompt` (different seeds and top-k, the full
// distribution included) decoded on a two-slot generation service: each
// must return the reference decoder's tokens and finish reason. Returns
// the served results.
std::vector<serve::GenerateResult> expect_sampled_identical(
    const nn::TinyGpt& model, const std::vector<int>& prompt, int max_new,
    int eos_id) {
  constexpr std::uint64_t kServiceSeed = 7;
  std::vector<serve::GenerateRequest> reqs(3);
  for (std::size_t u = 0; u < reqs.size(); ++u) {
    reqs[u].prompt = prompt;
    reqs[u].max_new_tokens = max_new;
    reqs[u].temperature = 0.8f;
    reqs[u].top_k = static_cast<int>(2 * u);
    reqs[u].eos_id = eos_id;
    reqs[u].seed = 1000 + u;
  }
  serve::GenerationService service(model, {2, kServiceSeed});
  auto futures = service.submit_all(reqs);
  std::vector<serve::GenerateResult> got;
  for (std::size_t u = 0; u < reqs.size(); ++u) {
    got.push_back(futures[u].get());
    const auto want = serve::reference::decode(model, reqs[u], kServiceSeed);
    EXPECT_EQ(got[u].ids, want.ids) << "request " << u;
    EXPECT_EQ(got[u].finish, want.finish) << "request " << u;
  }
  return got;
}

TEST(DecodeDiff, LogitsMatchForwardAcrossRandomConfigs) {
  Rng rng(101);
  for (int trial = 0; trial < 12; ++trial) {
    const Shape shape = random_shape(rng);
    const nn::TinyGpt model = random_model(shape, false, rng);
    const auto ids = random_prompt(rng, shape.cfg.max_seq);
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_logits_bitwise(model, ids);
  }
}

TEST(DecodeDiff, LogitsMatchForwardWithLora) {
  Rng rng(211);
  for (int trial = 0; trial < 8; ++trial) {
    const Shape shape = random_shape(rng);
    const nn::TinyGpt model = random_model(shape, true, rng);
    const auto ids = random_prompt(rng, shape.cfg.max_seq);
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_logits_bitwise(model, ids);
  }
}

TEST(DecodeDiff, SampledDecodesTokenIdentical) {
  Rng rng(307);
  for (int trial = 0; trial < 10; ++trial) {
    const Shape shape = random_shape(rng);
    const nn::TinyGpt model = random_model(shape, trial % 2 == 1, rng);
    const auto prompt = random_prompt(
        rng, std::max<std::int64_t>(1, shape.cfg.max_seq / 2));
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_sampled_identical(model, prompt, 16, /*eos_id=*/1);
  }
}

TEST(DecodeDiff, PromptExactlyFillsContext) {
  Rng rng(401);
  const Shape shape = random_shape(rng);
  const nn::GptConfig& cfg = shape.cfg;
  const nn::TinyGpt model = random_model(shape, false, rng);
  std::vector<int> prompt(static_cast<std::size_t>(cfg.max_seq), 3);
  // The whole context is consumed by the prompt: generation truncates
  // immediately with zero tokens, and the session accepts exactly max_seq
  // steps.
  for (const auto& gen : expect_sampled_identical(model, prompt, 8, -1)) {
    EXPECT_TRUE(gen.ids.empty());
    EXPECT_EQ(gen.finish, serve::FinishReason::kContext);
  }
  expect_logits_bitwise(model, prompt);
  nn::DecodeSession session(model);
  for (const int t : prompt) session.step(t);
  EXPECT_EQ(session.position(), cfg.max_seq);
  EXPECT_THROW(session.step(0), ContractViolation);
}

TEST(DecodeDiff, SingleTokenPrompt) {
  Rng rng(503);
  for (int trial = 0; trial < 6; ++trial) {
    const nn::TinyGpt model = random_model(random_shape(rng), false, rng);
    const std::vector<int> prompt = {static_cast<int>(rng.below(kVocab))};
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_logits_bitwise(model, prompt);
    expect_sampled_identical(model, prompt, 8, /*eos_id=*/1);
  }
}

// A session reused after reset() decodes exactly as a fresh one: the
// rows a longer earlier sequence left past position() are never read.
// Checked on the scalar backend and, where it runs, on simd.
TEST(DecodeDiff, ReusedSessionMatchesFresh) {
  std::vector<std::string> backends = {"scalar"};
  if (tensor::backend::simd_supported()) backends.push_back("simd");
  Rng rng(601);
  for (int trial = 0; trial < 6; ++trial) {
    const Shape shape = random_shape(rng);
    const nn::TinyGpt model = random_model(shape, trial % 2 == 1, rng);
    const auto first = random_prompt(rng, shape.cfg.max_seq);
    std::vector<int> second =
        random_prompt(rng, static_cast<std::int64_t>(first.size()));
    if (second.size() == first.size()) second.pop_back();
    if (second.empty()) second.push_back(static_cast<int>(rng.below(kVocab)));
    for (const std::string& be : backends) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " on " + be);
      tensor::backend::select(be);
      nn::DecodeSession reused(model);
      for (const int t : first) reused.step(t);
      reused.reset();
      EXPECT_EQ(reused.position(), 0);
      nn::DecodeSession fresh(model);
      for (std::size_t i = 0; i < second.size(); ++i) {
        const std::vector<float> want = fresh.step(second[i]);
        const auto& got = reused.step(second[i]);
        ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                                 kVocab * sizeof(float)))
            << "position " << i;
      }
    }
  }
  tensor::backend::select("");
}

}  // namespace
}  // namespace dpoaf
