#include <gtest/gtest.h>

#include <cstring>

#include "automata/dot_export.hpp"
#include "driving/domain.hpp"
#include "modelcheck/smv_export.hpp"
#include "nn/decoder.hpp"
#include "util/check.hpp"

namespace dpoaf {
namespace {

class ExportTest : public ::testing::Test {
 protected:
  static const driving::DrivingDomain& domain() {
    static driving::DrivingDomain d;
    return d;
  }
  static const glm2fsa::Glm2FsaResult& after() {
    static auto r =
        glm2fsa::glm2fsa(driving::paper_right_turn_after(),
                         domain().aligner(), domain().build_options());
    return r;
  }
};

// ------------------------------------------------------------------ DOT ---

TEST_F(ExportTest, ModelDotContainsStatesAndEdges) {
  const auto& model = domain().model(driving::ScenarioId::WideMedian);
  const std::string dot =
      automata::to_dot(model, domain().vocab(), "wide_median");
  EXPECT_NE(dot.find("digraph wide_median"), std::string::npos);
  EXPECT_NE(dot.find("car_from_left"), std::string::npos);
  // One node line per state and at least one edge per state (no deadlocks).
  std::size_t arrows = 0;
  for (std::size_t pos = 0; (pos = dot.find("->", pos)) != std::string::npos;
       ++pos)
    ++arrows;
  EXPECT_GE(arrows, model.state_count());
}

TEST_F(ExportTest, ControllerDotMarksInitialState) {
  const std::string dot =
      automata::to_dot(after().controller, domain().vocab());
  EXPECT_NE(dot.find("doublecircle"), std::string::npos);
  EXPECT_NE(dot.find("turn_right"), std::string::npos);
  EXPECT_NE(dot.find("!car_from_left"), std::string::npos);
}

TEST_F(ExportTest, ProductDotUsesPaperTriples) {
  const auto product =
      automata::make_product(domain().model(driving::ScenarioId::WideMedian),
                             after().controller, domain().product_options());
  const std::string dot = automata::to_dot(product, domain().model(
                                               driving::ScenarioId::WideMedian),
                                           after().controller,
                                           domain().vocab());
  EXPECT_NE(dot.find("q1"), std::string::npos);
  EXPECT_NE(dot.find("init"), std::string::npos);
}

// ------------------------------------------------------------------ SMV ---

TEST_F(ExportTest, SmvModuleStructure) {
  const auto scenario = driving::ScenarioId::TrafficLight;
  const auto product = automata::make_product(
      domain().model(scenario), after().controller,
      domain().product_options());
  const std::string smv =
      modelcheck::to_smv(product, domain().vocab(), domain().specs(),
                         domain().fairness(scenario));
  EXPECT_NE(smv.find("MODULE main"), std::string::npos);
  EXPECT_NE(smv.find("VAR\n  state : 0.."), std::string::npos);
  EXPECT_NE(smv.find("INIT"), std::string::npos);
  EXPECT_NE(smv.find("TRANS"), std::string::npos);
  // One LTLSPEC per rulebook entry, carrying its name.
  for (const auto& spec : domain().specs())
    EXPECT_NE(smv.find("LTLSPEC NAME " + spec.name), std::string::npos);
  // One NuSMV FAIRNESS constraint per justice condition, and no condition
  // left over as a comment.
  std::size_t fairness_lines = 0;
  for (std::size_t at = smv.find("\nFAIRNESS "); at != std::string::npos;
       at = smv.find("\nFAIRNESS ", at + 1))
    ++fairness_lines;
  EXPECT_EQ(fairness_lines, domain().fairness(scenario).size());
  EXPECT_EQ(smv.find("-- non-GF"), std::string::npos);
  // Release is spelled V in NuSMV; G/F/X/U pass through. The driving specs
  // contain no Release, but every proposition define must exist.
  EXPECT_NE(smv.find("green_traffic_light := state in {"),
            std::string::npos);
}

TEST_F(ExportTest, SmvEmptyKripkeRejected) {
  automata::Kripke empty;
  EXPECT_THROW((void)modelcheck::to_smv(empty, domain().vocab(), {}),
               ContractViolation);
}

// -------------------------------------------------------------- decoder ---

class DecoderTest : public ::testing::Test {
 protected:
  static nn::TinyGpt make_model(std::uint64_t seed, bool lora) {
    nn::GptConfig cfg;
    cfg.vocab_size = 24;
    cfg.d_model = 16;
    cfg.n_heads = 2;
    cfg.n_layers = 2;
    cfg.d_ff = 32;
    cfg.max_seq = 20;
    Rng rng(seed);
    nn::TinyGpt model(cfg, rng);
    if (lora) model.enable_lora(2, 4.0f, rng);
    return model;
  }
};

TEST_F(DecoderTest, MatchesBatchForwardLogits) {
  const auto model = make_model(31, false);
  nn::DecodeSession session(model);
  Rng rng(5);
  std::vector<int> ids;
  for (int t = 0; t < 12; ++t) {
    ids.push_back(static_cast<int>(rng.below(24)));
    const auto& incremental = session.step(ids.back());
    const auto batch = model.forward(nullptr, ids);
    const float* row = batch.data() + (batch.rows() - 1) * batch.cols();
    ASSERT_EQ(0, std::memcmp(incremental.data(), row,
                             incremental.size() * sizeof(float)))
        << "t=" << t;
  }
}

TEST_F(DecoderTest, MatchesBatchForwardWithLora) {
  auto model = make_model(32, true);
  // Perturb the adapters so LoRA actually contributes.
  Rng rng(6);
  for (nn::Tensor p : model.trainable_parameters())
    for (std::int64_t i = 0; i < p.numel(); ++i)
      p.data()[i] += static_cast<float>(rng.normal()) * 0.05f;

  nn::DecodeSession session(model);
  std::vector<int> ids;
  for (int t = 0; t < 10; ++t) {
    ids.push_back(static_cast<int>(rng.below(24)));
    const auto& incremental = session.step(ids.back());
    const auto batch = model.forward(nullptr, ids);
    const float* row = batch.data() + (batch.rows() - 1) * batch.cols();
    ASSERT_EQ(0, std::memcmp(incremental.data(), row,
                             incremental.size() * sizeof(float)))
        << "t=" << t;
  }
}

TEST_F(DecoderTest, ResetStartsOver) {
  const auto model = make_model(33, false);
  nn::DecodeSession session(model);
  const auto first = session.step(3);
  const std::vector<float> saved = first;
  session.step(5);
  session.reset();
  EXPECT_EQ(session.position(), 0);
  const auto& again = session.step(3);
  for (std::size_t j = 0; j < saved.size(); ++j)
    EXPECT_FLOAT_EQ(saved[j], again[j]);
}

TEST_F(DecoderTest, EnforcesContextLimit) {
  const auto model = make_model(34, false);
  nn::DecodeSession session(model);
  for (int t = 0; t < 20; ++t) session.step(1);
  EXPECT_THROW((void)session.step(1), ContractViolation);
  EXPECT_THROW((void)session.step(-1), ContractViolation);
}

}  // namespace
}  // namespace dpoaf
