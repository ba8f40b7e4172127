#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "driving/tasks.hpp"
#include "glm2fsa/aligner.hpp"
#include "glm2fsa/builder.hpp"
#include "glm2fsa/semantic_parser.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace dpoaf::glm2fsa {
namespace {

using automata::Guard;
using logic::Vocabulary;

class Glm2FsaTest : public ::testing::Test {
 protected:
  Glm2FsaTest()
      : vocab_(logic::make_driving_vocabulary()),
        aligner_(make_driving_aligner(vocab_)) {
    green_ = *vocab_.find("green_traffic_light");
    green_left_ = *vocab_.find("green_left_turn_light");
    car_left_ = *vocab_.find("car_from_left");
    ped_right_ = *vocab_.find("pedestrian_at_right");
    opposite_ = *vocab_.find("opposite_car");
    stop_ = *vocab_.find("stop");
    turn_right_ = *vocab_.find("turn_right");
    go_ = *vocab_.find("go_straight");
  }

  BuildOptions opts() const {
    BuildOptions o;
    o.wait_action = Vocabulary::bit(stop_);
    return o;
  }

  Vocabulary vocab_;
  PhraseAligner aligner_;
  int green_ = 0, green_left_ = 0, car_left_ = 0, ped_right_ = 0,
      opposite_ = 0, stop_ = 0, turn_right_ = 0, go_ = 0;
};

// -------------------------------------------------------------- aligner ---

TEST_F(Glm2FsaTest, AlignsCanonicalNames) {
  EXPECT_EQ(aligner_.align("green_traffic_light"), green_);
  EXPECT_EQ(aligner_.align("green traffic light"), green_);
}

TEST_F(Glm2FsaTest, AlignsSynonyms) {
  EXPECT_EQ(aligner_.align("oncoming traffic"), opposite_);
  EXPECT_EQ(aligner_.align("left approaching car"), car_left_);
  EXPECT_EQ(aligner_.align("right side pedestrian"), ped_right_);
  EXPECT_EQ(aligner_.align("proceed forward"), go_);
}

TEST_F(Glm2FsaTest, AlignsByContainment) {
  EXPECT_EQ(aligner_.align("observe the green traffic light ahead of you"),
            green_);
  EXPECT_EQ(aligner_.align("the car from the left is approaching"),
            car_left_);
}

TEST_F(Glm2FsaTest, ContainmentPrefersLongestForm) {
  // "the left-turn light turns green" contains both "light turns green"
  // (green_traffic_light) and the longer left-turn-light form; the longer
  // one must win (regression test for the App. C left-turn demo).
  EXPECT_EQ(aligner_.align("the left-turn light turns green"), green_left_);
}

TEST_F(Glm2FsaTest, FuzzyMatchToleratesTypos) {
  EXPECT_EQ(aligner_.align("green trafic light"), green_);
  EXPECT_EQ(aligner_.align("pedestrain at right"), ped_right_);
}

TEST_F(Glm2FsaTest, UnalignablePhrasesReturnNullopt) {
  EXPECT_FALSE(aligner_.align("quantum flux capacitor").has_value());
  EXPECT_FALSE(aligner_.align("").has_value());
}

TEST_F(Glm2FsaTest, ArticlesAreIgnored) {
  EXPECT_EQ(aligner_.align("the state of the green traffic light"), green_);
}

// --------------------------------------------------------------- parser ---

TEST_F(Glm2FsaTest, SplitStepsHandlesNumberingStyles) {
  const auto steps = split_steps("1. First.\n2) Second.\n\nThird line.\n");
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_EQ(steps[0], "First.");
  EXPECT_EQ(steps[1], "Second.");
  EXPECT_EQ(steps[2], "Third line.");
}

TEST_F(Glm2FsaTest, ParsesObserveStep) {
  const auto r = parse_response("1. Observe the traffic light.", aligner_);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.steps.size(), 1u);
  EXPECT_EQ(r.steps[0].kind, StepKind::Observe);
  EXPECT_EQ(r.steps[0].observed_prop, green_);
}

TEST_F(Glm2FsaTest, ParsesConditionalWithAction) {
  const auto r = parse_response(
      "1. If the green traffic light is on and no car from the left, "
      "turn right.",
      aligner_);
  ASSERT_TRUE(r.ok());
  const ParsedStep& s = r.steps[0];
  EXPECT_EQ(s.kind, StepKind::Conditional);
  ASSERT_EQ(s.condition.size(), 2u);
  EXPECT_EQ(s.condition[0].prop, green_);
  EXPECT_FALSE(s.condition[0].negated);
  EXPECT_EQ(s.condition[1].prop, car_left_);
  EXPECT_TRUE(s.condition[1].negated);
  EXPECT_EQ(s.consequence, ConsequenceKind::EmitAction);
  EXPECT_EQ(s.action, Vocabulary::bit(turn_right_));
}

TEST_F(Glm2FsaTest, ParsesConditionalWithCheckConsequence) {
  const auto r = parse_response(
      "1. If the car from left is not present, check the state of the "
      "pedestrian at right.",
      aligner_);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.steps[0].consequence, ConsequenceKind::Proceed);
  EXPECT_TRUE(r.steps[0].condition[0].negated);
}

TEST_F(Glm2FsaTest, ParsesWaitUntilStep) {
  const auto r =
      parse_response("1. Wait until no car from the left.", aligner_);
  ASSERT_TRUE(r.ok());
  const ParsedStep& s = r.steps[0];
  EXPECT_EQ(s.kind, StepKind::Conditional);
  EXPECT_EQ(s.consequence, ConsequenceKind::Proceed);
  ASSERT_EQ(s.condition.size(), 1u);
  EXPECT_EQ(s.condition[0].prop, car_left_);
  EXPECT_TRUE(s.condition[0].negated);
}

TEST_F(Glm2FsaTest, ParsesBareAndCompoundActions) {
  const auto r = parse_response(
      "1. Turn right.\n2. Turn left and proceed through the intersection.",
      aligner_);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.steps[0].action, Vocabulary::bit(turn_right_));
  EXPECT_EQ(r.steps[1].action,
            Vocabulary::bit(*vocab_.find("turn_left")));
}

TEST_F(Glm2FsaTest, NegationCues) {
  for (const char* text :
       {"1. If there is no car from the left, turn right.",
        "1. If the car from the left is not present, turn right.",
        "1. If the road is clear of traffic from the left, turn right."}) {
    const auto r = parse_response(text, aligner_);
    ASSERT_TRUE(r.ok()) << text;
    EXPECT_TRUE(r.steps[0].condition[0].negated) << text;
    EXPECT_EQ(r.steps[0].condition[0].prop, car_left_) << text;
  }
}

TEST_F(Glm2FsaTest, RedLightParsesAsNegatedGreen) {
  const auto r =
      parse_response("1. If the traffic light is red, stop.", aligner_);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.steps[0].condition[0].prop, green_);
  EXPECT_TRUE(r.steps[0].condition[0].negated);
  EXPECT_EQ(r.steps[0].action, Vocabulary::bit(stop_));
}

TEST_F(Glm2FsaTest, UnalignableConditionIsAnIssue) {
  const auto r = parse_response(
      "1. If the froomulator is engaged, turn right.", aligner_);
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.issues.empty());
  EXPECT_EQ(r.issues[0].message, "unalignable condition phrase");
}

TEST_F(Glm2FsaTest, ContradictoryConditionIsAnIssue) {
  const auto r = parse_response(
      "1. If the car from the left and no car from the left, turn right.",
      aligner_);
  EXPECT_FALSE(r.ok());
}

TEST_F(Glm2FsaTest, ConditionalWithoutConsequenceIsAnIssue) {
  const auto r = parse_response("1. If the green traffic light", aligner_);
  EXPECT_FALSE(r.ok());
}

TEST_F(Glm2FsaTest, EmptyResponseIsAnIssue) {
  const auto r = parse_response("", aligner_);
  EXPECT_FALSE(r.ok());
}

TEST_F(Glm2FsaTest, ActionAsConditionIsAnIssue) {
  const auto r =
      parse_response("1. If turn right, go straight.", aligner_);
  EXPECT_FALSE(r.ok());
}

// -------------------------------------------------------------- builder ---

TEST_F(Glm2FsaTest, BuilderWiresStatesAndWrapsToInitial) {
  const auto result = glm2fsa(
      "1. Observe the traffic light.\n"
      "2. If the green traffic light is on, go straight.",
      aligner_, opts());
  ASSERT_TRUE(result.parsed.ok());
  const auto& c = result.controller;
  EXPECT_EQ(c.state_count(), 2u);
  EXPECT_EQ(c.initial(), 0);
  // q1 advances unconditionally emitting stop.
  const auto m1 = c.step(0, 0);
  EXPECT_EQ(m1.to, 1);
  EXPECT_EQ(m1.action, Vocabulary::bit(stop_));
  // q2 waits without green…
  EXPECT_EQ(c.step(1, 0).to, 1);
  // …and fires + wraps to q1 with green.
  const auto m2 = c.step(1, Vocabulary::bit(green_));
  EXPECT_EQ(m2.to, 0);
  EXPECT_EQ(m2.action, Vocabulary::bit(go_));
}

TEST_F(Glm2FsaTest, BuilderRejectsFailedParse) {
  ParsedResponse bad;
  bad.issues.push_back({0, "x", "y"});
  EXPECT_THROW(build_controller(bad, opts()), ContractViolation);
}

TEST_F(Glm2FsaTest, SingleActionStepSelfLoops) {
  const auto result = glm2fsa("1. Turn right immediately.", aligner_, opts());
  ASSERT_TRUE(result.parsed.ok());
  const auto& c = result.controller;
  EXPECT_EQ(c.state_count(), 1u);
  const auto m = c.step(0, 0);
  EXPECT_EQ(m.to, 0);  // wraps to itself: turns forever
  EXPECT_EQ(m.action, Vocabulary::bit(turn_right_));
}

TEST_F(Glm2FsaTest, GuardCollectsAllLiterals) {
  const auto result = glm2fsa(
      "1. If no car from the left and no pedestrian on the right and the "
      "green traffic light is on, turn right.",
      aligner_, opts());
  ASSERT_TRUE(result.parsed.ok());
  const auto& t = result.controller.transitions();
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].guard.must_true, Vocabulary::bit(green_));
  EXPECT_EQ(t[0].guard.must_false,
            Vocabulary::bit(car_left_) | Vocabulary::bit(ped_right_));
}

// -------------------------------------------------------------- fuzzing ---

// Mutated responses must either align and build a controller or come back
// unaligned with at least one ParseIssue — never crash or throw. Inputs are
// every catalog variant of the paper tasks plus the paper's own responses,
// truncated at every line boundary, with each line dropped, duplicated or
// swapped with its successor, and under fixed-seed byte flips, inserts and
// deletes.
TEST_F(Glm2FsaTest, FuzzMutatedResponsesAlignOrReportIssues) {
  std::vector<std::string> inputs = {
      driving::paper_right_turn_before(), driving::paper_right_turn_after(),
      driving::paper_left_turn_before(), driving::paper_left_turn_after()};
  for (const driving::Task& task : driving::task_catalog())
    for (const driving::ResponseVariant& v : task.variants)
      inputs.push_back(v.text);

  int aligned = 0, unaligned = 0;
  const auto check = [&](const std::string& text) {
    const Glm2FsaResult r = glm2fsa(text, aligner_, opts());
    if (r.parsed.ok()) {
      EXPECT_GE(r.controller.state_count(), 1u) << text;
      ++aligned;
    } else {
      EXPECT_FALSE(r.parsed.issues.empty()) << text;
      ++unaligned;
    }
  };
  Rng rng(4242);
  for (const std::string& input : inputs) {
    const std::vector<std::string> lines = split(input, '\n');
    for (std::size_t k = 0; k <= lines.size(); ++k)
      check(join({lines.begin(), lines.begin() + k}, "\n"));
    for (std::size_t k = 0; k < lines.size(); ++k) {
      std::vector<std::string> dropped = lines;
      dropped.erase(dropped.begin() + k);
      check(join(dropped, "\n"));
      std::vector<std::string> duplicated = lines;
      duplicated.insert(duplicated.begin() + k, lines[k]);
      check(join(duplicated, "\n"));
      if (k + 1 < lines.size()) {
        std::vector<std::string> swapped = lines;
        std::swap(swapped[k], swapped[k + 1]);
        check(join(swapped, "\n"));
      }
    }
    // 1-4 random edits per mutant: flip a bit, insert any byte, or delete.
    for (int trial = 0; trial < 40; ++trial) {
      std::string text = input;
      for (std::uint64_t e = 0, n = 1 + rng.below(4); e < n; ++e) {
        const auto byte = static_cast<char>(rng.below(256));
        if (text.empty()) {
          text.push_back(byte);
          continue;
        }
        const std::size_t at = rng.below(text.size());
        switch (rng.below(3)) {
          case 0:
            text[at] = static_cast<char>(text[at] ^ (1 << rng.below(8)));
            break;
          case 1: text.insert(at, 1, byte); break;
          default: text.erase(at, 1); break;
        }
      }
      check(text);
    }
  }
  // Sanity: the mutants land on both sides of the contract.
  EXPECT_GT(aligned, 100);
  EXPECT_GT(unaligned, 100);
}

}  // namespace
}  // namespace dpoaf::glm2fsa
