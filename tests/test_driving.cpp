#include <algorithm>
#include <gtest/gtest.h>

#include <set>

#include "automata/product.hpp"
#include "driving/domain.hpp"
#include "util/check.hpp"

namespace dpoaf::driving {
namespace {

class DrivingTest : public ::testing::Test {
 protected:
  static const DrivingDomain& domain() {
    static DrivingDomain d;  // built once; scenario models are immutable
    return d;
  }
  // Separate instance for the cache tests so toggling/clearing never
  // interferes with the shared read-only fixture above.
  static DrivingDomain& cache_domain() {
    static DrivingDomain d;
    return d;
  }
};

// ------------------------------------------------------------ scenarios ---

TEST_F(DrivingTest, ScenarioModelsHaveNoDeadlocks) {
  // Over the registry, not the enum: any generated scenarios installed in
  // a domain inherit the same invariant.
  for (const Scenario& s : domain().scenarios()) {
    EXPECT_GT(s.model.state_count(), 0u) << s.key;
    EXPECT_TRUE(s.model.deadlock_states().empty()) << s.key;
  }
}

TEST_F(DrivingTest, RegistryCoversPaperScenariosAndEnumAccessorsAgree) {
  EXPECT_EQ(domain().scenarios().size(), all_scenarios().size());
  for (ScenarioId id : all_scenarios()) {
    const Scenario& s = domain().scenario(scenario_name(id));
    EXPECT_FALSE(s.generated) << s.key;
    EXPECT_FALSE(s.holdout) << s.key;
    // Enum overloads forward to the same registry entry.
    EXPECT_EQ(&domain().model(id), &s.model);
    EXPECT_EQ(&domain().fairness(id), &s.fairness);
    // Paper scenarios carry the full 15-spec rulebook.
    EXPECT_EQ(s.specs.size(), domain().specs().size());
  }
  EXPECT_THROW((void)domain().scenario("no_such_scenario"),
               ContractViolation);
}

TEST_F(DrivingTest, ScenarioStateCounts) {
  // 2^|props| labelings, minus the invalid ones for the left-turn head.
  EXPECT_EQ(domain().model(ScenarioId::TrafficLight).state_count(), 16u);
  EXPECT_EQ(domain().model(ScenarioId::WideMedian).state_count(), 8u);
  EXPECT_EQ(domain().model(ScenarioId::LeftTurnSignal).state_count(), 12u);
  EXPECT_EQ(domain().model(ScenarioId::TwoWayStop).state_count(), 8u);
  EXPECT_EQ(domain().model(ScenarioId::Roundabout).state_count(), 8u);
}

TEST_F(DrivingTest, StopSignAlwaysOnInTwoWayStop) {
  const auto& m = domain().model(ScenarioId::TwoWayStop);
  const auto sign = *domain().vocab().find("stop_sign");
  for (std::size_t p = 0; p < m.state_count(); ++p)
    EXPECT_TRUE(logic::Vocabulary::has(m.label(static_cast<int>(p)), sign));
}

TEST_F(DrivingTest, LeftTurnHeadShowsOneAspectAtATime) {
  const auto& m = domain().model(ScenarioId::LeftTurnSignal);
  const auto green = logic::Vocabulary::bit(
      *domain().vocab().find("green_left_turn_light"));
  const auto flash = logic::Vocabulary::bit(
      *domain().vocab().find("flashing_left_turn_light"));
  for (std::size_t p = 0; p < m.state_count(); ++p)
    EXPECT_NE(m.label(static_cast<int>(p)) & (green | flash), green | flash);
}

TEST_F(DrivingTest, TransitionsChangeAtMostTwoPropositions) {
  for (const Scenario& s : domain().scenarios()) {
    const auto& m = s.model;
    for (std::size_t p = 0; p < m.state_count(); ++p) {
      for (int q : m.successors(static_cast<int>(p))) {
        const auto diff = m.label(static_cast<int>(p)) ^ m.label(q);
        EXPECT_LE(__builtin_popcountll(diff), 2) << s.key;
      }
    }
  }
}

TEST_F(DrivingTest, UniversalModelIntegratesAllScenarios) {
  std::size_t total = 0;
  for (ScenarioId id : all_scenarios())
    total += domain().model(id).state_count();
  EXPECT_EQ(domain().universal_model().state_count(), total);
  EXPECT_TRUE(domain().universal_model().deadlock_states().empty());
}

TEST_F(DrivingTest, FairnessAssumptionsAreSatisfiableInTheirScenario) {
  // false must NOT hold on the fair traces: some trace of the scenario
  // meets every justice condition.
  for (const Scenario& s : domain().scenarios()) {
    automata::FsaController idle(domain().stop_action());
    idle.add_state();
    const auto k = automata::make_product(s.model, idle,
                                          domain().product_options());
    const auto res = modelcheck::check(k, logic::ltl::lfalse(), s.fairness);
    EXPECT_FALSE(res.holds)
        << s.key << ": fairness is unsatisfiable (vacuous)";
  }
}

// ---------------------------------------------------------------- specs ---

TEST_F(DrivingTest, RulebookHasFifteenSpecs) {
  EXPECT_EQ(domain().specs().size(), 15u);
  std::set<std::string> names;
  for (const auto& s : domain().specs()) names.insert(s.name);
  EXPECT_EQ(names.size(), 15u);
  EXPECT_TRUE(names.count("phi_1"));
  EXPECT_TRUE(names.count("phi_15"));
}

TEST_F(DrivingTest, RulebookHeadIsFirstFive) {
  const auto head = rulebook_head(domain().vocab());
  ASSERT_EQ(head.size(), 5u);
  EXPECT_EQ(head[0].name, "phi_1");
  EXPECT_EQ(head[4].name, "phi_5");
}

// ---------------------------------------------------------------- tasks ---

TEST_F(DrivingTest, CatalogHasTrainingAndValidationTasks) {
  std::size_t train = 0, val = 0;
  for (const auto& t : domain().tasks()) (t.training ? train : val)++;
  EXPECT_EQ(train, 5u);
  EXPECT_EQ(val, 3u);
}

TEST_F(DrivingTest, EveryTaskHasGoodAndUnalignedVariants) {
  for (const auto& t : domain().tasks()) {
    bool good = false, unaligned = false;
    for (const auto& v : t.variants) {
      good |= v.tag == FlawTag::Good;
      unaligned |= v.tag == FlawTag::Unaligned;
    }
    EXPECT_TRUE(good) << t.id;
    EXPECT_TRUE(unaligned) << t.id;
    EXPECT_GE(t.variants.size(), 6u) << t.id;
  }
}

TEST_F(DrivingTest, VariantTextsAreDistinctWithinATask) {
  for (const auto& t : domain().tasks()) {
    std::set<std::string> texts;
    for (const auto& v : t.variants) texts.insert(v.text);
    EXPECT_EQ(texts.size(), t.variants.size()) << t.id;
  }
}

TEST_F(DrivingTest, TaskByIdFindsAndThrows) {
  EXPECT_EQ(domain().task_by_id("enter_roundabout").scenario,
            scenario_name(ScenarioId::Roundabout));
  EXPECT_THROW((void)domain().task_by_id("no_such_task"), ContractViolation);
}

// ------------------------------------------------------------- feedback ---

TEST_F(DrivingTest, GoodVariantsSatisfyAllSpecs) {
  for (const auto& t : domain().tasks()) {
    for (const auto& v : t.variants) {
      if (v.tag != FlawTag::Good && v.tag != FlawTag::GoodVerbose) continue;
      const auto fb = formal_feedback(domain(), t.scenario, v.text);
      ASSERT_TRUE(fb.aligned) << t.id << "/" << flaw_name(v.tag);
      EXPECT_EQ(fb.report.satisfied(), domain().specs().size())
          << t.id << "/" << flaw_name(v.tag) << " violated: "
          << (fb.report.violated().empty() ? "" : fb.report.violated()[0]);
    }
  }
}

TEST_F(DrivingTest, FlawedVariantsFailAtLeastOneSpec) {
  for (const auto& t : domain().tasks()) {
    for (const auto& v : t.variants) {
      // Φ12 legitimately exempts an all-clear unprotected left turn, so
      // dropping the arrow-check there stays compliant; skip those two.
      if (v.tag == FlawTag::Good || v.tag == FlawTag::GoodVerbose ||
          v.tag == FlawTag::NoLightCheck || v.tag == FlawTag::NoPedCheck)
        continue;
      const auto fb = formal_feedback(domain(), t.scenario, v.text);
      if (v.tag == FlawTag::Unaligned) {
        EXPECT_FALSE(fb.aligned) << t.id;
        EXPECT_EQ(fb.score(), -1) << t.id;
        continue;
      }
      ASSERT_TRUE(fb.aligned) << t.id << "/" << flaw_name(v.tag);
      EXPECT_LT(fb.report.satisfied(), domain().specs().size())
          << t.id << "/" << flaw_name(v.tag);
    }
  }
}

TEST_F(DrivingTest, ScoreRanksAlignedAboveUnaligned) {
  const auto& task = domain().task_by_id("turn_right_traffic_light");
  int worst_aligned = 1000;
  for (const auto& v : task.variants) {
    const auto fb = formal_feedback(domain(), task.scenario, v.text);
    if (fb.aligned) worst_aligned = std::min(worst_aligned, fb.score());
  }
  EXPECT_GT(worst_aligned, -1);
}

// ------------------------------------------------------ feedback cache ---

TEST_F(DrivingTest, CanonicalTextMatchesStepSplitterProjection) {
  EXPECT_EQ(canonical_response_text("1. Stop.\n2. Go straight."),
            "1. Stop.\n2. Go straight.");
  // CRLF endings, trailing spaces, and blank lines all canonicalize away —
  // exactly what glm2fsa's step splitter ignores.
  EXPECT_EQ(canonical_response_text("  1. Stop.  \r\n\r\n2. Go straight.\r\n"),
            "1. Stop.\n2. Go straight.");
  EXPECT_EQ(canonical_response_text("\n\n  \n"), "");
}

TEST_F(DrivingTest, FeedbackCacheHitReplaysIdenticalResult) {
  auto& d = cache_domain();
  d.clear_feedback_cache();
  const auto& task = d.task_by_id("turn_right_traffic_light");
  const auto first = formal_feedback(d, task.scenario, task.variants[1].text);
  const auto second = formal_feedback(d, task.scenario, task.variants[1].text);
  EXPECT_EQ(first.aligned, second.aligned);
  EXPECT_EQ(first.score(), second.score());
  EXPECT_EQ(first.report.satisfied(), second.report.satisfied());
  EXPECT_EQ(first.report.violated(), second.report.violated());
  EXPECT_EQ(first.controller.state_count(), second.controller.state_count());
  const auto stats = d.feedback_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.inserts, 1u);
}

TEST_F(DrivingTest, WhitespaceVariantsShareOneCacheEntry) {
  auto& d = cache_domain();
  d.clear_feedback_cache();
  const auto& task = d.task_by_id("turn_right_traffic_light");
  const std::string text = task.variants[0].text;
  std::string noisy;
  for (char c : text) noisy += (c == '\n') ? std::string("  \r\n\r\n")
                                           : std::string(1, c);
  noisy += "\n\n";
  const auto clean_fb = formal_feedback(d, task.scenario, text);
  const auto noisy_fb = formal_feedback(d, task.scenario, noisy);
  EXPECT_EQ(clean_fb.score(), noisy_fb.score());
  const auto stats = d.feedback_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u) << "noisy text must hit the clean text's entry";
}

TEST_F(DrivingTest, SameTextDifferentScenarioIsADistinctEntry) {
  auto& d = cache_domain();
  d.clear_feedback_cache();
  const auto& task = d.task_by_id("turn_right_traffic_light");
  (void)formal_feedback(d, ScenarioId::TrafficLight, task.variants[0].text);
  (void)formal_feedback(d, ScenarioId::WideMedian, task.variants[0].text);
  const auto stats = d.feedback_cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 0u);
}

TEST_F(DrivingTest, DisabledFeedbackCacheBypassesCounters) {
  auto& d = cache_domain();
  d.clear_feedback_cache();
  d.set_feedback_cache(false);
  const auto& task = d.task_by_id("turn_right_traffic_light");
  const auto a = formal_feedback(d, task.scenario, task.variants[0].text);
  const auto b = formal_feedback(d, task.scenario, task.variants[0].text);
  d.set_feedback_cache(true);
  EXPECT_EQ(a.score(), b.score());
  const auto stats = d.feedback_cache_stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.inserts, 0u);
}

// ------------------------------------------- paper's worked examples ---

TEST_F(DrivingTest, PaperRightTurnBeforeFailsPhi5WithCounterexample) {
  const auto fb = formal_feedback(domain(), ScenarioId::TrafficLight,
                                  paper_right_turn_before());
  ASSERT_TRUE(fb.aligned);
  const auto violated = fb.report.violated();
  EXPECT_NE(std::find(violated.begin(), violated.end(), "phi_5"),
            violated.end());
  // The checker must return a concrete lasso counter-example for Φ5.
  for (const auto& o : fb.report.outcomes) {
    if (o.spec.name != "phi_5") continue;
    EXPECT_FALSE(o.result.holds);
    EXPECT_FALSE(o.result.counterexample.cycle.empty());
  }
}

TEST_F(DrivingTest, PaperRightTurnAfterSatisfiesAllSpecs) {
  const auto fb = formal_feedback(domain(), ScenarioId::TrafficLight,
                                  paper_right_turn_after());
  ASSERT_TRUE(fb.aligned);
  EXPECT_EQ(fb.report.satisfied(), 15u)
      << "violated: "
      << (fb.report.violated().empty() ? "" : fb.report.violated()[0]);
}

TEST_F(DrivingTest, PaperLeftTurnBeforeFailsPhi12) {
  const auto fb = formal_feedback(domain(), ScenarioId::LeftTurnSignal,
                                  paper_left_turn_before());
  ASSERT_TRUE(fb.aligned);
  const auto violated = fb.report.violated();
  EXPECT_NE(std::find(violated.begin(), violated.end(), "phi_12"),
            violated.end());
}

TEST_F(DrivingTest, PaperLeftTurnAfterSatisfiesAllSpecs) {
  const auto fb = formal_feedback(domain(), ScenarioId::LeftTurnSignal,
                                  paper_left_turn_after());
  ASSERT_TRUE(fb.aligned);
  EXPECT_EQ(fb.report.satisfied(), 15u);
}

TEST_F(DrivingTest, BeforeControllerHasFiveStatesAfterHasThree) {
  // Figure 7: the before controller has one state per step (5), the
  // fine-tuned controller three.
  const auto before = glm2fsa::glm2fsa(paper_right_turn_before(),
                                       domain().aligner(),
                                       domain().build_options());
  const auto after = glm2fsa::glm2fsa(paper_right_turn_after(),
                                      domain().aligner(),
                                      domain().build_options());
  ASSERT_TRUE(before.parsed.ok());
  ASSERT_TRUE(after.parsed.ok());
  EXPECT_EQ(before.controller.state_count(), 5u);
  EXPECT_EQ(after.controller.state_count(), 3u);
}

}  // namespace
}  // namespace dpoaf::driving
