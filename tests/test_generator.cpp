// Property tests for the procedural scenario generator (docs/GENERATOR.md):
// Algorithm 1 invariants over hundreds of seeded draws, the seeding /
// determinism contract (same seed ⇒ bitwise-identical registry at any
// thread count), rulebook instantiation + satisfiability pre-pass, and the
// pipeline-level held-out generalization eval.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "driving/domain.hpp"
#include "driving/generator/generator.hpp"
#include "logic/lasso_eval.hpp"
#include "logic/parser.hpp"
#include "util/threadpool.hpp"

namespace dpoaf::driving::generator {
namespace {

const Vocabulary& vocab() {
  static const Vocabulary v = logic::make_driving_vocabulary();
  return v;
}

// Full textual fingerprint of a generated registry: any difference in
// keys, features, models, rulebooks, fairness, or task blueprints shows.
std::string fingerprint(const std::vector<GeneratedScenario>& scenarios) {
  std::ostringstream out;
  for (const GeneratedScenario& g : scenarios) {
    out << g.key << '|' << topology_name(g.features.topology) << '|'
        << signal_name(g.features.signal) << '|'
        << noise_name(g.features.noise) << '|';
    for (const std::string& a : g.features.agents) out << a << ',';
    out << '|' << g.features.action << '|' << g.features.wrong_action << '\n';
    for (std::size_t p = 0; p < g.model.state_count(); ++p) {
      out << g.model.label(static_cast<int>(p)) << ':';
      for (int q : g.model.successors(static_cast<int>(p))) out << q << ',';
      out << ';';
    }
    out << '\n';
    for (const auto& spec : g.specs)
      out << spec.name << '=' << logic::to_string(spec.formula, vocab())
          << '\n';
    for (const auto& f : g.fairness)
      out << logic::to_string(f, vocab()) << '\n';
    out << g.holdout << '|' << g.task.id << '|' << g.task.prompt << '|'
        << g.task.observe << '|' << g.task.light_cond << '|'
        << g.task.light_wait << '|' << g.task.action << '|'
        << g.task.wrong_action << '|';
    for (const std::string& c : g.task.obstacle_conds) out << c << ',';
    out << '\n';
  }
  return out.str();
}

// --------------------------------------------- Algorithm 1 invariants ---

TEST(GeneratorGrammar, DrawnModelsSatisfyAlgorithmOneInvariants) {
  // ≥ 200 seeded draws; every drawn model must respect the grammar's
  // noise-bounded transition relation and Algorithm 1's structure.
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed);
    const ScenarioFeatures f = draw_features(rng);
    const TransitionSystem pruned = build_model(f, vocab());
    ASSERT_GT(pruned.state_count(), 0u) << "seed " << seed;
    EXPECT_TRUE(pruned.deadlock_states().empty()) << "seed " << seed;

    const int max_flips = f.noise == NoiseRegime::Calm ? 1 : 2;
    for (std::size_t p = 0; p < pruned.state_count(); ++p)
      for (int q : pruned.successors(static_cast<int>(p))) {
        const auto diff =
            pruned.label(static_cast<int>(p)) ^ pruned.label(q);
        EXPECT_LE(std::popcount(diff), max_flips)
            << "seed " << seed << " noise " << noise_name(f.noise);
      }

    // Pruned-mode labelings are a subset of the conservative (no-pruning)
    // variant's — pruning only removes, never invents, labelings.
    const TransitionSystem conservative =
        build_model(f, vocab(), /*conservative=*/true);
    EXPECT_GE(conservative.state_count(), pruned.state_count());
    std::set<logic::Symbol> allowed;
    for (std::size_t p = 0; p < conservative.state_count(); ++p)
      allowed.insert(conservative.label(static_cast<int>(p)));
    for (std::size_t p = 0; p < pruned.state_count(); ++p)
      EXPECT_TRUE(allowed.count(pruned.label(static_cast<int>(p))))
          << "seed " << seed;

    // A stop-controlled junction forces the sign proposition everywhere.
    if (f.topology == Topology::StopControlled) {
      const auto sign = logic::Vocabulary::bit(*vocab().find("stop_sign"));
      for (std::size_t p = 0; p < pruned.state_count(); ++p)
        EXPECT_NE(pruned.label(static_cast<int>(p)) & sign, 0u);
    }
    // The drawn manoeuvre is always constrained: its rulebook keeps at
    // least one non-degenerate rule beyond liveness.
    EXPECT_FALSE(f.agents.empty()) << "seed " << seed;
    EXPECT_NE(f.action, f.wrong_action) << "seed " << seed;
  }
}

// ------------------------------------------------ determinism contract ---

TEST(GeneratorDeterminism, SameSeedSameRegistryAcrossThreadCounts) {
  GeneratorConfig cfg;
  cfg.seed = 42;
  cfg.count = 24;
  cfg.holdout = 4;
  util::set_global_threads(1);
  const auto at_one = generate_scenarios(cfg, vocab());
  util::set_global_threads(4);
  const auto at_four = generate_scenarios(cfg, vocab());
  util::set_global_threads(0);  // restore the default for later tests
  ASSERT_EQ(at_one.size(), 24u);
  EXPECT_EQ(fingerprint(at_one), fingerprint(at_four));
}

TEST(GeneratorDeterminism, DistinctSeedsProduceDistinctScenarioSets) {
  GeneratorConfig a, b;
  a.seed = 1;
  b.seed = 2;
  a.count = b.count = 16;
  const auto set_a = generate_scenarios(a, vocab());
  const auto set_b = generate_scenarios(b, vocab());
  EXPECT_NE(fingerprint(set_a), fingerprint(set_b));
  // And the feature draws themselves differ, not just cosmetics: some
  // index must disagree on topology/signal/noise/agents.
  bool any_diff = false;
  for (std::size_t i = 0; i < set_a.size(); ++i)
    any_diff |= set_a[i].key != set_b[i].key;
  EXPECT_TRUE(any_diff);
}

TEST(GeneratorDeterminism, KeysAreUniqueAndIndexOrdered) {
  GeneratorConfig cfg;
  cfg.seed = 9;
  cfg.count = 32;
  const auto scenarios = generate_scenarios(cfg, vocab());
  std::set<std::string> keys;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    keys.insert(scenarios[i].key);
    EXPECT_EQ(scenarios[i].key.substr(0, 3), "gen");
    // Zero-padded index prefix preserves generation order lexically.
    const std::string index = std::to_string(i);
    EXPECT_EQ(scenarios[i].key.substr(3, 3),
              std::string(3 - index.size(), '0') + index);
  }
  EXPECT_EQ(keys.size(), scenarios.size());
}

// ------------------------------------- rulebook + satisfiability gate ---

TEST(GeneratorRulebook, PrePassDiscardsDegenerateInstantiationsOnly) {
  GeneratorStats stats;
  GeneratorConfig cfg;
  cfg.seed = 7;
  cfg.count = 64;
  cfg.holdout = 8;
  const auto scenarios = generate_scenarios(cfg, vocab(), &stats);
  EXPECT_EQ(stats.requested, 64);
  EXPECT_EQ(stats.generated, 64);
  EXPECT_EQ(stats.holdout, 8);
  // The turn-right gate template degenerates in every scenario (no lamp
  // ever governs right turns), so the pre-pass must discard ≥ 1 per
  // scenario.
  EXPECT_GE(stats.specs_discarded_trivial, 64);
  EXPECT_EQ(stats.discarded(),
            stats.specs_discarded_trivial + stats.specs_discarded_unsat);
  EXPECT_GT(stats.specs_instantiated,
            stats.discarded());  // most rules survive
  // Everything that survived classifies kNormal.
  for (const auto& g : scenarios)
    for (const auto& spec : g.specs)
      EXPECT_EQ(modelcheck::classify_spec(spec.formula),
                modelcheck::SpecClass::kNormal)
          << g.key << "/" << spec.name;
}

TEST(GeneratorRulebook, FilterSatisfiableRoutesEachClass) {
  std::vector<NamedSpec> specs;
  specs.push_back({"unsat", logic::parse_ltl("F (stop & !stop)", vocab())});
  specs.push_back({"trivial", logic::parse_ltl("G (stop | !stop)", vocab())});
  specs.push_back({"normal", logic::parse_ltl("G stop", vocab())});
  RulebookStats stats;
  const auto kept = filter_satisfiable(std::move(specs), &stats);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].name, "normal");
  EXPECT_EQ(stats.instantiated, 3);
  EXPECT_EQ(stats.discarded_unsat, 1);
  EXPECT_EQ(stats.discarded_trivial, 1);
}

// --------------------------------------------------- domain installing ---

TEST(GeneratorDomain, RegistryExtendsThePaperFive) {
  GeneratorConfig cfg;
  cfg.seed = 3;
  cfg.count = 12;
  cfg.holdout = 3;
  const DrivingDomain domain(cfg);
  EXPECT_EQ(domain.scenarios().size(), all_scenarios().size() + 12u);
  EXPECT_EQ(domain.generator_stats().generated, 12);
  int generated = 0, holdout_scenarios = 0, holdout_tasks = 0;
  for (const Scenario& s : domain.scenarios()) {
    if (!s.generated) continue;
    ++generated;
    if (s.holdout) ++holdout_scenarios;
    EXPECT_FALSE(s.specs.empty()) << s.key;
    EXPECT_FALSE(s.fairness.empty()) << s.key;
    // Exactly one catalog task per generated scenario.
    int tasks = 0;
    for (const Task& t : domain.tasks())
      if (t.scenario == s.key) {
        ++tasks;
        EXPECT_EQ(t.holdout, s.holdout) << s.key;
      }
    EXPECT_EQ(tasks, 1) << s.key;
  }
  EXPECT_EQ(generated, 12);
  EXPECT_EQ(holdout_scenarios, 3);
  for (const Task& t : domain.tasks())
    if (t.holdout) ++holdout_tasks;
  EXPECT_EQ(holdout_tasks, 3);
}

TEST(GeneratorDomain, CompliantVariantsOutscoreRecklessOnGeneratedTasks) {
  GeneratorConfig cfg;
  cfg.seed = 11;
  cfg.count = 12;
  const DrivingDomain domain(cfg);
  for (const Task& t : domain.tasks()) {
    const Scenario& sc = domain.scenario(t.scenario);
    if (!sc.generated) continue;
    int good_score = -2, reckless_score = -2;
    for (const ResponseVariant& v : t.variants) {
      if (v.tag == FlawTag::Good) {
        const auto fb = formal_feedback(domain, t.scenario, v.text);
        ASSERT_TRUE(fb.aligned) << t.id;
        good_score = fb.score();
        // The canonical compliant response satisfies the *entire*
        // generated rulebook — the generator's soundness property.
        EXPECT_EQ(fb.report.satisfied(), sc.specs.size())
            << t.id << " violated: "
            << (fb.report.violated().empty() ? "" : fb.report.violated()[0]);
      }
      if (v.tag == FlawTag::Reckless) {
        const auto fb = formal_feedback(domain, t.scenario, v.text);
        ASSERT_TRUE(fb.aligned) << t.id;
        reckless_score = fb.score();
      }
    }
    ASSERT_GE(good_score, 0) << t.id;
    ASSERT_GE(reckless_score, 0) << t.id;
    EXPECT_GT(good_score, reckless_score) << t.id;
  }
}

// ------------------------------------------------ verdict certificates ---

// Every verdict DPO-AF trains on is checkable. Over the whole seed-7
// registry, each catalog variant that aligns is checked against each spec
// of its scenario under the scenario's justice conditions p_i. The verdict
// must equal the LTL premise check (∧ G F p_i) → Φ, and each
// counter-example must be a path of the product from an initial state
// that falsifies Φ and meets every p_i infinitely often.
TEST(RegistryCertificate, JusticeVerdictsMatchPremiseAndLassosAreFair) {
  using namespace logic::ltl;
  GeneratorConfig cfg;
  cfg.seed = 7;
  cfg.count = 64;
  cfg.holdout = 8;
  const DrivingDomain domain(cfg);
  std::size_t checks = 0, violations = 0;
  for (const Task& t : domain.tasks()) {
    const Scenario& sc = domain.scenario(t.scenario);
    std::vector<logic::Ltl> premises;
    for (const logic::Ltl& p : sc.fairness)
      premises.push_back(always(eventually(p)));
    const logic::Ltl fair = land_all(premises);
    for (const ResponseVariant& v : t.variants) {
      const auto g2f = glm2fsa::glm2fsa(v.text, domain.aligner(),
                                        domain.build_options());
      if (!g2f.parsed.ok()) continue;
      const automata::Kripke k = automata::make_product(
          sc.model, g2f.controller, domain.product_options());
      for (const NamedSpec& spec : sc.specs) {
        ++checks;
        const std::string where =
            t.id + "/" + flaw_name(v.tag) + "/" + spec.name;
        const auto res = modelcheck::check(k, spec.formula, sc.fairness);
        ASSERT_EQ(res.holds,
                  modelcheck::check(k, implies(fair, spec.formula)).holds)
            << where;
        if (res.holds) continue;
        ++violations;
        const modelcheck::Lasso& lasso = res.counterexample;
        ASSERT_FALSE(lasso.cycle.empty()) << where;
        std::vector<int> walk = lasso.prefix;
        walk.insert(walk.end(), lasso.cycle.begin(), lasso.cycle.end());
        walk.push_back(lasso.cycle.front());
        EXPECT_NE(std::find(k.initial.begin(), k.initial.end(), walk.front()),
                  k.initial.end())
            << where;
        for (std::size_t i = 0; i + 1 < walk.size(); ++i) {
          const auto& out = k.successors[static_cast<std::size_t>(walk[i])];
          ASSERT_NE(std::find(out.begin(), out.end(), walk[i + 1]), out.end())
              << where;
        }
        logic::LassoWord w;
        for (int s : lasso.prefix)
          w.prefix.push_back(k.labels[static_cast<std::size_t>(s)]);
        for (int s : lasso.cycle)
          w.cycle.push_back(k.labels[static_cast<std::size_t>(s)]);
        EXPECT_FALSE(logic::evaluate_lasso(spec.formula, w)) << where;
        EXPECT_TRUE(logic::evaluate_lasso(fair, w)) << where;
      }
    }
  }
  // 69 scenarios' aligned variants × their rulebooks; 478 of the checks
  // fail and so carry a certificate.
  EXPECT_EQ(checks, 3624u);
  EXPECT_GT(violations, 0u);
}

// ------------------------------------------- held-out generalization ---

TEST(GeneratorPipeline, HoldoutScenariosAreExcludedFromTrainingSignals) {
  core::PipelineConfig cfg;
  cfg.seed = 2;
  cfg.generated_scenarios = 4;
  cfg.holdout_scenarios = 2;
  cfg.generator_seed = 13;
  cfg.candidates_from_catalog = true;
  cfg.corpus_samples_per_task = 4;
  cfg.pretrain.epochs = 1;
  cfg.dpo.epochs = 2;
  cfg.dpo.checkpoint_every = 2;
  cfg.eval_samples_per_task = 1;
  cfg.eval_max_new_tokens = 48;
  core::DpoAfPipeline pipe(cfg);

  std::set<std::string> holdout_ids;
  for (const Task& t : pipe.domain().tasks())
    if (t.holdout) holdout_ids.insert(t.id);
  ASSERT_EQ(holdout_ids.size(), 2u);

  const auto result = pipe.run();
  EXPECT_EQ(result.generator_stats.generated, 4);
  EXPECT_GE(result.generator_stats.discarded(), 4);
  // Checkpoint evaluation never touches a held-out task...
  for (const auto& eval : result.checkpoints)
    for (const auto& [task_id, score] : eval.per_task)
      EXPECT_FALSE(holdout_ids.count(task_id)) << task_id;
  // ...the generalization eval covers exactly the held-out tasks.
  ASSERT_TRUE(result.has_generalization);
  EXPECT_EQ(result.generalization.holdout_tasks, 2);
  EXPECT_EQ(result.generalization.per_holdout_task.size(), 2u);
  for (const auto& [task_id, fraction] : result.generalization.per_holdout_task) {
    EXPECT_TRUE(holdout_ids.count(task_id)) << task_id;
    EXPECT_GE(fraction, 0.0);
    EXPECT_LE(fraction, 1.0);
  }
  EXPECT_EQ(result.generalization.train_tasks,
            static_cast<int>(pipe.domain().tasks().size()) - 2);
}

TEST(GeneratorPipeline, NoGenerationMeansNoGeneralizationBlock) {
  core::PipelineConfig cfg;
  cfg.seed = 2;
  cfg.candidates_from_catalog = true;
  cfg.corpus_samples_per_task = 4;
  cfg.pretrain.epochs = 1;
  cfg.dpo.epochs = 2;
  cfg.dpo.checkpoint_every = 2;
  cfg.eval_samples_per_task = 1;
  core::DpoAfPipeline pipe(cfg);
  const auto result = pipe.run();
  EXPECT_FALSE(result.has_generalization);
  EXPECT_EQ(result.generator_stats.generated, 0);
  EXPECT_EQ(result.generator_stats.discarded(), 0);
}

}  // namespace
}  // namespace dpoaf::driving::generator
