// Cross-module property tests: randomized sweeps over the invariants that
// tie the subsystems together (product construction vs Appendix A, the
// GLM2FSA grammar, LTL operator dualities on finite traces).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "automata/product.hpp"
#include "ckpt/checkpoint.hpp"
#include "ckpt/store.hpp"
#include "core/pipeline.hpp"
#include "driving/domain.hpp"
#include "driving/generator/generator.hpp"
#include "logic/lasso_eval.hpp"
#include "logic/ltlf.hpp"
#include "logic/parser.hpp"
#include "modelcheck/buchi.hpp"
#include "modelcheck/checker.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace dpoaf {
namespace {

using automata::FsaController;
using automata::Guard;
using automata::Kripke;
using automata::TransitionSystem;
using logic::Symbol;
using logic::Vocabulary;

class PropertySweep : public ::testing::TestWithParam<int> {
 protected:
  static const driving::DrivingDomain& domain() {
    static driving::DrivingDomain d;
    return d;
  }
};

// ---------------------------------------------- product invariants ------

TEST_P(PropertySweep, ProductStatesSatisfyAppendixA) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 5);
  const auto& vocab = domain().vocab();

  // Random model over 3 random env propositions.
  const auto props = vocab.prop_indices();
  TransitionSystem model;
  const int n_states = 2 + static_cast<int>(rng.below(5));
  for (int p = 0; p < n_states; ++p) {
    Symbol label = 0;
    for (int k = 0; k < 3; ++k)
      if (rng.chance(0.5)) label |= Vocabulary::bit(props[rng.below(props.size())]);
    model.add_state(label);
  }
  for (int p = 0; p < n_states; ++p) {
    model.add_transition(p, static_cast<int>(rng.below(
                                static_cast<std::uint64_t>(n_states))));
    if (rng.chance(0.5))
      model.add_transition(p, static_cast<int>(rng.below(
                                  static_cast<std::uint64_t>(n_states))));
  }

  // Random controller.
  const auto actions = vocab.action_indices();
  FsaController ctrl(domain().stop_action());
  const int n_ctrl = 1 + static_cast<int>(rng.below(4));
  for (int q = 0; q < n_ctrl; ++q) ctrl.add_state();
  for (int q = 0; q < n_ctrl; ++q) {
    Guard g;
    if (rng.chance(0.6)) {
      const int bit = props[rng.below(props.size())];
      if (rng.chance(0.5))
        g.must_true |= Vocabulary::bit(bit);
      else
        g.must_false |= Vocabulary::bit(bit);
    }
    const Symbol action = Vocabulary::bit(actions[rng.below(actions.size())]);
    ctrl.add_transition(q, g, action,
                        static_cast<int>(rng.below(
                            static_cast<std::uint64_t>(n_ctrl))));
  }

  const Kripke k = automata::make_product(model, ctrl,
                                          domain().product_options());
  ASSERT_GT(k.state_count(), 0u);
  const Symbol action_mask = vocab.action_mask();
  for (std::size_t s = 0; s < k.state_count(); ++s) {
    const auto& origin = k.origin[s];
    // Label = λ_M(p) ∪ a (ε replaced by the configured stop label).
    const Symbol expected_action =
        origin.action == 0 ? domain().stop_action() : origin.action;
    EXPECT_EQ(k.labels[s] & ~action_mask, model.label(origin.model_state));
    EXPECT_EQ(k.labels[s] & action_mask, expected_action);
    // The recorded action must be one the controller can emit there.
    const auto moves =
        ctrl.moves(origin.ctrl_state, model.label(origin.model_state));
    const bool emittable =
        std::any_of(moves.begin(), moves.end(), [&](const auto& m) {
          return m.action == origin.action;
        });
    EXPECT_TRUE(emittable);
    // Every state has a successor (stutter extension).
    EXPECT_FALSE(k.successors[s].empty());
  }
  // Initial states start in q0 and cover every model state.
  std::vector<bool> covered(model.state_count(), false);
  for (int s : k.initial) {
    EXPECT_EQ(k.origin[static_cast<std::size_t>(s)].ctrl_state,
              ctrl.initial());
    covered[static_cast<std::size_t>(
        k.origin[static_cast<std::size_t>(s)].model_state)] = true;
  }
  for (std::size_t p = 0; p < model.state_count(); ++p)
    EXPECT_TRUE(covered[p]) << "model state " << p << " not in initial set";
}

// ------------------------------------------------ GLM2FSA grammar -------

TEST_P(PropertySweep, RandomGrammaticalStepListsAlwaysCompile) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 97 + 3);
  const std::vector<std::string> conds{
      "no car from the left", "no pedestrian on the right",
      "the green traffic light is on", "no oncoming traffic",
      "no car from the right", "no pedestrian in front"};
  const std::vector<std::string> acts{"turn right", "turn left",
                                      "go straight", "stop"};
  const std::vector<std::string> observes{
      "the traffic light", "the stop sign", "the left turn light"};

  const int n_steps = 1 + static_cast<int>(rng.below(5));
  std::string text;
  for (int i = 0; i < n_steps; ++i) {
    text += std::to_string(i + 1) + ". ";
    switch (rng.below(3)) {
      case 0:
        text += "Observe " + observes[rng.below(observes.size())] + ".";
        break;
      case 1: {
        text += "If " + conds[rng.below(conds.size())];
        if (rng.chance(0.5)) text += " and " + conds[rng.below(conds.size())];
        text += ", " + acts[rng.below(acts.size())] + ".";
        break;
      }
      default:
        text += "Wait until " + conds[rng.below(conds.size())] + ".";
        break;
    }
    text += "\n";
  }

  const auto result = glm2fsa::glm2fsa(text, domain().aligner(),
                                       domain().build_options());
  // Contradictory conjunctions ("X and no X") are legitimately rejected;
  // everything else must compile with one state and transition per step.
  bool contradiction = false;
  for (const auto& issue : result.parsed.issues)
    contradiction |= issue.message == "contradictory condition";
  if (contradiction) return;
  ASSERT_TRUE(result.parsed.ok()) << text;
  EXPECT_EQ(result.controller.state_count(),
            static_cast<std::size_t>(n_steps));
  EXPECT_EQ(result.controller.transitions().size(),
            static_cast<std::size_t>(n_steps));
  // Verification never crashes on grammatical controllers.
  const auto fb = driving::formal_feedback(
      domain(), driving::ScenarioId::TrafficLight, text);
  EXPECT_GE(fb.score(), 0);
}

// ------------------------------------------- LTL dualities (finite) -----

TEST_P(PropertySweep, LtlfOperatorDualities) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 13 + 7);
  using namespace logic::ltl;
  const auto props = domain().vocab().prop_indices();
  const logic::Ltl a = prop(props[rng.below(props.size())]);
  const logic::Ltl b = prop(props[rng.below(props.size())]);

  logic::Trace trace;
  const std::size_t len = 1 + rng.below(8);
  for (std::size_t t = 0; t < len; ++t) {
    Symbol sym = 0;
    for (int bit : props)
      if (rng.chance(0.4)) sym |= Vocabulary::bit(bit);
    trace.push_back(sym);
  }

  // ¬◇φ ≡ □¬φ, ¬□φ ≡ ◇¬φ, ¬(φUψ) ≡ ¬φ R ¬ψ, φRψ ≡ ¬(¬φ U ¬ψ).
  EXPECT_EQ(logic::evaluate_ltlf(lnot(eventually(a)), trace),
            logic::evaluate_ltlf(always(lnot(a)), trace));
  EXPECT_EQ(logic::evaluate_ltlf(lnot(always(a)), trace),
            logic::evaluate_ltlf(eventually(lnot(a)), trace));
  EXPECT_EQ(logic::evaluate_ltlf(lnot(until(a, b)), trace),
            logic::evaluate_ltlf(release(lnot(a), lnot(b)), trace));
  EXPECT_EQ(logic::evaluate_ltlf(release(a, b), trace),
            logic::evaluate_ltlf(lnot(until(lnot(a), lnot(b))), trace));
  // ◇φ ≡ true U φ and □φ ≡ false R φ.
  EXPECT_EQ(logic::evaluate_ltlf(eventually(a), trace),
            logic::evaluate_ltlf(until(ltrue(), a), trace));
  EXPECT_EQ(logic::evaluate_ltlf(always(a), trace),
            logic::evaluate_ltlf(release(lfalse(), a), trace));
}

// ----------------------------------- simulator path soundness -----------

TEST_P(PropertySweep, NoiselessRolloutsAreModelPathsInEveryScenario) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 41 + 11);
  for (driving::ScenarioId id : driving::all_scenarios()) {
    const auto& model = domain().model(id);
    // Any aligned catalog controller will do; pick one at random.
    const auto& tasks = domain().tasks();
    const auto& task = tasks[rng.below(tasks.size())];
    const auto& variant = task.variants[0];  // Good is always first
    auto g2f = glm2fsa::glm2fsa(variant.text, domain().aligner(),
                                domain().build_options());
    ASSERT_TRUE(g2f.parsed.ok());

    sim::SimulatorConfig cfg;
    cfg.horizon = 15;
    cfg.epsilon_label = domain().stop_action();
    sim::Simulator simulator(model, cfg);
    const auto rollout = simulator.run(g2f.controller, rng);
    for (std::size_t t = 0; t + 1 < rollout.model_states.size(); ++t)
      ASSERT_TRUE(model.has_transition(rollout.model_states[t],
                                       rollout.model_states[t + 1]))
          << driving::scenario_name(id);
  }
}

// ------------------------- generated-rulebook fuzz bridge ---------------
//
// The procedural generator (docs/GENERATOR.md) emits rulebooks no human
// reviewed, so the bridge properties fuzz them through every formula
// consumer: the ASCII printer→parser round-trip and the satisfiability
// pre-pass, whose verdicts must hold on lassos built from random walks of
// the generated scenario's own model.

TEST_P(PropertySweep, GeneratedRulebooksSurvivePrinterParserRoundTrip) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 73 + 19);
  const auto& vocab = domain().vocab();
  const auto features = driving::generator::draw_features(rng);
  // Raw template instantiations — *before* the pre-pass — so the
  // degenerate tautologies are fuzzed too, plus the fairness assumptions.
  std::vector<logic::Ltl> formulas;
  for (const auto& spec : driving::generator::rule_templates(features, vocab))
    formulas.push_back(spec.formula);
  for (const auto& f : driving::generator::derive_fairness(features, vocab))
    formulas.push_back(f);
  ASSERT_FALSE(formulas.empty());
  for (const logic::Ltl& f : formulas) {
    // The pre-pass classifies every raw instantiation without CHECKing.
    (void)modelcheck::classify_spec(f);
    const std::string printed = logic::to_string(f, vocab);
    const logic::Ltl reparsed = logic::parse_ltl(printed, vocab);
    // Printing is a normal form: the round-trip is a fixed point.
    EXPECT_EQ(logic::to_string(reparsed, vocab), printed);
    // And semantics survive: verdicts agree on a short random trace.
    logic::Trace trace;
    const auto all_props = vocab.prop_indices();
    const auto all_actions = vocab.action_indices();
    for (int t = 0; t < 8; ++t) {
      Symbol sym = 0;
      for (int bit : all_props)
        if (rng.chance(0.4)) sym |= Vocabulary::bit(bit);
      sym |= Vocabulary::bit(all_actions[rng.below(all_actions.size())]);
      trace.push_back(sym);
    }
    EXPECT_EQ(logic::evaluate_ltlf(reparsed, trace),
              logic::evaluate_ltlf(f, trace))
        << printed;
  }
}

TEST_P(PropertySweep, GeneratedSpecsPrePassVerdictsHoldOnRandomLassos) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 59 + 29);
  const auto& vocab = domain().vocab();
  const auto features = driving::generator::draw_features(rng);
  const auto model = driving::generator::build_model(features, vocab);

  // Lassos cut from random walks through the scenario's own model, with a
  // random action bit per step (the symbols the simulator produces).
  const auto actions = vocab.action_indices();
  std::vector<logic::LassoWord> words;
  for (int r = 0; r < 6; ++r) {
    auto s = static_cast<int>(rng.below(model.state_count()));
    std::vector<Symbol> walk;
    for (int step = 0; step < 8; ++step) {
      walk.push_back(model.label(s) |
                     Vocabulary::bit(actions[rng.below(actions.size())]));
      const auto& succ = model.successors(s);
      ASSERT_FALSE(succ.empty());
      s = succ[rng.below(succ.size())];
    }
    const auto cut = static_cast<std::ptrdiff_t>(rng.below(walk.size()));
    words.push_back({{walk.begin(), walk.begin() + cut},
                     {walk.begin() + cut, walk.end()}});
  }

  // Raw instantiations, so the degenerate ones the pre-pass drops are
  // checked too: a tautology holds on every lasso, a contradiction on none.
  for (const auto& spec :
       driving::generator::rule_templates(features, vocab)) {
    const auto cls = modelcheck::classify_spec(spec.formula);
    if (cls == modelcheck::SpecClass::kNormal) continue;
    for (const logic::LassoWord& w : words)
      EXPECT_EQ(logic::evaluate_lasso(spec.formula, w),
                cls == modelcheck::SpecClass::kTriviallyTrue)
          << spec.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PropertySweep, ::testing::Range(0, 40));

// ------------------------------- feedback memoization transparency ------
//
// The caches memoize pure functions (DESIGN.md "Feedback memoization"):
// turning them on or off must not change a single bit of any pipeline
// metric, at any thread count. This is the contract that makes the
// memoized scoring hot path safe to ship enabled by default.

core::RunResult run_micro_pipeline(int threads, bool caches_on,
                                   bool observability = false) {
  modelcheck::clear_buchi_cache();
  modelcheck::set_buchi_cache_enabled(caches_on);
  core::PipelineConfig cfg;
  cfg.seed = 23;
  cfg.threads = threads;
  cfg.feedback_cache = caches_on;
  cfg.observability = observability;
  cfg.d_model = 16;
  cfg.n_heads = 2;
  cfg.n_layers = 1;
  cfg.d_ff = 32;
  cfg.corpus_samples_per_task = 6;
  cfg.pretrain.epochs = 1;
  cfg.candidates_from_catalog = true;
  cfg.dpo.epochs = 2;
  cfg.dpo.checkpoint_every = 2;
  cfg.dpo.pairs_per_epoch = 8;
  cfg.dpo.lora_rank = 2;
  cfg.eval_samples_per_task = 2;
  cfg.eval_max_new_tokens = 24;
  core::DpoAfPipeline pipe(cfg);
  pipe.pretrain_model();
  auto result = pipe.run_dpo(pipe.build_pairs(pipe.collect_candidates()));
  modelcheck::set_buchi_cache_enabled(true);
  util::set_global_threads(1);
  return result;
}

void expect_identical_metrics(const core::RunResult& a,
                              const core::RunResult& b) {
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (std::size_t i = 0; i < a.metrics.size(); ++i) {
    EXPECT_EQ(a.metrics[i].loss, b.metrics[i].loss);
    EXPECT_EQ(a.metrics[i].accuracy, b.metrics[i].accuracy);
    EXPECT_EQ(a.metrics[i].margin, b.metrics[i].margin);
    EXPECT_EQ(a.metrics[i].kl, b.metrics[i].kl);
  }
  ASSERT_EQ(a.checkpoints.size(), b.checkpoints.size());
  for (std::size_t i = 0; i < a.checkpoints.size(); ++i) {
    const auto& s = a.checkpoints[i];
    const auto& p = b.checkpoints[i];
    EXPECT_EQ(s.epoch, p.epoch);
    EXPECT_EQ(s.train_mean_satisfied, p.train_mean_satisfied);
    EXPECT_EQ(s.val_mean_satisfied, p.val_mean_satisfied);
    EXPECT_EQ(s.train_alignment_failure_rate, p.train_alignment_failure_rate);
    EXPECT_EQ(s.val_alignment_failure_rate, p.val_alignment_failure_rate);
    EXPECT_EQ(s.truncated_responses, p.truncated_responses);
    ASSERT_EQ(s.per_task.size(), p.per_task.size());
    for (std::size_t t = 0; t < s.per_task.size(); ++t) {
      EXPECT_EQ(s.per_task[t].first, p.per_task[t].first);
      EXPECT_EQ(s.per_task[t].second, p.per_task[t].second);
    }
    ASSERT_EQ(s.per_task_alignment_failure.size(),
              p.per_task_alignment_failure.size());
    for (std::size_t t = 0; t < s.per_task_alignment_failure.size(); ++t)
      EXPECT_EQ(s.per_task_alignment_failure[t],
                p.per_task_alignment_failure[t]);
  }
}

TEST(FeedbackCacheProperty, CachedRunBitwiseEqualsUncachedAtOneThread) {
  const auto cached = run_micro_pipeline(1, true);
  const auto uncached = run_micro_pipeline(1, false);
  expect_identical_metrics(cached, uncached);
  // The cached run actually exercised the caches; the uncached run
  // bypassed them entirely (no counter movement at all).
  EXPECT_GT(cached.buchi_cache_stats.hits, 0u);
  EXPECT_GT(cached.feedback_cache_stats.hits +
                cached.feedback_cache_stats.misses,
            0u);
  EXPECT_EQ(uncached.feedback_cache_stats.hits, 0u);
  EXPECT_EQ(uncached.feedback_cache_stats.misses, 0u);
}

TEST(FeedbackCacheProperty, CachedRunBitwiseEqualsUncachedAtFourThreads) {
  const auto cached = run_micro_pipeline(4, true);
  const auto uncached = run_micro_pipeline(4, false);
  expect_identical_metrics(cached, uncached);
}

TEST(FeedbackCacheProperty, CachedRunsIdenticalAcrossThreadCounts) {
  // Caches on, 1 vs 4 threads: memoization must not perturb the existing
  // threading determinism contract (tests/test_threading.cpp).
  const auto serial = run_micro_pipeline(1, true);
  const auto parallel = run_micro_pipeline(4, true);
  expect_identical_metrics(serial, parallel);
}

// ------------------------------- observability transparency ------------
//
// Observability records wall-clock only into histograms/trace (report-only)
// and counts logical events; turning it on must not change a single bit of
// any pipeline metric — the contract that lets instrumentation ship in the
// hot paths (DESIGN.md "Observability").

TEST(ObservabilityProperty, InstrumentedRunBitwiseEqualsUninstrumented) {
  obs::set_enabled(false);
  obs::clear_trace();
  const auto plain = run_micro_pipeline(1, true, /*observability=*/false);
  EXPECT_TRUE(obs::trace_snapshot().empty());  // nothing recorded while off
  const auto traced = run_micro_pipeline(1, true, /*observability=*/true);
  EXPECT_FALSE(obs::trace_snapshot().empty());  // spans actually fired
  expect_identical_metrics(plain, traced);
  obs::set_enabled(false);
  obs::clear_trace();
}

TEST(ObservabilityProperty, InstrumentedRunIdenticalAtFourThreads) {
  obs::set_enabled(false);
  obs::clear_trace();
  const auto plain = run_micro_pipeline(4, true, /*observability=*/false);
  const auto traced = run_micro_pipeline(4, true, /*observability=*/true);
  expect_identical_metrics(plain, traced);
  obs::set_enabled(false);
  obs::clear_trace();
}

// ----------------------------- crash-resume determinism -----------------
//
// The durable-checkpoint contract (docs/CHECKPOINT_FORMAT.md): a run
// interrupted at any snapshot boundary and resumed in a fresh pipeline
// produces a RunResult — and final model weights — bitwise-identical to
// the uninterrupted run. Snapshots carry the trainer RNG stream, shuffle
// permutation, optimizer moments, and metric history, so nothing about
// the continuation depends on the interruption.

struct CheckpointedRun {
  core::RunResult result;
  std::vector<float> final_weights;
  std::vector<ckpt::TrainingCheckpoint> snapshots;
};

CheckpointedRun run_micro_checkpointed(int threads, bool observability,
                                       int pretrain_epochs,
                                       const std::string& resume_from = {}) {
  modelcheck::clear_buchi_cache();
  core::PipelineConfig cfg;
  cfg.seed = 23;
  cfg.threads = threads;
  cfg.observability = observability;
  cfg.d_model = 16;
  cfg.n_heads = 2;
  cfg.n_layers = 1;
  cfg.d_ff = 32;
  cfg.corpus_samples_per_task = 6;
  cfg.pretrain.epochs = pretrain_epochs;
  cfg.candidates_from_catalog = true;
  cfg.dpo.epochs = 2;
  cfg.dpo.checkpoint_every = 2;
  cfg.dpo.pairs_per_epoch = 8;
  cfg.dpo.lora_rank = 2;
  cfg.eval_samples_per_task = 2;
  cfg.eval_max_new_tokens = 24;
  cfg.checkpoint_every_epochs = 1;
  cfg.resume_from = resume_from;
  core::DpoAfPipeline pipe(cfg);
  auto sink = std::make_shared<ckpt::MemorySink>();
  pipe.set_checkpoint_sink(sink);
  CheckpointedRun out;
  out.result = pipe.run();
  out.final_weights = pipe.model().state();
  out.snapshots = sink->snapshots;
  util::set_global_threads(1);
  return out;
}

std::string save_snapshot(const ckpt::TrainingCheckpoint& snap,
                          const std::string& name) {
  const std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) / name;
  ckpt::save_checkpoint(path, snap);
  return path.string();
}

const ckpt::TrainingCheckpoint& find_snapshot(
    const std::vector<ckpt::TrainingCheckpoint>& snapshots, ckpt::Stage stage,
    int completed_epochs) {
  for (const auto& s : snapshots)
    if (s.stage == stage && s.loop.completed_epochs == completed_epochs)
      return s;
  throw std::runtime_error("expected snapshot not captured");
}

TEST(CrashResumeProperty, SnapshottingItselfChangesNothing) {
  // A run that writes snapshots every epoch is bitwise-identical to the
  // plain pipeline (checkpointing only observes, never perturbs).
  const auto plain = run_micro_pipeline(1, true);
  const auto snapshotted =
      run_micro_checkpointed(1, /*observability=*/false, /*pretrain_epochs=*/1);
  expect_identical_metrics(plain, snapshotted.result);
  // pretrain final epoch + dpo epochs 1 and 2 all produced snapshots.
  EXPECT_EQ(snapshotted.snapshots.size(), 3u);
}

TEST(CrashResumeProperty, DpoResumeBitwiseIdenticalAtOneThread) {
  const auto baseline =
      run_micro_checkpointed(1, /*observability=*/false, /*pretrain_epochs=*/1);
  const auto& snap =
      find_snapshot(baseline.snapshots, ckpt::Stage::kDpo, /*epochs=*/1);
  const std::string path = save_snapshot(snap, "resume_dpo_t1.dpoaf");
  const auto resumed = run_micro_checkpointed(1, false, 1, path);
  expect_identical_metrics(baseline.result, resumed.result);
  EXPECT_EQ(baseline.final_weights, resumed.final_weights);
  EXPECT_EQ(baseline.result.pair_count, resumed.result.pair_count);
}

TEST(CrashResumeProperty, DpoResumeBitwiseIdenticalAtFourThreads) {
  const auto baseline =
      run_micro_checkpointed(4, /*observability=*/false, /*pretrain_epochs=*/1);
  const auto& snap =
      find_snapshot(baseline.snapshots, ckpt::Stage::kDpo, /*epochs=*/1);
  const std::string path = save_snapshot(snap, "resume_dpo_t4.dpoaf");
  const auto resumed = run_micro_checkpointed(4, false, 1, path);
  expect_identical_metrics(baseline.result, resumed.result);
  EXPECT_EQ(baseline.final_weights, resumed.final_weights);
}

TEST(CrashResumeProperty, DpoResumeCrossesThreadCounts) {
  // Snapshot written by a 1-thread run, resumed at 4 threads: the
  // determinism contract composes with the threading contract.
  const auto baseline =
      run_micro_checkpointed(1, /*observability=*/false, /*pretrain_epochs=*/1);
  const auto& snap =
      find_snapshot(baseline.snapshots, ckpt::Stage::kDpo, /*epochs=*/1);
  const std::string path = save_snapshot(snap, "resume_dpo_xthread.dpoaf");
  const auto resumed = run_micro_checkpointed(4, false, 1, path);
  expect_identical_metrics(baseline.result, resumed.result);
  EXPECT_EQ(baseline.final_weights, resumed.final_weights);
}

TEST(CrashResumeProperty, DpoResumeIdenticalWithObservabilityOn) {
  obs::set_enabled(false);
  obs::clear_trace();
  const auto baseline =
      run_micro_checkpointed(1, /*observability=*/false, /*pretrain_epochs=*/1);
  const auto& snap =
      find_snapshot(baseline.snapshots, ckpt::Stage::kDpo, /*epochs=*/1);
  const std::string path = save_snapshot(snap, "resume_dpo_obs.dpoaf");
  const auto resumed = run_micro_checkpointed(1, /*observability=*/true, 1, path);
  expect_identical_metrics(baseline.result, resumed.result);
  EXPECT_EQ(baseline.final_weights, resumed.final_weights);
  obs::set_enabled(false);
  obs::clear_trace();
}

TEST(CrashResumeProperty, PretrainResumeBitwiseIdentical) {
  // Interrupt mid-pre-training (epoch 1 of 2); the resumed run re-enters
  // the pre-training loop and then runs stages 2–6 from scratch.
  const auto baseline =
      run_micro_checkpointed(1, /*observability=*/false, /*pretrain_epochs=*/2);
  const auto& snap =
      find_snapshot(baseline.snapshots, ckpt::Stage::kPretrain, /*epochs=*/1);
  const std::string path = save_snapshot(snap, "resume_pretrain.dpoaf");
  const auto resumed = run_micro_checkpointed(1, false, 2, path);
  expect_identical_metrics(baseline.result, resumed.result);
  EXPECT_EQ(baseline.final_weights, resumed.final_weights);
}

TEST(CrashResumeProperty, ResumeRejectsNonPermutationOrder) {
  // The CRC detects accidental damage, not a crafted file: a CRC-clean
  // snapshot whose loop state breaks any nn::MinibatchLoop resume rule —
  // a shuffle order of the right length that is not a permutation of the
  // loop's items, a negative epoch count, weights or optimizer moments
  // that do not fit the model, all-zero RNG words — must be rejected
  // before any of it is used, with a LoopStateError. The loader rejects a
  // negative epoch count first, with a CheckpointError. No mutation may
  // reach a CHECK.
  const auto baseline =
      run_micro_checkpointed(1, /*observability=*/false, /*pretrain_epochs=*/2);
  struct Mutation {
    const char* name;
    std::function<void(nn::LoopState&)> apply;
    bool loader_rejects = false;  // CheckpointError before the loop runs
  };
  const std::vector<Mutation> mutations = {
      {"order_out_of_range",
       [](nn::LoopState& l) { l.order[0] = l.order.size() + 1000; }},
      {"order_duplicated", [](nn::LoopState& l) { l.order[1] = l.order[0]; }},
      {"negative_epochs", [](nn::LoopState& l) { l.completed_epochs = -1; },
       true},
      {"weights_one_short", [](nn::LoopState& l) { l.weights.pop_back(); }},
      {"moment_wrong_size", [](nn::LoopState& l) { l.opt_m[0].push_back(0); }},
      {"rng_all_zero", [](nn::LoopState& l) { l.rng_state = {}; }},
  };
  for (const ckpt::Stage stage : {ckpt::Stage::kPretrain, ckpt::Stage::kDpo}) {
    const ckpt::TrainingCheckpoint& good =
        find_snapshot(baseline.snapshots, stage, /*epochs=*/1);
    ASSERT_GE(good.loop.order.size(), 2u);
    ASSERT_FALSE(good.loop.opt_m.empty());
    for (const Mutation& m : mutations) {
      ckpt::TrainingCheckpoint snap = good;
      m.apply(snap.loop);
      const std::string label =
          std::string(ckpt::stage_name(stage)) + "/" + m.name;
      const std::string path =
          save_snapshot(snap, "resume_bad_loop_" + std::string(m.name) + "_" +
                                  ckpt::stage_name(stage) + ".dpoaf");
      try {
        (void)run_micro_checkpointed(1, false, 2, path);
        ADD_FAILURE() << label << " resumed";
      } catch (const nn::LoopStateError&) {
        EXPECT_FALSE(m.loader_rejects) << label;
      } catch (const ckpt::CheckpointError&) {
        EXPECT_TRUE(m.loader_rejects) << label;
      } catch (const ContractViolation& e) {
        ADD_FAILURE() << label << " reached a CHECK: " << e.what();
      }
    }
  }
  util::set_global_threads(1);
}

TEST(CrashResumeProperty, ResumeRejectsMalformedPreferencePairs) {
  // A CRC-clean dpo snapshot whose stored pair the trainer cannot score
  // must fail the resume with a CheckpointError naming the pair, not a
  // model CHECK deep inside DPO.
  const auto baseline =
      run_micro_checkpointed(1, /*observability=*/false, /*pretrain_epochs=*/1);
  const ckpt::TrainingCheckpoint& good =
      find_snapshot(baseline.snapshots, ckpt::Stage::kDpo, /*epochs=*/1);
  ASSERT_GE(good.pairs.size(), 2u);
  const std::int64_t max_seq = good.model_config.max_seq;
  const std::vector<std::function<void(dpo::PreferencePair&)>> crafts = {
      [&](dpo::PreferencePair& p) {
        p.chosen.back() = good.model_config.vocab_size;
      },
      [](dpo::PreferencePair& p) { p.rejected.front() = -1; },
      [&](dpo::PreferencePair& p) {
        p.rejected.resize(static_cast<std::size_t>(max_seq) + 1, 2);
      },
      [](dpo::PreferencePair& p) { p.prompt_len = 0; },
      [](dpo::PreferencePair& p) {
        p.prompt_len = static_cast<std::int64_t>(p.chosen.size());
      },
  };
  for (int threads : {1, 4}) {
    for (std::size_t c = 0; c < crafts.size(); ++c) {
      ckpt::TrainingCheckpoint snap = good;
      crafts[c](snap.pairs[1]);
      const std::string path = save_snapshot(
          snap, "resume_bad_pair_" + std::to_string(c) + ".dpoaf");
      try {
        (void)run_micro_checkpointed(threads, false, 1, path);
        ADD_FAILURE() << "craft " << c << " resumed at " << threads
                      << " threads";
      } catch (const ckpt::CheckpointError& e) {
        EXPECT_NE(std::string(e.what()).find("preference pair 1 "),
                  std::string::npos)
            << e.what();
      }
    }
  }
  util::set_global_threads(1);
}

TEST(CrashResumeProperty, ResumeRejectsMismatchedConfiguration) {
  const auto baseline =
      run_micro_checkpointed(1, /*observability=*/false, /*pretrain_epochs=*/1);
  const auto& snap =
      find_snapshot(baseline.snapshots, ckpt::Stage::kDpo, /*epochs=*/1);
  const std::string path = save_snapshot(snap, "resume_mismatch.dpoaf");

  core::PipelineConfig cfg;
  cfg.seed = 24;  // different seed than the snapshot's 23
  cfg.d_model = 16;
  cfg.n_heads = 2;
  cfg.n_layers = 1;
  cfg.d_ff = 32;
  cfg.candidates_from_catalog = true;
  cfg.dpo.lora_rank = 2;
  cfg.resume_from = path;
  core::DpoAfPipeline pipe(cfg);
  EXPECT_THROW((void)pipe.run(), ckpt::CheckpointError);
  util::set_global_threads(1);
}

}  // namespace
}  // namespace dpoaf
