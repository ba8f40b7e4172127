// Seeded procedural scenario generation (docs/GENERATOR.md): draw feature
// tuples from the grammar, build each scenario's transition system with
// Algorithm 1, instantiate + satisfiability-filter its rulebook, derive
// fairness assumptions, and fill one TaskBlueprint per scenario so the
// rest of the pipeline (corpus, sampling, verification, DPO, eval) treats
// generated scenarios exactly like the five hand-built ones.
//
// Determinism contract: generation is a serial fold over one Rng seeded
// with GeneratorConfig::seed — per-scenario generators are split in index
// order — so the same config yields a byte-identical registry at any
// thread count, on any backend (property-tested in tests/test_generator).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "driving/generator/grammar.hpp"
#include "driving/generator/rulebook.hpp"
#include "driving/tasks.hpp"

namespace dpoaf::driving::generator {

struct GeneratorConfig {
  /// Seed of the generator's private stream — deliberately separate from
  /// the pipeline seed so the scenario set can stay fixed while training
  /// randomness varies (and vice versa).
  std::uint64_t seed = 7;
  /// Number of scenarios to generate (0 disables generation).
  int count = 0;
  /// Of `count`, hold out the *last* M scenarios: their tasks are flagged
  /// Task::holdout and excluded from every training signal, then scored
  /// by the held-out generalization eval.
  int holdout = 0;
  /// Algorithm 1 without pruning (the ablation variant).
  bool conservative = false;
};

/// Audit counters for one generation run (surfaced in core::RunResult).
struct GeneratorStats {
  int requested = 0;
  int generated = 0;
  int holdout = 0;
  int specs_instantiated = 0;
  int specs_discarded_unsat = 0;
  int specs_discarded_trivial = 0;

  [[nodiscard]] int discarded() const {
    return specs_discarded_unsat + specs_discarded_trivial;
  }
};

/// One generated scenario, ready for registry installation.
struct GeneratedScenario {
  std::string key;  // "gen007_signalized_full_head_nominal"
  ScenarioFeatures features;
  TransitionSystem model;
  std::vector<logic::Ltl> fairness;  // justice conditions (propositional)
  std::vector<NamedSpec> specs;  // post-pre-pass rulebook
  TaskBlueprint task;            // one control task per scenario
  bool holdout = false;
};

/// Generate `config.count` scenarios over the driving vocabulary.
std::vector<GeneratedScenario> generate_scenarios(const GeneratorConfig& config,
                                                  const Vocabulary& vocab,
                                                  GeneratorStats* stats = nullptr);

}  // namespace dpoaf::driving::generator
