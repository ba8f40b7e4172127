// DrivingDomain — the assembled autonomous-driving system: vocabulary,
// aligner lexicon, the scenario *registry* (the paper's five hand-built
// scenarios plus any procedurally generated ones), the 15-spec rulebook,
// and the task catalog. Also hosts `formal_feedback`, the paper's
// automated feedback channel (§4.2, Formal Verification): response text →
// GLM2FSA controller → product with the task's scenario model → count of
// satisfied specifications.
//
// The registry is string-keyed: the five paper scenarios keep their
// ScenarioId enum (and enum-keyed accessor overloads forward through
// scenario_name), while generated scenarios exist only as registry
// entries — each carries its own model, fairness assumptions, and
// satisfiability-filtered rulebook (docs/GENERATOR.md).
//
// Feedback is a pure function of (scenario, response text), and the DPO-AF
// loop re-scores identical texts constantly (low-temperature sampling,
// checkpoint re-evaluation), so the domain memoizes it: a content-addressed
// cache keyed by (scenario key, canonicalized response text) returns the
// stored FeedbackResult on repeat queries. Hits are indistinguishable from
// recomputation (enforced by tests/test_properties.cpp).
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "driving/generator/generator.hpp"
#include "driving/scenarios.hpp"
#include "driving/specs.hpp"
#include "driving/tasks.hpp"
#include "glm2fsa/builder.hpp"
#include "modelcheck/checker.hpp"
#include "util/cache.hpp"

namespace dpoaf::driving {

using glm2fsa::PhraseAligner;
using logic::Symbol;
using modelcheck::VerificationReport;

/// Outcome of the automated-feedback pipeline on one response.
struct FeedbackResult {
  bool aligned = false;        // GLM2FSA parse/alignment succeeded
  std::vector<glm2fsa::ParseIssue> issues;  // why alignment failed
  VerificationReport report;   // valid when aligned
  automata::FsaController controller;  // valid when aligned

  /// Ranking score: number of satisfied specifications, with alignment
  /// failures ranked strictly below every verifiable response (the
  /// fine-tuning explicitly also targets alignability, §4.1 property 1).
  [[nodiscard]] int score() const {
    return aligned ? static_cast<int>(report.satisfied()) : -1;
  }
};

/// One registry entry: a world model plus everything needed to verify a
/// controller against it (and to simulate it empirically).
struct Scenario {
  std::string key;                    // "traffic_light", "gen007_…", …
  TransitionSystem model;
  std::vector<logic::Ltl> fairness;   // justice conditions (propositional)
  std::vector<NamedSpec> specs;       // this scenario's rulebook
  double perception_noise = 0.05;     // sim observation flip probability
  bool generated = false;             // procedurally generated entry
  bool holdout = false;               // reserved for the generalization eval
};

class DrivingDomain {
 public:
  /// The paper's five-scenario domain.
  DrivingDomain();
  /// Five paper scenarios plus `gen.count` generated ones (one task each).
  explicit DrivingDomain(const generator::GeneratorConfig& gen);

  [[nodiscard]] const logic::Vocabulary& vocab() const { return vocab_; }
  [[nodiscard]] const PhraseAligner& aligner() const { return aligner_; }
  /// The paper's 15-spec rulebook (every hand-built scenario's rulebook).
  [[nodiscard]] const std::vector<NamedSpec>& specs() const { return specs_; }
  [[nodiscard]] const std::vector<Task>& tasks() const { return tasks_; }

  /// The full registry, paper scenarios first, generated ones after in
  /// generation (index) order.
  [[nodiscard]] const std::vector<Scenario>& scenarios() const {
    return scenarios_;
  }
  [[nodiscard]] const Scenario& scenario(std::string_view key) const;
  [[nodiscard]] const TransitionSystem& model(std::string_view key) const {
    return scenario(key).model;
  }
  [[nodiscard]] const std::vector<logic::Ltl>& fairness(
      std::string_view key) const {
    return scenario(key).fairness;
  }
  /// The scenario's own rulebook — `specs()` for paper scenarios, the
  /// satisfiability-filtered template instantiation for generated ones.
  [[nodiscard]] const std::vector<NamedSpec>& specs_for(
      std::string_view key) const {
    return scenario(key).specs;
  }
  // Enum conveniences for the five paper scenarios.
  [[nodiscard]] const TransitionSystem& model(ScenarioId id) const {
    return model(std::string_view(scenario_name(id)));
  }
  [[nodiscard]] const std::vector<logic::Ltl>& fairness(ScenarioId id) const {
    return fairness(std::string_view(scenario_name(id)));
  }
  [[nodiscard]] const TransitionSystem& universal_model() const {
    return universal_;
  }
  /// Tally of the generation run that built this domain (all zeros for the
  /// default five-scenario domain).
  [[nodiscard]] const generator::GeneratorStats& generator_stats() const {
    return generator_stats_;
  }
  /// The {stop} action symbol — emitted while waiting/observing.
  [[nodiscard]] Symbol stop_action() const { return stop_action_; }
  [[nodiscard]] glm2fsa::BuildOptions build_options() const;
  [[nodiscard]] automata::ProductOptions product_options() const;

  [[nodiscard]] const Task& task_by_id(std::string_view id) const;

  /// Toggle the formal-feedback memoization (default on). Disabling does
  /// not clear stored entries; clear_feedback_cache() does.
  void set_feedback_cache(bool enabled) { feedback_cache_on_ = enabled; }
  [[nodiscard]] bool feedback_cache_enabled() const {
    return feedback_cache_on_;
  }
  [[nodiscard]] util::CacheStats feedback_cache_stats() const {
    return feedback_cache_.stats();
  }
  void clear_feedback_cache() {
    feedback_cache_.clear();
    feedback_cache_.reset_stats();
  }

 private:
  friend FeedbackResult formal_feedback(const DrivingDomain& domain,
                                        std::string_view scenario_key,
                                        std::string_view response_text);

  void install_scenario(Scenario scenario);

  logic::Vocabulary vocab_;
  PhraseAligner aligner_;
  std::vector<NamedSpec> specs_;
  std::vector<Task> tasks_;
  std::vector<Scenario> scenarios_;
  std::map<std::string, std::size_t, std::less<>> scenario_index_;
  TransitionSystem universal_;
  generator::GeneratorStats generator_stats_;
  Symbol stop_action_ = 0;
  bool feedback_cache_on_ = true;
  // Mutable: formal_feedback takes a const domain (callers share it
  // read-only); the cache is the one internally synchronized exception.
  // No config field bounds the number of distinct responses a run scores,
  // so the cache is bounded; 8192 is far above any measured run.
  mutable util::BoundedCache<std::string, FeedbackResult> feedback_cache_{
      /*capacity=*/8192};
};

/// The cache key's text component: CR/LF normalized, lines trimmed, blank
/// lines dropped. Exactly the projection the GLM2FSA step splitter applies
/// before parsing, so two texts with equal canonical forms are guaranteed
/// the same feedback. Exposed for tests.
std::string canonical_response_text(std::string_view response_text);

/// Run the full formal-verification feedback on one response text within
/// the given scenario (any registry key). Verification runs against the
/// scenario's *own* rulebook and fairness assumptions. Memoized per domain
/// (see class comment); the returned value is identical whether it was
/// computed or replayed.
FeedbackResult formal_feedback(const DrivingDomain& domain,
                               std::string_view scenario_key,
                               std::string_view response_text);

/// Enum convenience for the five paper scenarios.
inline FeedbackResult formal_feedback(const DrivingDomain& domain,
                                      ScenarioId scenario,
                                      std::string_view response_text) {
  return formal_feedback(domain, std::string_view(scenario_name(scenario)),
                         response_text);
}

}  // namespace dpoaf::driving
