// The autonomous-driving world models from the paper (§5.1 and Appendix C):
// one transition system per scenario — regular traffic light (Fig. 5),
// wide median (Fig. 6), left-turn signal (Fig. 15), two-way stop (Fig. 16),
// roundabout (Fig. 17) — plus the universal model that integrates them.
//
// Each scenario is generated with Algorithm 1 over its proposition subset:
// a state per valid labeling and a transition wherever the environment can
// move between two labelings in one perception step (at most two
// propositions change at once — this is what lets the model checker find
// the paper's §5.1 edge case where "the traffic light turns back to red
// AND a car comes from the left" in a single step).
#pragma once

#include <string>
#include <vector>

#include "automata/transition_system.hpp"
#include "logic/ltl.hpp"
#include "logic/vocabulary.hpp"

namespace dpoaf::driving {

using automata::TransitionSystem;
using logic::Ltl;
using logic::Vocabulary;

enum class ScenarioId {
  TrafficLight,    // Fig. 5 — intersection with a regular signal
  WideMedian,      // Fig. 6 — yield-based wide median
  LeftTurnSignal,  // Fig. 15 — intersection with explicit left-turn light
  TwoWayStop,      // Fig. 16 — two-way stop sign
  Roundabout,      // Fig. 17 — roundabout entry
};

std::vector<ScenarioId> all_scenarios();
std::string scenario_name(ScenarioId id);

/// Build one scenario's transition system over `vocab` (must be the
/// driving vocabulary). `conservative` keeps unreachable labelings
/// (Algorithm 1's no-pruning variant; used by the ablation bench).
TransitionSystem make_scenario_model(ScenarioId id, const Vocabulary& vocab,
                                     bool conservative = false);

/// The paper's universal model: disjoint integration of all scenarios, so
/// a controller is verified from every state of every scenario at once.
TransitionSystem make_universal_model(const Vocabulary& vocab);

/// Per-scenario fairness as justice conditions: the environment is live —
/// the configuration that permits the scenario's legal manoeuvre (green
/// light and/or clear traffic) holds infinitely often. Each condition is
/// propositional, a NuSMV `FAIRNESS p`; liveness specifications (Φ7, Φ10,
/// Φ13, …) are checked only on the traces that meet every one of them.
std::vector<Ltl> fairness_assumptions(ScenarioId id, const Vocabulary& vocab);

}  // namespace dpoaf::driving
