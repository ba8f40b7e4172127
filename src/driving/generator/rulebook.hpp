// Rulebook derivation for generated scenarios: LTL spec *templates* —
// written once against the full proposition vocabulary, in the shapes of
// the paper's Φ1…Φ15 — are instantiated over a generated scenario's actual
// proposition subset. Instantiation is partial by construction: a template
// whose permission slot has no lamp in this scenario degenerates to a
// tautology (e.g. the turn-right permission gate in a junction with no
// signal head), so every instantiated rule passes through a
// satisfiability pre-pass (modelcheck::classify_spec) and kUnsatisfiable /
// kTriviallyTrue instantiations are discarded — the same authoring gate
// DrivingDomain applies to the hand-written rulebook, made tolerant
// because degeneration is expected here, not a bug.
#pragma once

#include <vector>

#include "driving/generator/grammar.hpp"
#include "modelcheck/checker.hpp"

namespace dpoaf::driving::generator {

using modelcheck::NamedSpec;

/// Pre-pass tally for one rulebook instantiation.
struct RulebookStats {
  int instantiated = 0;        // template instantiations produced
  int discarded_unsat = 0;     // classified kUnsatisfiable, dropped
  int discarded_trivial = 0;   // classified kTriviallyTrue, dropped
};

/// Every template instantiated over the scenario's propositions, *before*
/// the satisfiability pre-pass (exposed for the fuzz bridge, which feeds
/// raw instantiations through the printer→parser round-trip and the
/// pre-pass).
std::vector<NamedSpec> rule_templates(const ScenarioFeatures& f,
                                      const Vocabulary& v);

/// The satisfiability pre-pass: classify each spec under LTL and
/// drop the unsatisfiable / trivially-true ones, tallying into `stats`
/// (which is accumulated into, not reset). Exposed for tests.
std::vector<NamedSpec> filter_satisfiable(std::vector<NamedSpec> specs,
                                          RulebookStats* stats = nullptr);

/// rule_templates + filter_satisfiable: the scenario's final rulebook.
std::vector<NamedSpec> instantiate_rulebook(const ScenarioFeatures& f,
                                            const Vocabulary& v,
                                            RulebookStats* stats = nullptr);

}  // namespace dpoaf::driving::generator
