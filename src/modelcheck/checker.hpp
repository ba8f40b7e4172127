// Explicit-state LTL model checker — the repository's substitute for
// NuSMV (§4.2 of the paper). Checks M ⊗ C ⊨ Φ by translating ¬Φ to a Büchi
// automaton, forming the synchronous product with the Kripke structure, and
// searching for a reachable fair accepting cycle (SCC decomposition). A
// violation yields a lasso counter-example: a finite prefix plus a cycle of
// product states, printed in the paper's (p_i, q_i, σ_i ∪ a_i) trace
// notation.
#pragma once

#include <string>
#include <vector>

#include "automata/product.hpp"
#include "logic/ltl.hpp"

namespace dpoaf::modelcheck {

using automata::Kripke;
using logic::Ltl;
using logic::Vocabulary;

/// Lasso-shaped counter-example over Kripke state indices.
struct Lasso {
  std::vector<int> prefix;  // from an initial state up to the cycle entry
  std::vector<int> cycle;   // repeated forever; non-empty iff a violation
};

struct CheckResult {
  bool holds = false;
  Lasso counterexample;          // meaningful only when !holds
  std::size_t buchi_states = 0;  // |B_¬Φ|
  std::size_t product_states = 0;

  [[nodiscard]] explicit operator bool() const { return holds; }
};

/// Check that every fair infinite trace of `kripke` satisfies `spec`. A
/// trace is fair iff, for each justice condition p_i (propositional; see
/// logic::is_propositional), it visits a state whose label satisfies p_i
/// infinitely often: NuSMV's `FAIRNESS p_i`, i.e. the LTL premise
/// (∧ □◇p_i) → spec, decided by restricting emptiness to fair SCCs instead
/// of translating the premise.
CheckResult check(const Kripke& kripke, const Ltl& spec,
                  const std::vector<Ltl>& justice = {});

/// A named specification, e.g. {"phi_5", □(car_from_left ∨ … → ¬turn_right)}.
struct NamedSpec {
  std::string name;
  Ltl formula;
};

struct SpecOutcome {
  NamedSpec spec;
  CheckResult result;
};

/// Batch verification report: one outcome per specification. This is the
/// paper's automated-feedback artifact — "the number or percentage of
/// specifications being satisfied".
struct VerificationReport {
  std::vector<SpecOutcome> outcomes;

  [[nodiscard]] std::size_t satisfied() const;
  [[nodiscard]] std::size_t total() const { return outcomes.size(); }
  [[nodiscard]] double fraction() const;
  /// Names of the violated specifications.
  [[nodiscard]] std::vector<std::string> violated() const;
};

VerificationReport verify_all(const Kripke& kripke,
                              const std::vector<NamedSpec>& specs,
                              const std::vector<Ltl>& justice = {});

/// Rulebook pre-pass verdict for one spec under LTL, the semantics check()
/// decides (docs/VERIFICATION.md "Rulebook pre-pass").
enum class SpecClass {
  kNormal,         // satisfiable and falsifiable: a real constraint
  kUnsatisfiable,  // no infinite word satisfies it (contradiction)
  kTriviallyTrue,  // every infinite word satisfies it (tautology)
};

/// kTriviallyTrue iff B(¬φ) accepts nothing; its translation goes through
/// ltl_to_buchi_cached, so a later check() of φ reuses it. kUnsatisfiable
/// iff neither constant word ∅^ω nor (all propositions)^ω satisfies φ and
/// B(φ) accepts nothing. Rejects degenerate specs before they enter a
/// rulebook: DrivingDomain CHECKs the shipped 15, and the generator's
/// filter_satisfiable drops degenerate template instances.
[[nodiscard]] SpecClass classify_spec(const Ltl& formula);

/// Render a counter-example in the paper's trace notation, e.g.
///   (p0, q3, {green_traffic_light, stop}) -> (p4, q4, …) -> [cycle] …
std::string format_counterexample(const Lasso& lasso, const Kripke& kripke,
                                  const automata::TransitionSystem& model,
                                  const automata::FsaController& ctrl,
                                  const Vocabulary& vocab);

}  // namespace dpoaf::modelcheck
