// LTL → Büchi automaton translation via the GPVW tableau (Gerth, Peled,
// Vardi, Wolper, PSTV'95 — "Simple on-the-fly automatic verification of
// linear temporal logic"), the same construction at the core of SPIN and of
// NuSMV's BDD-free LTL engine. Produces a state-labeled generalized Büchi
// automaton, then degeneralizes it with the standard counter construction
// (Baier & Katoen, Principles of Model Checking, Thm. 4.56).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "logic/ltl.hpp"
#include "logic/vocabulary.hpp"
#include "util/cache.hpp"

namespace dpoaf::modelcheck {

using logic::Ltl;
using logic::Symbol;

/// A state of the (degeneralized) Büchi automaton. The literal constraint
/// (pos/neg masks over the vocabulary) must be satisfied by the Kripke
/// label read when *entering* the state.
struct BuchiState {
  Symbol pos = 0;  // propositions required true
  Symbol neg = 0;  // propositions required false
  bool accepting = false;
  std::vector<int> successors;

  [[nodiscard]] bool enabled(Symbol label) const {
    return (label & pos) == pos && (label & neg) == 0;
  }
};

struct BuchiAutomaton {
  std::vector<BuchiState> states;
  std::vector<int> initial;  // successors of the virtual init node

  [[nodiscard]] std::size_t state_count() const { return states.size(); }
  [[nodiscard]] std::size_t transition_count() const;
};

/// Translate an LTL formula (any operators; NNF is applied internally) into
/// a Büchi automaton accepting exactly the infinite words satisfying it.
BuchiAutomaton ltl_to_buchi(const Ltl& formula);

/// Diagnostic counters for the ablation/micro benches.
struct BuchiStats {
  std::size_t gba_states = 0;
  std::size_t acceptance_sets = 0;
  std::size_t ba_states = 0;
  std::size_t ba_transitions = 0;
};
BuchiAutomaton ltl_to_buchi(const Ltl& formula, BuchiStats& stats);

/// Shared immutable handle to a translated automaton. Checking only reads
/// the automaton, so one translation can serve every verify_all call.
using BuchiPtr = std::shared_ptr<const BuchiAutomaton>;

/// Memoized translation: one GPVW tableau run per distinct formula per
/// process, keyed by hash-consed formula identity (LtlNode::id — pointer
/// equality ⇔ structural equality, and interned nodes are never freed, so
/// ids are stable). The checker routes every ¬Φ through this, so there is
/// one entry per spec (fairness is a justice set in the SCC search, not
/// part of the formula); repeated verification of the same rulebook skips
/// both the tableau and its interning traffic on the mutex-guarded LTL
/// pool. Falls back to a fresh translation when the cache is disabled.
BuchiPtr ltl_to_buchi_cached(const Ltl& formula);

/// Toggle the process-wide translation cache (default on). Disabling does
/// not clear it; re-enabling resumes hitting existing entries. Only the
/// cached-vs-uncached benches and tests should turn this off.
void set_buchi_cache_enabled(bool enabled);
[[nodiscard]] bool buchi_cache_enabled();

/// Counters of the process-wide translation cache.
[[nodiscard]] util::CacheStats buchi_cache_stats();
void clear_buchi_cache();  // drops entries and resets the counters

}  // namespace dpoaf::modelcheck
