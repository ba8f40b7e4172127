// LTL over finite traces (LTLf) — the semantics used for the paper's
// *empirical evaluation* channel (Eq. 2): simulator rollouts are finite
// sequences over 2^(P ∪ P_A), and each rollout is checked against each
// specification. Standard LTLf semantics: X is the strong next (false at
// the last position), G/F/U/R quantify over the remaining finite suffix.
#pragma once

#include <vector>

#include "logic/ltl.hpp"
#include "logic/vocabulary.hpp"

namespace dpoaf::logic {

/// A finite trace: one Symbol (truth assignment over P ∪ P_A) per step.
using Trace = std::vector<Symbol>;

/// Evaluate `f` on `trace` starting at position `pos`. Requires
/// pos < trace.size(). Memoizes internally; O(|f| · |trace|²) worst case.
bool evaluate_ltlf(const Ltl& f, const Trace& trace, std::size_t pos = 0);

/// Evaluate a propositional formula (see is_propositional) on one symbol.
bool holds_on(const Ltl& f, Symbol label);

/// Fraction of non-empty traces satisfying `f` — the paper's P_Φ. Empty
/// *input* → 0; empty traces within the input are excluded from the
/// denominator (they carry no step to evaluate), and a non-empty input
/// consisting solely of empty traces CHECKs — that is a simulator bug,
/// not a 0% satisfaction rate.
double satisfaction_rate(const Ltl& f, const std::vector<Trace>& traces);

}  // namespace dpoaf::logic
