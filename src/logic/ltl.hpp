// Linear temporal logic AST (Pnueli 1977), used for the specifications Φ
// the paper verifies controllers against. Nodes are hash-consed: building
// the same formula twice yields the same pointer, so structural equality is
// pointer equality — this is what makes the GPVW tableau sets cheap.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "logic/vocabulary.hpp"

namespace dpoaf::logic {

enum class LtlOp {
  True,
  False,
  Prop,
  Not,
  And,
  Or,
  Implies,
  Next,        // ○ φ
  Eventually,  // ◇ φ
  Always,      // □ φ
  Until,       // φ U ψ
  Release,     // φ R ψ
};

struct LtlNode;
/// Interned, immutable formula handle. Pointer equality ⇔ structural
/// equality for formulas built through the ltl::* constructors below.
using Ltl = std::shared_ptr<const LtlNode>;

struct LtlNode {
  LtlOp op;
  int prop = -1;  // valid when op == Prop; index into a Vocabulary
  Ltl lhs;        // unary operand or left operand
  Ltl rhs;        // right operand for binary operators
  std::uint64_t id = 0;  // unique interning id (stable within a process)
};

namespace ltl {

Ltl ltrue();
Ltl lfalse();
Ltl prop(int index);
Ltl lnot(const Ltl& a);
Ltl land(const Ltl& a, const Ltl& b);
Ltl lor(const Ltl& a, const Ltl& b);
Ltl implies(const Ltl& a, const Ltl& b);
Ltl next(const Ltl& a);
Ltl eventually(const Ltl& a);
Ltl always(const Ltl& a);
Ltl until(const Ltl& a, const Ltl& b);
Ltl release(const Ltl& a, const Ltl& b);

/// n-ary conjunction/disjunction (empty → true/false respectively).
Ltl land_all(const std::vector<Ltl>& xs);
Ltl lor_all(const std::vector<Ltl>& xs);

}  // namespace ltl

/// Negation normal form: negations pushed to literals; Implies eliminated;
/// Eventually/Always rewritten to Until/Release. The result only contains
/// True, False, Prop, Not(Prop), And, Or, Next, Until, Release — the input
/// language of the LTL→Büchi tableau.
Ltl to_nnf(const Ltl& f);

/// True iff `f` has no temporal operator: a condition on one symbol.
bool is_propositional(const Ltl& f);

/// Number of nodes in the DAG-unfolded syntax tree (diagnostic metric).
std::size_t formula_size(const Ltl& f);

/// Human-readable rendering using names from `vocab`, e.g.
/// "G (pedestrian_in_front -> F stop)".
std::string to_string(const Ltl& f, const Vocabulary& vocab);

}  // namespace dpoaf::logic
