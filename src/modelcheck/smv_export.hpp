// NuSMV model export (paper Appendix D): renders a controller⊗model
// product as `MODULE main` with one `state : 0..n-1` VAR, one DEFINE per
// proposition (the states whose label holds it), the product's transition
// relation, one FAIRNESS constraint per justice condition, and one LTLSPEC
// per rulebook specification. The emitted file is accepted by
// NuSMV 2.6 (`read_model -i file.smv; go; check_ltlspec`), so results from
// this library's built-in checker can be cross-validated against NuSMV
// itself when it is available.
#pragma once

#include <string>
#include <vector>

#include "automata/product.hpp"
#include "modelcheck/checker.hpp"

namespace dpoaf::modelcheck {

/// Render the product Kripke structure plus specifications as SMV text.
/// `justice` holds the propositional conditions `check` takes.
std::string to_smv(const automata::Kripke& kripke,
                   const logic::Vocabulary& vocab,
                   const std::vector<NamedSpec>& specs,
                   const std::vector<logic::Ltl>& justice = {});

}  // namespace dpoaf::modelcheck
