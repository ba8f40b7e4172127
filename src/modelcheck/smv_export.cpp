#include "modelcheck/smv_export.hpp"

#include <sstream>

#include "util/check.hpp"
#include "util/strings.hpp"

namespace dpoaf::modelcheck {

namespace {

using logic::Ltl;
using logic::LtlOp;
using logic::Vocabulary;

// NuSMV LTL syntax: G F X U V (NuSMV spells Release as V), &, |, !, ->.
void print_smv_formula(const Ltl& f, const Vocabulary& vocab,
                       std::ostringstream& os) {
  switch (f->op) {
    case LtlOp::True:
      os << "TRUE";
      return;
    case LtlOp::False:
      os << "FALSE";
      return;
    case LtlOp::Prop:
      os << vocab.name(f->prop);
      return;
    case LtlOp::Not:
      os << "!(";
      print_smv_formula(f->lhs, vocab, os);
      os << ")";
      return;
    case LtlOp::And:
    case LtlOp::Or:
    case LtlOp::Implies:
    case LtlOp::Until:
    case LtlOp::Release: {
      const char* op = f->op == LtlOp::And       ? " & "
                       : f->op == LtlOp::Or      ? " | "
                       : f->op == LtlOp::Implies ? " -> "
                       : f->op == LtlOp::Until   ? " U "
                                                 : " V ";
      os << "(";
      print_smv_formula(f->lhs, vocab, os);
      os << op;
      print_smv_formula(f->rhs, vocab, os);
      os << ")";
      return;
    }
    case LtlOp::Next:
    case LtlOp::Eventually:
    case LtlOp::Always: {
      os << (f->op == LtlOp::Next         ? "X "
             : f->op == LtlOp::Eventually ? "F "
                                          : "G ");
      os << "(";
      print_smv_formula(f->lhs, vocab, os);
      os << ")";
      return;
    }
  }
}

std::string smv_formula(const Ltl& f, const Vocabulary& vocab) {
  std::ostringstream os;
  print_smv_formula(f, vocab, os);
  return os.str();
}

}  // namespace

std::string to_smv(const automata::Kripke& kripke,
                   const logic::Vocabulary& vocab,
                   const std::vector<NamedSpec>& specs,
                   const std::vector<logic::Ltl>& justice) {
  DPOAF_CHECK(kripke.state_count() > 0);
  std::ostringstream os;
  const std::size_t n = kripke.state_count();

  os << "-- generated by dpoaf (controller ⊗ model product, " << n
     << " states)\n";
  os << "MODULE main\n";
  os << "VAR\n  state : 0.." << n - 1 << ";\n";

  os << "DEFINE\n";
  for (std::size_t bit = 0; bit < vocab.size(); ++bit) {
    const auto idx = static_cast<int>(bit);
    os << "  " << vocab.name(idx) << " := state in {";
    bool first = true;
    bool any = false;
    for (std::size_t s = 0; s < n; ++s) {
      if (!Vocabulary::has(kripke.labels[s], idx)) continue;
      if (!first) os << ", ";
      os << s;
      first = false;
      any = true;
    }
    if (!any) os << "-1";  // empty set: no state satisfies it
    os << "};\n";
  }

  os << "INIT\n  state in {";
  for (std::size_t i = 0; i < kripke.initial.size(); ++i) {
    if (i > 0) os << ", ";
    os << kripke.initial[i];
  }
  os << "};\n";

  os << "TRANS\n  case\n";
  for (std::size_t s = 0; s < n; ++s) {
    os << "    state = " << s << " : next(state) in {";
    const auto& succ = kripke.successors[s];
    for (std::size_t i = 0; i < succ.size(); ++i) {
      if (i > 0) os << ", ";
      os << succ[i];
    }
    if (succ.empty()) os << s;  // stutter (defensive; products are total)
    os << "};\n";
  }
  os << "    TRUE : next(state) = state;\n  esac;\n";

  // NuSMV FAIRNESS p restricts paths to those where p holds infinitely
  // often, the same justice semantics `check` implements.
  for (const logic::Ltl& p : justice)
    os << "FAIRNESS " << smv_formula(p, vocab) << ";\n";

  for (const NamedSpec& spec : specs) {
    os << "LTLSPEC NAME " << spec.name << " := "
       << smv_formula(spec.formula, vocab) << ";\n";
  }
  return os.str();
}

}  // namespace dpoaf::modelcheck
