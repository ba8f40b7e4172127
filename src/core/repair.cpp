#include "core/repair.hpp"

#include <algorithm>
#include <optional>

#include "automata/product.hpp"
#include "logic/ltlf.hpp"
#include "util/check.hpp"

namespace dpoaf::core {

namespace {

using automata::FsaController;
using automata::Guard;
using automata::Kripke;
using logic::Ltl;
using logic::LtlOp;
using logic::Symbol;
using logic::Vocabulary;

// □ψ with propositional ψ (no temporal operators inside)?
std::optional<Ltl> safety_body(const Ltl& spec) {
  if (spec->op == LtlOp::Always && logic::is_propositional(spec->lhs))
    return spec->lhs;
  return std::nullopt;
}

// One repair step: find a lasso state whose label falsifies `body`,
// locate the controller transition that produced it, and strengthen that
// transition's guard with an environment literal whose flip restores ψ.
// Returns true if a patch was applied.
bool apply_patch(const driving::DrivingDomain& domain,
                 const driving::Scenario& scenario, FsaController& controller,
                 const Ltl& body,
                 const modelcheck::CheckResult& result) {
  const auto& model = scenario.model;
  const Kripke product =
      automata::make_product(model, controller, domain.product_options());

  auto try_state = [&](int kripke_state) -> bool {
    const Symbol label = product.labels[static_cast<std::size_t>(kripke_state)];
    if (logic::holds_on(body, label)) return false;
    const auto origin = product.origin[static_cast<std::size_t>(kripke_state)];
    if (origin.action == 0) return false;  // waiting step: nothing to guard

    // Find the explicit transition that fired: from ctrl_state, guard
    // matching the model label, emitting this action.
    const Symbol sigma = model.label(origin.model_state);
    // Candidate env literal: flipping it in the label restores ψ.
    for (int bit : domain.vocab().prop_indices()) {
      const Symbol mask = Vocabulary::bit(bit);
      if (!logic::holds_on(body, label ^ mask)) continue;
      const bool currently_true = (label & mask) != 0;

      // Strengthen the matching transition(s).
      bool patched = false;
      for (std::size_t i = 0; i < controller.transitions().size(); ++i) {
        const auto& t = controller.transitions()[i];
        if (t.from != origin.ctrl_state || t.action != origin.action ||
            !t.guard.matches(sigma))
          continue;
        Guard g = t.guard;
        if (currently_true)
          g.must_false |= mask;  // require the proposition absent
        else
          g.must_true |= mask;  // require it present
        if ((g.must_true & g.must_false) != 0) continue;  // contradiction
        if (g.must_true == t.guard.must_true &&
            g.must_false == t.guard.must_false)
          continue;  // no change
        // Rebuild the controller with the strengthened guard.
        FsaController repaired(controller.default_action());
        for (std::size_t q = 0; q < controller.state_count(); ++q)
          repaired.add_state(controller.name(static_cast<int>(q)));
        repaired.set_initial(controller.initial());
        for (std::size_t j = 0; j < controller.transitions().size(); ++j) {
          const auto& tj = controller.transitions()[j];
          repaired.add_transition(tj.from, j == i ? g : tj.guard, tj.action,
                                  tj.to);
        }
        controller = std::move(repaired);
        patched = true;
        break;
      }
      if (patched) return true;
    }
    return false;
  };

  for (int s : result.counterexample.cycle)
    if (try_state(s)) return true;
  for (int s : result.counterexample.prefix)
    if (try_state(s)) return true;
  return false;
}

}  // namespace

RepairResult repair_controller(const driving::DrivingDomain& domain,
                               std::string_view scenario_key,
                               automata::FsaController controller,
                               const RepairOptions& options) {
  RepairResult result;
  const driving::Scenario& scenario = domain.scenario(scenario_key);
  auto verify = [&](const FsaController& c) {
    const Kripke product =
        automata::make_product(scenario.model, c, domain.product_options());
    return modelcheck::verify_all(product, scenario.specs, scenario.fairness);
  };

  auto report = verify(controller);
  result.score_before = static_cast<int>(report.satisfied());

  // One patch at a time, with rollback: a guard strengthening that fixes
  // one safety specification can starve a liveness one (the controller
  // waits for a stronger condition). Patches that do not improve the total
  // count are reverted and their spec blacklisted for the rest of the run.
  std::vector<std::string> blacklist;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    bool patched = false;
    for (const auto& outcome : report.outcomes) {
      if (outcome.result.holds) continue;
      if (std::find(blacklist.begin(), blacklist.end(), outcome.spec.name) !=
          blacklist.end())
        continue;
      const auto body = safety_body(outcome.spec.formula);
      if (!body) continue;  // liveness: not repairable by guard injection
      const FsaController snapshot = controller;
      if (!apply_patch(domain, scenario, controller, *body,
                       outcome.result))
        continue;
      const auto new_report = verify(controller);
      if (new_report.satisfied() <= report.satisfied()) {
        controller = snapshot;  // net loss or no gain: revert
        blacklist.push_back(outcome.spec.name);
        continue;
      }
      result.patched_specs.push_back(outcome.spec.name);
      report = new_report;
      patched = true;
      break;
    }
    if (!patched) break;
    ++result.iterations;
  }

  result.score_after = static_cast<int>(report.satisfied());
  result.controller = std::move(controller);
  return result;
}

}  // namespace dpoaf::core
