#include "driving/generator/rulebook.hpp"

#include <string_view>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace dpoaf::driving::generator {

using logic::Ltl;
using namespace logic::ltl;

namespace {

int idx(const Vocabulary& v, std::string_view name) {
  const auto i = v.find(name);
  DPOAF_CHECK_MSG(i.has_value(),
                  "driving vocabulary missing " + std::string(name));
  return *i;
}

bool has(const ScenarioFeatures& f, std::string_view agent) {
  for (const std::string& a : f.agents)
    if (a == agent) return true;
  return false;
}

// The lamp formula permitting an action, or ltrue() when this scenario's
// head carries no lamp for it — the "empty permission slot" that makes a
// gate template degenerate to □(¬true → …), which the pre-pass removes.
Ltl permission(const ScenarioFeatures& f, const Vocabulary& v,
               std::string_view action) {
  if (action == "go_straight" && f.signal != SignalRegime::None)
    return prop(idx(v, "green_traffic_light"));
  if (action == "turn_left") {
    std::vector<Ltl> aspects;
    if (f.signal == SignalRegime::ProtectedLeft ||
        f.signal == SignalRegime::FullHead)
      aspects.push_back(prop(idx(v, "green_left_turn_light")));
    if (f.signal == SignalRegime::PermissiveLeft ||
        f.signal == SignalRegime::FullHead)
      aspects.push_back(prop(idx(v, "flashing_left_turn_light")));
    if (!aspects.empty()) return lor_all(aspects);
  }
  return ltrue();  // no lamp governs this manoeuvre here
}

// An arrow-aspect formula, or lfalse() when the head lacks that aspect —
// the degenerate slot of the aspect-mutex template.
Ltl aspect_or_absent(const ScenarioFeatures& f, const Vocabulary& v,
                     std::string_view lamp) {
  for (const std::string& p : signal_props(f.signal))
    if (p == lamp) return prop(idx(v, lamp));
  return lfalse();
}

}  // namespace

std::vector<NamedSpec> rule_templates(const ScenarioFeatures& f,
                                      const Vocabulary& v) {
  auto P = [&v](std::string_view name) { return prop(idx(v, name)); };
  const Ltl stop = P("stop");
  const Ltl go = P("go_straight");
  const Ltl left = P("turn_left");
  const Ltl right = P("turn_right");

  std::vector<Ltl> clear_lits;
  for (const std::string& a : f.agents) clear_lits.push_back(lnot(P(a)));
  const Ltl clear = land_all(clear_lits);

  std::vector<NamedSpec> specs;
  auto add = [&specs](std::string name, Ltl formula) {
    specs.push_back({std::move(name), std::move(formula)});
  };

  // Φ6 shape: some action (possibly stop) is always emitted.
  add("action_alive", always(lor(lor(stop, go), lor(left, right))));

  // Φ1 shape: any present pedestrian eventually forces a stop.
  for (const char* ped :
       {"pedestrian_at_left", "pedestrian_at_right", "pedestrian_in_front"})
    if (has(f, ped))
      add(std::string("stop_for_") + ped, always(implies(P(ped), eventually(stop))));

  // Φ9/Φ2/Φ5/Φ14 shapes: per-agent manoeuvre guards over the present mix.
  if (has(f, "car_from_left"))
    add("guard_car_from_left",
        always(implies(P("car_from_left"), lnot(lor(left, right)))));
  if (has(f, "car_from_right"))
    add("guard_car_from_right", always(implies(P("car_from_right"), lnot(left))));
  if (has(f, "opposite_car")) {
    // Φ2: oncoming traffic forbids an *unprotected* left turn; with no
    // protected aspect in the head, it forbids the left turn outright.
    const Ltl protected_left = aspect_or_absent(f, v, "green_left_turn_light");
    const Ltl antecedent = protected_left->op == logic::LtlOp::False
                               ? P("opposite_car")
                               : land(P("opposite_car"), lnot(protected_left));
    add("guard_opposite_car", always(implies(antecedent, lnot(left))));
  }
  if (has(f, "pedestrian_in_front"))
    add("guard_pedestrian_in_front",
        always(implies(P("pedestrian_in_front"), lnot(go))));
  if (has(f, "pedestrian_at_right"))
    add("guard_pedestrian_at_right",
        always(implies(P("pedestrian_at_right"), lnot(right))));
  if (has(f, "pedestrian_at_left"))
    add("guard_pedestrian_at_left",
        always(implies(P("pedestrian_at_left"), lnot(left))));

  // Φ3 shape, one gate per manoeuvre: never act without the lamp that
  // permits it. The permission slot is ltrue() for ungoverned manoeuvres
  // (every manoeuvre at an unsignalized junction, and right turns
  // everywhere), so those instantiations degenerate to □(¬true → ¬a) —
  // exactly what the satisfiability pre-pass exists to discard.
  add("gate_go_straight",
      always(implies(lnot(permission(f, v, "go_straight")), lnot(go))));
  add("gate_turn_left",
      always(implies(lnot(permission(f, v, "turn_left")), lnot(left))));
  add("gate_turn_right",
      always(implies(lnot(permission(f, v, "turn_right")), lnot(right))));

  // Fig. 15's one-aspect-at-a-time head invariant. With fewer than two
  // aspects in this head a slot is lfalse() and the mutex is vacuous —
  // discarded by the pre-pass rather than scored for free.
  if (f.signal != SignalRegime::None)
    add("aspect_mutex",
        always(lnot(land(aspect_or_absent(f, v, "green_left_turn_light"),
                         aspect_or_absent(f, v, "flashing_left_turn_light")))));

  // Φ10/Φ13 shape: a permitted, clear junction is eventually taken.
  const Ltl perm = permission(f, v, f.action);
  const Ltl window =
      perm->op == logic::LtlOp::True ? clear : land(perm, clear);
  add("window_liveness", always(implies(window, eventually(lnot(stop)))));

  if (f.signal != SignalRegime::None) {
    // Φ8 shape: while the ball is red the vehicle keeps coming to a stop.
    add("wait_liveness", always(implies(lnot(P("green_traffic_light")),
                                        eventually(stop))));
    // Φ7 shape: if any lamp ever lights, waiting was worthwhile.
    std::vector<Ltl> lamps;
    for (const std::string& lamp : signal_props(f.signal))
      lamps.push_back(P(lamp));
    add("worthwhile_wait",
        implies(eventually(lor_all(lamps)), eventually(lnot(stop))));
  }
  return specs;
}

std::vector<NamedSpec> filter_satisfiable(std::vector<NamedSpec> specs,
                                          RulebookStats* stats) {
  static obs::Counter& instantiated =
      obs::counter("generator.specs_instantiated");
  static obs::Counter& dropped_unsat =
      obs::counter("generator.specs_discarded_unsat");
  static obs::Counter& dropped_trivial =
      obs::counter("generator.specs_discarded_trivial");
  std::vector<NamedSpec> kept;
  kept.reserve(specs.size());
  for (NamedSpec& spec : specs) {
    instantiated.add();
    if (stats != nullptr) ++stats->instantiated;
    switch (modelcheck::classify_spec(spec.formula)) {
      case modelcheck::SpecClass::kUnsatisfiable:
        dropped_unsat.add();
        if (stats != nullptr) ++stats->discarded_unsat;
        break;
      case modelcheck::SpecClass::kTriviallyTrue:
        dropped_trivial.add();
        if (stats != nullptr) ++stats->discarded_trivial;
        break;
      case modelcheck::SpecClass::kNormal:
        kept.push_back(std::move(spec));
        break;
    }
  }
  return kept;
}

std::vector<NamedSpec> instantiate_rulebook(const ScenarioFeatures& f,
                                            const Vocabulary& v,
                                            RulebookStats* stats) {
  return filter_satisfiable(rule_templates(f, v), stats);
}

}  // namespace dpoaf::driving::generator
