#include "driving/scenarios.hpp"

#include <bit>
#include <functional>

#include "logic/parser.hpp"
#include "util/check.hpp"

namespace dpoaf::driving {

using logic::Symbol;

namespace {

int idx(const Vocabulary& v, std::string_view name) {
  const auto i = v.find(name);
  DPOAF_CHECK_MSG(i.has_value(), "driving vocabulary missing " +
                                     std::string(name));
  return *i;
}

struct ScenarioSpec {
  std::vector<int> props;                       // varying propositions
  Symbol forced = 0;                            // always-true propositions
  std::function<bool(Symbol)> valid;            // state filter
};

ScenarioSpec scenario_spec(ScenarioId id, const Vocabulary& v) {
  ScenarioSpec s;
  s.valid = [](Symbol) { return true; };
  switch (id) {
    case ScenarioId::TrafficLight:
      s.props = {idx(v, "green_traffic_light"), idx(v, "car_from_left"),
                 idx(v, "pedestrian_at_right"),
                 idx(v, "pedestrian_in_front")};
      break;
    case ScenarioId::WideMedian:
      s.props = {idx(v, "car_from_left"), idx(v, "car_from_right"),
                 idx(v, "opposite_car")};
      break;
    case ScenarioId::LeftTurnSignal: {
      const Symbol green = Vocabulary::bit(idx(v, "green_left_turn_light"));
      const Symbol flash =
          Vocabulary::bit(idx(v, "flashing_left_turn_light"));
      s.props = {idx(v, "green_traffic_light"),
                 idx(v, "green_left_turn_light"),
                 idx(v, "flashing_left_turn_light"), idx(v, "opposite_car")};
      // The left-turn head shows at most one aspect at a time.
      s.valid = [green, flash](Symbol sym) {
        return (sym & (green | flash)) != (green | flash);
      };
      break;
    }
    case ScenarioId::TwoWayStop:
      s.props = {idx(v, "car_from_left"), idx(v, "car_from_right"),
                 idx(v, "pedestrian_in_front")};
      s.forced = Vocabulary::bit(idx(v, "stop_sign"));
      break;
    case ScenarioId::Roundabout:
      s.props = {idx(v, "car_from_left"), idx(v, "pedestrian_at_left"),
                 idx(v, "pedestrian_at_right")};
      break;
  }
  return s;
}

}  // namespace

std::vector<ScenarioId> all_scenarios() {
  return {ScenarioId::TrafficLight, ScenarioId::WideMedian,
          ScenarioId::LeftTurnSignal, ScenarioId::TwoWayStop,
          ScenarioId::Roundabout};
}

std::string scenario_name(ScenarioId id) {
  switch (id) {
    case ScenarioId::TrafficLight:
      return "traffic_light";
    case ScenarioId::WideMedian:
      return "wide_median";
    case ScenarioId::LeftTurnSignal:
      return "left_turn_signal";
    case ScenarioId::TwoWayStop:
      return "two_way_stop";
    case ScenarioId::Roundabout:
      return "roundabout";
  }
  DPOAF_CHECK_MSG(false, "unknown scenario id");
  return {};
}

TransitionSystem make_scenario_model(ScenarioId id, const Vocabulary& vocab,
                                     bool conservative) {
  const ScenarioSpec spec = scenario_spec(id, vocab);
  // One perception step changes at most two propositions; both endpoint
  // labelings must satisfy the scenario's validity constraint.
  auto allowed = [&spec](Symbol from, Symbol to) {
    if (!spec.valid(from) || !spec.valid(to)) return false;
    return std::popcount(from ^ to) <= 2;
  };
  TransitionSystem base =
      TransitionSystem::from_predicate(spec.props, allowed, conservative);

  if (spec.forced == 0) return base;
  // Re-apply forced (always-true) propositions, e.g. the stop sign itself.
  TransitionSystem ts;
  for (std::size_t p = 0; p < base.state_count(); ++p)
    ts.add_state(base.label(static_cast<int>(p)) | spec.forced,
                 scenario_name(id) + "_p" + std::to_string(p));
  for (std::size_t p = 0; p < base.state_count(); ++p)
    for (int q : base.successors(static_cast<int>(p)))
      ts.add_transition(static_cast<int>(p), q);
  return ts;
}

TransitionSystem make_universal_model(const Vocabulary& vocab) {
  TransitionSystem universal;
  for (ScenarioId id : all_scenarios())
    universal.integrate(make_scenario_model(id, vocab));
  return universal;
}

std::vector<Ltl> fairness_assumptions(ScenarioId id, const Vocabulary& vocab) {
  auto parse = [&vocab](const char* text) {
    return logic::parse_ltl(text, vocab);
  };
  switch (id) {
    case ScenarioId::TrafficLight:
      // A green window with clear traffic recurs, and the signal keeps
      // cycling (it is not stuck on green forever).
      return {parse("green_traffic_light & !car_from_left & "
                    "!pedestrian_at_right & !pedestrian_in_front"),
              parse("!green_traffic_light")};
    case ScenarioId::WideMedian:
      return {parse("!car_from_left & !car_from_right & !opposite_car")};
    case ScenarioId::LeftTurnSignal:
      // Both a protected (green arrow) and a permissive (flashing) window
      // recur with oncoming traffic clear, and the arrow keeps cycling.
      return {parse("green_left_turn_light & !opposite_car"),
              parse("flashing_left_turn_light & !opposite_car"),
              parse("!green_left_turn_light")};
    case ScenarioId::TwoWayStop:
      return {parse("!car_from_left & !car_from_right & !pedestrian_in_front")};
    case ScenarioId::Roundabout:
      return {parse("!car_from_left & !pedestrian_at_left & "
                    "!pedestrian_at_right")};
  }
  return {};
}

}  // namespace dpoaf::driving
