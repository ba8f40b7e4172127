#include "driving/generator/grammar.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"

namespace dpoaf::driving::generator {

using logic::Symbol;
using namespace logic::ltl;

namespace {

int idx(const Vocabulary& v, std::string_view name) {
  const auto i = v.find(name);
  DPOAF_CHECK_MSG(i.has_value(),
                  "driving vocabulary missing " + std::string(name));
  return *i;
}

// The six agent propositions, in vocabulary declaration order — the agent
// mix is always a sorted subset of this list.
const std::vector<std::string>& agent_pool() {
  static const std::vector<std::string> kAgents = {
      "opposite_car",       "car_from_left",      "car_from_right",
      "pedestrian_at_left", "pedestrian_at_right", "pedestrian_in_front"};
  return kAgents;
}

bool has_left_aspect(SignalRegime s) {
  return s == SignalRegime::ProtectedLeft || s == SignalRegime::PermissiveLeft ||
         s == SignalRegime::FullHead;
}

bool contains(const std::vector<std::string>& xs, std::string_view x) {
  return std::find(xs.begin(), xs.end(), x) != xs.end();
}

// Agents whose presence forbids the manoeuvre outright (the safety-guard
// spec templates quantify over exactly these pairs).
std::vector<std::string> forbidders(std::string_view action) {
  if (action == "turn_right") return {"car_from_left", "pedestrian_at_right"};
  if (action == "turn_left")
    return {"opposite_car", "car_from_left", "car_from_right",
            "pedestrian_at_left"};
  if (action == "go_straight") return {"pedestrian_in_front"};
  return {};
}

// A manoeuvre is constrained in this scenario when some agent in the mix
// forbids it, or a signal lamp gates it.
bool constrained(const ScenarioFeatures& f, const std::string& action) {
  for (const std::string& a : forbidders(action))
    if (contains(f.agents, a)) return true;
  if (action == "go_straight" && f.signal != SignalRegime::None) return true;
  if (action == "turn_left" && has_left_aspect(f.signal)) return true;
  return false;
}

std::vector<std::string> candidate_actions(const ScenarioFeatures& f) {
  switch (f.topology) {
    case Topology::Signalized:
      return f.signal == SignalRegime::Standard
                 ? std::vector<std::string>{"go_straight", "turn_right"}
                 : std::vector<std::string>{"turn_left"};
    case Topology::StopControlled:
      return {"turn_right", "go_straight"};
    case Topology::Roundabout:
      return {"turn_right"};
    case Topology::MedianCrossing:
      return {"turn_left"};
    case Topology::Uncontrolled:
      return {"go_straight", "turn_left", "turn_right"};
  }
  DPOAF_CHECK_MSG(false, "unknown topology");
  return {};
}

}  // namespace

std::string topology_name(Topology t) {
  switch (t) {
    case Topology::Signalized:
      return "signalized";
    case Topology::StopControlled:
      return "stop_controlled";
    case Topology::Roundabout:
      return "roundabout";
    case Topology::MedianCrossing:
      return "median_crossing";
    case Topology::Uncontrolled:
      return "uncontrolled";
  }
  DPOAF_CHECK_MSG(false, "unknown topology");
  return {};
}

std::string signal_name(SignalRegime s) {
  switch (s) {
    case SignalRegime::None:
      return "none";
    case SignalRegime::Standard:
      return "standard";
    case SignalRegime::ProtectedLeft:
      return "protected_left";
    case SignalRegime::PermissiveLeft:
      return "permissive_left";
    case SignalRegime::FullHead:
      return "full_head";
  }
  DPOAF_CHECK_MSG(false, "unknown signal regime");
  return {};
}

std::string noise_name(NoiseRegime n) {
  return n == NoiseRegime::Calm ? "calm" : "nominal";
}

std::vector<std::string> signal_props(SignalRegime s) {
  switch (s) {
    case SignalRegime::None:
      return {};
    case SignalRegime::Standard:
      return {"green_traffic_light"};
    case SignalRegime::ProtectedLeft:
      return {"green_traffic_light", "green_left_turn_light"};
    case SignalRegime::PermissiveLeft:
      return {"green_traffic_light", "flashing_left_turn_light"};
    case SignalRegime::FullHead:
      return {"green_traffic_light", "green_left_turn_light",
              "flashing_left_turn_light"};
  }
  DPOAF_CHECK_MSG(false, "unknown signal regime");
  return {};
}

ScenarioFeatures draw_features(Rng& rng) {
  ScenarioFeatures f;
  f.topology = static_cast<Topology>(rng.below(5));
  f.signal = f.topology == Topology::Signalized
                 ? static_cast<SignalRegime>(1 + rng.below(4))
                 : SignalRegime::None;
  f.noise = static_cast<NoiseRegime>(rng.below(2));

  // Agent mix: 2–3 of the six agent propositions, drawn by shuffling the
  // pool and keeping a prefix, then restored to vocabulary order so the
  // mix is a canonical set (its identity never depends on draw order).
  const auto& pool = agent_pool();
  std::vector<std::size_t> order(pool.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(order);
  const std::size_t mix = 2 + rng.below(2);
  std::vector<std::size_t> picked(order.begin(),
                                  order.begin() + static_cast<long>(mix));
  // A median crossing is defined by the oncoming stream: force it in.
  if (f.topology == Topology::MedianCrossing &&
      std::find(picked.begin(), picked.end(), std::size_t{0}) == picked.end())
    picked[0] = 0;  // opposite_car
  std::sort(picked.begin(), picked.end());
  for (std::size_t i : picked) f.agents.push_back(pool[i]);

  // Manoeuvre: one of the topology's plausible actions that the mix (or
  // the signal) actually constrains. If the draw produced an entirely
  // unconstrained junction, adopt the first candidate's first forbidder —
  // a scenario whose rulebook cannot distinguish compliant from reckless
  // would be dead weight in training.
  std::vector<std::string> candidates;
  for (const std::string& a : candidate_actions(f))
    if (constrained(f, a)) candidates.push_back(a);
  if (candidates.empty()) {
    const std::string fallback = candidate_actions(f).front();
    const std::string forced = forbidders(fallback).front();
    f.agents.push_back(forced);
    std::sort(f.agents.begin(), f.agents.end(),
              [&pool](const std::string& a, const std::string& b) {
                return std::find(pool.begin(), pool.end(), a) <
                       std::find(pool.begin(), pool.end(), b);
              });
    candidates.push_back(fallback);
  }
  f.action = candidates[rng.below(candidates.size())];
  for (const char* a : {"go_straight", "turn_right", "turn_left"})
    if (f.action != a) {
      f.wrong_action = a;
      break;
    }
  return f;
}

TransitionSystem build_model(const ScenarioFeatures& f, const Vocabulary& v,
                             bool conservative) {
  std::vector<int> props;
  for (const std::string& p : signal_props(f.signal)) props.push_back(idx(v, p));
  for (const std::string& a : f.agents) props.push_back(idx(v, a));
  DPOAF_CHECK_MSG(props.size() <= 7,
                  "generated scenario proposition subset too large");

  // The left-turn head shows at most one arrow aspect at a time (the same
  // validity constraint the paper's Fig. 15 model carries).
  Symbol aspects = 0;
  if (f.signal == SignalRegime::FullHead)
    aspects = Vocabulary::bit(idx(v, "green_left_turn_light")) |
              Vocabulary::bit(idx(v, "flashing_left_turn_light"));
  const int max_flips = f.noise == NoiseRegime::Calm ? 1 : 2;
  auto allowed = [aspects, max_flips](Symbol from, Symbol to) {
    if (aspects != 0 &&
        ((from & aspects) == aspects || (to & aspects) == aspects))
      return false;
    return std::popcount(from ^ to) <= max_flips;
  };
  TransitionSystem base =
      TransitionSystem::from_predicate(props, allowed, conservative);

  if (f.topology != Topology::StopControlled) return base;
  // Re-apply the forced always-true stop sign, as make_scenario_model does
  // for the paper's two-way stop.
  const Symbol forced = Vocabulary::bit(idx(v, "stop_sign"));
  TransitionSystem ts;
  for (std::size_t p = 0; p < base.state_count(); ++p)
    ts.add_state(base.label(static_cast<int>(p)) | forced,
                 "gen_stop_p" + std::to_string(p));
  for (std::size_t p = 0; p < base.state_count(); ++p)
    for (int q : base.successors(static_cast<int>(p)))
      ts.add_transition(static_cast<int>(p), q);
  return ts;
}

std::vector<Ltl> derive_fairness(const ScenarioFeatures& f,
                                 const Vocabulary& v) {
  std::vector<Ltl> clear_lits;
  for (const std::string& a : f.agents)
    clear_lits.push_back(lnot(prop(idx(v, a))));
  const Ltl clear = land_all(clear_lits);

  std::vector<Ltl> out;
  const std::vector<std::string> lamps = signal_props(f.signal);
  if (lamps.empty()) {
    // No signal: the junction simply clears infinitely often.
    out.push_back(clear);
    return out;
  }
  // Every lamp opens a clear window infinitely often, and no lamp is
  // stuck on forever — the generalization of the paper's per-scenario
  // FAIRNESS constraints (green window recurs, the head keeps cycling).
  for (const std::string& lamp : lamps)
    out.push_back(land(prop(idx(v, lamp)), clear));
  for (const std::string& lamp : lamps)
    out.push_back(lnot(prop(idx(v, lamp))));
  return out;
}

double perception_noise(NoiseRegime n) {
  return n == NoiseRegime::Calm ? 0.01 : 0.05;
}

}  // namespace dpoaf::driving::generator
