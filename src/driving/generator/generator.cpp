#include "driving/generator/generator.hpp"

#include <cstdio>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace dpoaf::driving::generator {

namespace {

std::string action_phrase(const std::string& action_prop) {
  std::string out = action_prop;
  for (char& c : out)
    if (c == '_') c = ' ';
  return out;
}

// Negated-condition surface forms the GLM2FSA aligner lexicon already
// resolves (they are the paper catalog's own phrases).
std::string obstacle_cond(const std::string& agent) {
  if (agent == "opposite_car") return "no oncoming traffic";
  if (agent == "car_from_left") return "no car from the left";
  if (agent == "car_from_right") return "no car from the right";
  if (agent == "pedestrian_at_left") return "no pedestrian on the left";
  if (agent == "pedestrian_at_right") return "no pedestrian on the right";
  if (agent == "pedestrian_in_front") return "no pedestrian in front";
  DPOAF_CHECK_MSG(false, "unknown agent proposition: " + agent);
  return {};
}

std::string setting_phrase(Topology t) {
  switch (t) {
    case Topology::Signalized:
      return "the signalized intersection";
    case Topology::StopControlled:
      return "the two way stop";
    case Topology::Roundabout:
      return "the roundabout";
    case Topology::MedianCrossing:
      return "the wide median";
    case Topology::Uncontrolled:
      return "the open intersection";
  }
  DPOAF_CHECK_MSG(false, "unknown topology");
  return {};
}

std::string observe_phrase(const ScenarioFeatures& f, bool left_lamp) {
  if (f.signal != SignalRegime::None)
    return left_lamp ? "the left turn light" : "the traffic light";
  switch (f.topology) {
    case Topology::StopControlled:
      return "the stop sign";
    case Topology::Roundabout:
      return "the roundabout entry";
    case Topology::MedianCrossing:
      return "the median opening";
    default:
      return "the intersection";
  }
}

TaskBlueprint make_blueprint(const ScenarioFeatures& f, const std::string& key,
                             int index, bool holdout) {
  TaskBlueprint t;
  t.id = key;
  t.scenario = key;
  t.training = true;
  t.holdout = holdout;
  t.prompt = action_phrase(f.action) + " at " + setting_phrase(f.topology) +
             " " + std::to_string(index);

  const bool protected_left = f.signal == SignalRegime::ProtectedLeft ||
                              f.signal == SignalRegime::FullHead;
  bool left_lamp = false;
  if (f.action == "go_straight" && f.signal != SignalRegime::None) {
    t.light_cond = "the green traffic light is on";
    t.light_wait = "Wait for the traffic light to turn green";
  } else if (f.action == "turn_left" && protected_left) {
    t.light_cond = "the left turn light is green";
    t.light_wait = "Wait for the left turn light to turn green";
    left_lamp = true;
  } else if (f.action == "turn_left" &&
             f.signal == SignalRegime::PermissiveLeft) {
    t.light_cond = "the left turn light is flashing";
    t.light_wait = "Wait until the left turn light is flashing";
    left_lamp = true;
  }
  t.observe = observe_phrase(f, left_lamp);
  for (const std::string& agent : f.agents)
    t.obstacle_conds.push_back(obstacle_cond(agent));
  t.action = action_phrase(f.action);
  t.wrong_action = action_phrase(f.wrong_action);
  return t;
}

std::string scenario_key(const ScenarioFeatures& f, int index) {
  char prefix[16];
  std::snprintf(prefix, sizeof prefix, "gen%03d", index);
  // Append-only: `"_" + name` trips GCC 12's -Wrestrict false positive
  // at -O3 (GCC PR105651).
  std::string key = prefix;
  key += '_';
  key += topology_name(f.topology);
  if (f.signal != SignalRegime::None) {
    key += '_';
    key += signal_name(f.signal);
  }
  key += '_';
  key += noise_name(f.noise);
  return key;
}

}  // namespace

std::vector<GeneratedScenario> generate_scenarios(const GeneratorConfig& config,
                                                  const Vocabulary& vocab,
                                                  GeneratorStats* stats) {
  DPOAF_CHECK_MSG(config.count >= 0, "generator count must be >= 0");
  DPOAF_CHECK_MSG(config.holdout >= 0 && config.holdout <= config.count,
                  "generator holdout must be within [0, count]");
  static obs::Counter& generated_counter = obs::counter("generator.scenarios");

  if (stats != nullptr) {
    stats->requested = config.count;
    stats->holdout = config.holdout;
  }

  // Serial fold: one child generator per scenario, split in index order —
  // the whole registry is a pure function of (seed, count, holdout).
  Rng root(config.seed);
  std::vector<GeneratedScenario> out;
  out.reserve(static_cast<std::size_t>(config.count));
  RulebookStats rb;
  for (int i = 0; i < config.count; ++i) {
    Rng rng = root.split();
    GeneratedScenario gs;
    gs.features = draw_features(rng);
    gs.key = scenario_key(gs.features, i);
    gs.model = build_model(gs.features, vocab, config.conservative);
    gs.fairness = derive_fairness(gs.features, vocab);
    gs.specs = instantiate_rulebook(gs.features, vocab, &rb);
    gs.holdout = i >= config.count - config.holdout;
    gs.task = make_blueprint(gs.features, gs.key, i, gs.holdout);
    DPOAF_CHECK_MSG(!gs.specs.empty(),
                    "generated scenario " + gs.key + " has an empty rulebook");
    generated_counter.add();
    out.push_back(std::move(gs));
  }
  if (stats != nullptr) {
    stats->generated = static_cast<int>(out.size());
    stats->specs_instantiated += rb.instantiated;
    stats->specs_discarded_unsat += rb.discarded_unsat;
    stats->specs_discarded_trivial += rb.discarded_trivial;
  }
  return out;
}

}  // namespace dpoaf::driving::generator
