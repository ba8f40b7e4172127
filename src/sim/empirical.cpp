#include "sim/empirical.hpp"

#include "logic/ltlf.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace dpoaf::sim {

double EmpiricalReport::mean_probability() const {
  if (per_spec.empty()) return 0.0;
  double acc = 0.0;
  for (const auto& s : per_spec) acc += s.probability;
  return acc / static_cast<double>(per_spec.size());
}

double EmpiricalReport::probability_of(const std::string& spec_name) const {
  for (const auto& s : per_spec)
    if (s.spec_name == spec_name) return s.probability;
  DPOAF_CHECK_MSG(false, "unknown spec in empirical report: " + spec_name);
  return 0.0;
}

EmpiricalReport empirical_evaluation(const Simulator& simulator,
                                     const FsaController& controller,
                                     const std::vector<NamedSpec>& specs,
                                     int rollouts, Rng& rng) {
  static obs::Counter& evals_c = obs::counter("sim.empirical.evaluations");
  evals_c.add();
  const std::vector<logic::Trace> traces =
      simulator.collect_traces(controller, rollouts, rng);
  EmpiricalReport report;
  report.rollouts = rollouts;
  for (const logic::Trace& t : traces)
    if (t.empty()) ++report.skipped_traces;
  report.per_spec.reserve(specs.size());
  // satisfaction_rate skips empty traces and CHECKs when every trace is
  // empty.
  for (const NamedSpec& spec : specs)
    report.per_spec.push_back(
        {spec.name, logic::satisfaction_rate(spec.formula, traces)});
  return report;
}

std::vector<ScenarioSweepEntry> empirical_scenario_sweep(
    const driving::DrivingDomain& domain, int rollouts, std::uint64_t seed,
    SimulatorConfig base) {
  // Noise may flip observed environment propositions, never the action
  // bits the controller emitted.
  logic::Symbol action_mask = 0;
  for (const char* a : {"stop", "turn_left", "turn_right", "go_straight"}) {
    const auto bit = domain.vocab().find(a);
    DPOAF_CHECK_MSG(bit.has_value(),
                    "driving vocabulary missing action " + std::string(a));
    action_mask |= logic::Vocabulary::bit(*bit);
  }

  Rng root(seed);
  std::vector<ScenarioSweepEntry> out;
  out.reserve(domain.scenarios().size());
  for (const driving::Scenario& sc : domain.scenarios()) {
    Rng rng = root.split();  // serial, registry order — deterministic
    const driving::Task* task = nullptr;
    for (const driving::Task& t : domain.tasks())
      if (t.scenario == sc.key) {
        task = &t;
        break;
      }
    DPOAF_CHECK_MSG(task != nullptr,
                    "scenario has no catalog task: " + sc.key);
    const driving::ResponseVariant* good = nullptr;
    for (const driving::ResponseVariant& v : task->variants)
      if (v.tag == driving::FlawTag::Good) {
        good = &v;
        break;
      }
    DPOAF_CHECK_MSG(good != nullptr,
                    "task has no compliant variant: " + task->id);
    const driving::FeedbackResult fb =
        driving::formal_feedback(domain, sc.key, good->text);
    DPOAF_CHECK_MSG(fb.aligned,
                    "compliant variant failed to align: " + task->id);

    SimulatorConfig cfg = base;
    cfg.perception_noise = sc.perception_noise;
    cfg.noise_mask = ~action_mask;
    cfg.epsilon_label = domain.stop_action();
    const Simulator simulator(sc.model, cfg);
    ScenarioSweepEntry entry;
    entry.scenario_key = sc.key;
    entry.generated = sc.generated;
    entry.holdout = sc.holdout;
    entry.report =
        empirical_evaluation(simulator, fb.controller, sc.specs, rollouts, rng);
    out.push_back(std::move(entry));
  }
  return out;
}

}  // namespace dpoaf::sim
