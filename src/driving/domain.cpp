#include "driving/domain.hpp"

#include "automata/product.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"

namespace dpoaf::driving {

DrivingDomain::DrivingDomain() : DrivingDomain(generator::GeneratorConfig{}) {}

DrivingDomain::DrivingDomain(const generator::GeneratorConfig& gen)
    : vocab_(logic::make_driving_vocabulary()),
      aligner_(glm2fsa::make_driving_aligner(vocab_)),
      specs_(rulebook(vocab_)),
      tasks_(task_catalog()) {
  // Satisfiability / triviality pre-pass: an unsatisfiable spec would
  // zero every controller's score and a trivially-true one would inflate
  // it — both are rulebook authoring bugs, so reject them before any
  // checking runs against the rulebook. (Generated rulebooks go through
  // the tolerant version of this gate inside instantiate_rulebook, where
  // degenerate instantiations are expected and silently discarded.)
  for (const modelcheck::NamedSpec& spec : specs_) {
    const modelcheck::SpecClass cls = modelcheck::classify_spec(spec.formula);
    DPOAF_CHECK_MSG(cls != modelcheck::SpecClass::kUnsatisfiable,
                    "rulebook spec '" + spec.name +
                        "' is unsatisfiable under LTL");
    DPOAF_CHECK_MSG(cls != modelcheck::SpecClass::kTriviallyTrue,
                    "rulebook spec '" + spec.name +
                        "' is trivially true under LTL");
  }
  for (ScenarioId id : all_scenarios()) {
    Scenario s;
    s.key = scenario_name(id);
    s.model = make_scenario_model(id, vocab_);
    s.fairness = fairness_assumptions(id, vocab_);
    s.specs = specs_;
    s.perception_noise =
        generator::perception_noise(generator::NoiseRegime::Nominal);
    install_scenario(std::move(s));
  }
  universal_ = make_universal_model(vocab_);
  stop_action_ = logic::Vocabulary::bit(*vocab_.find("stop"));

  if (gen.count > 0) {
    for (generator::GeneratedScenario& g :
         generator::generate_scenarios(gen, vocab_, &generator_stats_)) {
      Scenario s;
      s.key = g.key;
      s.model = std::move(g.model);
      s.fairness = std::move(g.fairness);
      s.specs = std::move(g.specs);
      s.perception_noise = generator::perception_noise(g.features.noise);
      s.generated = true;
      s.holdout = g.holdout;
      install_scenario(std::move(s));
      tasks_.push_back(instantiate_task(g.task));
    }
  }
}

void DrivingDomain::install_scenario(Scenario scenario) {
  const bool inserted =
      scenario_index_.emplace(scenario.key, scenarios_.size()).second;
  DPOAF_CHECK_MSG(inserted, "duplicate scenario key: " + scenario.key);
  scenarios_.push_back(std::move(scenario));
}

const Scenario& DrivingDomain::scenario(std::string_view key) const {
  const auto it = scenario_index_.find(key);
  DPOAF_CHECK_MSG(it != scenario_index_.end(),
                  "unknown scenario key: " + std::string(key));
  return scenarios_[it->second];
}

glm2fsa::BuildOptions DrivingDomain::build_options() const {
  glm2fsa::BuildOptions opt;
  opt.wait_action = stop_action_;
  return opt;
}

automata::ProductOptions DrivingDomain::product_options() const {
  automata::ProductOptions opt;
  opt.epsilon_label = stop_action_;
  return opt;
}

const Task& DrivingDomain::task_by_id(std::string_view id) const {
  for (const Task& t : tasks_)
    if (t.id == id) return t;
  DPOAF_CHECK_MSG(false, "unknown task id: " + std::string(id));
  // Unreachable; silences the missing-return warning.
  return tasks_.front();
}

std::string canonical_response_text(std::string_view response_text) {
  // Mirror glm2fsa::split_steps's projection: split on '\n', trim each
  // line (which also strips '\r'), drop blanks. Texts differing only in
  // line endings or surrounding whitespace share one cache entry.
  std::string out;
  for (const std::string& raw : split(response_text, '\n')) {
    const std::string line = trim(raw);
    if (line.empty()) continue;
    if (!out.empty()) out += '\n';
    out += line;
  }
  return out;
}

namespace {

FeedbackResult compute_feedback(const DrivingDomain& domain,
                                std::string_view scenario_key,
                                std::string_view response_text) {
  // "synthesis" (GLM2FSA) and "verification" (product + rulebook model
  // checking) are two of the five pipeline phases in the RunReport.
  static obs::Counter& computed = obs::counter("feedback.computed");
  static obs::Counter& failures = obs::counter("feedback.alignment_failures");
  computed.add();
  FeedbackResult result;
  {
    static obs::Histogram& synthesis_ns =
        obs::histogram("glm2fsa.synthesis_ns");
    obs::Span span("synthesis", synthesis_ns);
    auto g2f = glm2fsa::glm2fsa(response_text, domain.aligner(),
                                domain.build_options());
    result.issues = g2f.parsed.issues;
    if (!g2f.parsed.ok()) {
      failures.add();
      result.aligned = false;
      return result;
    }
    result.aligned = true;
    result.controller = std::move(g2f.controller);
  }
  static obs::Histogram& verify_ns = obs::histogram("modelcheck.verify_ns");
  obs::Span span("verification", verify_ns);
  const Scenario& scenario = domain.scenario(scenario_key);
  const automata::Kripke product = automata::make_product(
      scenario.model, result.controller, domain.product_options());
  result.report =
      modelcheck::verify_all(product, scenario.specs, scenario.fairness);
  return result;
}

}  // namespace

FeedbackResult formal_feedback(const DrivingDomain& domain,
                               std::string_view scenario_key,
                               std::string_view response_text) {
  static obs::Counter& requests = obs::counter("feedback.requests");
  requests.add();
  if (!domain.feedback_cache_enabled())
    return compute_feedback(domain, scenario_key, response_text);
  std::string key(scenario_key);
  key += '\n';
  key += canonical_response_text(response_text);
  return domain.feedback_cache_.get_or_compute(key, [&] {
    return compute_feedback(domain, scenario_key, response_text);
  });
}

}  // namespace dpoaf::driving
