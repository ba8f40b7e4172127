// Figure 11 reproduction: percentage P_Φ of each specification Φ1..Φ5
// being satisfied during actual operations in the (simulated) system,
// before vs after fine-tuning.
//
// Controllers are built from responses sampled from the pre-trained model
// (before) and the DPO-fine-tuned model (after); each controller is
// operated repeatedly in the scenario simulator and its rollout traces are
// checked against the specifications under finite-trace semantics (§4.2,
// Empirical Evaluation).
//
// Expected shape (paper): P_Φ after fine-tuning ≥ before, for all five
// specifications — empirical feedback is consistent with the formal
// verification results of Figure 9.
//
// Usage: fig11_empirical_eval [--rollouts N] [--epochs N] [--fast]
#include <iostream>
#include <map>

#include "bench_common.hpp"
#include "core/pipeline.hpp"
#include "nn/decoder.hpp"
#include "sim/empirical.hpp"
#include "util/table.hpp"

namespace {

using namespace dpoaf;

// Sample responses from `model`, build controllers for every parseable
// one, roll each out in its task's scenario, and aggregate P_Φ per spec.
std::map<std::string, double> evaluate_in_system(
    const core::DpoAfPipeline& pipe, const nn::TinyGpt& model,
    const std::vector<modelcheck::NamedSpec>& specs, int samples_per_task,
    int rollouts_per_ctrl, int horizon, Rng& rng) {
  std::map<std::string, double> prob_sum;
  std::map<std::string, int> prob_n;

  lm::SamplerConfig sampler;  // library defaults
  for (const auto& task : pipe.domain().tasks()) {
    sim::SimulatorConfig sim_cfg;
    sim_cfg.horizon = horizon;
    sim_cfg.epsilon_label = pipe.domain().stop_action();
    sim::Simulator simulator(pipe.domain().model(task.scenario), sim_cfg);

    // All request seeds are drawn before any rollout consumes `rng`.
    std::vector<std::uint64_t> seeds(
        static_cast<std::size_t>(samples_per_task));
    for (auto& seed : seeds) seed = rng();
    const std::vector<int> prompt =
        lm::encode_prompt(pipe.tokenizer(), task.prompt);
    for (const std::uint64_t seed : seeds) {
      Rng request = nn::request_rng(pipe.config().seed, seed);
      const auto gen = model.generate(prompt, sampler.max_new_tokens,
                                      sampler.temperature, sampler.top_k,
                                      pipe.tokenizer().eos(), request);
      const std::string response =
          lm::decode_response(pipe.tokenizer(), gen.ids, gen.truncated);
      auto g2f = glm2fsa::glm2fsa(response, pipe.domain().aligner(),
                                  pipe.domain().build_options());
      if (!g2f.parsed.ok()) {
        // Unalignable response: counts as satisfying nothing, mirroring
        // the formal channel's ranking of alignment failures.
        for (const auto& spec : specs) {
          prob_sum[spec.name] += 0.0;
          prob_n[spec.name] += 1;
        }
        continue;
      }
      const auto report = sim::empirical_evaluation(
          simulator, g2f.controller, specs, rollouts_per_ctrl, rng);
      for (const auto& s : report.per_spec) {
        prob_sum[s.spec_name] += s.probability;
        prob_n[s.spec_name] += 1;
      }
    }
  }
  std::map<std::string, double> out;
  for (const auto& [name, sum] : prob_sum)
    out[name] = sum / std::max(1, prob_n[name]);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args(argc, argv);
  bench::Stopwatch sw;

  const int rollouts = args.get_int("--rollouts", args.has("--fast") ? 20 : 60);
  const int samples = args.get_int("--samples", args.has("--fast") ? 3 : 6);
  const int horizon = args.get_int("--horizon", 40);

  core::PipelineConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(args.get_int("--seed", 3));
  cfg.dpo.epochs = args.get_int("--epochs", args.has("--fast") ? 30 : 80);
  cfg.dpo.checkpoint_every = cfg.dpo.epochs + 1;  // no mid-run evaluation
  cfg.dpo.pairs_per_epoch = 48;

  core::DpoAfPipeline pipe(cfg);
  std::cerr << "[pre-training]\n";
  pipe.pretrain_model();
  const nn::TinyGpt before = pipe.model().clone();
  std::cerr << "[fine-tuning]\n";
  pipe.run_dpo(pipe.build_pairs(pipe.collect_candidates()));
  const nn::TinyGpt& after = pipe.model();

  const auto specs = driving::rulebook_head(pipe.domain().vocab());
  Rng rng_before(101), rng_after(101);
  std::cerr << "[operating pre-fine-tuning controllers in the simulator]\n";
  const auto p_before = evaluate_in_system(pipe, before, specs, samples,
                                           rollouts, horizon, rng_before);
  std::cerr << "[operating fine-tuned controllers in the simulator]\n";
  const auto p_after = evaluate_in_system(pipe, after, specs, samples,
                                          rollouts, horizon, rng_after);

  std::cout << "Figure 11 — P_Phi during actual operation in the simulated "
               "system (" << rollouts << " rollouts per controller, horizon "
            << horizon << ")\n\n";
  TextTable table("P_Phi before vs after fine-tuning");
  table.set_header({"spec", "before", "after", "delta", "after>=before"});
  int improved = 0;
  for (const auto& spec : specs) {
    const double b = p_before.at(spec.name);
    const double a = p_after.at(spec.name);
    if (a >= b - 1e-9) ++improved;
    table.add_row({spec.name, TextTable::num(b, 3), TextTable::num(a, 3),
                   TextTable::num(a - b, 3), a >= b - 1e-9 ? "yes" : "NO"});
  }
  table.print(std::cout);
  std::cout << "\nshape check: " << improved << "/" << specs.size()
            << " specifications improved or held"
            << (improved == static_cast<int>(specs.size()) ? " (OK)" : "")
            << "\n";

  bench::print_runtime(sw);
  return 0;
}
