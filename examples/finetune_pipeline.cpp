// End-to-end DPO-AF run at demonstration scale: pre-train the stand-in
// language model, sample responses, verify and rank them, fine-tune with
// DPO, and print before/after specification satisfaction for every task —
// the whole Figure-2 pipeline in one binary.
//
// Usage: finetune_pipeline [--epochs N] [--seed N]
//                          [--generate-scenarios N] [--holdout M]
//                          [--generator-seed N]
//                          [--metrics-json PATH] [--trace-json PATH]
//                          [--checkpoint-dir DIR] [--checkpoint-every N]
//                          [--resume [PATH]]
// (defaults are sized to finish in about a minute on a laptop core; an
// unknown flag or a flag missing its value prints this usage, exit code 2)
//
// --generate-scenarios N appends N procedurally generated scenarios to the
// paper's five (docs/GENERATOR.md) and scales the sampling knobs down so
// the bigger catalog still finishes quickly; --holdout M reserves the last
// M generated scenarios for the held-out generalization eval printed after
// training. Same seeds ⇒ byte-identical stdout (wall-clock fields only
// live in the JSON reports).
//
// --metrics-json writes a dpoaf.run_report JSON document (metric counters,
// per-phase wall times, per-epoch loss/KL series); --trace-json writes a
// Chrome trace-event file loadable in chrome://tracing / ui.perfetto.dev.
//
// --checkpoint-dir enables durable snapshots (atomic .dpoaf files, see
// docs/CHECKPOINT_FORMAT.md) every --checkpoint-every epochs. --resume
// continues an interrupted run from the newest snapshot in the checkpoint
// directory (or from an explicit .dpoaf path) and produces results
// bitwise-identical to the uninterrupted run.
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/pipeline.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace dpoaf;

  core::PipelineConfig cfg;
  cfg.seed = 3;
  cfg.dpo.epochs = 60;
  cfg.dpo.checkpoint_every = 20;
  cfg.dpo.pairs_per_epoch = 48;
  std::string metrics_path;
  std::string trace_path;
  bool resume = false;
  const auto usage = [&] {
    std::cerr << "usage: " << argv[0]
              << " [--epochs N] [--seed N] [--generate-scenarios N]"
                 " [--holdout M] [--generator-seed N] [--metrics-json PATH]"
                 " [--trace-json PATH] [--checkpoint-dir DIR]"
                 " [--checkpoint-every N] [--resume [PATH]]\n";
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--resume") {
      resume = true;
      // Optional explicit snapshot path; defaults to --checkpoint-dir.
      if (i + 1 < argc && argv[i + 1][0] != '-') cfg.resume_from = argv[++i];
      continue;
    }
    if (i + 1 >= argc) return usage();  // every other flag takes a value
    const char* value = argv[++i];
    if (arg == "--epochs")
      cfg.dpo.epochs = std::atoi(value);
    else if (arg == "--seed")
      cfg.seed = static_cast<std::uint64_t>(std::atoll(value));
    else if (arg == "--generate-scenarios")
      cfg.generated_scenarios = std::atoi(value);
    else if (arg == "--holdout")
      cfg.holdout_scenarios = std::atoi(value);
    else if (arg == "--generator-seed")
      cfg.generator_seed = static_cast<std::uint64_t>(std::atoll(value));
    else if (arg == "--metrics-json")
      metrics_path = value;
    else if (arg == "--trace-json")
      trace_path = value;
    else if (arg == "--checkpoint-dir")
      cfg.checkpoint_dir = value;
    else if (arg == "--checkpoint-every")
      cfg.checkpoint_every_epochs = std::atoi(value);
    else
      return usage();
  }
  cfg.observability = !metrics_path.empty() || !trace_path.empty();
  // Enable metrics before the pipeline constructor runs: scenario
  // generation happens at construction time, and its generator.* counters
  // must land in the report.
  if (cfg.observability) obs::set_enabled(true);
  if (cfg.generated_scenarios > 0) {
    // A 64-scenario catalog at the default sampling scale would take far
    // longer than demonstration scale; trade samples per task for tasks.
    cfg.corpus_samples_per_task = 12;
    cfg.responses_per_task = 8;
    cfg.eval_samples_per_task = 4;
  }
  if (resume && cfg.resume_from.empty()) {
    if (cfg.checkpoint_dir.empty()) {
      std::cerr << "--resume needs --checkpoint-dir or an explicit path\n";
      return 1;
    }
    cfg.resume_from = cfg.checkpoint_dir;
  }

  core::DpoAfPipeline pipe(cfg);
  std::cout << "model: " << pipe.model().parameter_count()
            << " parameters, vocab " << pipe.tokenizer().vocab_size()
            << ", context " << pipe.model().config().max_seq << "\n";
  if (cfg.generated_scenarios > 0) {
    const auto& gs = pipe.domain().generator_stats();
    std::cout << "generator: " << gs.generated << " scenarios (" << gs.holdout
              << " held out), " << gs.specs_instantiated
              << " specs instantiated, discarded "
              << gs.specs_discarded_trivial << " trivial + "
              << gs.specs_discarded_unsat << " unsat\n";
  }

  core::RunResult result;
  if (resume) {
    std::cout << "\nresuming from " << cfg.resume_from << "...\n";
    result = pipe.run();
    std::cout << "      final loss "
              << TextTable::num(result.metrics.back().loss, 4)
              << ", accuracy "
              << TextTable::num(result.metrics.back().accuracy, 3)
              << ", margin "
              << TextTable::num(result.metrics.back().margin, 3) << "\n";
  } else {
    std::cout << "\n[1/4] pre-training on the synthetic driving corpus...\n";
    const auto pt = pipe.pretrain_model();
    std::cout << "      loss " << TextTable::num(pt.epoch_losses.front(), 3)
              << " -> " << TextTable::num(pt.epoch_losses.back(), 3) << "\n";

    std::cout << "\n[2/4] sampling " << pipe.config().responses_per_task
              << " responses per training task and verifying each...\n";
    const auto candidates = pipe.collect_candidates();
    for (const auto& tc : candidates) {
      std::cout << "      " << tc.task_id << ": scores";
      for (const auto& c : tc.candidates) std::cout << " " << c.score;
      std::cout << "\n";
    }

    const auto pairs = pipe.build_pairs(candidates);
    std::cout << "\n[3/4] " << pairs.size()
              << " preference pairs -> DPO fine-tuning (" << cfg.dpo.epochs
              << " epochs)...\n";
    result = pipe.run_dpo(pairs);
    std::cout << "      final loss "
              << TextTable::num(result.metrics.back().loss, 4)
              << ", accuracy "
              << TextTable::num(result.metrics.back().accuracy, 3)
              << ", margin "
              << TextTable::num(result.metrics.back().margin, 3) << "\n";
  }

  std::cout << "\n[4/4] specification satisfaction before vs after:\n\n";
  TextTable table(cfg.generated_scenarios > 0
                      ? "specifications satisfied (per-scenario rulebook, "
                        "sampled responses)"
                      : "specifications satisfied (of 15, sampled responses)");
  table.set_header({"task", "group", "before", "after"});
  const auto& first = result.checkpoints.front();
  const auto& last = result.checkpoints.back();
  for (std::size_t i = 0; i < first.per_task.size(); ++i) {
    const auto& task = pipe.domain().task_by_id(first.per_task[i].first);
    table.add_row({task.id, task.training ? "train" : "validation",
                   TextTable::num(first.per_task[i].second, 2),
                   TextTable::num(last.per_task[i].second, 2)});
  }
  table.add_row({"MEAN (train)", "",
                 TextTable::num(first.train_mean_satisfied, 2),
                 TextTable::num(last.train_mean_satisfied, 2)});
  table.add_row({"MEAN (validation)", "",
                 TextTable::num(first.val_mean_satisfied, 2),
                 TextTable::num(last.val_mean_satisfied, 2)});
  table.print(std::cout);

  if (result.has_generalization) {
    const auto& g = result.generalization;
    std::cout << "\nheld-out generalization (fraction of each scenario's "
                 "rulebook satisfied):\n\n";
    TextTable gt("final policy on " + std::to_string(g.train_tasks) +
                 " training vs " + std::to_string(g.holdout_tasks) +
                 " held-out tasks");
    gt.set_header({"metric", "train", "holdout"});
    gt.add_row({"satisfied fraction",
                TextTable::num(g.train_mean_satisfied_fraction, 3),
                TextTable::num(g.holdout_mean_satisfied_fraction, 3)});
    gt.add_row({"alignment failure rate",
                TextTable::num(g.train_alignment_failure_rate, 3),
                TextTable::num(g.holdout_alignment_failure_rate, 3)});
    gt.add_row({"violation rate", TextTable::num(g.train_violation_rate, 3),
                TextTable::num(g.holdout_violation_rate, 3)});
    for (const auto& [task_id, fraction] : g.per_holdout_task)
      gt.add_row({task_id, "-", TextTable::num(fraction, 3)});
    gt.print(std::cout);
  }

  if (cfg.observability) {
    obs::RunReport report = obs::capture_run_report("finetune_pipeline");
    std::vector<double> losses, kls;
    losses.reserve(result.metrics.size());
    kls.reserve(result.metrics.size());
    for (const auto& m : result.metrics) {
      losses.push_back(m.loss);
      kls.push_back(m.kl);
    }
    obs::add_series(report, "dpo.loss", std::move(losses));
    obs::add_series(report, "dpo.kl", std::move(kls));
    if (result.has_generalization) {
      const auto& g = result.generalization;
      obs::add_series(report, "generalization.train_satisfied_fraction",
                      {g.train_mean_satisfied_fraction});
      obs::add_series(report, "generalization.holdout_satisfied_fraction",
                      {g.holdout_mean_satisfied_fraction});
      obs::add_series(report, "generalization.train_alignment_failure",
                      {g.train_alignment_failure_rate});
      obs::add_series(report, "generalization.holdout_alignment_failure",
                      {g.holdout_alignment_failure_rate});
      obs::add_series(report, "generalization.train_violation_rate",
                      {g.train_violation_rate});
      obs::add_series(report, "generalization.holdout_violation_rate",
                      {g.holdout_violation_rate});
    }
    if (!metrics_path.empty()) {
      if (!obs::write_text_file(metrics_path,
                                obs::to_json(report, /*include_trace=*/false))) {
        std::cerr << "failed to write " << metrics_path << "\n";
        return 1;
      }
      std::cout << "\nmetrics report -> " << metrics_path << "\n";
    }
    if (!trace_path.empty()) {
      if (!obs::write_text_file(trace_path, obs::to_chrome_trace(report))) {
        std::cerr << "failed to write " << trace_path << "\n";
        return 1;
      }
      std::cout << "chrome trace   -> " << trace_path
                << "  (open in chrome://tracing)\n";
    }
  }
  return 0;
}
