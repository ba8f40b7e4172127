#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "core/pipeline.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace dpoaf::core {
namespace {

// Micro configuration: exercises every pipeline stage in a few seconds.
PipelineConfig micro_config() {
  PipelineConfig cfg;
  cfg.seed = 11;
  cfg.d_model = 16;
  cfg.n_heads = 2;
  cfg.n_layers = 1;
  cfg.d_ff = 32;
  cfg.corpus_samples_per_task = 6;
  cfg.pretrain.epochs = 2;
  cfg.responses_per_task = 4;
  cfg.candidates_from_catalog = true;  // deterministic candidates
  cfg.dpo.epochs = 4;
  cfg.dpo.checkpoint_every = 2;
  cfg.dpo.pairs_per_epoch = 16;
  cfg.dpo.lora_rank = 2;
  cfg.eval_samples_per_task = 2;
  cfg.eval_max_new_tokens = 24;
  return cfg;
}

TEST(Pipeline, ConstructionSizesModelToCorpus) {
  DpoAfPipeline pipe(micro_config());
  EXPECT_GT(pipe.tokenizer().vocab_size(), 40u);
  EXPECT_GT(pipe.model().config().max_seq, 40);
  EXPECT_EQ(pipe.model().config().vocab_size,
            static_cast<std::int64_t>(pipe.tokenizer().vocab_size()));
}

TEST(Pipeline, CatalogCandidatesMatchFormalFeedback) {
  DpoAfPipeline pipe(micro_config());
  const auto candidates = pipe.collect_candidates();
  // Training tasks only.
  EXPECT_EQ(candidates.size(), 5u);
  for (const auto& tc : candidates) {
    const auto& task = pipe.domain().task_by_id(tc.task_id);
    EXPECT_TRUE(task.training);
    ASSERT_EQ(tc.candidates.size(), task.variants.size());
    for (std::size_t i = 0; i < tc.candidates.size(); ++i) {
      EXPECT_EQ(tc.candidates[i].score,
                pipe.score_response(task, task.variants[i].text));
    }
  }
}

TEST(Pipeline, SamplingRequiresPretraining) {
  auto cfg = micro_config();
  cfg.candidates_from_catalog = false;
  DpoAfPipeline pipe(cfg);
  EXPECT_THROW((void)pipe.collect_candidates(), ContractViolation);
}

TEST(Pipeline, PairsAreBuiltAcrossTrainingTasks) {
  DpoAfPipeline pipe(micro_config());
  const auto pairs = pipe.build_pairs(pipe.collect_candidates());
  EXPECT_GT(pairs.size(), 50u);  // catalog variants give many ordered pairs
  for (const auto& pair : pairs)
    EXPECT_GT(pair.score_chosen, pair.score_rejected);
}

TEST(Pipeline, FullRunProducesFigureSeries) {
  DpoAfPipeline pipe(micro_config());
  pipe.pretrain_model();
  const auto result = pipe.run_dpo(pipe.build_pairs(pipe.collect_candidates()));

  // Figure 8 series: one row per epoch.
  ASSERT_EQ(result.metrics.size(), 4u);
  for (const auto& m : result.metrics) {
    EXPECT_GE(m.loss, 0.0);
    EXPECT_GE(m.accuracy, 0.0);
    EXPECT_LE(m.accuracy, 1.0);
  }
  // Figure 9 series: checkpoints at 0, 2, 4.
  ASSERT_EQ(result.checkpoints.size(), 3u);
  EXPECT_EQ(result.checkpoints[0].epoch, 0);
  EXPECT_EQ(result.checkpoints[1].epoch, 2);
  EXPECT_EQ(result.checkpoints[2].epoch, 4);
  for (const auto& ckpt : result.checkpoints) {
    EXPECT_EQ(ckpt.per_task.size(), pipe.domain().tasks().size());
    EXPECT_GE(ckpt.train_mean_satisfied, 0.0);
    EXPECT_LE(ckpt.train_mean_satisfied, 15.0);
    EXPECT_GE(ckpt.val_mean_satisfied, 0.0);
    EXPECT_LE(ckpt.val_mean_satisfied, 15.0);
  }
  EXPECT_GT(result.pair_count, 0u);
}

TEST(Pipeline, EvaluationIsDeterministicPerSeedAndEpoch) {
  DpoAfPipeline pipe(micro_config());
  const auto a = pipe.evaluate_model(pipe.model(), 7);
  const auto b = pipe.evaluate_model(pipe.model(), 7);
  ASSERT_EQ(a.per_task.size(), b.per_task.size());
  for (std::size_t i = 0; i < a.per_task.size(); ++i)
    EXPECT_EQ(a.per_task[i].second, b.per_task[i].second);
}

TEST(Pipeline, EvaluationRejectsZeroSamplesPerTask) {
  // Regressions, now rejected at construction with the field named:
  // eval_samples_per_task == 0 divided by zero into NaN means;
  // responses_per_task == -1 failed deep in the dataflow with a "dropped
  // scored candidates" CHECK, and 0 silently collected nothing; a
  // scenario count outside its range aborted inside the generator;
  // dpo.epochs <= 0 left an empty loss history that callers read from,
  // dpo.checkpoint_every == 0 divided by zero in the trainer, and a
  // negative checkpoint_every_epochs silently disabled snapshots.
  // n_heads == 0 raised SIGFPE in the attention constructor; the other
  // model-shape and batch fields failed only after construction or
  // pre-training; a temperature of 0 made TinyGpt::generate throw and the
  // generation service score every response unalignable.
  // d_ff == 0 ran to the end with the DPO loss stuck at ln 2, and a NaN
  // learning rate or beta surfaced mid-run as a sampling-weight CHECK.
  // micro_config() generates no scenarios, so any holdout above 0 is out
  // of range.
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  using Setter = void (*)(PipelineConfig&, int);
  struct Case {
    const char* field;
    Setter set;
    int value;
  };
  for (const Case& c :
       {Case{"eval_samples_per_task",
             [](PipelineConfig& p, int v) { p.eval_samples_per_task = v; }, 0},
        Case{"responses_per_task",
             [](PipelineConfig& p, int v) { p.responses_per_task = v; }, 0},
        Case{"responses_per_task",
             [](PipelineConfig& p, int v) { p.responses_per_task = v; }, -1},
        Case{"generated_scenarios",
             [](PipelineConfig& p, int v) { p.generated_scenarios = v; }, -1},
        Case{"holdout_scenarios",
             [](PipelineConfig& p, int v) { p.holdout_scenarios = v; }, -1},
        Case{"holdout_scenarios",
             [](PipelineConfig& p, int v) { p.holdout_scenarios = v; }, 9},
        Case{"dpo.epochs", [](PipelineConfig& p, int v) { p.dpo.epochs = v; },
             0},
        Case{"dpo.epochs", [](PipelineConfig& p, int v) { p.dpo.epochs = v; },
             -3},
        Case{"dpo.checkpoint_every",
             [](PipelineConfig& p, int v) { p.dpo.checkpoint_every = v; }, 0},
        Case{"checkpoint_every_epochs",
             [](PipelineConfig& p, int v) { p.checkpoint_every_epochs = v; },
             -2},
        Case{"d_model", [](PipelineConfig& p, int v) { p.d_model = v; }, 0},
        Case{"n_heads", [](PipelineConfig& p, int v) { p.n_heads = v; }, 0},
        Case{"n_heads", [](PipelineConfig& p, int v) { p.n_heads = v; }, 3},
        Case{"n_layers", [](PipelineConfig& p, int v) { p.n_layers = v; }, 0},
        Case{"corpus_samples_per_task",
             [](PipelineConfig& p, int v) { p.corpus_samples_per_task = v; },
             0},
        Case{"pretrain.batch_size",
             [](PipelineConfig& p, int v) { p.pretrain.batch_size = v; }, 0},
        Case{"dpo.batch_size",
             [](PipelineConfig& p, int v) { p.dpo.batch_size = v; }, 0},
        Case{"serve_slots",
             [](PipelineConfig& p, int v) { p.serve_slots = v; }, 0},
        Case{"sampler.temperature",
             [](PipelineConfig& p, int v) {
               p.sampler.temperature = static_cast<float>(v);
             },
             0},
        Case{"eval_temperature",
             [](PipelineConfig& p, int v) {
               p.eval_temperature = static_cast<float>(v);
             },
             0},
        Case{"eval_temperature",
             [](PipelineConfig& p, int v) {
               p.eval_temperature = static_cast<float>(v);
             },
             -1},
        Case{"sampler.max_new_tokens",
             [](PipelineConfig& p, int v) { p.sampler.max_new_tokens = v; },
             -1},
        Case{"eval_max_new_tokens",
             [](PipelineConfig& p, int v) { p.eval_max_new_tokens = v; },
             -1},
        Case{"d_ff", [](PipelineConfig& p, int v) { p.d_ff = v; }, 0},
        Case{"pretrain.lr",
             [](PipelineConfig& p, int v) {
               p.pretrain.lr = static_cast<float>(v);
             },
             0},
        Case{"pretrain.lr",
             [](PipelineConfig& p, int) { p.pretrain.lr = kNaN; }, 0},
        Case{"dpo.lr",
             [](PipelineConfig& p, int v) { p.dpo.lr = static_cast<float>(v); },
             -1},
        Case{"dpo.lr", [](PipelineConfig& p, int) { p.dpo.lr = kInf; }, 0},
        Case{"dpo.beta",
             [](PipelineConfig& p, int v) {
               p.dpo.beta = static_cast<float>(v);
             },
             0},
        Case{"dpo.beta", [](PipelineConfig& p, int) { p.dpo.beta = kNaN; },
             0}}) {
    auto cfg = micro_config();
    c.set(cfg, c.value);
    try {
      DpoAfPipeline pipe(cfg);
      ADD_FAILURE() << c.field << " = " << c.value << " was accepted";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
          << e.what();
    }
  }
}

TEST(Pipeline, EvaluationReportsAlignmentFailuresExplicitly) {
  DpoAfPipeline pipe(micro_config());
  const auto eval = pipe.evaluate_model(pipe.model(), 0);
  const auto& tasks = pipe.domain().tasks();
  ASSERT_EQ(eval.per_task_alignment_failure.size(), tasks.size());

  double train_fail = 0.0, val_fail = 0.0;
  std::size_t train_n = 0, val_n = 0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const double rate = eval.per_task_alignment_failure[i];
    EXPECT_GE(rate, 0.0);
    EXPECT_LE(rate, 1.0);
    if (tasks[i].training) {
      train_fail += rate;
      ++train_n;
    } else {
      val_fail += rate;
      ++val_n;
    }
  }
  EXPECT_NEAR(eval.train_alignment_failure_rate,
              train_fail / static_cast<double>(train_n), 1e-12);
  EXPECT_NEAR(eval.val_alignment_failure_rate,
              val_fail / static_cast<double>(val_n), 1e-12);
  EXPECT_GE(eval.truncated_responses, 0);
  // An untrained model emits mostly unalignable text; the clamped mean no
  // longer hides that — the explicit failure rate reports it.
  EXPECT_GT(eval.train_alignment_failure_rate, 0.0);
}

TEST(Pipeline, RunResultCarriesCacheStatistics) {
  DpoAfPipeline pipe(micro_config());  // feedback_cache defaults to on
  pipe.pretrain_model();
  const auto result =
      pipe.run_dpo(pipe.build_pairs(pipe.collect_candidates()));
  // Catalog candidates + checkpoint evals re-verify the same spec set;
  // both memoization tiers must have seen traffic, and the Büchi tier must
  // have hit (the 15 rulebook formulas recur on every verification).
  EXPECT_GT(result.buchi_cache_stats.hits, 0u);
  EXPECT_GT(result.feedback_cache_stats.hits +
                result.feedback_cache_stats.misses,
            0u);
  // Re-scoring a text already seen by collect_candidates is a cache hit.
  const auto before = pipe.domain().feedback_cache_stats();
  const auto& task = pipe.domain().task_by_id("turn_right_traffic_light");
  (void)pipe.score_response(task, task.variants[0].text);
  const auto after = pipe.domain().feedback_cache_stats();
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses);
}

TEST(Pipeline, ScoreResponseMatchesDomainFeedback) {
  DpoAfPipeline pipe(micro_config());
  const auto& task = pipe.domain().task_by_id("turn_right_traffic_light");
  EXPECT_EQ(pipe.score_response(task, driving::paper_right_turn_after()), 15);
  EXPECT_EQ(pipe.score_response(task, "gibberish that cannot align"), -1);
}

// Regression: a phase that never ran must not appear in the trace. An
// empty build_pairs() call used to emit a "ranking" span anyway, charging
// call overhead to a phase with zero work and double-counting wall time
// in the RunReport phase rollup.
TEST(Pipeline, EmptyPhasesEmitNoSpans) {
  auto cfg = micro_config();
  cfg.observability = true;
  DpoAfPipeline pipe(cfg);
  (void)obs::drain_trace();  // isolate from spans of earlier tests
  const auto pairs = pipe.build_pairs({});
  EXPECT_TRUE(pairs.empty());
  for (const auto& event : obs::drain_trace())
    EXPECT_NE(event.name, "ranking") << "empty ranking phase emitted a span";
  // A non-empty input still traces the phase.
  (void)pipe.build_pairs(pipe.collect_candidates());
  bool saw_ranking = false;
  for (const auto& event : obs::drain_trace())
    if (event.name == "ranking") saw_ranking = true;
  EXPECT_TRUE(saw_ranking);
  obs::set_enabled(false);
  obs::clear_trace();
}

}  // namespace
}  // namespace dpoaf::core
