// The streaming pipeline's determinism contract and error path
// (docs/PIPELINE.md): scored responses must be bitwise-identical at any
// thread count and serve slot count, with the batch-forward reference
// decoder (tests/reference_decode.hpp) as the oracle for served decodes,
// and a scoring error must surface from the call
// that streamed the responses. This suite also runs under TSan in CI
// (DPOAF_THREADS=4, both tensor backends).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "reference_decode.hpp"
#include "util/check.hpp"
#include "util/threadpool.hpp"

namespace dpoaf {
namespace {

// ---------------- served sampling: bitwise identical across settings ----
//
// Every sampled decode runs on serve::GenerationService. The oracle tests
// pin served decodes to the reference decoder; the other cases require every
// (threads, serve_slots) setting — the "modes" in their names — to
// reproduce the first.

constexpr std::pair<int, int> kThreadsSlots[] = {{1, 1}, {1, 4}, {4, 1},
                                                 {4, 4}};

core::PipelineConfig micro_config(int threads, int slots, bool catalog) {
  core::PipelineConfig cfg;
  cfg.seed = 29;
  cfg.threads = threads;
  cfg.d_model = 16;
  cfg.n_heads = 2;
  cfg.n_layers = 1;
  cfg.d_ff = 32;
  cfg.corpus_samples_per_task = 6;
  cfg.pretrain.epochs = 1;
  cfg.candidates_from_catalog = catalog;
  cfg.serve_slots = slots;
  cfg.responses_per_task = 3;
  cfg.sampler.max_new_tokens = 24;
  cfg.dpo.epochs = 2;
  cfg.dpo.checkpoint_every = 2;
  cfg.dpo.pairs_per_epoch = 8;
  cfg.dpo.lora_rank = 2;
  cfg.eval_samples_per_task = 2;
  cfg.eval_max_new_tokens = 24;
  return cfg;
}

// A generated catalog with one held-out scenario.
core::PipelineConfig with_holdout(core::PipelineConfig cfg) {
  cfg.generated_scenarios = 3;
  cfg.holdout_scenarios = 1;
  cfg.generator_seed = 13;
  return cfg;
}

std::vector<core::TaskCandidates> collect(const core::PipelineConfig& cfg) {
  core::DpoAfPipeline pipe(cfg);
  if (!cfg.candidates_from_catalog) pipe.pretrain_model();
  auto out = pipe.collect_candidates();
  util::set_global_threads(1);
  return out;
}

void expect_same_candidates(const std::vector<core::TaskCandidates>& a,
                            const std::vector<core::TaskCandidates>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t u = 0; u < a.size(); ++u) {
    EXPECT_EQ(a[u].task_id, b[u].task_id);
    EXPECT_EQ(a[u].truncated, b[u].truncated);
    ASSERT_EQ(a[u].candidates.size(), b[u].candidates.size());
    for (std::size_t c = 0; c < a[u].candidates.size(); ++c) {
      EXPECT_EQ(a[u].candidates[c].text, b[u].candidates[c].text);
      EXPECT_EQ(a[u].candidates[c].score, b[u].candidates[c].score);
    }
  }
}

// Collects with every setting of kThreadsSlots and compares each result
// with the first.
template <typename MakeConfig>
void expect_candidates_identical_across_settings(MakeConfig make_config) {
  const auto [threads, slots] = kThreadsSlots[0];
  const auto reference = collect(make_config(threads, slots));
  for (const auto& [t, s] : kThreadsSlots) {
    SCOPED_TRACE(testing::Message() << "threads=" << t << " slots=" << s);
    expect_same_candidates(reference, collect(make_config(t, s)));
  }
}

TEST(StreamingEquivalence, CatalogCandidatesIdenticalAcrossModesAndThreads) {
  expect_candidates_identical_across_settings(
      [](int threads, int slots) {
        return micro_config(threads, slots, true);
      });
}

TEST(StreamingEquivalence, SampledCandidatesIdenticalAcrossModesAndThreads) {
  expect_candidates_identical_across_settings(
      [](int threads, int slots) {
        return micro_config(threads, slots, false);
      });
}

// A batch of more than 64 requests, many times the slot count, so most of
// them wait in the admission queue while the caller scores others.
TEST(StreamingEquivalence, ServedCandidatesIdenticalAcrossModesAndThreads) {
  const auto wide = [](int threads, int slots) {
    auto cfg = micro_config(threads, slots, false);
    cfg.responses_per_task = 20;
    return cfg;
  };
  std::size_t requests = 0;
  for (const auto& tc : collect(wide(1, 1))) requests += tc.candidates.size();
  ASSERT_GT(requests, 64u);
  expect_candidates_identical_across_settings(wide);
}

// The same request for every sample of `task`, as the pipeline's eval
// builds it; the caller sets each sample's seed.
serve::GenerateRequest eval_request(const core::DpoAfPipeline& pipe,
                                    const driving::Task& task) {
  serve::GenerateRequest req;
  req.prompt = lm::encode_prompt(pipe.tokenizer(), task.prompt);
  req.max_new_tokens = pipe.config().eval_max_new_tokens;
  req.temperature = pipe.config().eval_temperature;
  req.top_k = lm::SamplerConfig{}.top_k;
  req.eos_id = pipe.tokenizer().eos();
  return req;
}

// The reference decoder is the bitwise oracle for served decodes: a
// test-local loop that splits the eval RNG per non-held-out task, decodes
// each sample serially under its request seed and scores it must
// reproduce evaluate_model's per-task means and failure rates, and their
// serial task-order means over the training and validation groups. Three
// samples per task make the means non-dyadic, so a change in the order of
// the group sums shows in the last bits.
TEST(StreamingEquivalence, EvalMatchesReferenceOracle) {
  constexpr int kEpoch = 2;
  for (const auto& [threads, slots] : kThreadsSlots) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads
                                    << " slots=" << slots);
    auto cfg = with_holdout(micro_config(threads, slots, false));
    cfg.eval_samples_per_task = 3;
    core::DpoAfPipeline pipe(cfg);
    pipe.pretrain_model();
    const auto eval = pipe.evaluate_model(pipe.model(), kEpoch);
    util::set_global_threads(1);

    const auto n = static_cast<double>(cfg.eval_samples_per_task);
    Rng eval_rng(cfg.seed * 0x9E3779B9ULL + kEpoch);
    std::vector<std::pair<std::string, double>> per_task;
    std::vector<double> per_task_failure;
    int truncated = 0;
    bool saw_holdout = false;
    double group_score[2] = {0.0, 0.0}, group_fail[2] = {0.0, 0.0};
    int group_n[2] = {0, 0};
    for (const auto& task : pipe.domain().tasks()) {
      if (task.holdout) {
        saw_holdout = true;
        continue;
      }
      Rng task_rng = eval_rng.split();
      serve::GenerateRequest req = eval_request(pipe, task);
      double score_sum = 0.0;
      int failures = 0;
      for (int s = 0; s < cfg.eval_samples_per_task; ++s) {
        req.seed = task_rng();
        const auto gen = serve::reference::decode(pipe.model(), req, cfg.seed);
        if (gen.finish == serve::FinishReason::kContext) ++truncated;
        const int score =
            pipe.score_response(task, pipe.tokenizer().decode(gen.ids));
        if (score < 0) ++failures;
        score_sum += std::max(0, score);
      }
      per_task.emplace_back(task.id, score_sum / n);
      per_task_failure.push_back(static_cast<double>(failures) / n);
      const int g = task.training ? 0 : 1;
      group_score[g] += per_task.back().second;
      group_fail[g] += per_task_failure.back();
      ++group_n[g];
    }
    ASSERT_TRUE(saw_holdout);
    ASSERT_GT(group_n[0], 0);
    ASSERT_GT(group_n[1], 0);
    EXPECT_EQ(eval.per_task, per_task);
    EXPECT_EQ(eval.per_task_alignment_failure, per_task_failure);
    EXPECT_EQ(eval.truncated_responses, truncated);
    EXPECT_EQ(eval.train_mean_satisfied, group_score[0] / group_n[0]);
    EXPECT_EQ(eval.val_mean_satisfied, group_score[1] / group_n[1]);
    EXPECT_EQ(eval.train_alignment_failure_rate,
              group_fail[0] / group_n[0]);
    EXPECT_EQ(eval.val_alignment_failure_rate, group_fail[1] / group_n[1]);
  }
}

// The same oracle for evaluate_generalization: every task, the private
// stream 0xC0FFEE, each sample's satisfied count normalized by its task's
// own rulebook size, and serial task-order means over the non-held-out
// and held-out groups.
TEST(StreamingEquivalence, GeneralizationMatchesReferenceOracle) {
  for (const auto& [threads, slots] : kThreadsSlots) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads
                                    << " slots=" << slots);
    const auto cfg = with_holdout(micro_config(threads, slots, false));
    core::DpoAfPipeline pipe(cfg);
    pipe.pretrain_model();
    const auto gen = pipe.evaluate_generalization();
    util::set_global_threads(1);

    const auto n = static_cast<double>(cfg.eval_samples_per_task);
    Rng eval_rng(cfg.seed * 0x9E3779B9ULL + 0xC0FFEE);
    // Per group (0 = non-held-out, 1 = held out): summed per-task means
    // of satisfied fraction, alignment failure and violation.
    double fraction[2] = {0.0, 0.0}, failure[2] = {0.0, 0.0},
           violation[2] = {0.0, 0.0};
    int tasks[2] = {0, 0};
    std::vector<std::pair<std::string, double>> per_holdout_task;
    for (const auto& task : pipe.domain().tasks()) {
      Rng task_rng = eval_rng.split();
      serve::GenerateRequest req = eval_request(pipe, task);
      const auto rulebook =
          static_cast<double>(pipe.domain().specs_for(task.scenario).size());
      double task_fraction = 0.0, task_failure = 0.0, task_violation = 0.0;
      for (int s = 0; s < cfg.eval_samples_per_task; ++s) {
        req.seed = task_rng();
        const auto out = serve::reference::decode(pipe.model(), req, cfg.seed);
        const int score =
            pipe.score_response(task, pipe.tokenizer().decode(out.ids));
        if (score < 0)
          task_failure += 1.0;
        else if (static_cast<double>(score) < rulebook)
          task_violation += 1.0;
        task_fraction += std::max(0, score) / rulebook;
      }
      const int g = task.holdout ? 1 : 0;
      fraction[g] += task_fraction / n;
      failure[g] += task_failure / n;
      violation[g] += task_violation / n;
      ++tasks[g];
      if (task.holdout)
        per_holdout_task.emplace_back(task.id, task_fraction / n);
    }
    ASSERT_GT(tasks[0], 0);
    ASSERT_GT(tasks[1], 0);
    EXPECT_EQ(gen.train_tasks, tasks[0]);
    EXPECT_EQ(gen.holdout_tasks, tasks[1]);
    EXPECT_EQ(gen.train_mean_satisfied_fraction, fraction[0] / tasks[0]);
    EXPECT_EQ(gen.holdout_mean_satisfied_fraction, fraction[1] / tasks[1]);
    EXPECT_EQ(gen.train_alignment_failure_rate, failure[0] / tasks[0]);
    EXPECT_EQ(gen.holdout_alignment_failure_rate, failure[1] / tasks[1]);
    EXPECT_EQ(gen.train_violation_rate, violation[0] / tasks[0]);
    EXPECT_EQ(gen.holdout_violation_rate, violation[1] / tasks[1]);
    EXPECT_EQ(gen.per_holdout_task, per_holdout_task);
  }
}

// A model whose context and vocabulary fit no task prompt: the service
// marks every request kInvalid, and the scoring loop's CHECK must reach
// the caller as a ContractViolation — no hang, no std::terminate — while
// the service drains the rest of the batch.
TEST(StreamingEquivalence, ScoringErrorSurfacesFromEval) {
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    core::DpoAfPipeline pipe(micro_config(threads, 4, false));
    nn::GptConfig tiny_cfg;
    tiny_cfg.vocab_size = 4;
    tiny_cfg.d_model = 4;
    tiny_cfg.n_heads = 1;
    tiny_cfg.n_layers = 1;
    tiny_cfg.d_ff = 4;
    tiny_cfg.max_seq = 4;
    Rng rng(3);
    const nn::TinyGpt tiny(tiny_cfg, rng);
    try {
      (void)pipe.evaluate_model(tiny, 0);
      ADD_FAILURE() << "evaluate_model returned";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("rejected a sampling request"),
                std::string::npos)
          << e.what();
    }
    util::set_global_threads(1);
  }
}

// Full run() over a generated catalog with held-out scenarios: slots and
// threads only schedule the decodes of collection, checkpoint eval and the
// held-out eval, so the whole RunResult — DPO history, every checkpoint,
// the generalization block, the pair count — must match across settings.
TEST(StreamingEquivalence, FullRunIdenticalAcrossSlotsAndThreads) {
  const auto run_with = [](int threads, int slots) {
    core::DpoAfPipeline pipe(with_holdout(micro_config(threads, slots, false)));
    auto result = pipe.run();
    util::set_global_threads(1);
    return result;
  };
  const auto [threads, slots] = kThreadsSlots[0];
  const auto reference = run_with(threads, slots);
  ASSERT_TRUE(reference.has_generalization);
  EXPECT_GT(reference.pair_count, 0u);
  for (const auto& [t, s] : kThreadsSlots) {
    SCOPED_TRACE(testing::Message() << "threads=" << t << " slots=" << s);
    const auto other = run_with(t, s);
    EXPECT_EQ(reference.pair_count, other.pair_count);
    ASSERT_EQ(reference.metrics.size(), other.metrics.size());
    for (std::size_t i = 0; i < reference.metrics.size(); ++i) {
      EXPECT_EQ(reference.metrics[i].loss, other.metrics[i].loss);
      EXPECT_EQ(reference.metrics[i].accuracy, other.metrics[i].accuracy);
      EXPECT_EQ(reference.metrics[i].margin, other.metrics[i].margin);
      EXPECT_EQ(reference.metrics[i].kl, other.metrics[i].kl);
    }
    ASSERT_EQ(reference.checkpoints.size(), other.checkpoints.size());
    for (std::size_t i = 0; i < reference.checkpoints.size(); ++i) {
      const auto& a = reference.checkpoints[i];
      const auto& b = other.checkpoints[i];
      EXPECT_EQ(a.epoch, b.epoch);
      EXPECT_EQ(a.train_mean_satisfied, b.train_mean_satisfied);
      EXPECT_EQ(a.val_mean_satisfied, b.val_mean_satisfied);
      EXPECT_EQ(a.train_alignment_failure_rate,
                b.train_alignment_failure_rate);
      EXPECT_EQ(a.val_alignment_failure_rate, b.val_alignment_failure_rate);
      EXPECT_EQ(a.truncated_responses, b.truncated_responses);
      EXPECT_EQ(a.per_task, b.per_task);
      EXPECT_EQ(a.per_task_alignment_failure, b.per_task_alignment_failure);
    }
    ASSERT_TRUE(other.has_generalization);
    const auto& g = reference.generalization;
    const auto& h = other.generalization;
    EXPECT_EQ(g.train_tasks, h.train_tasks);
    EXPECT_EQ(g.holdout_tasks, h.holdout_tasks);
    EXPECT_EQ(g.train_mean_satisfied_fraction, h.train_mean_satisfied_fraction);
    EXPECT_EQ(g.holdout_mean_satisfied_fraction,
              h.holdout_mean_satisfied_fraction);
    EXPECT_EQ(g.train_alignment_failure_rate, h.train_alignment_failure_rate);
    EXPECT_EQ(g.holdout_alignment_failure_rate,
              h.holdout_alignment_failure_rate);
    EXPECT_EQ(g.train_violation_rate, h.train_violation_rate);
    EXPECT_EQ(g.holdout_violation_rate, h.holdout_violation_rate);
    EXPECT_EQ(g.per_holdout_task, h.per_holdout_task);
  }
}

}  // namespace
}  // namespace dpoaf
