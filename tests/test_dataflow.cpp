// The streaming dataflow framework (src/core/dataflow) and the pipeline's
// determinism contract (docs/PIPELINE.md): bounded channels must enforce
// backpressure and drain cleanly on close/fail, stage errors must unwind
// the whole graph, and the streaming pipeline must produce
// bitwise-identical results at any thread count and serve slot count, with
// TinyGpt::generate as the oracle for its served decodes. This suite also
// runs under TSan in CI (DPOAF_THREADS=4, both tensor backends).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/dataflow/channel.hpp"
#include "core/dataflow/stage.hpp"
#include "core/pipeline.hpp"
#include "nn/decoder.hpp"
#include "util/threadpool.hpp"

namespace dpoaf {
namespace {

using core::dataflow::Channel;
using core::dataflow::StageSet;

// ---------------------------------------------------------- channel ----

TEST(DataflowChannel, FifoOrderThenCloseDrains) {
  Channel<int> ch(8, "test.fifo");
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ch.push(i));
  ch.close();
  EXPECT_FALSE(ch.push(99));  // closed: push refuses, item dropped
  for (int i = 0; i < 5; ++i) {
    const auto v = ch.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);  // buffered items drain in FIFO order after close
  }
  EXPECT_FALSE(ch.pop().has_value());  // drained: stream ends
  EXPECT_FALSE(ch.pop().has_value());  // and stays ended
  const auto stats = ch.stats();
  EXPECT_EQ(stats.pushes, 5u);
  EXPECT_EQ(stats.pops, 5u);
  EXPECT_TRUE(stats.closed);
  EXPECT_FALSE(stats.failed);
}

TEST(DataflowChannel, BackpressureBoundsDepthUnderSlowConsumer) {
  constexpr std::size_t kCapacity = 2;
  constexpr int kItems = 24;
  Channel<int> ch(kCapacity, "test.backpressure");
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) ASSERT_TRUE(ch.push(i));
    ch.close();
  });
  int received = 0;
  for (;;) {
    // The consumer is deliberately slower than the producer, so the
    // producer must hit the capacity bound and block.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const auto v = ch.pop();
    if (!v.has_value()) break;
    EXPECT_EQ(*v, received);  // order survives the blocking
    ++received;
  }
  producer.join();
  EXPECT_EQ(received, kItems);
  const auto stats = ch.stats();
  EXPECT_LE(stats.max_depth, kCapacity);  // the bound held throughout
  EXPECT_GT(stats.backpressure_waits, 0u);  // and the producer did block
}

TEST(DataflowChannel, FailUnblocksBlockedProducerAndConsumer) {
  Channel<int> ch(1, "test.fail");
  ASSERT_TRUE(ch.push(0));  // fill to capacity
  std::atomic<bool> push_returned{false};
  std::thread producer([&] {
    EXPECT_FALSE(ch.push(1));  // blocks on full, then fails out
    push_returned.store(true);
  });
  // Give the producer time to block on the full channel.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ch.fail();
  producer.join();
  EXPECT_TRUE(push_returned.load());
  // fail() abandons buffered items: the consumer sees end-of-stream, not
  // the item pushed before the failure.
  EXPECT_FALSE(ch.pop().has_value());
  EXPECT_TRUE(ch.stats().failed);
}

// ---------------------------------------------------------- stages -----

TEST(DataflowStageSet, FanInFanOutDeliversEveryItemExactlyOnce) {
  constexpr int kWorkers = 4;
  constexpr int kPerWorker = 100;
  Channel<int> ch(8, "test.fanin");
  StageSet stages([&] { ch.fail(); });
  stages.spawn(
      "produce", kWorkers,
      [&](int worker) {
        for (int i = 0; i < kPerWorker; ++i)
          ASSERT_TRUE(ch.push(worker * kPerWorker + i));
      },
      [&] { ch.close(); });  // fires once, after the LAST worker returns
  std::vector<bool> seen(kWorkers * kPerWorker, false);
  while (const auto v = ch.pop()) {
    ASSERT_FALSE(seen[static_cast<std::size_t>(*v)]);
    seen[static_cast<std::size_t>(*v)] = true;
  }
  stages.join();
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(DataflowStageSet, WorkerErrorFailsTheGraphAndRethrowsOnJoin) {
  Channel<int> work(2, "test.err_in");
  Channel<int> done(2, "test.err_out");
  StageSet stages([&] {
    work.fail();
    done.fail();
  });
  stages.spawn("explode", 1, [&](int) {
    throw std::runtime_error("stage worker died");
  });
  // A downstream stage blocked on the failed graph must unwind cleanly
  // instead of hanging.
  stages.spawn(
      "drain", 2,
      [&](int) {
        while (const auto v = work.pop()) done.push(*v);
      },
      [&] { done.close(); });
  EXPECT_FALSE(done.pop().has_value());  // consumer unblocks with nothing
  EXPECT_THROW(stages.join(), std::runtime_error);
}

// ---------------- served sampling: bitwise identical across settings ----
//
// Every sampled decode runs on serve::GenerationService. The oracle test
// pins served decodes to TinyGpt::generate; the other cases require every
// (threads, serve_slots) setting — the "modes" in their names — to
// reproduce the first.

constexpr std::pair<int, int> kThreadsSlots[] = {{1, 1}, {1, 4}, {4, 1},
                                                 {4, 4}};

core::PipelineConfig micro_config(int threads, int slots, bool catalog) {
  core::PipelineConfig cfg;
  cfg.seed = 29;
  cfg.threads = threads;
  cfg.stage_queue_capacity = 4;  // small bound: force real backpressure
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
// them wait in the admission queue while the sampler harvests others.
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

// TinyGpt::generate is the bitwise oracle for served decodes: a test-local
// loop that splits the eval RNG per non-held-out task, decodes each sample
// directly with its per-request RNG and scores it must reproduce
// evaluate_model's per-task means and failure rates.
TEST(StreamingEquivalence, EvalMatchesGenerateOracle) {
  constexpr int kEpoch = 2;
  for (const auto& [threads, slots] : kThreadsSlots) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads
                                    << " slots=" << slots);
    const auto cfg = with_holdout(micro_config(threads, slots, false));
    core::DpoAfPipeline pipe(cfg);
    pipe.pretrain_model();
    const auto eval = pipe.evaluate_model(pipe.model(), kEpoch);
    util::set_global_threads(1);

    const lm::Tokenizer& tok = pipe.tokenizer();
    const int top_k = lm::SamplerConfig{}.top_k;
    const auto n = static_cast<double>(cfg.eval_samples_per_task);
    Rng eval_rng(cfg.seed * 0x9E3779B9ULL + kEpoch);
    std::vector<std::pair<std::string, double>> per_task;
    std::vector<double> per_task_failure;
    int truncated = 0;
    bool saw_holdout = false;
    for (const auto& task : pipe.domain().tasks()) {
      if (task.holdout) {
        saw_holdout = true;
        continue;
      }
      Rng task_rng = eval_rng.split();
      const std::vector<int> prompt = lm::encode_prompt(tok, task.prompt);
      double score_sum = 0.0;
      int failures = 0;
      for (int s = 0; s < cfg.eval_samples_per_task; ++s) {
        Rng request = nn::request_rng(cfg.seed, task_rng());
        const auto gen = pipe.model().generate(
            prompt, cfg.eval_max_new_tokens, cfg.eval_temperature, top_k,
            tok.eos(), request);
        if (gen.truncated) ++truncated;
        const int score = pipe.score_response(task, tok.decode(gen.ids));
        if (score < 0) ++failures;
        score_sum += std::max(0, score);
      }
      per_task.emplace_back(task.id, score_sum / n);
      per_task_failure.push_back(static_cast<double>(failures) / n);
    }
    ASSERT_TRUE(saw_holdout);
    EXPECT_EQ(eval.per_task, per_task);
    EXPECT_EQ(eval.per_task_alignment_failure, per_task_failure);
    EXPECT_EQ(eval.truncated_responses, truncated);
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
