// The streaming dataflow framework (src/core/dataflow) and the pipeline's
// determinism contract (docs/PIPELINE.md): bounded channels must enforce
// backpressure and drain cleanly on close/fail, sequence-numbered
// reassembly must release items in submission order no matter the
// completion order, stage errors must unwind the whole graph, and the
// streaming pipeline must produce bitwise-identical results whether its
// decodes are scheduled directly or on the serve layer, at any thread
// count. This suite also runs under TSan in CI (DPOAF_THREADS=4, both
// tensor backends).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/dataflow/channel.hpp"
#include "core/dataflow/reorder.hpp"
#include "core/dataflow/stage.hpp"
#include "core/pipeline.hpp"
#include "util/threadpool.hpp"

namespace dpoaf {
namespace {

using core::dataflow::Channel;
using core::dataflow::Reorder;
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

// ---------------------------------------------------------- reorder ----

TEST(DataflowReorder, ReleasesInSequenceOrderRegardlessOfArrival) {
  Reorder<std::string> ro("test.reorder");
  // Completions arrive in reverse order.
  for (int i = 4; i >= 0; --i)
    EXPECT_TRUE(ro.push(static_cast<std::uint64_t>(i), std::to_string(i)));
  EXPECT_EQ(ro.max_pending(), 5u);
  ro.close();
  for (int i = 0; i < 5; ++i) {
    const auto v = ro.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, std::to_string(i));
  }
  EXPECT_FALSE(ro.pop().has_value());
}

TEST(DataflowReorder, PopBlocksUntilTheNextSequenceNumberArrives) {
  Reorder<int> ro("test.reorder_block");
  std::vector<int> seen;
  std::thread consumer([&] {
    while (const auto v = ro.pop()) seen.push_back(*v);
  });
  ro.push(1, 11);  // out of order: the consumer must keep waiting
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ro.push(0, 10);  // gap filled: both release, in order
  ro.push(2, 12);
  ro.close();
  consumer.join();
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], 10);
  EXPECT_EQ(seen[1], 11);
  EXPECT_EQ(seen[2], 12);
}

TEST(DataflowReorder, FailAbandonsPendingItems) {
  Reorder<int> ro("test.reorder_fail");
  ro.push(1, 11);  // would block a pop forever (seq 0 never arrives)
  ro.fail();
  EXPECT_FALSE(ro.pop().has_value());
  EXPECT_FALSE(ro.push(0, 10));  // failed: pushes refuse
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

// ------------------------- serve vs direct scheduling: bitwise identical ----

core::PipelineConfig micro_config(bool serve, int threads, bool catalog) {
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
  cfg.serve = serve;
  cfg.serve_slots = 4;
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

TEST(StreamingEquivalence, CatalogCandidatesIdenticalAcrossModesAndThreads) {
  const auto direct = collect(micro_config(false, 1, true));
  expect_same_candidates(direct, collect(micro_config(false, 4, true)));
  expect_same_candidates(direct, collect(micro_config(true, 1, true)));
  expect_same_candidates(direct, collect(micro_config(true, 4, true)));
}

TEST(StreamingEquivalence, SampledCandidatesIdenticalAcrossModesAndThreads) {
  const auto direct = collect(micro_config(false, 1, false));
  expect_same_candidates(direct, collect(micro_config(false, 4, false)));
}

TEST(StreamingEquivalence, ServedCandidatesIdenticalAcrossModesAndThreads) {
  const auto direct = collect(micro_config(false, 1, false));
  expect_same_candidates(direct, collect(micro_config(true, 1, false)));
  expect_same_candidates(direct, collect(micro_config(true, 4, false)));
}

// Full run() over a generated catalog with held-out scenarios: serve only
// schedules the decodes of collection, checkpoint eval and the held-out
// eval, so the whole RunResult — DPO history, every checkpoint, the
// generalization block, the pair count — must match the direct run.
TEST(StreamingEquivalence, FullRunIdenticalServedAndDirect) {
  const auto run_with = [](bool serve, int threads) {
    auto cfg = micro_config(serve, threads, false);
    cfg.generated_scenarios = 3;
    cfg.holdout_scenarios = 1;
    cfg.generator_seed = 13;
    core::DpoAfPipeline pipe(cfg);
    auto result = pipe.run();
    util::set_global_threads(1);
    return result;
  };
  const auto direct = run_with(false, 1);
  ASSERT_TRUE(direct.has_generalization);
  EXPECT_GT(direct.pair_count, 0u);
  for (const auto& [serve, threads] :
       {std::pair{false, 4}, std::pair{true, 1}, std::pair{true, 4}}) {
    SCOPED_TRACE(testing::Message() << "serve=" << serve
                                    << " threads=" << threads);
    const auto other = run_with(serve, threads);
    EXPECT_EQ(direct.pair_count, other.pair_count);
    ASSERT_EQ(direct.metrics.size(), other.metrics.size());
    for (std::size_t i = 0; i < direct.metrics.size(); ++i) {
      EXPECT_EQ(direct.metrics[i].loss, other.metrics[i].loss);
      EXPECT_EQ(direct.metrics[i].accuracy, other.metrics[i].accuracy);
      EXPECT_EQ(direct.metrics[i].margin, other.metrics[i].margin);
      EXPECT_EQ(direct.metrics[i].kl, other.metrics[i].kl);
    }
    ASSERT_EQ(direct.checkpoints.size(), other.checkpoints.size());
    for (std::size_t i = 0; i < direct.checkpoints.size(); ++i) {
      const auto& a = direct.checkpoints[i];
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
    const auto& g = direct.generalization;
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
