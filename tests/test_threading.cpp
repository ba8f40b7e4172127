// Threading determinism contract (see DESIGN.md "Threading model"):
// every parallelized path must produce bitwise-identical results at any
// thread count, because partitions never split a float reduction across
// chunks. These tests pin that contract for the tensor ops and for the
// end-to-end pipeline.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <vector>

#include "core/pipeline.hpp"
#include "nn/gpt.hpp"
#include "obs/metrics.hpp"
#include "tensor/backend/backend.hpp"
#include "tensor/ops.hpp"
#include "util/threadpool.hpp"

namespace dpoaf {
namespace {

using tensor::Tape;
using tensor::Tensor;
namespace ops = tensor::ops;
namespace backend = tensor::backend;

// The 1-vs-N bitwise contract holds per compute backend (docs/BACKENDS.md):
// run `fn` under scalar and — when the CPU supports it — simd, restoring
// the scalar backend afterwards.
template <typename Fn>
void for_each_backend(Fn fn) {
  fn("scalar");
  if (backend::simd_supported()) fn("simd");
  backend::select("scalar");
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  util::ThreadPool pool(4);
  constexpr std::int64_t n = 10'000;
  std::vector<int> hits(n, 0);
  pool.parallel_for(0, n, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) ++hits[static_cast<std::size_t>(i)];
  });
  for (std::int64_t i = 0; i < n; ++i) ASSERT_EQ(hits[static_cast<std::size_t>(i)], 1);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  util::ThreadPool pool(4);
  std::atomic<std::int64_t> total{0};
  pool.parallel_for(0, 8, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i)
      // Nested call: must execute inline on this thread without deadlock.
      pool.parallel_for(0, 100, 1, [&](std::int64_t a, std::int64_t b) {
        total.fetch_add(b - a, std::memory_order_relaxed);
      });
  });
  EXPECT_EQ(total.load(), 8 * 100);
}

TEST(ThreadPool, SerialPoolRunsWholeRangeAsOneChunk) {
  util::ThreadPool pool(1);
  int calls = 0;
  pool.parallel_for(0, 1000, 1, [&](std::int64_t lo, std::int64_t hi) {
    ++calls;
    EXPECT_EQ(lo, 0);
    EXPECT_EQ(hi, 1000);
  });
  EXPECT_EQ(calls, 1);
}

// Runs `fn` once at threads=1 and once at threads=4, returning both
// results for bitwise comparison.
template <typename Fn>
auto with_both_thread_counts(Fn fn) {
  util::set_global_threads(1);
  auto serial = fn();
  util::set_global_threads(4);
  auto parallel = fn();
  util::set_global_threads(1);
  return std::make_pair(serial, parallel);
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        sizeof(float) * static_cast<std::size_t>(a.numel())),
            0);
}

TEST(Determinism, MatmulForwardBitwiseAcrossThreadCounts) {
  for_each_backend([](const char* be) {
    backend::select(be);
    auto [serial, parallel] = with_both_thread_counts([] {
      Rng rng(7);
      Tensor a = Tensor::randn({96, 96}, rng);
      Tensor b = Tensor::randn({96, 96}, rng);
      return ops::matmul(nullptr, a, b);
    });
    expect_bitwise_equal(serial, parallel);
  });
}

TEST(Determinism, MatmulBackwardGradsBitwiseAcrossThreadCounts) {
  auto run = [] {
    Rng rng(11);
    Tensor a = Tensor::randn({64, 96}, rng).set_requires_grad(true);
    Tensor b = Tensor::randn({96, 80}, rng).set_requires_grad(true);
    Tape tape;
    Tensor c = ops::matmul(&tape, a, b);
    Tensor loss = ops::sum(&tape, c);
    tape.backward(loss);
    Tensor ga = Tensor::from(
        a.shape(), std::vector<float>(a.grad(), a.grad() + a.numel()));
    Tensor gb = Tensor::from(
        b.shape(), std::vector<float>(b.grad(), b.grad() + b.numel()));
    return std::make_pair(ga, gb);
  };
  for_each_backend([&](const char* be) {
    backend::select(be);
    auto [serial, parallel] = with_both_thread_counts(run);
    expect_bitwise_equal(serial.first, parallel.first);
    expect_bitwise_equal(serial.second, parallel.second);
  });
}

TEST(Determinism, ElementwiseAndRowOpsBitwiseAcrossThreadCounts) {
  auto run = [] {
    Rng rng(13);
    Tensor x = Tensor::randn({256, 256}, rng).set_requires_grad(true);
    Tensor y = Tensor::randn({256, 256}, rng).set_requires_grad(true);
    Tensor gamma = Tensor::full({1, 256}, 1.0f);
    Tensor beta = Tensor::zeros({1, 256});
    Tape tape;
    Tensor h = ops::gelu(&tape, ops::add(&tape, x, ops::mul(&tape, x, y)));
    h = ops::layer_norm(&tape, h, gamma, beta);
    h = ops::softmax_rows(&tape, h);
    Tensor loss = ops::sum(&tape, ops::softplus(&tape, h));
    tape.backward(loss);
    Tensor out = h.clone();
    Tensor gx = Tensor::from(
        x.shape(), std::vector<float>(x.grad(), x.grad() + x.numel()));
    return std::make_pair(out, gx);
  };
  for_each_backend([&](const char* be) {
    backend::select(be);
    auto [serial, parallel] = with_both_thread_counts(run);
    expect_bitwise_equal(serial.first, parallel.first);
    expect_bitwise_equal(serial.second, parallel.second);
  });
}

// Ops are serial: a whole TinyGpt training step — loss forward plus
// backward at model scale — never enters the pool, however many threads
// it has. Parallelism belongs to the loops above the ops.
TEST(Threading, ModelStepNeverEntersThePool) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  util::set_global_threads(4);
  Rng rng(17);
  nn::GptConfig cfg;
  cfg.vocab_size = 40;
  nn::TinyGpt model(cfg, rng);
  std::vector<int> ids(64);
  for (std::size_t i = 0; i < ids.size(); ++i)
    ids[i] = static_cast<int>((i * 7) % 40);

  obs::Counter& calls = obs::counter("threadpool.parallel_for.calls");
  const std::uint64_t before = calls.value();
  Tape tape;
  Tensor loss = model.nll_loss(&tape, ids);
  tape.backward(loss);
  EXPECT_EQ(calls.value(), before);

  util::set_global_threads(1);
  obs::set_enabled(was_enabled);
}

// End-to-end: the full DPO-AF loop (pretrain → candidates → pairs → DPO →
// checkpoint eval) at threads=1 and threads=4 must produce identical
// EpochMetrics and CheckpointEvals on a fixed seed.
TEST(Determinism, PipelineRunIdenticalAcrossThreadCounts) {
  auto run_with = [](int threads) {
    core::PipelineConfig cfg;
    cfg.seed = 23;
    cfg.threads = threads;
    cfg.d_model = 16;
    cfg.n_heads = 2;
    cfg.n_layers = 1;
    cfg.d_ff = 32;
    cfg.corpus_samples_per_task = 6;
    cfg.pretrain.epochs = 1;
    cfg.candidates_from_catalog = true;
    cfg.dpo.epochs = 2;
    cfg.dpo.checkpoint_every = 2;
    cfg.dpo.pairs_per_epoch = 8;
    cfg.dpo.lora_rank = 2;
    cfg.eval_samples_per_task = 2;
    cfg.eval_max_new_tokens = 24;
    core::DpoAfPipeline pipe(cfg);
    pipe.pretrain_model();
    return pipe.run_dpo(pipe.build_pairs(pipe.collect_candidates()));
  };
  const auto serial = run_with(1);
  const auto parallel = run_with(4);
  util::set_global_threads(1);

  ASSERT_EQ(serial.metrics.size(), parallel.metrics.size());
  for (std::size_t i = 0; i < serial.metrics.size(); ++i) {
    EXPECT_EQ(serial.metrics[i].loss, parallel.metrics[i].loss);
    EXPECT_EQ(serial.metrics[i].accuracy, parallel.metrics[i].accuracy);
    EXPECT_EQ(serial.metrics[i].margin, parallel.metrics[i].margin);
  }
  ASSERT_EQ(serial.checkpoints.size(), parallel.checkpoints.size());
  for (std::size_t i = 0; i < serial.checkpoints.size(); ++i) {
    const auto& s = serial.checkpoints[i];
    const auto& p = parallel.checkpoints[i];
    EXPECT_EQ(s.epoch, p.epoch);
    EXPECT_EQ(s.train_mean_satisfied, p.train_mean_satisfied);
    EXPECT_EQ(s.val_mean_satisfied, p.val_mean_satisfied);
    ASSERT_EQ(s.per_task.size(), p.per_task.size());
    for (std::size_t t = 0; t < s.per_task.size(); ++t) {
      EXPECT_EQ(s.per_task[t].first, p.per_task[t].first);
      EXPECT_EQ(s.per_task[t].second, p.per_task[t].second);
    }
  }
}

}  // namespace
}  // namespace dpoaf
