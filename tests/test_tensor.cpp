#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "tensor/backend/backend.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "unfused_attention.hpp"
#include "unfused_linear.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace dpoaf::tensor {
namespace {

namespace ops = dpoaf::tensor::ops;

// Central finite-difference check: analytic grad of `loss(inputs)` wrt each
// entry of each input vs (f(x+h)−f(x−h)) / 2h.
void check_gradients(std::vector<Tensor> inputs,
                     const std::function<Tensor(Tape*)>& loss_fn,
                     float h = 1e-3f, float tol = 2e-2f) {
  Tape tape;
  Tensor loss = loss_fn(&tape);
  ASSERT_EQ(loss.numel(), 1);
  tape.backward(loss);

  for (Tensor& input : inputs) {
    ASSERT_TRUE(input.requires_grad());
    for (std::int64_t i = 0; i < input.numel(); ++i) {
      const float orig = input.data()[i];
      input.data()[i] = orig + h;
      const float up = loss_fn(nullptr).item();
      input.data()[i] = orig - h;
      const float down = loss_fn(nullptr).item();
      input.data()[i] = orig;
      const float numeric = (up - down) / (2.0f * h);
      const float analytic = input.grad()[i];
      EXPECT_NEAR(analytic, numeric,
                  tol * std::max(1.0f, std::fabs(numeric)))
          << "input entry " << i;
    }
  }
}

TEST(Tensor, ConstructionAndAccess) {
  Tensor t = Tensor::from({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(t.rows(), 2);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_EQ(t.at(1, 2), 6.0f);
  t.at(0, 0) = 9.0f;
  EXPECT_EQ(t.data()[0], 9.0f);
  EXPECT_THROW((void)Tensor::from({2, 2}, {1, 2, 3}), ContractViolation);
}

TEST(Tensor, CopiesAliasCloneDoesNot) {
  Tensor a = Tensor::from({1, 2}, {1, 2});
  Tensor b = a;          // aliases
  Tensor c = a.clone();  // deep copy
  a.data()[0] = 7.0f;
  EXPECT_EQ(b.data()[0], 7.0f);
  EXPECT_EQ(c.data()[0], 1.0f);
  EXPECT_TRUE(a.same_storage(b));
  EXPECT_FALSE(a.same_storage(c));
}

TEST(Tensor, ItemRequiresScalar) {
  EXPECT_THROW((void)Tensor::zeros({2, 1}).item(), ContractViolation);
  EXPECT_EQ(Tensor::full({1, 1}, 3.0f).item(), 3.0f);
}

TEST(Tensor, GradLazyAllocationAndZero) {
  Tensor t = Tensor::zeros({2, 2});
  EXPECT_FALSE(t.has_grad());
  t.grad()[0] = 5.0f;
  EXPECT_TRUE(t.has_grad());
  t.zero_grad();
  EXPECT_EQ(t.grad()[0], 0.0f);
}

TEST(Ops, MatmulForwardValues) {
  Tensor a = Tensor::from({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::from({2, 2}, {5, 6, 7, 8});
  Tensor c = ops::matmul(nullptr, a, b);
  EXPECT_EQ(c.at(0, 0), 19.0f);
  EXPECT_EQ(c.at(0, 1), 22.0f);
  EXPECT_EQ(c.at(1, 0), 43.0f);
  EXPECT_EQ(c.at(1, 1), 50.0f);
}

TEST(Ops, MatmulShapeMismatchThrows) {
  Tensor a = Tensor::zeros({2, 3});
  Tensor b = Tensor::zeros({2, 3});
  EXPECT_THROW((void)ops::matmul(nullptr, a, b), ContractViolation);
}

TEST(Ops, MatmulGradients) {
  Rng rng(1);
  Tensor a = Tensor::randn({3, 4}, rng).set_requires_grad(true);
  Tensor b = Tensor::randn({4, 2}, rng).set_requires_grad(true);
  check_gradients({a, b}, [&](Tape* t) {
    return ops::sum(t, ops::matmul(t, a, b));
  });
}

TEST(Ops, AddMulSubScaleGradients) {
  Rng rng(2);
  Tensor a = Tensor::randn({2, 3}, rng).set_requires_grad(true);
  Tensor b = Tensor::randn({2, 3}, rng).set_requires_grad(true);
  check_gradients({a, b}, [&](Tape* t) {
    Tensor x = ops::add(t, a, b);
    Tensor y = ops::mul(t, x, ops::sub(t, a, b));
    return ops::sum(t, ops::scale(t, y, 0.5f));
  });
}

TEST(Ops, LinearGradients) {
  Rng rng(3);
  Tensor x = Tensor::randn({3, 4}, rng).set_requires_grad(true);
  Tensor w = Tensor::randn({4, 5}, rng).set_requires_grad(true);
  Tensor b = Tensor::randn({1, 5}, rng).set_requires_grad(true);
  Tensor a = Tensor::randn({4, 2}, rng).set_requires_grad(true);
  Tensor bb = Tensor::randn({2, 5}, rng).set_requires_grad(true);
  Tensor u = Tensor::randn({3, 5}, rng);  // weighting makes the loss non-flat
  check_gradients({x, w, b}, [&](Tape* t) {
    return ops::sum(t, ops::mul(t, ops::linear(t, x, w, b), u));
  });
  for (Tensor* p : {&x, &w, &b}) p->zero_grad();
  const ops::LoRA lora{a, bb, 1.5f};
  check_gradients({x, w, b, a, bb}, [&](Tape* t) {
    return ops::sum(t, ops::mul(t, ops::linear(t, x, w, b, &lora), u));
  });
}

TEST(Ops, GeluGradientsAndValues) {
  // gelu(0) = 0; gelu(x) ≈ x for large x; gelu(x) ≈ 0 for very negative x.
  Tensor z = Tensor::from({1, 3}, {0.0f, 10.0f, -10.0f});
  Tensor g = ops::gelu(nullptr, z);
  EXPECT_NEAR(g.data()[0], 0.0f, 1e-6f);
  EXPECT_NEAR(g.data()[1], 10.0f, 1e-3f);
  EXPECT_NEAR(g.data()[2], 0.0f, 1e-3f);

  Rng rng(4);
  Tensor a = Tensor::randn({2, 5}, rng).set_requires_grad(true);
  check_gradients({a}, [&](Tape* t) { return ops::sum(t, ops::gelu(t, a)); });
}

TEST(Ops, LayerNormNormalizesRows) {
  Rng rng(5);
  Tensor x = Tensor::randn({4, 8}, rng, 3.0f);
  Tensor gamma = Tensor::full({1, 8}, 1.0f);
  Tensor beta = Tensor::zeros({1, 8});
  Tensor y = ops::layer_norm(nullptr, x, gamma, beta);
  for (std::int64_t i = 0; i < 4; ++i) {
    float mean = 0.0f, var = 0.0f;
    for (std::int64_t j = 0; j < 8; ++j) mean += y.at(i, j);
    mean /= 8.0f;
    for (std::int64_t j = 0; j < 8; ++j)
      var += (y.at(i, j) - mean) * (y.at(i, j) - mean);
    var /= 8.0f;
    EXPECT_NEAR(mean, 0.0f, 1e-5f);
    EXPECT_NEAR(var, 1.0f, 1e-3f);
  }
}

TEST(Ops, LayerNormGradients) {
  Rng rng(6);
  Tensor x = Tensor::randn({3, 6}, rng).set_requires_grad(true);
  Tensor gamma = Tensor::randn({1, 6}, rng).set_requires_grad(true);
  Tensor beta = Tensor::randn({1, 6}, rng).set_requires_grad(true);
  Tensor w = Tensor::randn({3, 6}, rng);  // weighting makes the loss non-flat
  check_gradients({x, gamma, beta}, [&](Tape* t) {
    return ops::sum(t, ops::mul(t, ops::layer_norm(t, x, gamma, beta), w));
  });
}

TEST(Ops, SoftmaxRowsSumToOne) {
  Rng rng(7);
  Tensor x = Tensor::randn({3, 5}, rng, 2.0f);
  Tensor y = ops::softmax_rows(nullptr, x);
  for (std::int64_t i = 0; i < 3; ++i) {
    float s = 0.0f;
    for (std::int64_t j = 0; j < 5; ++j) {
      s += y.at(i, j);
      EXPECT_GT(y.at(i, j), 0.0f);
    }
    EXPECT_NEAR(s, 1.0f, 1e-5f);
  }
}

TEST(Ops, SoftmaxGradients) {
  Rng rng(8);
  Tensor x = Tensor::randn({2, 4}, rng).set_requires_grad(true);
  Tensor w = Tensor::randn({2, 4}, rng);
  check_gradients({x}, [&](Tape* t) {
    return ops::sum(t, ops::mul(t, ops::softmax_rows(t, x), w));
  });
}

TEST(Ops, CausalSoftmaxMasksUpperTriangle) {
  Rng rng(9);
  Tensor x = Tensor::randn({4, 4}, rng);
  Tensor y = ops::causal_softmax_rows(nullptr, x);
  for (std::int64_t i = 0; i < 4; ++i) {
    float s = 0.0f;
    for (std::int64_t j = 0; j < 4; ++j) {
      if (j > i) {
        EXPECT_EQ(y.at(i, j), 0.0f);
      } else {
        s += y.at(i, j);
      }
    }
    EXPECT_NEAR(s, 1.0f, 1e-5f);
  }
}

TEST(Ops, CausalSoftmaxGradients) {
  Rng rng(10);
  Tensor x = Tensor::randn({3, 3}, rng).set_requires_grad(true);
  Tensor w = Tensor::randn({3, 3}, rng);
  check_gradients({x}, [&](Tape* t) {
    return ops::sum(t, ops::mul(t, ops::causal_softmax_rows(t, x), w));
  });
}

TEST(Ops, EmbeddingGatherAndScatter) {
  Tensor table =
      Tensor::from({3, 2}, {1, 2, 3, 4, 5, 6}).set_requires_grad(true);
  const std::vector<int> ids{2, 0, 2};
  Tensor out = ops::embedding(nullptr, table, ids);
  EXPECT_EQ(out.at(0, 0), 5.0f);
  EXPECT_EQ(out.at(1, 1), 2.0f);

  check_gradients({table}, [&](Tape* t) {
    return ops::sum(t, ops::embedding(t, table, ids));
  });
  // Row 2 gathered twice → gradient 2 per entry; row 1 never → 0.
  Tape tape;
  table.zero_grad();
  Tensor loss = ops::sum(&tape, ops::embedding(&tape, table, ids));
  tape.backward(loss);
  EXPECT_EQ(table.grad()[2 * 2], 2.0f);
  EXPECT_EQ(table.grad()[1 * 2], 0.0f);
}

TEST(Ops, EmbeddingOutOfRangeThrows) {
  Tensor table = Tensor::zeros({3, 2});
  EXPECT_THROW((void)ops::embedding(nullptr, table, {3}), ContractViolation);
}

TEST(Ops, CrossEntropyMatchesManualComputation) {
  // Uniform logits over V classes → CE = log V.
  Tensor logits = Tensor::zeros({2, 4});
  const std::vector<int> targets{1, 3};
  const float ce = ops::cross_entropy(nullptr, logits, targets).item();
  EXPECT_NEAR(ce, std::log(4.0f), 1e-5f);
}

TEST(Ops, CrossEntropyIgnoresNegativeTargets) {
  Tensor logits = Tensor::from({2, 2}, {100, 0, 0, 100});
  // Only position 1 scored; it predicts class 1 with ~certainty.
  const float ce = ops::cross_entropy(nullptr, logits, {-1, 1}).item();
  EXPECT_NEAR(ce, 0.0f, 1e-4f);
}

TEST(Ops, CrossEntropyGradients) {
  Rng rng(13);
  Tensor logits = Tensor::randn({3, 5}, rng).set_requires_grad(true);
  const std::vector<int> targets{4, -1, 0};
  check_gradients({logits}, [&](Tape* t) {
    return ops::cross_entropy(t, logits, targets);
  });
}

TEST(Ops, SumLogProbsEqualsNegativeCeTimesCount) {
  Rng rng(14);
  Tensor logits = Tensor::randn({4, 6}, rng);
  const std::vector<int> targets{1, 2, 3, -1};
  const float lp = ops::sum_log_probs(nullptr, logits, targets, 0).item();
  const float ce = ops::cross_entropy(nullptr, logits, targets).item();
  EXPECT_NEAR(lp, -3.0f * ce, 1e-4f);
}

TEST(Ops, SumLogProbsRespectsFrom) {
  Rng rng(15);
  Tensor logits = Tensor::randn({4, 6}, rng).set_requires_grad(true);
  const std::vector<int> targets{1, 2, 3, 4};
  const float all = ops::sum_log_probs(nullptr, logits, targets, 0).item();
  const float tail = ops::sum_log_probs(nullptr, logits, targets, 2).item();
  EXPECT_LT(tail, 0.0f);
  EXPECT_LT(all, tail);  // more (negative) terms
  check_gradients({logits}, [&](Tape* t) {
    return ops::sum_log_probs(t, logits, targets, 2);
  });
}

TEST(Ops, SoftplusValuesAndGradients) {
  Tensor x = Tensor::from({1, 3}, {0.0f, 20.0f, -20.0f});
  Tensor y = ops::softplus(nullptr, x);
  EXPECT_NEAR(y.data()[0], std::log(2.0f), 1e-6f);
  EXPECT_NEAR(y.data()[1], 20.0f, 1e-4f);
  EXPECT_NEAR(y.data()[2], 0.0f, 1e-4f);

  Rng rng(16);
  Tensor a = Tensor::randn({2, 3}, rng).set_requires_grad(true);
  check_gradients({a}, [&](Tape* t) {
    return ops::sum(t, ops::softplus(t, a));
  });
}

TEST(Ops, NoTapeMeansNoGradFlow) {
  Tensor a = Tensor::from({1, 1}, {2.0f}).set_requires_grad(true);
  Tensor b = ops::scale(nullptr, a, 3.0f);
  EXPECT_FALSE(b.requires_grad());
}

TEST(Ops, FrozenInputGetsNoGradient) {
  Tensor a = Tensor::from({1, 2}, {1, 2});  // requires_grad = false
  Tensor b = Tensor::from({1, 2}, {3, 4}).set_requires_grad(true);
  Tape tape;
  Tensor loss = ops::sum(&tape, ops::mul(&tape, a, b));
  tape.backward(loss);
  EXPECT_FALSE(a.has_grad());
  EXPECT_EQ(b.grad()[0], 1.0f);
}

TEST(Tape, BackwardAccumulatesAcrossUses) {
  // y = a + a → dy/da = 2.
  Tensor a = Tensor::from({1, 1}, {1.0f}).set_requires_grad(true);
  Tape tape;
  Tensor loss = ops::add(&tape, a, a);
  tape.backward(loss);
  EXPECT_EQ(a.grad()[0], 2.0f);
}

TEST(Tape, BackwardRequiresScalarSeed) {
  Tape tape;
  EXPECT_THROW(tape.backward(Tensor::zeros({2, 1})), ContractViolation);
}

}  // namespace
}  // namespace dpoaf::tensor

namespace dpoaf::tensor {
namespace {

// ------------------------------------------------- fused attention ---

bool bitwise_equal(const float* a, const float* b, std::int64_t n) {
  return std::memcmp(a, b, static_cast<std::size_t>(n) * sizeof(float)) == 0;
}

// Values with exact zeros of both signs sprinkled in.
Tensor signed_zero_randn(Shape shape, Rng& rng) {
  Tensor t = Tensor::randn(shape, rng);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    if (i % 7 == 3) t.data()[i] = -0.0f;
    if (i % 11 == 5) t.data()[i] = 0.0f;
  }
  return t;
}

using AttentionFn = Tensor (*)(Tape*, const Tensor&, std::int64_t);

// Output and qkv gradient of one forward and backward of `fn`, seeded
// with the upstream gradient `up`.
std::pair<Tensor, Tensor> attention_value_and_grad(AttentionFn fn,
                                                   const Tensor& qkv_values,
                                                   const Tensor& up,
                                                   std::int64_t n_heads) {
  Tensor qkv = qkv_values.clone().set_requires_grad(true);
  Tape tape;
  Tensor out = fn(&tape, qkv, n_heads);
  std::copy(up.data(), up.data() + up.numel(), out.grad());
  tape.backward();
  Tensor value = out.clone();
  Tensor grad = Tensor::from(
      qkv.shape(), std::vector<float>(qkv.grad(), qkv.grad() + qkv.numel()));
  return {value, grad};
}

TEST(CausalAttention, BitwiseEqualsUnfusedChain) {
  constexpr std::int64_t d = 48;
  const AttentionFn fused = &ops::causal_attention;
  const AttentionFn unfused = &reference::unfused_attention;
  for (const char* be : {"scalar", "simd"}) {
    if (std::string(be) == "simd" && !backend::simd_supported()) continue;
    backend::select(be);
    for (const std::int64_t t : {1, 2, 35, 84}) {
      for (const std::int64_t heads : {1, 2, 4}) {
        SCOPED_TRACE(std::string(be) + " T=" + std::to_string(t) +
                     " heads=" + std::to_string(heads));
        Rng rng(static_cast<std::uint64_t>(100 * t + heads));
        const Tensor qkv = signed_zero_randn({t, 3 * d}, rng);
        const Tensor up = signed_zero_randn({t, d}, rng);

        const Tensor plain_ref = unfused(nullptr, qkv, heads);
        const Tensor plain = ops::causal_attention(nullptr, qkv, heads);
        EXPECT_TRUE(bitwise_equal(plain.data(), plain_ref.data(), t * d));

        const auto ref = attention_value_and_grad(unfused, qkv, up, heads);
        const auto got = attention_value_and_grad(fused, qkv, up, heads);
        EXPECT_TRUE(bitwise_equal(got.first.data(), ref.first.data(), t * d));
        EXPECT_TRUE(bitwise_equal(got.first.data(), plain.data(), t * d));
        EXPECT_TRUE(
            bitwise_equal(got.second.data(), ref.second.data(), t * 3 * d));
      }
    }
  }
  backend::select("");
}

TEST(CausalAttention, Gradients) {
  Rng rng(21);
  Tensor qkv = Tensor::randn({5, 12}, rng).set_requires_grad(true);
  Tensor w = Tensor::randn({5, 4}, rng);
  check_gradients({qkv}, [&](Tape* t) {
    return ops::sum(t, ops::mul(t, ops::causal_attention(t, qkv, 2), w));
  });
}

TEST(CausalAttention, RejectsHeadsThatDoNotSplitTheWidth) {
  const Tensor qkv = Tensor::zeros({3, 12});
  EXPECT_THROW((void)ops::causal_attention(nullptr, qkv, 3), ContractViolation);
  EXPECT_THROW((void)ops::causal_attention(nullptr, qkv, 0), ContractViolation);
}

// ---------------------------------------------------- fused linear ---

using LinearFn = Tensor (*)(Tape*, const Tensor&, const Tensor&,
                            const Tensor&, const ops::LoRA*);

// Which of x, W, b and the adapter factors take a gradient: the patterns
// the pipeline runs, plus one with nothing trainable.
struct Freeze {
  const char* name;
  bool x, w, b, adapter;
};
constexpr Freeze kFreezes[] = {
    {"pretrain", true, true, true, true},
    {"dpo_block0", false, false, false, true},
    {"dpo_later_block", true, false, false, true},
    {"frozen_head", true, false, false, false},
    {"nothing", false, false, false, false},
};

// The values one linear forward and backward reads.
struct LinearCase {
  Tensor x, w, b, a, bb, up;
};

// Output, then per input (x, W, b, A, B) its gradient or, when it took
// none, one NaN marker; and the four global tensor.matmul counters' rise.
std::pair<std::vector<float>, std::vector<std::uint64_t>> linear_run(
    LinearFn fn, const LinearCase& c, const Freeze& f, bool adapter,
    bool taped) {
  Tensor x = c.x.clone().set_requires_grad(f.x);
  Tensor w = c.w.clone().set_requires_grad(f.w);
  Tensor b = c.b.clone().set_requires_grad(f.b);
  Tensor a = c.a.clone().set_requires_grad(f.adapter);
  Tensor bb = c.bb.clone().set_requires_grad(f.adapter);
  const ops::LoRA lora{a, bb, 2.0f};
  auto& registry = obs::MetricsRegistry::instance();
  std::vector<obs::Counter*> counters;
  std::vector<std::uint64_t> rise;
  for (const char* name : {"tensor.matmul.calls", "tensor.matmul.flops",
                           "tensor.matmul.bwd_calls",
                           "tensor.matmul.bwd_flops"}) {
    counters.push_back(&registry.counter(name));
    rise.push_back(counters.back()->value());
  }
  std::vector<float> flat;
  {
    Tape tape;
    Tensor y = fn(taped ? &tape : nullptr, x, w, b, adapter ? &lora : nullptr);
    if (y.requires_grad()) {
      std::copy(c.up.data(), c.up.data() + c.up.numel(), y.grad());
      tape.backward();
    }
    flat.assign(y.data(), y.data() + y.numel());
  }
  for (Tensor* t : {&x, &w, &b, &a, &bb}) {
    if (t->has_grad())
      flat.insert(flat.end(), t->grad(), t->grad() + t->numel());
    else
      flat.push_back(std::nanf(""));
  }
  for (std::size_t i = 0; i < counters.size(); ++i)
    rise[i] = counters[i]->value() - rise[i];
  return {flat, rise};
}

TEST(Linear, FusedBitwiseEqualsUnfusedChain) {
  obs::set_enabled(true);
  const LinearFn fused = &ops::linear;
  const LinearFn unfused = &reference::unfused_linear;
  // The model's projections at d 48, d_ff 192: qkv, proj, fc1, fc2, and a
  // vocabulary-wide head.
  constexpr std::pair<std::int64_t, std::int64_t> kShapes[] = {
      {48, 144}, {48, 48}, {48, 192}, {192, 48}, {48, 75}};
  constexpr std::int64_t kRank = 4;
  for (const char* be : {"scalar", "simd"}) {
    if (std::string(be) == "simd" && !backend::simd_supported()) continue;
    backend::select(be);
    for (const std::int64_t t : {1, 35, 84}) {
      for (const auto& [in, out] : kShapes) {
        Rng rng(static_cast<std::uint64_t>(1000 * t + in + out));
        LinearCase c;
        c.x = signed_zero_randn({t, in}, rng);
        c.w = Tensor::randn({in, out}, rng, 0.1f);
        c.b = signed_zero_randn({1, out}, rng);
        c.a = Tensor::randn({in, kRank}, rng, 0.02f);
        // enable_lora zero-fills B; perturbed so the update contributes.
        c.bb = signed_zero_randn({kRank, out}, rng);
        c.up = signed_zero_randn({t, out}, rng);
        for (const bool adapter : {false, true}) {
          for (const Freeze& f : kFreezes) {
            for (const bool taped : {true, false}) {
              SCOPED_TRACE(std::string(be) + " T=" + std::to_string(t) +
                           " " + std::to_string(in) + "x" +
                           std::to_string(out) + " lora=" +
                           std::to_string(adapter) + " " + f.name +
                           (taped ? "" : " tape-less"));
              const auto want = linear_run(unfused, c, f, adapter, taped);
              const auto got = linear_run(fused, c, f, adapter, taped);
              ASSERT_EQ(got.first.size(), want.first.size());
              EXPECT_TRUE(bitwise_equal(
                  got.first.data(), want.first.data(),
                  static_cast<std::int64_t>(want.first.size())));
              EXPECT_EQ(got.second, want.second);
            }
          }
        }
      }
    }
  }
  backend::select("");
}

TEST(Linear, RejectsMismatchedShapes) {
  const Tensor x = Tensor::zeros({2, 4});
  const Tensor w = Tensor::zeros({4, 3});
  const Tensor b = Tensor::zeros({1, 3});
  const Tensor a = Tensor::zeros({4, 2});
  const Tensor bb = Tensor::zeros({2, 3});
  const Tensor odd = Tensor::zeros({3, 2});
  EXPECT_THROW((void)ops::linear(nullptr, x, Tensor::zeros({3, 3}), b),
               ContractViolation);
  EXPECT_THROW((void)ops::linear(nullptr, x, w, Tensor::zeros({1, 4})),
               ContractViolation);
  const ops::LoRA bad_a{odd, bb, 1.0f};
  EXPECT_THROW((void)ops::linear(nullptr, x, w, b, &bad_a), ContractViolation);
  const ops::LoRA bad_b{a, odd, 1.0f};
  EXPECT_THROW((void)ops::linear(nullptr, x, w, b, &bad_b), ContractViolation);
}

// --------------------------------------------------- layer-norm backward ---

// layer_norm with the backward it had before it kept x̂ and d x̂ in row
// scratch: a γ/β pass, then per row two passes that each recompute x̂ and
// d x̂. The reference the one-pass backward must match bit for bit.
Tensor two_pass_layer_norm(Tape* tape, const Tensor& x, const Tensor& gamma,
                           const Tensor& beta) {
  const std::int64_t m = x.rows(), n = x.cols();
  Tensor y = Tensor::zeros(x.shape());
  std::vector<float> mean(static_cast<std::size_t>(m));
  std::vector<float> inv_std(static_cast<std::size_t>(m));
  for (std::int64_t i = 0; i < m; ++i)
    std::tie(mean[i], inv_std[i]) = ops::layer_norm_row(
        x.data() + i * n, gamma.data(), beta.data(), n, y.data() + i * n);
  if (tape == nullptr ||
      !(x.requires_grad() || gamma.requires_grad() || beta.requires_grad()))
    return y;
  y.set_requires_grad(true);
  Tensor xt = x, gt = gamma, bt = beta, yt = y;
  tape->record([xt, gt, bt, yt, mean, inv_std]() mutable {
    const std::int64_t m = xt.rows(), n = xt.cols();
    const float* gy = yt.grad();
    for (std::int64_t i = 0; i < m; ++i) {
      const float* xr = xt.data() + i * n;
      const float* gyr = gy + i * n;
      const float mu = mean[i];
      const float is = inv_std[i];
      if (gt.requires_grad() || bt.requires_grad()) {
        float* gg = gt.grad();
        float* gb = bt.grad();
        for (std::int64_t j = 0; j < n; ++j) {
          gg[j] += gyr[j] * (xr[j] - mu) * is;
          gb[j] += gyr[j];
        }
      }
      if (xt.requires_grad()) {
        float sum_dxh = 0.0f, sum_dxh_xh = 0.0f;
        for (std::int64_t j = 0; j < n; ++j) {
          const float xh = (xr[j] - mu) * is;
          const float dxh = gyr[j] * gt.data()[j];
          sum_dxh += dxh;
          sum_dxh_xh += dxh * xh;
        }
        const float inv_n = 1.0f / static_cast<float>(n);
        float* gx = xt.grad() + i * n;
        for (std::int64_t j = 0; j < n; ++j) {
          const float xh = (xr[j] - mu) * is;
          const float dxh = gyr[j] * gt.data()[j];
          gx[j] += is * (dxh - inv_n * sum_dxh - xh * inv_n * sum_dxh_xh);
        }
      }
    }
  });
  return y;
}

TEST(LayerNorm, OnePassBackwardBitwiseEqualsTwoPass) {
  using LayerNormFn = Tensor (*)(Tape*, const Tensor&, const Tensor&,
                                 const Tensor&);
  const LayerNormFn one_pass = [](Tape* t, const Tensor& x, const Tensor& g,
                                  const Tensor& b) {
    return ops::layer_norm(t, x, g, b);
  };
  // Output, then the gradients of x, γ and β (a NaN marker for none).
  auto run = [](LayerNormFn fn, const Tensor& xv, const Tensor& gv,
                const Tensor& bv, const Tensor& up, bool grad_x,
                bool grad_params) {
    Tensor x = xv.clone().set_requires_grad(grad_x);
    Tensor g = gv.clone().set_requires_grad(grad_params);
    Tensor b = bv.clone().set_requires_grad(grad_params);
    std::vector<float> flat;
    {
      Tape tape;
      Tensor y = fn(&tape, x, g, b);
      std::copy(up.data(), up.data() + up.numel(), y.grad());
      tape.backward();
      flat.assign(y.data(), y.data() + y.numel());
    }
    for (Tensor* t : {&x, &g, &b}) {
      if (t->has_grad())
        flat.insert(flat.end(), t->grad(), t->grad() + t->numel());
      else
        flat.push_back(std::nanf(""));
    }
    return flat;
  };
  for (const auto& [m, n] : {std::pair<std::int64_t, std::int64_t>{1, 48},
                             {35, 48},
                             {84, 48},
                             {7, 13}}) {
    Rng rng(static_cast<std::uint64_t>(m * 100 + n));
    const Tensor x = signed_zero_randn({m, n}, rng);
    const Tensor g = signed_zero_randn({1, n}, rng);
    const Tensor b = signed_zero_randn({1, n}, rng);
    const Tensor up = signed_zero_randn({m, n}, rng);
    for (const auto& [grad_x, grad_params] :
         {std::pair{true, true}, {true, false}, {false, true}}) {
      SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(n) +
                   " grad_x=" + std::to_string(grad_x) +
                   " grad_params=" + std::to_string(grad_params));
      const auto want =
          run(two_pass_layer_norm, x, g, b, up, grad_x, grad_params);
      const auto got = run(one_pass, x, g, b, up, grad_x, grad_params);
      ASSERT_EQ(got.size(), want.size());
      EXPECT_TRUE(bitwise_equal(got.data(), want.data(),
                                static_cast<std::int64_t>(want.size())));
    }
  }
}

// ----------------------------------------------------------- arena ---

TEST(Tape, ResetWithEscapedTensorIsAContractViolation) {
  Tensor a = Tensor::from({1, 2}, {1, 2}).set_requires_grad(true);
  Tape tape;
  Tensor kept = ops::scale(&tape, a, 2.0f);
  EXPECT_THROW(tape.reset(), ContractViolation);
  // The arena was not rewound: the escaped tensor still reads its values.
  Tensor other = ops::scale(&tape, a, 3.0f);
  EXPECT_EQ(kept.data()[1], 4.0f);
  EXPECT_EQ(other.data()[1], 6.0f);
  kept = Tensor();
  other = Tensor();
  tape.reset();
}

TEST(Tape, TensorOutlivingTheTapeKeepsItsStorage) {
  Tensor a = Tensor::from({1, 2}, {1, 2}).set_requires_grad(true);
  Tensor kept;
  {
    Tape tape;
    kept = ops::scale(&tape, a, 2.0f);
    tape.backward(ops::sum(&tape, kept));
  }
  EXPECT_EQ(kept.data()[1], 4.0f);
  EXPECT_EQ(kept.grad()[1], 1.0f);
  EXPECT_EQ(a.grad()[1], 2.0f);
}

TEST(Tape, RecycledArenaMemoryGivesTheSameValuesAndGradients) {
  // Recycled arena memory is dirty: a second pass over the same ops must
  // still give the same values and gradients.
  Rng rng(22);
  Tensor x = Tensor::randn({4, 6}, rng).set_requires_grad(true);
  Tensor w = Tensor::randn({6, 4}, rng).set_requires_grad(true);
  Tape tape;
  std::vector<float> first;
  for (int pass = 0; pass < 2; ++pass) {
    tape.reset();
    x.zero_grad();
    w.zero_grad();
    Tensor s = ops::causal_softmax_rows(&tape, ops::matmul(&tape, x, w));
    Tensor loss = ops::sum(&tape, ops::mul(&tape, s, ops::gelu(&tape, s)));
    tape.backward(loss);
    std::vector<float> got(s.data(), s.data() + s.numel());
    got.insert(got.end(), x.grad(), x.grad() + x.numel());
    got.insert(got.end(), w.grad(), w.grad() + w.numel());
    if (pass == 0) {
      first = got;
      for (std::int64_t i = 0; i < 4; ++i)
        for (std::int64_t j = i + 1; j < 4; ++j) EXPECT_EQ(s.at(i, j), 0.0f);
    } else {
      EXPECT_TRUE(bitwise_equal(got.data(), first.data(),
                                static_cast<std::int64_t>(got.size())));
    }
  }
}

}  // namespace
}  // namespace dpoaf::tensor
