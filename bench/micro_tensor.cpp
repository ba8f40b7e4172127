// Micro-benchmarks (google-benchmark): the tensor/autograd substrate that
// carries pre-training and DPO — matmul, softmax, layer-norm throughput,
// and a full TinyGpt forward/backward step at the pipeline's default size.
//
// The matmul, GELU and GPT benches are parameterized over the compute
// backends (docs/BACKENDS.md): each backend row first asserts output (and,
// for the backward benches, gradient) equivalence against the scalar
// reference within float tolerance and only then times, so a kernel that
// drifts numerically can never post a throughput number. CI's
// bench-regression job runs the BM_Matmul and BM_Gelu rows under
// --benchmark_out and gates on their simd:scalar ratios
// (scripts/check_bench_regression.py). The BM_MatmulModel rows time
// forward+backward on the model's own matmul shapes, and the
// BM_CausalAttention rows the fused attention op and the BM_Linear rows
// the fused linear op (each checked bit for bit against the unfused op
// chain it replaced), all ungated.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_metrics_main.hpp"
#include "nn/gpt.hpp"
#include "tensor/backend/backend.hpp"
#include "tensor/ops.hpp"
#include "unfused_attention.hpp"
#include "unfused_linear.hpp"

namespace {

using namespace dpoaf;
using tensor::Tape;
using tensor::Tensor;
namespace ops = tensor::ops;
namespace backend = tensor::backend;

constexpr const char* kBackends[] = {"scalar", "simd"};
constexpr double kTolerance = 1e-4;  // max relative elementwise error

bool backend_available(const std::string& name) {
  return name != "simd" || backend::simd_supported();
}

// Largest elementwise difference, relative to max(|element|, tensor
// magnitude): near-zero elements (catastrophic cancellation in long dot
// products) are judged against the tensor's scale, not their own.
double max_rel_diff(const Tensor& got, const Tensor& want) {
  double scale = 1e-6;
  for (std::int64_t i = 0; i < want.numel(); ++i)
    scale = std::max(scale, std::abs(static_cast<double>(want.data()[i])));
  double worst = 0.0;
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    const double w = want.data()[i];
    const double d = std::abs(static_cast<double>(got.data()[i]) - w);
    worst = std::max(worst, d / std::max(std::abs(w), scale));
  }
  return worst;
}

// Skips the bench (with an error) unless `got` matches the scalar
// reference; returns false when timing must not proceed.
bool check_equivalent(benchmark::State& state, const Tensor& got,
                      const Tensor& want, const char* what) {
  const double diff = max_rel_diff(got, want);
  if (diff > kTolerance) {
    state.SkipWithError((std::string(what) + " diverged from scalar: max " +
                         "rel diff " + std::to_string(diff))
                            .c_str());
    return false;
  }
  return true;
}

// Names the kernels a simd row timed ("lanes:8" or "lanes:16", the width
// selection picked for this CPU); the label reaches --benchmark_out and
// BENCH_tensor.json.
void label_lanes(benchmark::State& state, const std::string& be) {
  if (be == "simd")
    state.SetLabel("lanes:" + std::to_string(backend::active().lanes()));
}

void matmul_bench(benchmark::State& state, const std::string& be) {
  const auto n = state.range(0);
  if (!backend_available(be)) {
    state.SkipWithError("simd backend not supported on this CPU/build");
    return;
  }
  Rng rng(1);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  backend::select("scalar");
  Tensor ref = ops::matmul(nullptr, a, b);
  backend::select(be);
  if (!check_equivalent(state, ops::matmul(nullptr, a, b), ref, "matmul"))
    return;
  label_lanes(state, be);
  for (auto _ : state) {
    Tensor c = ops::matmul(nullptr, a, b);
    benchmark::DoNotOptimize(c.data());
  }
  backend::select("");
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(2 * n * n * n) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}

// The model's matmuls at the pipeline's size (d_model 48, 4 heads of 12,
// d_ff 192, vocab 76) as C[m,n] = A[m,k]·B[k,n] at sequence length T:
// the narrow attention shapes are where the simd kernels' column tails
// and dA panels are partial.
struct ModelMatmul {
  std::string name;
  std::int64_t m, k, n;
};

std::vector<ModelMatmul> model_matmuls() {
  std::vector<ModelMatmul> out;
  for (const std::int64_t t : {35, 84}) {
    const std::string at = "_T" + std::to_string(t);
    out.push_back({"qkv" + at, t, 48, 144});
    out.push_back({"qk" + at, t, 12, t});
    out.push_back({"attnv" + at, t, t, 12});
    out.push_back({"proj" + at, t, 48, 48});
    out.push_back({"fc1" + at, t, 48, 192});
    out.push_back({"fc2" + at, t, 192, 48});
    out.push_back({"head" + at, t, 48, 76});
  }
  return out;
}

// Forward then backward of ops::matmul on a Tape (upstream gradient 1)
// on the active backend; returns C, dA and dB and leaves the gradients
// zeroed.
std::vector<Tensor> matmul_value_and_grads(Tensor& a, Tensor& b) {
  Tape tape;
  Tensor c = ops::matmul(&tape, a, b);
  std::fill(c.grad(), c.grad() + c.numel(), 1.0f);
  tape.backward();
  std::vector<Tensor> out = {
      c, Tensor::from(a.shape(),
                      std::vector<float>(a.grad(), a.grad() + a.numel())),
      Tensor::from(b.shape(),
                   std::vector<float>(b.grad(), b.grad() + b.numel()))};
  a.zero_grad();
  b.zero_grad();
  return out;
}

// Forward+backward of one model matmul. Not gated in CI, unlike
// BM_Matmul/: that gate reads one simd:scalar ratio at the largest
// numeric size, and these rows are named shapes whose ratios differ by
// shape (the narrow ones are tail- and reduction-bound), so no one floor
// would fit them all. They exist to time the narrow paths.
void model_matmul_bench(benchmark::State& state, const std::string& be,
                        const ModelMatmul& mm) {
  if (!backend_available(be)) {
    state.SkipWithError("simd backend not supported on this CPU/build");
    return;
  }
  Rng rng(8);
  Tensor a = Tensor::randn({mm.m, mm.k}, rng).set_requires_grad(true);
  Tensor b = Tensor::randn({mm.k, mm.n}, rng).set_requires_grad(true);
  backend::select("scalar");
  const std::vector<Tensor> ref = matmul_value_and_grads(a, b);
  backend::select(be);
  const std::vector<Tensor> got = matmul_value_and_grads(a, b);
  if (!check_equivalent(state, got[0], ref[0], "matmul") ||
      !check_equivalent(state, got[1], ref[1], "matmul dA") ||
      !check_equivalent(state, got[2], ref[2], "matmul dB"))
    return;
  label_lanes(state, be);
  for (auto _ : state) {
    Tape tape;
    Tensor c = ops::matmul(&tape, a, b);
    std::fill(c.grad(), c.grad() + c.numel(), 1.0f);
    tape.backward();
    benchmark::DoNotOptimize(a.grad());
    benchmark::DoNotOptimize(b.grad());
    benchmark::ClobberMemory();
    a.zero_grad();
    b.zero_grad();
  }
  backend::select("");
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(6 * mm.m * mm.k * mm.n) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}

// Output and qkv gradient of one forward+backward of `fn` on `tape`
// (reset first) with upstream gradient 1, flattened into one vector.
template <typename Attention>
std::vector<float> attention_fwd_bwd(Tape& tape, Tensor& qkv, Attention fn) {
  tape.reset();
  qkv.zero_grad();
  Tensor out = fn(&tape, qkv, 4);
  std::fill(out.grad(), out.grad() + out.numel(), 1.0f);
  tape.backward();
  std::vector<float> flat(out.data(), out.data() + out.numel());
  flat.insert(flat.end(), qkv.grad(), qkv.grad() + qkv.numel());
  return flat;
}

// Forward+backward of the fused attention op at the model's width (d 48,
// 4 heads) and sequence length T, on one Tape reset per iteration as the
// training loops do. Ungated like BM_MatmulModel.
void causal_attention_bench(benchmark::State& state, const std::string& be,
                            std::int64_t t) {
  if (!backend_available(be)) {
    state.SkipWithError("simd backend not supported on this CPU/build");
    return;
  }
  backend::select(be);
  Rng rng(9);
  Tensor qkv = Tensor::randn({t, 144}, rng).set_requires_grad(true);
  Tape tape;
  const std::vector<float> want =
      attention_fwd_bwd(tape, qkv, tensor::reference::unfused_attention);
  const std::vector<float> got =
      attention_fwd_bwd(tape, qkv, ops::causal_attention);
  if (std::memcmp(got.data(), want.data(), want.size() * sizeof(float)) != 0) {
    state.SkipWithError("causal_attention differs from the unfused chain");
    backend::select("");
    return;
  }
  for (auto _ : state) {
    tape.reset();
    Tensor out = ops::causal_attention(&tape, qkv, 4);
    std::fill(out.grad(), out.grad() + out.numel(), 1.0f);
    tape.backward();
    benchmark::DoNotOptimize(qkv.grad());
    benchmark::ClobberMemory();
    qkv.zero_grad();
  }
  backend::select("");
  // q·kᵀ and attn·v: forward plus both backward products.
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(2 * 6 * t * t * 48) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}

// Operands of one linear layer at sequence length 64 (rank-4 adapter).
struct LinearOperands {
  Tensor x, w, b, a, bb;
  bool lora;
};

// Output and every gradient of one forward+backward of `fn` on `tape`
// (reset first) with upstream gradient 1, flattened.
template <typename Linear>
std::vector<float> linear_fwd_bwd(Tape& tape, LinearOperands& p, Linear fn) {
  tape.reset();
  for (Tensor* t : {&p.x, &p.w, &p.b, &p.a, &p.bb}) t->zero_grad();
  const ops::LoRA lora{p.a, p.bb, 2.0f};
  Tensor y = fn(&tape, p.x, p.w, p.b, p.lora ? &lora : nullptr);
  std::fill(y.grad(), y.grad() + y.numel(), 1.0f);
  tape.backward();
  std::vector<float> flat(y.data(), y.data() + y.numel());
  for (Tensor* t : {&p.x, &p.w, &p.b, &p.a, &p.bb})
    if (t->has_grad())
      flat.insert(flat.end(), t->grad(), t->grad() + t->numel());
  return flat;
}

// Forward+backward of the fused linear op on the model's qkv [48,144] or
// fc1 [48,192] projection: without an adapter x, W and b train (as in
// pre-training), with one x, A and B train (as in a DPO block past the
// first). One Tape, reset per iteration. Ungated like BM_MatmulModel.
void linear_bench(benchmark::State& state, const std::string& be,
                  std::int64_t out, bool lora) {
  constexpr std::int64_t t = 64, in = 48, rank = 4;
  if (!backend_available(be)) {
    state.SkipWithError("simd backend not supported on this CPU/build");
    return;
  }
  backend::select(be);
  Rng rng(10);
  LinearOperands p{Tensor::randn({t, in}, rng).set_requires_grad(true),
                   Tensor::randn({in, out}, rng, 0.1f),
                   Tensor::randn({1, out}, rng),
                   Tensor::randn({in, rank}, rng, 0.02f),
                   Tensor::randn({rank, out}, rng, 0.1f),
                   lora};
  p.w.set_requires_grad(!lora);
  p.b.set_requires_grad(!lora);
  p.a.set_requires_grad(lora);
  p.bb.set_requires_grad(lora);
  Tape tape;
  const std::vector<float> want =
      linear_fwd_bwd(tape, p, tensor::reference::unfused_linear);
  const std::vector<float> got = linear_fwd_bwd(tape, p, ops::linear);
  if (got.size() != want.size() ||
      std::memcmp(got.data(), want.data(), want.size() * sizeof(float)) != 0) {
    state.SkipWithError("linear differs from the unfused chain");
    backend::select("");
    return;
  }
  const ops::LoRA adapter{p.a, p.bb, 2.0f};
  for (auto _ : state) {
    tape.reset();
    Tensor y = ops::linear(&tape, p.x, p.w, p.b, lora ? &adapter : nullptr);
    std::fill(y.grad(), y.grad() + y.numel(), 1.0f);
    tape.backward();
    benchmark::DoNotOptimize(p.x.grad());
    benchmark::ClobberMemory();
    for (Tensor* g : {&p.x, &p.w, &p.b, &p.a, &p.bb}) g->zero_grad();
  }
  backend::select("");
  // Without an adapter: x·W and both backward products. With one: x·W
  // and dx through W, plus x·A, (x·A)·B and their four backward products.
  const std::int64_t flops = lora ? 4 * t * in * out + 6 * t * rank * (in + out)
                                  : 6 * t * in * out;
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(flops) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}

// GELU forward+backward on the active backend, upstream gradient 1.
Tensor gelu_fwd_bwd(Tensor& x) {
  Tape tape;
  Tensor y = ops::gelu(&tape, x);
  std::fill(y.grad(), y.grad() + y.numel(), 1.0f);
  tape.backward();
  return y;
}

// Output and input gradient of gelu_fwd_bwd.
std::pair<Tensor, Tensor> gelu_value_and_grad(Tensor& x) {
  Tensor y = gelu_fwd_bwd(x);
  Tensor gx = Tensor::from(x.shape(),
                           std::vector<float>(x.grad(), x.grad() + x.numel()));
  x.zero_grad();
  return {y, gx};
}

// GELU forward+backward at the MLP activation shape [T, d_ff].
void gelu_bench(benchmark::State& state, const std::string& be) {
  constexpr std::int64_t rows = 64, cols = 192;
  if (!backend_available(be)) {
    state.SkipWithError("simd backend not supported on this CPU/build");
    return;
  }
  Rng rng(7);
  Tensor x = Tensor::randn({rows, cols}, rng, 2.0f).set_requires_grad(true);
  backend::select("scalar");
  const auto ref = gelu_value_and_grad(x);
  backend::select(be);
  const auto got = gelu_value_and_grad(x);
  if (!check_equivalent(state, got.first, ref.first, "gelu") ||
      !check_equivalent(state, got.second, ref.second, "gelu gradient"))
    return;
  for (auto _ : state) {
    Tensor y = gelu_fwd_bwd(x);
    benchmark::DoNotOptimize(y.data());
    benchmark::DoNotOptimize(x.grad());
    x.zero_grad();
  }
  backend::select("");
  state.counters["items/s"] = benchmark::Counter(
      static_cast<double>(rows * cols) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

void BM_SoftmaxRows(benchmark::State& state) {
  Rng rng(2);
  Tensor x = Tensor::randn({64, 64}, rng);
  for (auto _ : state) {
    Tensor y = ops::causal_softmax_rows(nullptr, x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_SoftmaxRows);

void BM_LayerNorm(benchmark::State& state) {
  Rng rng(3);
  Tensor x = Tensor::randn({64, 48}, rng);
  Tensor gamma = Tensor::full({1, 48}, 1.0f);
  Tensor beta = Tensor::zeros({1, 48});
  for (auto _ : state) {
    Tensor y = ops::layer_norm(nullptr, x, gamma, beta);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_LayerNorm);

nn::TinyGpt& pipeline_sized_model() {
  static nn::TinyGpt model = [] {
    nn::GptConfig cfg;
    cfg.vocab_size = 80;
    cfg.d_model = 48;
    cfg.n_heads = 4;
    cfg.n_layers = 2;
    cfg.d_ff = 192;
    cfg.max_seq = 96;
    Rng rng(4);
    return nn::TinyGpt(cfg, rng);
  }();
  return model;
}

void gpt_forward_bench(benchmark::State& state, const std::string& be) {
  if (!backend_available(be)) {
    state.SkipWithError("simd backend not supported on this CPU/build");
    return;
  }
  auto& model = pipeline_sized_model();
  std::vector<int> ids(64);
  Rng rng(5);
  for (auto& id : ids) id = static_cast<int>(rng.below(80));
  backend::select("scalar");
  Tensor ref = model.forward(nullptr, ids);
  backend::select(be);
  if (!check_equivalent(state, model.forward(nullptr, ids), ref,
                        "gpt forward logits"))
    return;
  for (auto _ : state) {
    Tensor logits = model.forward(nullptr, ids);
    benchmark::DoNotOptimize(logits.data());
  }
  backend::select("");
  state.counters["tok/s"] = benchmark::Counter(
      static_cast<double>(64 * state.iterations()), benchmark::Counter::kIsRate);
}

// Loss and every parameter gradient (flattened) of one nll_loss step on
// the active backend; leaves the gradients zeroed.
std::pair<Tensor, Tensor> gpt_loss_and_grads(nn::TinyGpt& model,
                                             const std::vector<int>& ids) {
  Tape tape;
  Tensor loss = model.nll_loss(&tape, ids);
  tape.backward(loss);
  std::vector<float> grads;
  for (Tensor p : model.parameters()) {
    grads.insert(grads.end(), p.grad(), p.grad() + p.numel());
    p.zero_grad();
  }
  const auto n = static_cast<std::int64_t>(grads.size());
  return {loss.clone(), Tensor::from({1, n}, std::move(grads))};
}

void gpt_forward_backward_bench(benchmark::State& state,
                                const std::string& be) {
  if (!backend_available(be)) {
    state.SkipWithError("simd backend not supported on this CPU/build");
    return;
  }
  auto& model = pipeline_sized_model();
  std::vector<int> ids(64);
  Rng rng(6);
  for (auto& id : ids) id = static_cast<int>(rng.below(80));
  backend::select("scalar");
  const auto ref = gpt_loss_and_grads(model, ids);
  backend::select(be);
  const auto got = gpt_loss_and_grads(model, ids);
  if (!check_equivalent(state, got.first, ref.first, "gpt loss") ||
      !check_equivalent(state, got.second, ref.second, "gpt gradients"))
    return;
  Tape tape;  // hoisted and reset per step, as in training
  for (auto _ : state) {
    tape.reset();
    Tensor loss = model.nll_loss(&tape, ids);
    tape.backward(loss);
    benchmark::DoNotOptimize(loss.item());
    for (Tensor p : model.parameters()) p.zero_grad();
  }
  backend::select("");
  state.counters["tok/s"] = benchmark::Counter(
      static_cast<double>(64 * state.iterations()), benchmark::Counter::kIsRate);
}

void register_backend_benches() {
  for (const char* be : kBackends) {
    const std::string name(be);
    benchmark::RegisterBenchmark(
        ("BM_Matmul/" + name).c_str(),
        [name](benchmark::State& s) { matmul_bench(s, name); })
        ->Arg(48)
        ->Arg(96)
        ->Arg(192);
    for (const ModelMatmul& mm : model_matmuls())
      benchmark::RegisterBenchmark(
          ("BM_MatmulModel/" + name + "/" + mm.name).c_str(),
          [name, mm](benchmark::State& s) { model_matmul_bench(s, name, mm); });
    for (const std::int64_t t : {35, 84})
      benchmark::RegisterBenchmark(
          ("BM_CausalAttention/" + name + "/" + std::to_string(t)).c_str(),
          [name, t](benchmark::State& s) {
            causal_attention_bench(s, name, t);
          });
    for (const auto& [proj, out] :
         {std::pair<const char*, std::int64_t>{"qkv", 144}, {"fc1", 192}})
      for (const bool lora : {false, true})
        benchmark::RegisterBenchmark(
            ("BM_Linear/" + name + "/" + proj + "/lora:" +
             std::to_string(lora ? 1 : 0))
                .c_str(),
            [name, out, lora](benchmark::State& s) {
              linear_bench(s, name, out, lora);
            });
    benchmark::RegisterBenchmark(
        ("BM_Gelu/" + name).c_str(),
        [name](benchmark::State& s) { gelu_bench(s, name); });
    benchmark::RegisterBenchmark(
        ("BM_GptForward/" + name).c_str(),
        [name](benchmark::State& s) { gpt_forward_bench(s, name); });
    benchmark::RegisterBenchmark(
        ("BM_GptForwardBackward/" + name).c_str(),
        [name](benchmark::State& s) { gpt_forward_backward_bench(s, name); });
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_backend_benches();
  return dpoaf_benchmark_main(argc, argv, "micro_tensor");
}
