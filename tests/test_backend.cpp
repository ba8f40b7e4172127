// Compute-backend contract (docs/BACKENDS.md): selection precedence,
// cpuid dispatch, per-backend bitwise determinism (a row computed alone
// or on any pool thread equals that row inside a batch, on odd shapes
// where it moves between register blocks and remainder paths; ops equal
// across thread counts),
// the simd matmul kernels' per-cell chains at every vector width the host
// runs (and the widths' byte equality), scalar-vs-simd numerical
// tolerance, and the matmul counters and backend gauges.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "tensor/backend/backend.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace dpoaf {
namespace {

using tensor::Tape;
using tensor::Tensor;
namespace ops = tensor::ops;
namespace backend = tensor::backend;

// Every test leaves the process on the scalar backend / serial pool so
// suite-internal ordering cannot leak state.
class BackendTest : public ::testing::Test {
 protected:
  void TearDown() override {
    backend::select("scalar");
    util::set_global_threads(1);
  }
};

void expect_bitwise_equal(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        sizeof(float) * static_cast<std::size_t>(a.numel())),
            0);
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

std::vector<std::string> available_backends() {
  std::vector<std::string> out = {"scalar"};
  if (backend::simd_supported()) out.push_back("simd");
  return out;
}

// The simd backend at every vector width this host runs (8, then 16
// where the CPU has AVX-512F), reached through the test-only accessor:
// selection always runs the widest.
std::vector<const backend::ComputeBackend*> simd_widths() {
  std::vector<const backend::ComputeBackend*> out;
  for (int lanes : {8, 16})
    if (const backend::ComputeBackend* be =
            backend::detail::simd_backend_lanes(lanes))
      out.push_back(be);
  return out;
}

// The matmul kernels of every backend, simd at every width, named
// "scalar", "simd8", "simd16".
std::vector<std::pair<std::string, const backend::ComputeBackend*>>
matmul_backends() {
  std::vector<std::pair<std::string, const backend::ComputeBackend*>> out = {
      {"scalar", &backend::scalar_backend()}};
  for (const backend::ComputeBackend* be : simd_widths())
    out.emplace_back("simd" + std::to_string(be->lanes()), be);
  return out;
}

TEST_F(BackendTest, ScalarAlwaysAvailableAndSelectable) {
  backend::select("scalar");
  EXPECT_EQ(backend::active_kind(), backend::Kind::kScalar);
  EXPECT_STREQ(backend::active().name(), "scalar");
}

TEST_F(BackendTest, AutoResolvesToSimdExactlyWhenSupported) {
  backend::select("auto");
  const backend::Kind want = backend::simd_supported()
                                 ? backend::Kind::kSimd
                                 : backend::Kind::kScalar;
  EXPECT_EQ(backend::active_kind(), want);
}

TEST_F(BackendTest, ExplicitSimdSelectsOrFailsLoudly) {
  if (backend::simd_supported()) {
    backend::select("simd");
    EXPECT_EQ(backend::active_kind(), backend::Kind::kSimd);
    EXPECT_STREQ(backend::active().name(), "simd");
  } else {
    EXPECT_THROW(backend::select("simd"), ContractViolation);
  }
}

TEST_F(BackendTest, UnknownBackendNameIsRejected) {
  EXPECT_THROW(backend::select("gpu"), ContractViolation);
  EXPECT_THROW(backend::select("SIMD"), ContractViolation);
}

TEST_F(BackendTest, EmptySelectionDefersToEnvironment) {
  ASSERT_EQ(setenv("DPOAF_BACKEND", "scalar", 1), 0);
  backend::select("");
  EXPECT_EQ(backend::active_kind(), backend::Kind::kScalar);
  if (backend::simd_supported()) {
    ASSERT_EQ(setenv("DPOAF_BACKEND", "simd", 1), 0);
    backend::select("");
    EXPECT_EQ(backend::active_kind(), backend::Kind::kSimd);
  }
  ASSERT_EQ(setenv("DPOAF_BACKEND", "bogus", 1), 0);
  EXPECT_THROW(backend::select(""), ContractViolation);
  ASSERT_EQ(unsetenv("DPOAF_BACKEND"), 0);
  backend::select("");  // no env ⇒ auto
  const backend::Kind want = backend::simd_supported()
                                 ? backend::Kind::kSimd
                                 : backend::Kind::kScalar;
  EXPECT_EQ(backend::active_kind(), want);
}

// Deliberately awkward shapes: odd dims exercise the 8-wide and scalar
// column tails, and a row that is a remainder row when computed alone or
// at one thread count is an interior row of a microkernel block inside
// the batch or at another.
struct MatmulCase {
  std::int64_t m, k, n;
};
const MatmulCase kShapes[] = {
    {1, 1, 1}, {3, 5, 2}, {7, 13, 9}, {61, 53, 67}, {96, 96, 96},
    {64, 96, 80}, {33, 257, 19},
};
// The model's narrow shapes, where the column tails and dA panels are
// partial: attn·v and q·kᵀ at T = 84, the LM head at T = 35, and the
// m = 1 decode head matvec.
const MatmulCase kModelShapes[] = {
    {84, 84, 12}, {84, 12, 84}, {35, 48, 76}, {1, 48, 76},
};

// kShapes, kModelShapes, then 5×7×23 (a row, kk and column remainder at
// every block size) and 38×12×38 (an attention shape).
std::vector<MatmulCase> chunking_shapes() {
  std::vector<MatmulCase> shapes(std::begin(kShapes), std::end(kShapes));
  shapes.insert(shapes.end(), std::begin(kModelShapes), std::end(kModelShapes));
  shapes.push_back({5, 7, 23});
  shapes.push_back({38, 12, 38});
  return shapes;
}

TEST_F(BackendTest, SimdMatmulMatchesScalarWithinTolerance) {
  if (!backend::simd_supported()) GTEST_SKIP() << "no AVX2+FMA";
  for (const MatmulCase& shape : kShapes) {
    Rng rng(17);
    Tensor a = Tensor::randn({shape.m, shape.k}, rng);
    Tensor b = Tensor::randn({shape.k, shape.n}, rng);
    backend::select("scalar");
    Tensor want = ops::matmul(nullptr, a, b);
    backend::select("simd");
    Tensor got = ops::matmul(nullptr, a, b);
    EXPECT_LT(max_rel_diff(got, want), 1e-4)
        << shape.m << "x" << shape.k << "x" << shape.n;
  }
}

TEST_F(BackendTest, SimdMatmulGradsMatchScalarWithinTolerance) {
  if (!backend::simd_supported()) GTEST_SKIP() << "no AVX2+FMA";
  auto grads = [](const MatmulCase& shape) {
    Rng rng(19);
    Tensor a = Tensor::randn({shape.m, shape.k}, rng).set_requires_grad(true);
    Tensor b = Tensor::randn({shape.k, shape.n}, rng).set_requires_grad(true);
    Tape tape;
    Tensor loss = ops::sum(&tape, ops::matmul(&tape, a, b));
    tape.backward(loss);
    Tensor ga = Tensor::from(
        a.shape(), std::vector<float>(a.grad(), a.grad() + a.numel()));
    Tensor gb = Tensor::from(
        b.shape(), std::vector<float>(b.grad(), b.grad() + b.numel()));
    return std::make_pair(ga, gb);
  };
  for (const MatmulCase& shape : kShapes) {
    backend::select("scalar");
    auto want = grads(shape);
    backend::select("simd");
    auto got = grads(shape);
    EXPECT_LT(max_rel_diff(got.first, want.first), 1e-4);
    EXPECT_LT(max_rel_diff(got.second, want.second), 1e-4);
  }
}

TEST_F(BackendTest, ElementwiseOpsMatchScalarWithinTolerance) {
  if (!backend::simd_supported()) GTEST_SKIP() << "no AVX2+FMA";
  auto run = [] {
    Rng rng(23);
    Tensor x = Tensor::randn({37, 41}, rng).set_requires_grad(true);
    Tensor y = Tensor::randn({37, 41}, rng).set_requires_grad(true);
    Tensor bias = Tensor::randn({1, 41}, rng);
    // An identity weight: the linear op adds the bias to exact copies.
    Tensor eye = Tensor::zeros({41, 41});
    for (std::int64_t i = 0; i < 41; ++i) eye.at(i, i) = 1.0f;
    Tape tape;
    Tensor h = ops::linear(
        &tape, ops::add(&tape, ops::mul(&tape, x, y), ops::scale(&tape, y, 0.3f)),
        eye, bias);
    Tensor loss = ops::sum(&tape, h);
    tape.backward(loss);
    Tensor gx = Tensor::from(
        x.shape(), std::vector<float>(x.grad(), x.grad() + x.numel()));
    return std::make_pair(h.clone(), gx);
  };
  backend::select("scalar");
  auto want = run();
  backend::select("simd");
  auto got = run();
  EXPECT_LT(max_rel_diff(got.first, want.first), 1e-5);
  EXPECT_LT(max_rel_diff(got.second, want.second), 1e-5);
}

TEST_F(BackendTest, MatmulGradsBitwiseAcrossThreadCountsPerBackend) {
  for (const std::string& be : available_backends()) {
    backend::select(be);
    auto run = [] {
      Rng rng(31);
      Tensor a = Tensor::randn({61, 53}, rng).set_requires_grad(true);
      Tensor b = Tensor::randn({53, 67}, rng).set_requires_grad(true);
      Tape tape;
      Tensor loss = ops::sum(&tape, ops::matmul(&tape, a, b));
      tape.backward(loss);
      Tensor ga = Tensor::from(
          a.shape(), std::vector<float>(a.grad(), a.grad() + a.numel()));
      Tensor gb = Tensor::from(
          b.shape(), std::vector<float>(b.grad(), b.grad() + b.numel()));
      return std::make_pair(ga, gb);
    };
    util::set_global_threads(1);
    auto serial = run();
    util::set_global_threads(4);
    auto parallel = run();
    expect_bitwise_equal(serial.first, parallel.first);
    expect_bitwise_equal(serial.second, parallel.second);
  }
}

TEST_F(BackendTest, ElementwiseBitwiseAcrossThreadCountsPerBackend) {
  for (const std::string& be : available_backends()) {
    backend::select(be);
    auto run = [] {
      Rng rng(37);
      Tensor x = Tensor::randn({123, 131}, rng).set_requires_grad(true);
      Tensor y = Tensor::randn({123, 131}, rng).set_requires_grad(true);
      Tape tape;
      Tensor h = ops::add(&tape, ops::mul(&tape, x, y),
                          ops::scale(&tape, x, -0.7f));
      Tensor loss = ops::sum(&tape, h);
      tape.backward(loss);
      Tensor gx = Tensor::from(
          x.shape(), std::vector<float>(x.grad(), x.grad() + x.numel()));
      return std::make_pair(h.clone(), gx);
    };
    util::set_global_threads(1);
    auto serial = run();
    util::set_global_threads(4);
    auto parallel = run();
    expect_bitwise_equal(serial.first, parallel.first);
    expect_bitwise_equal(serial.second, parallel.second);
  }
}

// ---- GELU and matmul-backward kernels, called directly ---------------

const backend::ComputeBackend& backend_named(const std::string& name) {
  return name == "simd" ? *backend::simd_backend() : backend::scalar_backend();
}

std::vector<float> normal_values(std::int64_t n, double sd, Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (float& x : v) x = static_cast<float>(sd * rng.normal());
  return v;
}

// GELU inputs of size n: random values at several magnitudes, led by the
// edge cases — ±0, |u| < 4e-4 (tanh pass-through), |u| beyond the simd
// clamp (x = ±5 gives u ≈ ±8.4) and large negative x.
std::vector<float> gelu_inputs(std::int64_t n, Rng& rng) {
  const float edges[] = {0.0f,  -0.0f, 1e-4f,   -3e-4f,  4.9e-4f, 5.1e-4f,
                         5.0f,  -5.0f, 9.0f,    -9.0f,   -50.0f,  -1000.0f,
                         -3.0f, 3.0f,  -0.7f};
  std::vector<float> x = normal_values(n, 3.0, rng);
  for (std::size_t i = 0; i < x.size() && i < std::size(edges); ++i)
    x[i] = edges[i];
  return x;
}

struct GeluOut {
  std::vector<float> y, t, gx;
};

// Forward (saving t) then backward accumulating onto gx0, each as one
// call over every element or, with `singly`, one pointer-offset call of
// length 1 per element.
GeluOut run_gelu(const backend::ComputeBackend& be, const std::vector<float>& x,
                 const std::vector<float>& gy, const std::vector<float>& gx0,
                 bool singly = false) {
  GeluOut out{std::vector<float>(x.size()), std::vector<float>(x.size()), gx0};
  const auto n = static_cast<std::int64_t>(x.size());
  const std::int64_t len = singly ? 1 : n;
  for (std::int64_t i = 0; i < n; i += len)
    be.gelu_fwd(x.data() + i, out.y.data() + i, out.t.data() + i, len);
  for (std::int64_t i = 0; i < n; i += len)
    be.gelu_bwd(x.data() + i, out.t.data() + i, gy.data() + i,
                out.gx.data() + i, len);
  return out;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0;
}

const std::int64_t kGeluSizes[] = {1, 7, 9, 1023};

TEST_F(BackendTest, SimdGeluMatchesScalarWithinTolerance) {
  if (!backend::simd_supported()) GTEST_SKIP() << "no AVX2+FMA";
  for (std::int64_t n : kGeluSizes) {
    Rng rng(43);
    const std::vector<float> x = gelu_inputs(n, rng);
    const std::vector<float> gy = normal_values(n, 1.0, rng);
    const std::vector<float> gx0 = normal_values(n, 1.0, rng);
    const GeluOut want = run_gelu(backend::scalar_backend(), x, gy, gx0);
    const GeluOut got = run_gelu(*backend::simd_backend(), x, gy, gx0);
    for (std::int64_t i = 0; i < n; ++i) {
      const auto u = static_cast<std::size_t>(i);
      // GELU scales like x, and its gradient error like |x|·|gy|.
      const double tol = 1e-5 * std::max(1.0f, std::abs(x[u]));
      EXPECT_NEAR(got.y[u], want.y[u], tol) << "x=" << x[u];
      EXPECT_NEAR(got.t[u], want.t[u], 1e-6) << "x=" << x[u];
      EXPECT_NEAR(got.gx[u], want.gx[u], tol * std::max(1.0f, std::abs(gy[u])))
          << "x=" << x[u];
    }
  }
}

// The pre-backend ops::gelu loops: the backward recomputed tanh from x.
// Written as raw-pointer loops shaped like the scalar kernels so the
// compiler makes the same FMA-contraction choices in both.
void gelu_recompute_reference(const float* x, const float* gy, float* y,
                              float* gx, std::int64_t n) {
  constexpr float kC = 0.7978845608028654f;  // √(2/π)
  for (std::int64_t i = 0; i < n; ++i) {
    const float v = x[i];
    const float t = std::tanh(kC * (v + 0.044715f * v * v * v));
    y[i] = 0.5f * v * (1.0f + t);
  }
  for (std::int64_t i = 0; i < n; ++i) {
    const float v = x[i];
    const float u = kC * (v + 0.044715f * v * v * v);
    const float t = std::tanh(u);
    const float du = kC * (1.0f + 3.0f * 0.044715f * v * v);
    const float d = 0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * du;
    gx[i] += gy[i] * d;
  }
}

// The scalar kernels must reproduce the pre-backend gelu bit for bit:
// the saved t is exactly the tanh the old backward recomputed.
TEST_F(BackendTest, ScalarGeluByteEqualsRecomputeReference) {
  const std::int64_t n = 1023;
  Rng rng(47);
  const std::vector<float> x = gelu_inputs(n, rng);
  const std::vector<float> gy = normal_values(n, 1.0, rng);
  const std::vector<float> gx0 = normal_values(n, 1.0, rng);
  std::vector<float> y_ref(x.size()), gx_ref = gx0;
  gelu_recompute_reference(x.data(), gy.data(), y_ref.data(), gx_ref.data(),
                           n);
  const GeluOut got = run_gelu(backend::scalar_backend(), x, gy, gx0);
  EXPECT_TRUE(same_bits(got.y, y_ref));
  EXPECT_TRUE(same_bits(got.gx, gx_ref));
}

// Per backend, a GELU value never depends on the call that computed it:
// one call over every element and one call per element (every element a
// simd tail, as a decode row's last d_ff % 8 are) give the same bits.
TEST_F(BackendTest, GeluBitwiseAcrossChunkingPerBackend) {
  for (const std::string& name : available_backends()) {
    const backend::ComputeBackend& be = backend_named(name);
    for (std::int64_t n : kGeluSizes) {
      Rng rng(53);
      const std::vector<float> x = gelu_inputs(n, rng);
      const std::vector<float> gy = normal_values(n, 1.0, rng);
      const std::vector<float> gx0 = normal_values(n, 1.0, rng);
      const GeluOut ref = run_gelu(be, x, gy, gx0);
      const GeluOut per = run_gelu(be, x, gy, gx0, /*singly=*/true);
      EXPECT_TRUE(same_bits(ref.y, per.y)) << name << " n=" << n;
      EXPECT_TRUE(same_bits(ref.t, per.t)) << name << " n=" << n;
      EXPECT_TRUE(same_bits(ref.gx, per.gx)) << name << " n=" << n;
    }
  }
}

// The untracked forward (t == nullptr, as the KV-cache decoder calls it,
// in place) computes the same y as the tracked one.
TEST_F(BackendTest, GeluInPlaceWithoutSavedTanhMatches) {
  for (const std::string& name : available_backends()) {
    const backend::ComputeBackend& be = backend_named(name);
    Rng rng(59);
    const std::vector<float> x = gelu_inputs(23, rng);
    std::vector<float> y(x.size()), t(x.size());
    be.gelu_fwd(x.data(), y.data(), t.data(), 23);
    std::vector<float> inplace = x;
    be.gelu_fwd(inplace.data(), inplace.data(), nullptr, 23);
    EXPECT_TRUE(same_bits(y, inplace)) << name;
  }
}

// Runs `call(out, i0, i1)` — a pointer-offset forward or dA call over
// rows [i0, i1) — as one call over every row, as one call per row (the
// m = 1 path decode takes, where a batch's interior row becomes a
// remainder row) and as grain-1 partitions across 1, 3 and 4 pool
// threads (concurrent calls, each on its own rows), and expects every
// run to leave `out` with the bytes of the whole call.
template <typename RowsCall>
void expect_row_partitions_agree(std::int64_t m, const std::vector<float>& init,
                                 RowsCall&& call, const std::string& where) {
  std::vector<float> whole = init;
  call(whole.data(), 0, m);
  std::vector<float> rows = init;
  for (std::int64_t i = 0; i < m; ++i) call(rows.data(), i, i + 1);
  EXPECT_TRUE(same_bits(whole, rows)) << where << " one row per call";
  for (int threads : {1, 3, 4}) {
    util::set_global_threads(threads);
    std::vector<float> par = init;
    util::parallel_for(0, m, 1, [&](std::int64_t i0, std::int64_t i1) {
      call(par.data(), i0, i1);
    });
    EXPECT_TRUE(same_bits(whole, par)) << where << " threads=" << threads;
  }
}

std::string shape_name(const std::string& backend_name, const MatmulCase& s) {
  return backend_name + " " + std::to_string(s.m) + "x" +
         std::to_string(s.k) + "x" + std::to_string(s.n);
}

// The determinism and decode halves of the contract for the forward: per
// backend and simd width, a row's bytes never depend on the call that
// computed it or the thread that ran it. Thread counts 1/3/4 shift the
// chunk bounds through every remainder-path alignment of the 61/53/67
// shapes; 33×257×19 crosses a K cache tile.
TEST_F(BackendTest, MatmulBitwiseAcrossThreadCountsPerBackend) {
  for (const auto& [name, kernels] : matmul_backends()) {
    const backend::ComputeBackend& be = *kernels;
    for (const MatmulCase& s : chunking_shapes()) {
      Rng rng(29);
      const std::vector<float> a = normal_values(s.m * s.k, 1.0, rng);
      const std::vector<float> b = normal_values(s.k * s.n, 1.0, rng);
      expect_row_partitions_agree(
          s.m, std::vector<float>(static_cast<std::size_t>(s.m * s.n)),
          [&](float* c, std::int64_t i0, std::int64_t i1) {
            be.matmul_fwd(a.data() + i0 * s.k, b.data(), c + i0 * s.n,
                          i1 - i0, s.k, s.n);
          },
          "forward " + shape_name(name, s));
    }
  }
}

// The same for matmul_bwd_a (rows of dA), accumulating onto a nonzero
// gradient. dB reduces over the rows, so it is always one call; the chain
// reference below covers its bytes.
TEST_F(BackendTest, MatmulBackwardBitwiseAcrossChunkingPerBackend) {
  for (const auto& [name, kernels] : matmul_backends()) {
    const backend::ComputeBackend& be = *kernels;
    for (const MatmulCase& s : chunking_shapes()) {
      Rng rng(61);
      const std::vector<float> b = normal_values(s.k * s.n, 1.0, rng);
      const std::vector<float> gc = normal_values(s.m * s.n, 1.0, rng);
      const std::vector<float> ga0 = normal_values(s.m * s.k, 1.0, rng);
      expect_row_partitions_agree(
          s.m, ga0,
          [&](float* ga, std::int64_t i0, std::int64_t i1) {
            be.matmul_bwd_a(gc.data() + i0 * s.n, b.data(), ga + i0 * s.k,
                            i1 - i0, s.k, s.n);
          },
          "dA " + shape_name(name, s));
    }
  }
}

// Row ranges [i0, i1) of forward/dA calls: the whole shape, then the
// interior rows (one row in from each end) on top of it, each run as a
// pointer-offset call over just its rows.
std::vector<std::pair<std::int64_t, std::int64_t>> whole_then_interior(
    const MatmulCase& s) {
  const std::int64_t r = s.m > 2 ? 1 : 0;
  return {{0, s.m}, {r, s.m - r}};
}

// Test-local scalar spellings of the simd matmul kernels' per-cell
// chains (docs/BACKENDS.md "Determinism contract"). Forward and dB cells
// take one std::fma per reduction index, ascending, from the value
// already there.
void chain_fwd(const std::vector<float>& a, const std::vector<float>& b,
               std::vector<float>& c, std::int64_t k, std::int64_t n,
               std::int64_t i0, std::int64_t i1) {
  for (std::int64_t i = i0; i < i1; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = c[i * n + j];
      for (std::int64_t kk = 0; kk < k; ++kk)
        acc = std::fma(a[i * k + kk], b[kk * n + j], acc);
      c[i * n + j] = acc;
    }
}

void chain_bwd_b(const std::vector<float>& a, const std::vector<float>& gc,
                 std::vector<float>& gb, std::int64_t m, std::int64_t k,
                 std::int64_t n) {
  for (std::int64_t kk = 0; kk < k; ++kk)
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = gb[kk * n + j];
      for (std::int64_t i = 0; i < m; ++i)
        acc = std::fma(a[i * k + kk], gc[i * n + j], acc);
      gb[kk * n + j] = acc;
    }
}

// A dA cell: 8 lane sums over the full 8-blocks of j (lane l takes
// j ≡ l mod 8, ascending, from zero), the fixed tree, the std::fma tail,
// then ga += s.
void chain_bwd_a(const std::vector<float>& gc, const std::vector<float>& b,
                 std::vector<float>& ga, std::int64_t k, std::int64_t n,
                 std::int64_t i0, std::int64_t i1) {
  const std::int64_t full = n - n % 8;
  for (std::int64_t i = i0; i < i1; ++i)
    for (std::int64_t kk = 0; kk < k; ++kk) {
      float l[8] = {};
      for (std::int64_t j = 0; j < full; ++j)
        l[j % 8] = std::fma(gc[i * n + j], b[kk * n + j], l[j % 8]);
      float s =
          ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]));
      for (std::int64_t j = full; j < n; ++j)
        s = std::fma(gc[i * n + j], b[kk * n + j], s);
      ga[i * k + kk] += s;
    }
}

// Values that stress the chains' rounding: normals at mixed scales, with
// ±0, subnormals and tiny values whose products underflow mixed in.
std::vector<float> chain_inputs(std::int64_t count, Rng& rng) {
  const float edges[] = {0.0f, -0.0f, 1e-40f, -3e-39f, 1e-20f, -2e-22f};
  std::vector<float> v = normal_values(count, 1.0, rng);
  for (float& x : v) {
    const std::uint64_t pick = rng.below(24);
    if (pick < std::size(edges)) x = edges[pick];
    if (pick == std::size(edges)) x *= 1e6f;
  }
  return v;
}

// The simd kernels, at every width the host runs, equal the chain
// references byte for byte, whole and on interior rows, across every
// n mod 8 (and n mod 16) and k mod 8 residue, m in 1..9 plus the model's
// sequence lengths, and the model's own shapes (d_model 48, 4 heads of
// 12, d_ff 192, vocab 76; T = 35 and 84; the m = 1 decode matvecs). A
// kernel that reorders a single rounding of one cell fails here, where
// the scalar-tolerance tests cannot see it.
TEST_F(BackendTest, SimdMatmulBitwiseEqualsChainReference) {
  if (!backend::simd_supported()) GTEST_SKIP() << "no AVX2+FMA";
  std::vector<MatmulCase> shapes;
  for (std::int64_t m : {1, 2, 3, 4, 5, 6, 7, 8, 9, 35, 84})
    for (std::int64_t k : {1, 2, 3, 4, 5, 6, 7, 8, 9, 17})
      for (std::int64_t n : {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                             15, 16, 17, 23, 67, 131})
        shapes.push_back({m, k, n});
  for (std::int64_t t : {35, 84}) {
    for (const MatmulCase& s :
         {MatmulCase{t, 48, 144}, MatmulCase{t, 12, t}, MatmulCase{t, t, 12},
          MatmulCase{t, 48, 48}, MatmulCase{t, 48, 192},
          MatmulCase{t, 192, 48}, MatmulCase{t, 48, 76}})
      shapes.push_back(s);
  }
  shapes.push_back({1, 48, 76});
  shapes.push_back({1, 48, 144});
  shapes.push_back({33, 257, 19});  // crosses a K cache tile
  for (const backend::ComputeBackend* be : simd_widths()) {
    const std::string lanes = std::to_string(be->lanes()) + " lanes ";
    Rng rng(71);
    for (const MatmulCase& s : shapes) {
      const std::vector<float> a = chain_inputs(s.m * s.k, rng);
      const std::vector<float> b = chain_inputs(s.k * s.n, rng);
      const std::vector<float> gc = chain_inputs(s.m * s.n, rng);
      const std::vector<float> c0 = chain_inputs(s.m * s.n, rng);
      const std::vector<float> ga0 = chain_inputs(s.m * s.k, rng);
      const std::vector<float> gb0 = chain_inputs(s.k * s.n, rng);
      std::vector<float> c = c0, ga = ga0, gb = gb0;
      std::vector<float> want_c = c0, want_ga = ga0, want_gb = gb0;
      for (const auto& [i0, i1] : whole_then_interior(s)) {
        be->matmul_fwd(a.data() + i0 * s.k, b.data(), c.data() + i0 * s.n,
                       i1 - i0, s.k, s.n);
        be->matmul_bwd_a(gc.data() + i0 * s.n, b.data(), ga.data() + i0 * s.k,
                         i1 - i0, s.k, s.n);
        be->matmul_bwd_b(a.data(), gc.data(), gb.data(), s.m, s.k, s.n);
        chain_fwd(a, b, want_c, s.k, s.n, i0, i1);
        chain_bwd_a(gc, b, want_ga, s.k, s.n, i0, i1);
        chain_bwd_b(a, gc, want_gb, s.m, s.k, s.n);
      }
      const std::string where = lanes + std::to_string(s.m) + "x" +
                                std::to_string(s.k) + "x" +
                                std::to_string(s.n);
      EXPECT_TRUE(same_bits(c, want_c)) << "forward " << where;
      EXPECT_TRUE(same_bits(ga, want_ga)) << "dA " << where;
      EXPECT_TRUE(same_bits(gb, want_gb)) << "dB " << where;
    }
  }
}

// The 8- and 16-lane kernels give the same bytes: the chain contract is
// per cell, and the width only decides which cells share a register.
// Covers the model's shapes and k or n in {1, 4, 12, 16, 17, 31, 33}
// (below, at and around one and two 16-lane vectors) against m in 1..9,
// 35 and 84 (every remainder of the 8-row forward, 4-row dB and 3-row dA
// blocks), whole and interior-row calls, with ±0 and subnormals.
TEST_F(BackendTest, SimdWidthsAgreeBitwise) {
  const backend::ComputeBackend* narrow =
      backend::detail::simd_backend_lanes(8);
  const backend::ComputeBackend* wide =
      backend::detail::simd_backend_lanes(16);
  if (narrow == nullptr) GTEST_SKIP() << "no AVX2+FMA";
  if (wide == nullptr)
    GTEST_SKIP() << "no AVX-512F: this CPU runs only the 8-lane kernels";
  std::vector<MatmulCase> shapes(std::begin(kModelShapes),
                                 std::end(kModelShapes));
  const std::int64_t edges[] = {1, 4, 12, 16, 17, 31, 33};
  for (std::int64_t m : {1, 2, 3, 4, 5, 6, 7, 8, 9, 35, 84})
    for (std::int64_t e : edges) {
      for (std::int64_t n : {12, 48, 76, 144}) shapes.push_back({m, e, n});
      for (std::int64_t k : {12, 48, 192}) shapes.push_back({m, k, e});
      for (std::int64_t f : edges) shapes.push_back({m, e, f});
    }
  shapes.push_back({33, 257, 19});  // crosses a K cache tile
  Rng rng(73);
  for (const MatmulCase& s : shapes) {
    const std::vector<float> a = chain_inputs(s.m * s.k, rng);
    const std::vector<float> b = chain_inputs(s.k * s.n, rng);
    const std::vector<float> gc = chain_inputs(s.m * s.n, rng);
    const std::vector<float> c0 = chain_inputs(s.m * s.n, rng);
    const std::vector<float> ga0 = chain_inputs(s.m * s.k, rng);
    const std::vector<float> gb0 = chain_inputs(s.k * s.n, rng);
    auto run = [&](const backend::ComputeBackend& be) {
      std::vector<float> c = c0, ga = ga0, gb = gb0;
      for (const auto& [i0, i1] : whole_then_interior(s)) {
        be.matmul_fwd(a.data() + i0 * s.k, b.data(), c.data() + i0 * s.n,
                      i1 - i0, s.k, s.n);
        be.matmul_bwd_a(gc.data() + i0 * s.n, b.data(), ga.data() + i0 * s.k,
                        i1 - i0, s.k, s.n);
        be.matmul_bwd_b(a.data(), gc.data(), gb.data(), s.m, s.k, s.n);
      }
      return std::vector<std::vector<float>>{c, ga, gb};
    };
    const auto want = run(*narrow);
    const auto got = run(*wide);
    const std::string where = std::to_string(s.m) + "x" + std::to_string(s.k) +
                              "x" + std::to_string(s.n);
    EXPECT_TRUE(same_bits(got[0], want[0])) << "forward " << where;
    EXPECT_TRUE(same_bits(got[1], want[1])) << "dA " << where;
    EXPECT_TRUE(same_bits(got[2], want[2])) << "dB " << where;
  }
}

// Matmul telemetry and backend gauges: calls/flops land on the totals
// whichever backend is selected, and the active and lane-count gauges
// track selection.
TEST_F(BackendTest, CountersAndActiveGauges) {
  obs::set_enabled(true);
  auto& registry = obs::MetricsRegistry::instance();
  obs::Counter& calls = registry.counter("tensor.matmul.calls");
  obs::Counter& flops = registry.counter("tensor.matmul.flops");
  obs::Counter& bwd_calls = registry.counter("tensor.matmul.bwd_calls");
  obs::Counter& bwd_flops = registry.counter("tensor.matmul.bwd_flops");
  for (const std::string& be : available_backends()) {
    backend::select(be);
    const std::uint64_t calls0 = calls.value();
    const std::uint64_t flops0 = flops.value();
    const std::uint64_t bwd0 = bwd_calls.value();
    const std::uint64_t bwd_flops0 = bwd_flops.value();

    Rng rng(41);
    Tensor a = Tensor::randn({8, 8}, rng).set_requires_grad(true);
    Tensor b = Tensor::randn({8, 8}, rng).set_requires_grad(true);
    Tape tape;
    Tensor loss = ops::sum(&tape, ops::matmul(&tape, a, b));
    tape.backward(loss);

    EXPECT_EQ(calls.value(), calls0 + 1) << be;
    EXPECT_EQ(flops.value(), flops0 + 2 * 8 * 8 * 8) << be;
    EXPECT_EQ(bwd_calls.value(), bwd0 + 1) << be;
    EXPECT_EQ(bwd_flops.value(), bwd_flops0 + 2 * 2 * 8 * 8 * 8) << be;
    EXPECT_EQ(registry.gauge("tensor.backend.active").value(),
              be == "simd" ? 1 : 0);
    // Selection runs the widest kernels the CPU has.
    const int want_lanes =
        be == "scalar"                                         ? 0
        : backend::detail::simd_backend_lanes(16) != nullptr ? 16
                                                               : 8;
    EXPECT_EQ(registry.gauge("tensor.backend.simd_lanes").value(), want_lanes);
  }
  EXPECT_EQ(registry.gauge("tensor.backend.simd_supported").value(),
            backend::simd_supported() ? 1 : 0);
}

}  // namespace
}  // namespace dpoaf
