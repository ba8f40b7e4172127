// AVX2/FMA backend: register-blocked, cache-tiled microkernels for the
// matmul paths plus 8-wide elementwise kernels. Compiled with
// -mavx2 -mfma on x86 (see src/tensor/CMakeLists.txt); execution is
// gated at runtime by cpuid in backend::simd_supported(), so carrying
// the code in a generic build is safe.
//
// Determinism (the contract tests/test_backend.cpp pins): every output
// element's arithmetic depends only on its absolute indices and the full
// operand shapes — never on the [i0, i1) chunk bounds. Concretely:
//  - each output row/cell owns its accumulator registers, and the
//    register-blocked (several rows / kk) and remainder (1 row) paths run
//    the same FMA chain per element, so how rows group into blocks
//    (which chunk bounds shift) cannot change any value;
//  - column tiling (64/16/8-wide tiles, scalar tails) only groups
//    independent columns into registers — it never alters a column's own
//    FMA chain — and the scalar tails use std::fma, which rounds exactly
//    like a vector FMA lane;
//  - the K cache tiles spill accumulators to the float32 output between
//    tiles — a lossless round-trip, so tiling never reorders a rounding;
//  - GELU is per-element; a tail shorter than a vector runs the vector
//    code on a zero-padded copy, so it rounds like any other lane.
// Results *do* differ from the scalar backend (FMA fuses the multiply
// and add into one rounding, and GELU's tanh is a rational approximation
// rather than libm's); that is the allowed cross-backend delta.
#include "tensor/backend/backend.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace dpoaf::tensor::backend {

namespace {

// Microkernel shape: MR output rows × NR output columns of C stay in
// registers across a K tile (MR·NR/8 = 8 accumulators + 2 B vectors +
// broadcasts fit the 16 ymm registers).
constexpr std::int64_t kMR = 4;
constexpr std::int64_t kNR = 16;
// K cache tile: one B panel (kKC × kNR floats = 16 KiB) stays L1-resident
// while the microkernel sweeps its rows.
constexpr std::int64_t kKC = 256;

// Fixed-order horizontal sum of 8 lanes (pairwise tree, independent of
// call-site context).
float hsum8(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x1));
  return _mm_cvtss_f32(s);
}

// C rows [i, i+R) × columns [j, j+16) over K tile [kc0, kc1); the
// accumulators start from C (zero-filled by the caller, or the previous
// K tile's exact float32 spill).
template <std::int64_t R>
void fwd_tile16(const float* a, const float* b, float* c, std::int64_t k,
                std::int64_t n, std::int64_t i, std::int64_t j,
                std::int64_t kc0, std::int64_t kc1) {
  __m256 acc0[R], acc1[R];
  for (std::int64_t r = 0; r < R; ++r) {
    acc0[r] = _mm256_loadu_ps(c + (i + r) * n + j);
    acc1[r] = _mm256_loadu_ps(c + (i + r) * n + j + 8);
  }
  for (std::int64_t kk = kc0; kk < kc1; ++kk) {
    const __m256 b0 = _mm256_loadu_ps(b + kk * n + j);
    const __m256 b1 = _mm256_loadu_ps(b + kk * n + j + 8);
    for (std::int64_t r = 0; r < R; ++r) {
      const __m256 av = _mm256_broadcast_ss(a + (i + r) * k + kk);
      acc0[r] = _mm256_fmadd_ps(av, b0, acc0[r]);
      acc1[r] = _mm256_fmadd_ps(av, b1, acc1[r]);
    }
  }
  for (std::int64_t r = 0; r < R; ++r) {
    _mm256_storeu_ps(c + (i + r) * n + j, acc0[r]);
    _mm256_storeu_ps(c + (i + r) * n + j + 8, acc1[r]);
  }
}

// Column tail: 8-wide then std::fma scalars; same per-element FMA chain
// as the 16-wide path, so which tile a column lands in (a function of N
// alone) is the only thing that varies.
template <std::int64_t R>
void fwd_tail(const float* a, const float* b, float* c, std::int64_t k,
              std::int64_t n, std::int64_t i, std::int64_t j0,
              std::int64_t kc0, std::int64_t kc1) {
  std::int64_t j = j0;
  for (; j + 8 <= n; j += 8) {
    __m256 acc[R];
    for (std::int64_t r = 0; r < R; ++r)
      acc[r] = _mm256_loadu_ps(c + (i + r) * n + j);
    for (std::int64_t kk = kc0; kk < kc1; ++kk) {
      const __m256 bv = _mm256_loadu_ps(b + kk * n + j);
      for (std::int64_t r = 0; r < R; ++r)
        acc[r] = _mm256_fmadd_ps(_mm256_broadcast_ss(a + (i + r) * k + kk),
                                 bv, acc[r]);
    }
    for (std::int64_t r = 0; r < R; ++r)
      _mm256_storeu_ps(c + (i + r) * n + j, acc[r]);
  }
  for (; j < n; ++j) {
    for (std::int64_t r = 0; r < R; ++r) {
      float acc = c[(i + r) * n + j];
      for (std::int64_t kk = kc0; kk < kc1; ++kk)
        acc = std::fma(a[(i + r) * k + kk], b[kk * n + j], acc);
      c[(i + r) * n + j] = acc;
    }
  }
}

template <std::int64_t R>
void fwd_rows(const float* a, const float* b, float* c, std::int64_t k,
              std::int64_t n, std::int64_t i, std::int64_t kc0,
              std::int64_t kc1) {
  std::int64_t j = 0;
  for (; j + kNR <= n; j += kNR) fwd_tile16<R>(a, b, c, k, n, i, j, kc0, kc1);
  if (j < n) fwd_tail<R>(a, b, c, k, n, i, j, kc0, kc1);
}

// Single-row path (remainder rows, and the m=1 matvec the KV-cache
// decoder issues every token): with one row the 16-wide tile holds only
// 2 accumulator chains — too few to hide FMA latency — so tile 64
// columns (8 independent chains) first. Register grouping of independent
// columns never changes a column's own ascending-kk FMA chain, so a row
// computes the same bits here as inside a 4-row block.
void fwd_row1(const float* a, const float* b, float* c, std::int64_t k,
              std::int64_t n, std::int64_t i, std::int64_t kc0,
              std::int64_t kc1) {
  const float* ar = a + i * k;
  float* cr = c + i * n;
  std::int64_t j = 0;
  for (; j + 64 <= n; j += 64) {
    __m256 acc[8];
    for (int t = 0; t < 8; ++t) acc[t] = _mm256_loadu_ps(cr + j + 8 * t);
    for (std::int64_t kk = kc0; kk < kc1; ++kk) {
      const __m256 av = _mm256_broadcast_ss(ar + kk);
      const float* br = b + kk * n + j;
      for (int t = 0; t < 8; ++t)
        acc[t] = _mm256_fmadd_ps(av, _mm256_loadu_ps(br + 8 * t), acc[t]);
    }
    for (int t = 0; t < 8; ++t) _mm256_storeu_ps(cr + j + 8 * t, acc[t]);
  }
  for (; j + kNR <= n; j += kNR) fwd_tile16<1>(a, b, c, k, n, i, j, kc0, kc1);
  if (j < n) fwd_tail<1>(a, b, c, k, n, i, j, kc0, kc1);
}

// dA cells (i..i+R) × (kk..kk+KB): ga[i,kk] += ⟨gc[i,:], b[kk,:]⟩. Every
// cell runs the same chain whatever block it lands in: a j-ascending
// 8-lane FMA accumulator, the hsum8 tree, then a std::fma tail.
template <std::int64_t R, std::int64_t KB>
void bwd_a_cells(const float* gc, const float* b, float* ga, std::int64_t k,
                 std::int64_t n, std::int64_t i, std::int64_t kk) {
  __m256 acc[R][KB];
  for (std::int64_t r = 0; r < R; ++r)
    for (std::int64_t q = 0; q < KB; ++q) acc[r][q] = _mm256_setzero_ps();
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    __m256 bv[KB];
    for (std::int64_t q = 0; q < KB; ++q)
      bv[q] = _mm256_loadu_ps(b + (kk + q) * n + j);
    for (std::int64_t r = 0; r < R; ++r) {
      const __m256 g = _mm256_loadu_ps(gc + (i + r) * n + j);
      for (std::int64_t q = 0; q < KB; ++q)
        acc[r][q] = _mm256_fmadd_ps(g, bv[q], acc[r][q]);
    }
  }
  for (std::int64_t r = 0; r < R; ++r) {
    const float* gcr = gc + (i + r) * n;
    for (std::int64_t q = 0; q < KB; ++q) {
      const float* br = b + (kk + q) * n;
      float s = hsum8(acc[r][q]);
      for (std::int64_t jt = j; jt < n; ++jt) s = std::fma(gcr[jt], br[jt], s);
      ga[(i + r) * k + kk + q] += s;
    }
  }
}

template <std::int64_t R>
void bwd_a_rows(const float* gc, const float* b, float* ga, std::int64_t k,
                std::int64_t n, std::int64_t i) {
  std::int64_t kk = 0;
  for (; kk + 4 <= k; kk += 4) bwd_a_cells<R, 4>(gc, b, ga, k, n, i, kk);
  for (; kk < k; ++kk) bwd_a_cells<R, 1>(gc, b, ga, k, n, i, kk);
}

// dB rows [kk, kk+R): gb[kk,j] += Σ_i a[i,kk]·gc[i,j]. Each cell's
// accumulator starts from gb and takes one FMA per i in ascending order
// (the order every backend preserves), on every tile and block path.
template <std::int64_t R>
void bwd_b_rows(const float* a, const float* gc, float* gb, std::int64_t m,
                std::int64_t k, std::int64_t n, std::int64_t kk) {
  std::int64_t j = 0;
  for (; j + kNR <= n; j += kNR) {
    __m256 acc0[R], acc1[R];
    for (std::int64_t r = 0; r < R; ++r) {
      acc0[r] = _mm256_loadu_ps(gb + (kk + r) * n + j);
      acc1[r] = _mm256_loadu_ps(gb + (kk + r) * n + j + 8);
    }
    for (std::int64_t i = 0; i < m; ++i) {
      const __m256 g0 = _mm256_loadu_ps(gc + i * n + j);
      const __m256 g1 = _mm256_loadu_ps(gc + i * n + j + 8);
      for (std::int64_t r = 0; r < R; ++r) {
        const __m256 av = _mm256_broadcast_ss(a + i * k + kk + r);
        acc0[r] = _mm256_fmadd_ps(av, g0, acc0[r]);
        acc1[r] = _mm256_fmadd_ps(av, g1, acc1[r]);
      }
    }
    for (std::int64_t r = 0; r < R; ++r) {
      _mm256_storeu_ps(gb + (kk + r) * n + j, acc0[r]);
      _mm256_storeu_ps(gb + (kk + r) * n + j + 8, acc1[r]);
    }
  }
  for (; j + 8 <= n; j += 8) {
    __m256 acc[R];
    for (std::int64_t r = 0; r < R; ++r)
      acc[r] = _mm256_loadu_ps(gb + (kk + r) * n + j);
    for (std::int64_t i = 0; i < m; ++i) {
      const __m256 g = _mm256_loadu_ps(gc + i * n + j);
      for (std::int64_t r = 0; r < R; ++r)
        acc[r] = _mm256_fmadd_ps(_mm256_broadcast_ss(a + i * k + kk + r), g,
                                 acc[r]);
    }
    for (std::int64_t r = 0; r < R; ++r)
      _mm256_storeu_ps(gb + (kk + r) * n + j, acc[r]);
  }
  for (; j < n; ++j) {
    for (std::int64_t r = 0; r < R; ++r) {
      float acc = gb[(kk + r) * n + j];
      for (std::int64_t i = 0; i < m; ++i)
        acc = std::fma(a[i * k + kk + r], gc[i * n + j], acc);
      gb[(kk + r) * n + j] = acc;
    }
  }
}

// 8-lane tanh: Eigen's clamped rational approximation (odd degree-13
// numerator over even degree-6 denominator, ≤5 ulp from tanh). The clamp
// is the smallest float at which this FMA evaluation reaches exactly 1,
// so |u| beyond it saturates to ±1 like std::tanh; below 4e-4, tanh(u)
// rounds to u and u passes through.
__m256 tanh8(__m256 u) {
  const __m256 clamp = _mm256_set1_ps(7.99881172180175781f);
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  const __m256 tiny = _mm256_cmp_ps(_mm256_and_ps(u, abs_mask),
                                    _mm256_set1_ps(4e-4f), _CMP_LT_OQ);
  const __m256 x = _mm256_max_ps(_mm256_min_ps(u, clamp),
                                 _mm256_sub_ps(_mm256_setzero_ps(), clamp));
  const __m256 x2 = _mm256_mul_ps(x, x);
  __m256 p = _mm256_fmadd_ps(x2, _mm256_set1_ps(-2.76076847742355e-16f),
                             _mm256_set1_ps(2.00018790482477e-13f));
  p = _mm256_fmadd_ps(x2, p, _mm256_set1_ps(-8.60467152213735e-11f));
  p = _mm256_fmadd_ps(x2, p, _mm256_set1_ps(5.12229709037114e-08f));
  p = _mm256_fmadd_ps(x2, p, _mm256_set1_ps(1.48572235717979e-05f));
  p = _mm256_fmadd_ps(x2, p, _mm256_set1_ps(6.37261928875436e-04f));
  p = _mm256_fmadd_ps(x2, p, _mm256_set1_ps(4.89352455891786e-03f));
  p = _mm256_mul_ps(x, p);
  __m256 q = _mm256_fmadd_ps(x2, _mm256_set1_ps(1.19825839466702e-06f),
                             _mm256_set1_ps(1.18534705686654e-04f));
  q = _mm256_fmadd_ps(x2, q, _mm256_set1_ps(2.26843463243900e-03f));
  q = _mm256_fmadd_ps(x2, q, _mm256_set1_ps(4.89352518554385e-03f));
  return _mm256_blendv_ps(_mm256_div_ps(p, q), u, tiny);
}

// GELU on 8 lanes: t = tanh(c·(x + a·x³)), y = ½x·(1 + t).
void gelu_fwd8(const float* x, float* y, float* t) {
  const __m256 xv = _mm256_loadu_ps(x);
  const __m256 ax2 = _mm256_mul_ps(_mm256_set1_ps(kGeluA),
                                   _mm256_mul_ps(xv, xv));
  const __m256 u = _mm256_mul_ps(_mm256_set1_ps(kGeluC),
                                 _mm256_fmadd_ps(ax2, xv, xv));
  const __m256 tv = tanh8(u);
  const __m256 hx = _mm256_mul_ps(_mm256_set1_ps(0.5f), xv);
  if (t != nullptr) _mm256_storeu_ps(t, tv);
  _mm256_storeu_ps(y, _mm256_fmadd_ps(hx, tv, hx));
}

// gx += gy · (½(1 + t) + ½x·(1 − t²)·c·(1 + 3a·x²)) on 8 lanes.
void gelu_bwd8(const float* x, const float* t, const float* gy, float* gx) {
  const __m256 xv = _mm256_loadu_ps(x);
  const __m256 tv = _mm256_loadu_ps(t);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 du = _mm256_fmadd_ps(_mm256_set1_ps(3.0f * kGeluA * kGeluC),
                                    _mm256_mul_ps(xv, xv),
                                    _mm256_set1_ps(kGeluC));
  const __m256 sech2 = _mm256_fnmadd_ps(tv, tv, _mm256_set1_ps(1.0f));
  const __m256 d = _mm256_fmadd_ps(_mm256_mul_ps(_mm256_mul_ps(half, xv), sech2),
                                   du, _mm256_fmadd_ps(half, tv, half));
  _mm256_storeu_ps(gx, _mm256_fmadd_ps(_mm256_loadu_ps(gy), d,
                                       _mm256_loadu_ps(gx)));
}

class SimdBackend final : public ComputeBackend {
 public:
  SimdBackend() : ComputeBackend("simd") {}

  [[nodiscard]] Kind kind() const override { return Kind::kSimd; }

  void matmul_fwd(const float* a, const float* b, float* c, std::int64_t k,
                  std::int64_t n, std::int64_t i0,
                  std::int64_t i1) const override {
    for (std::int64_t kc0 = 0; kc0 < k; kc0 += kKC) {
      const std::int64_t kc1 = kc0 + kKC < k ? kc0 + kKC : k;
      std::int64_t i = i0;
      for (; i + kMR <= i1; i += kMR)
        fwd_rows<kMR>(a, b, c, k, n, i, kc0, kc1);
      for (; i < i1; ++i) fwd_row1(a, b, c, k, n, i, kc0, kc1);
    }
  }

  void matmul_bwd_a(const float* gc, const float* b, float* ga, std::int64_t k,
                    std::int64_t n, std::int64_t i0,
                    std::int64_t i1) const override {
    // 2 rows × 4 kk per sweep (8 chains, each gc vector reused across
    // four B rows); rows and kk left over fall to the smaller blocks,
    // which run the same per-cell chain.
    std::int64_t i = i0;
    for (; i + 2 <= i1; i += 2) bwd_a_rows<2>(gc, b, ga, k, n, i);
    for (; i < i1; ++i) bwd_a_rows<1>(gc, b, ga, k, n, i);
  }

  void matmul_bwd_b(const float* a, const float* gc, float* gb, std::int64_t m,
                    std::int64_t k, std::int64_t n, std::int64_t k0,
                    std::int64_t k1) const override {
    // 4 dB rows per sweep (8 accumulators on the 16-wide tile, each gc
    // vector reused across four rows); leftover rows run alone.
    std::int64_t kk = k0;
    for (; kk + 4 <= k1; kk += 4) bwd_b_rows<4>(a, gc, gb, m, k, n, kk);
    for (; kk < k1; ++kk) bwd_b_rows<1>(a, gc, gb, m, k, n, kk);
  }

  // The elementwise kernels are per-element (no reductions), so vector
  // grouping — which does shift with the chunk base — cannot change any
  // value; add/mul/scale round exactly like scalar, axpy/mul_acc fuse.
  void ew_add(const float* a, const float* b, float* out, std::int64_t i0,
              std::int64_t i1) const override {
    std::int64_t i = i0;
    for (; i + 8 <= i1; i += 8)
      _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_loadu_ps(a + i),
                                              _mm256_loadu_ps(b + i)));
    for (; i < i1; ++i) out[i] = a[i] + b[i];
  }

  void ew_mul(const float* a, const float* b, float* out, std::int64_t i0,
              std::int64_t i1) const override {
    std::int64_t i = i0;
    for (; i + 8 <= i1; i += 8)
      _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(a + i),
                                              _mm256_loadu_ps(b + i)));
    for (; i < i1; ++i) out[i] = a[i] * b[i];
  }

  void ew_scale(const float* a, float s, float* out, std::int64_t i0,
                std::int64_t i1) const override {
    const __m256 sv = _mm256_set1_ps(s);
    std::int64_t i = i0;
    for (; i + 8 <= i1; i += 8)
      _mm256_storeu_ps(out + i, _mm256_mul_ps(sv, _mm256_loadu_ps(a + i)));
    for (; i < i1; ++i) out[i] = s * a[i];
  }

  void ew_axpy(float s, const float* a, float* out, std::int64_t i0,
               std::int64_t i1) const override {
    const __m256 sv = _mm256_set1_ps(s);
    std::int64_t i = i0;
    for (; i + 8 <= i1; i += 8)
      _mm256_storeu_ps(out + i,
                       _mm256_fmadd_ps(sv, _mm256_loadu_ps(a + i),
                                       _mm256_loadu_ps(out + i)));
    for (; i < i1; ++i) out[i] = std::fma(s, a[i], out[i]);
  }

  void ew_mul_acc(const float* a, const float* b, float* out, std::int64_t i0,
                  std::int64_t i1) const override {
    std::int64_t i = i0;
    for (; i + 8 <= i1; i += 8)
      _mm256_storeu_ps(out + i,
                       _mm256_fmadd_ps(_mm256_loadu_ps(a + i),
                                       _mm256_loadu_ps(b + i),
                                       _mm256_loadu_ps(out + i)));
    for (; i < i1; ++i) out[i] = std::fma(a[i], b[i], out[i]);
  }

  // GELU lanes are independent, so grouping never changes a value. A
  // tail shorter than 8 runs the same 8-lane code on a zero-padded copy:
  // an element computes the same bits whether a chunk boundary puts it
  // in a full vector or in a tail.
  void gelu_fwd(const float* x, float* y, float* t, std::int64_t i0,
                std::int64_t i1) const override {
    std::int64_t i = i0;
    for (; i + 8 <= i1; i += 8)
      gelu_fwd8(x + i, y + i, t == nullptr ? nullptr : t + i);
    if (i == i1) return;
    const std::int64_t r = i1 - i;
    float xs[8] = {}, ys[8], ts[8];
    std::copy(x + i, x + i1, xs);
    gelu_fwd8(xs, ys, ts);
    std::copy(ys, ys + r, y + i);
    if (t != nullptr) std::copy(ts, ts + r, t + i);
  }

  void gelu_bwd(const float* x, const float* t, const float* gy, float* gx,
                std::int64_t i0, std::int64_t i1) const override {
    std::int64_t i = i0;
    for (; i + 8 <= i1; i += 8) gelu_bwd8(x + i, t + i, gy + i, gx + i);
    if (i == i1) return;
    const std::int64_t r = i1 - i;
    float xs[8] = {}, ts[8] = {}, gys[8] = {}, gxs[8] = {};
    std::copy(x + i, x + i1, xs);
    std::copy(t + i, t + i1, ts);
    std::copy(gy + i, gy + i1, gys);
    std::copy(gx + i, gx + i1, gxs);
    gelu_bwd8(xs, ts, gys, gxs);
    std::copy(gxs, gxs + r, gx + i);
  }

  void row_bias_add(const float* x, const float* bias, float* out,
                    std::int64_t n, std::int64_t i0,
                    std::int64_t i1) const override {
    for (std::int64_t i = i0; i < i1; ++i) {
      const float* xr = x + i * n;
      float* outr = out + i * n;
      std::int64_t j = 0;
      for (; j + 8 <= n; j += 8)
        _mm256_storeu_ps(outr + j, _mm256_add_ps(_mm256_loadu_ps(xr + j),
                                                 _mm256_loadu_ps(bias + j)));
      for (; j < n; ++j) outr[j] = xr[j] + bias[j];
    }
  }
};

}  // namespace

namespace detail {

const ComputeBackend* simd_backend_impl() {
  static SimdBackend backend;
  return &backend;
}

bool simd_compiled() { return true; }

}  // namespace detail

}  // namespace dpoaf::tensor::backend

#else  // !(__AVX2__ && __FMA__): generic build — stub out the backend.

namespace dpoaf::tensor::backend::detail {

const ComputeBackend* simd_backend_impl() { return nullptr; }

bool simd_compiled() { return false; }

}  // namespace dpoaf::tensor::backend::detail

#endif
