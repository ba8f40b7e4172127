// AVX2/FMA backend: register-blocked, cache-tiled microkernels for the
// matmul paths plus 8-wide elementwise kernels. Compiled with
// -mavx2 -mfma on x86 (see src/tensor/CMakeLists.txt); execution is
// gated at runtime by cpuid in backend::simd_supported(), so carrying
// the code in a generic build is safe.
//
// Determinism (the contract tests/test_backend.cpp pins): every output
// cell runs one fixed arithmetic chain that depends only on its absolute
// indices and the full operand shapes — never on the [i0, i1) chunk
// bounds. The chains (SimdMatmulBitwiseEqualsChainReference spells them
// out in scalar code):
//  - forward and dB: one FMA per reduction index, ascending, starting
//    from the value already in the output;
//  - dA: 8 lane sums l0..l7 (lane l takes j ≡ l mod 8 over the full
//    8-blocks of j, ascending, from zero), then the tree
//    ((l0+l4)+(l2+l6))+((l1+l5)+(l3+l7)), then one FMA per tail j, then
//    ga += s.
// Everything else only groups independent cells into registers, which
// cannot change a cell's chain: row blocks and remainder rows, 64/16/8-
// wide and masked column tiles (a masked lane rounds like any lane), the
// 8-kk dA panels, and the K cache tiles (they spill accumulators to the
// float32 output — a lossless round-trip). GELU is per-element; a tail
// shorter than a vector runs the vector code on a zero-padded copy.
// Results *do* differ from the scalar backend (FMA fuses the multiply
// and add into one rounding, and GELU's tanh is a rational approximation
// rather than libm's); that is the allowed cross-backend delta.
#include "tensor/backend/backend.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <vector>

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

// Lanes [0, r) set, r in [1, 8]: the mask of a column tail vector.
__m256i lane_mask(std::int64_t r) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(r)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// A full vector, or (masked) only the lanes set in `mask`: masked-off
// lanes are neither read nor written, so a tail never touches memory
// past the end of a row.
template <bool kMasked>
__m256 load8(const float* p, __m256i mask) {
  if constexpr (kMasked) return _mm256_maskload_ps(p, mask);
  return _mm256_loadu_ps(p);
}
template <bool kMasked>
void store8(float* p, __m256 v, __m256i mask) {
  if constexpr (kMasked) {
    _mm256_maskstore_ps(p, mask, v);
  } else {
    _mm256_storeu_ps(p, v);
  }
}

// The FMA tile both the forward and dB run: out rows [r0, r0+R) ×
// V vectors of columns from j take, for t ascending over [t0, t1),
// out[r, :] = fma(x(r, t), y[t, :], out[r, :]) — the forward with
// x(r, t) = a[r·k + t] and t = kk, dB (kDB) with x(r, t) = a[t·k + r]
// and t = i. The accumulators start from `out` (zeros, the previous K
// tile's exact float32 spill, or the gradient so far). With kMasked the
// last vector covers only the lanes in `tail`.
template <bool kDB, std::int64_t R, int V, bool kMasked>
void fma_tile(const float* x, std::int64_t k, const float* y, float* out,
              std::int64_t n, std::int64_t r0, std::int64_t j,
              std::int64_t t0, std::int64_t t1, __m256i tail) {
  // acc0 holds the first vector of each row, acc1 the second (V = 2).
  __m256 acc0[R], acc1[R];
  for (std::int64_t r = 0; r < R; ++r) {
    const float* o = out + (r0 + r) * n + j;
    acc0[r] = load8<kMasked && V == 1>(o, tail);
    if constexpr (V == 2) acc1[r] = load8<kMasked>(o + 8, tail);
  }
  for (std::int64_t t = t0; t < t1; ++t) {
    const float* yt = y + t * n + j;
    const __m256 y0 = load8<kMasked && V == 1>(yt, tail);
    const __m256 y1 = V == 2 ? load8<kMasked>(yt + 8, tail) : y0;
    for (std::int64_t r = 0; r < R; ++r) {
      const __m256 xv = _mm256_broadcast_ss(
          kDB ? x + t * k + r0 + r : x + (r0 + r) * k + t);
      acc0[r] = _mm256_fmadd_ps(xv, y0, acc0[r]);
      if constexpr (V == 2) acc1[r] = _mm256_fmadd_ps(xv, y1, acc1[r]);
    }
  }
  for (std::int64_t r = 0; r < R; ++r) {
    float* o = out + (r0 + r) * n + j;
    store8<kMasked && V == 1>(o, acc0[r], tail);
    if constexpr (V == 2) store8<kMasked>(o + 8, acc1[r], tail);
  }
}

// Columns [j, n) of fma_tile's rows: 16-wide tiles, then the n mod 16
// remainder as one pass of a full vector plus a masked one (or one
// masked vector). Which tile a column lands in depends on n alone, and
// never changes the column's own chain.
template <bool kDB, std::int64_t R>
void fma_rows(const float* x, std::int64_t k, const float* y, float* out,
              std::int64_t n, std::int64_t r0, std::int64_t j,
              std::int64_t t0, std::int64_t t1) {
  const __m256i all = _mm256_set1_epi32(-1);
  for (; j + kNR <= n; j += kNR)
    fma_tile<kDB, R, 2, false>(x, k, y, out, n, r0, j, t0, t1, all);
  const std::int64_t rem = n - j;
  if (rem > 8) {
    fma_tile<kDB, R, 2, true>(x, k, y, out, n, r0, j, t0, t1,
                              lane_mask(rem - 8));
  } else if (rem > 0) {
    fma_tile<kDB, R, 1, true>(x, k, y, out, n, r0, j, t0, t1,
                              lane_mask(rem));
  }
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
  fma_rows<false, 1>(a, k, b, c, n, i, j, kc0, kc1);
}

// In-register 8×8 transpose: r[q] lane l ↔ r[l] lane q (constant
// indices only, so the compiler keeps everything in registers).
void transpose8(__m256 r[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
  const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
  const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
  const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
  const __m256 u0 = _mm256_shuffle_ps(t0, t2, 0x44);
  const __m256 u1 = _mm256_shuffle_ps(t0, t2, 0xEE);
  const __m256 u2 = _mm256_shuffle_ps(t1, t3, 0x44);
  const __m256 u3 = _mm256_shuffle_ps(t1, t3, 0xEE);
  const __m256 u4 = _mm256_shuffle_ps(t4, t6, 0x44);
  const __m256 u5 = _mm256_shuffle_ps(t4, t6, 0xEE);
  const __m256 u6 = _mm256_shuffle_ps(t5, t7, 0x44);
  const __m256 u7 = _mm256_shuffle_ps(t5, t7, 0xEE);
  r[0] = _mm256_permute2f128_ps(u0, u4, 0x20);
  r[1] = _mm256_permute2f128_ps(u1, u5, 0x20);
  r[2] = _mm256_permute2f128_ps(u2, u6, 0x20);
  r[3] = _mm256_permute2f128_ps(u3, u7, 0x20);
  r[4] = _mm256_permute2f128_ps(u0, u4, 0x31);
  r[5] = _mm256_permute2f128_ps(u1, u5, 0x31);
  r[6] = _mm256_permute2f128_ps(u2, u6, 0x31);
  r[7] = _mm256_permute2f128_ps(u3, u7, 0x31);
}

// b[k, n] packed as ⌈k/8⌉ panels of [n][8]: panel p holds
// b[8p + q, j] at p·8n + 8j + q, zero where 8p + q ≥ k. Per-thread, so
// concurrent calls on different row ranges never share it.
const float* pack_bt(const float* b, std::int64_t k, std::int64_t n) {
  thread_local std::vector<float> pack;
  pack.resize(static_cast<std::size_t>((k + 7) / 8 * 8 * n));
  for (std::int64_t kk0 = 0; kk0 < k; kk0 += 8) {
    float* panel = pack.data() + kk0 * n;
    const std::int64_t rows = k - kk0 < 8 ? k - kk0 : 8;
    for (std::int64_t j = 0; j < n; j += 8) {
      const std::int64_t cols = n - j < 8 ? n - j : 8;
      const __m256i live = lane_mask(cols), dead = _mm256_setzero_si256();
      // Rows past k load as zeros through an all-off mask (their address
      // is clamped to a real row, never formed past the end of b).
      __m256 r[8];
      for (int q = 0; q < 8; ++q)
        r[q] = _mm256_maskload_ps(b + (kk0 + (q < rows ? q : 0)) * n + j,
                                  q < rows ? live : dead);
      transpose8(r);
      for (int l = 0; l < 8; ++l)
        if (l < cols) _mm256_storeu_ps(panel + 8 * (j + l), r[l]);
    }
  }
  return pack.data();
}

// dA over packed b, 8 kk cells per vector: lane q of every register
// below belongs to cell (i, kk0 + q), so a cell's chain runs down one
// lane — acc[l] is its lane sum l, the three add levels are its tree,
// and the tail FMAs and the final add follow. A panel narrower than 8
// (k mod 8) computes zero lanes that the masked store drops.
void bwd_a_packed(const float* gc, const float* bt, float* ga, std::int64_t k,
                  std::int64_t n, std::int64_t i0, std::int64_t i1) {
  for (std::int64_t kk0 = 0; kk0 < k; kk0 += 8) {
    const float* panel = bt + kk0 * n;
    const __m256i mask = lane_mask(k - kk0 < 8 ? k - kk0 : 8);
    for (std::int64_t i = i0; i < i1; ++i) {
      const float* g = gc + i * n;
      __m256 acc[8];
      for (int l = 0; l < 8; ++l) acc[l] = _mm256_setzero_ps();
      std::int64_t j = 0;
      for (; j + 8 <= n; j += 8) {
        // gc[i, j+l] in every lane: l < 4 by broadcast loads, l ≥ 4 by
        // in-lane permutes of one 4-float broadcast (eases load ports).
        const __m256 hi =
            _mm256_broadcast_ps(reinterpret_cast<const __m128*>(g + j + 4));
        const __m256 gl[8] = {
            _mm256_broadcast_ss(g + j),     _mm256_broadcast_ss(g + j + 1),
            _mm256_broadcast_ss(g + j + 2), _mm256_broadcast_ss(g + j + 3),
            _mm256_permute_ps(hi, 0x00),    _mm256_permute_ps(hi, 0x55),
            _mm256_permute_ps(hi, 0xAA),    _mm256_permute_ps(hi, 0xFF)};
        for (int l = 0; l < 8; ++l)
          acc[l] = _mm256_fmadd_ps(
              gl[l], _mm256_loadu_ps(panel + 8 * (j + l)), acc[l]);
      }
      __m256 s = _mm256_add_ps(
          _mm256_add_ps(_mm256_add_ps(acc[0], acc[4]),
                        _mm256_add_ps(acc[2], acc[6])),
          _mm256_add_ps(_mm256_add_ps(acc[1], acc[5]),
                        _mm256_add_ps(acc[3], acc[7])));
      for (; j < n; ++j)
        s = _mm256_fmadd_ps(_mm256_broadcast_ss(g + j),
                            _mm256_loadu_ps(panel + 8 * j), s);
      float* out = ga + i * k + kk0;
      _mm256_maskstore_ps(out, mask,
                          _mm256_add_ps(_mm256_maskload_ps(out, mask), s));
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
        fma_rows<false, kMR>(a, k, b, c, n, i, 0, kc0, kc1);
      for (; i < i1; ++i) fwd_row1(a, b, c, k, n, i, kc0, kc1);
    }
  }

  void matmul_bwd_a(const float* gc, const float* b, float* ga, std::int64_t k,
                    std::int64_t n, std::int64_t i0,
                    std::int64_t i1) const override {
    // Packing costs O(k·n) per call against the O((i1−i0)·k·n) sweep.
    bwd_a_packed(gc, pack_bt(b, k, n), ga, k, n, i0, i1);
  }

  void matmul_bwd_b(const float* a, const float* gc, float* gb, std::int64_t m,
                    std::int64_t k, std::int64_t n, std::int64_t k0,
                    std::int64_t k1) const override {
    // 4 dB rows per sweep (8 accumulators on the 16-wide tile, each gc
    // vector reused across four rows); leftover rows run alone.
    std::int64_t kk = k0;
    for (; kk + 4 <= k1; kk += 4)
      fma_rows<true, 4>(a, k, gc, gb, n, kk, 0, 0, m);
    for (; kk < k1; ++kk) fma_rows<true, 1>(a, k, gc, gb, n, kk, 0, 0, m);
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
