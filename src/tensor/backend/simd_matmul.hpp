// The simd backend's three matmul kernels, written once over a lane type
// L: simd_avx2.cpp instantiates them 8 lanes wide (AVX2/FMA) and
// simd_avx512.cpp 16 lanes wide (AVX-512F); simd_backend_impl() picks one
// width per process by cpuid (docs/BACKENDS.md "Vector width").
//
// Determinism (the contract tests/test_backend.cpp pins): every output
// cell runs one fixed arithmetic chain. A forward or dA cell's chain
// depends only on its column index and k/n — never on m, on where its row
// sits in the call, or on the vector width — so a row computed alone (the
// m = 1 KV-cache decode) equals that row inside a batch; a dB cell's runs
// over the rows in order. The chains
// (SimdMatmulBitwiseEqualsChainReference spells them out in scalar code):
//  - forward and dB: one FMA per reduction index, ascending, starting
//    from the value already in the output;
//  - dA: 8 lane sums l0..l7 (lane l takes j ≡ l mod 8 over the full
//    8-blocks of j, ascending, from zero), then the tree
//    ((l0+l4)+(l2+l6))+((l1+l5)+(l3+l7)), then one FMA per tail j, then
//    ga += s.
// Everything else only groups independent cells into registers, which
// cannot change a cell's chain: row blocks and remainder rows, full and
// masked column tiles (a masked lane rounds like any lane), the L-kk dA
// panels and the rows sharing them, and the K cache tiles (they spill
// accumulators to the float32 output — a lossless round-trip).
//
// Everything below the MatmulKernels table has internal linkage and is a
// member of Matmul<L>, so the 16-lane instance's code carries "Lanes16"
// in every symbol (scripts/check_isa_confinement.py relies on it) and no
// AVX-512 copy of a shared inline function can reach an AVX2-only host.
#pragma once

#include <cstdint>

namespace dpoaf::tensor::backend {

/// One width's matmul kernels, with ComputeBackend's signatures; bwd_a
/// also takes the caller's per-thread pack scratch of
/// ⌈k/lanes⌉·lanes·n floats.
struct MatmulKernels {
  int lanes;  // 0 when this build does not carry the width
  void (*fwd)(const float* a, const float* b, float* c, std::int64_t m,
              std::int64_t k, std::int64_t n);
  void (*bwd_a)(const float* gc, const float* b, float* ga, std::int64_t m,
                std::int64_t k, std::int64_t n, float* pack);
  void (*bwd_b)(const float* a, const float* gc, float* gb, std::int64_t m,
                std::int64_t k, std::int64_t n);
};

/// The 16-lane kernels (simd_avx512.cpp); lanes is 0 unless compiled.
extern const MatmulKernels kMatmul16;

}  // namespace dpoaf::tensor::backend

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

// Full unrolling of the register-block loops, so GCC keeps every
// accumulator in a register instead of storing the array to the stack on
// each reduction step; and inlining of every tile into its kernel, as a
// call per tile costs as much as the tile on the narrow shapes.
#if defined(__clang__)
#define DPOAF_UNROLL _Pragma("unroll")
#else
#define DPOAF_UNROLL _Pragma("GCC unroll 32")
#endif
#define DPOAF_INLINE [[gnu::always_inline]]

namespace dpoaf::tensor::backend {
namespace {

// L supplies the vector V, its lane mask Mask, kLanes, the per-lane ops
// (zero, load/store, masked load/store, bcast, fma, add, mask(r) for
// lanes [0, r), all()), splat8 (8 broadcasts of consecutive floats) and
// the register blocking: kFwdRows forward rows per tile, kDbRows dB rows
// and kDaRows dA rows sharing one panel load.
template <class L>
struct Matmul {
  using V = typename L::V;
  using Mask = typename L::Mask;
  static constexpr std::int64_t kL = L::kLanes;
  // K cache tile: one B panel stays L1-resident while the rows sweep it.
  static constexpr std::int64_t kKC = 256;

  // Vector v of NV from p; with kMasked the last one covers only `tail`
  // (masked-off lanes are neither read nor written, so a tail never
  // touches memory past the end of a row).
  template <bool kMasked, int NV>
  static V load(const float* p, int v, Mask tail) {
    return kMasked && v == NV - 1 ? L::load(p + v * kL, tail)
                                  : L::load(p + v * kL);
  }
  template <bool kMasked, int NV>
  static void store(float* p, int v, V x, Mask tail) {
    if (kMasked && v == NV - 1) return L::store(p + v * kL, x, tail);
    L::store(p + v * kL, x);
  }

  // The FMA tile both the forward and dB run: out rows [r0, r0+R) × NV
  // vectors of columns from j take, for t ascending over [t0, t1),
  // out[r, :] = fma(x(r, t), y[t, :], out[r, :]) — the forward with
  // x(r, t) = a[r·k + t] and t = kk, dB (kDB) with x(r, t) = a[t·k + r]
  // and t = i. The accumulators start from `out` (zeros, the previous K
  // tile's exact float32 spill, or the gradient so far).
  template <bool kDB, std::int64_t R, int NV, bool kMasked>
  DPOAF_INLINE
  static void tile(const float* x, std::int64_t k, const float* y, float* out,
                   std::int64_t n, std::int64_t r0, std::int64_t j,
                   std::int64_t t0, std::int64_t t1, Mask tail) {
    V acc[R][NV];
    DPOAF_UNROLL for (std::int64_t r = 0; r < R; ++r)
      DPOAF_UNROLL for (int v = 0; v < NV; ++v)
        acc[r][v] = load<kMasked, NV>(out + (r0 + r) * n + j, v, tail);
    for (std::int64_t t = t0; t < t1; ++t) {
      V yv[NV];
      DPOAF_UNROLL for (int v = 0; v < NV; ++v)
        yv[v] = load<kMasked, NV>(y + t * n + j, v, tail);
      DPOAF_UNROLL for (std::int64_t r = 0; r < R; ++r) {
        const V xv =
            L::bcast(kDB ? x + t * k + r0 + r : x + (r0 + r) * k + t);
        DPOAF_UNROLL for (int v = 0; v < NV; ++v)
          acc[r][v] = L::fma(xv, yv[v], acc[r][v]);
      }
    }
    DPOAF_UNROLL for (std::int64_t r = 0; r < R; ++r)
      DPOAF_UNROLL for (int v = 0; v < NV; ++v)
        store<kMasked, NV>(out + (r0 + r) * n + j, v, acc[r][v], tail);
  }

  // Columns [j, n) of tile's rows: 2-vector tiles, then the remainder as
  // one pass of a full vector plus a masked one (or one masked vector).
  // Which tile a column lands in depends on n alone.
  template <bool kDB, std::int64_t R>
  DPOAF_INLINE
  static void rows(const float* x, std::int64_t k, const float* y, float* out,
                   std::int64_t n, std::int64_t r0, std::int64_t j,
                   std::int64_t t0, std::int64_t t1) {
    for (; j + 2 * kL <= n; j += 2 * kL)
      tile<kDB, R, 2, false>(x, k, y, out, n, r0, j, t0, t1, L::all());
    const std::int64_t rem = n - j;
    if (rem > kL) {
      tile<kDB, R, 2, true>(x, k, y, out, n, r0, j, t0, t1, L::mask(rem - kL));
    } else if (rem > 0) {
      tile<kDB, R, 1, true>(x, k, y, out, n, r0, j, t0, t1, L::mask(rem));
    }
  }

  // Single forward row (remainder rows, and the m = 1 matvec the KV-cache
  // decoder issues every token): a 2-vector tile holds too few chains to
  // hide FMA latency, so take 8-vector (and at 16 lanes 4-vector) tiles
  // first.
  DPOAF_INLINE
  static void fwd_row1(const float* a, const float* b, float* c,
                       std::int64_t k, std::int64_t n, std::int64_t i,
                       std::int64_t kc0, std::int64_t kc1) {
    std::int64_t j = 0;
    for (; j + 8 * kL <= n; j += 8 * kL)
      tile<false, 1, 8, false>(a, k, b, c, n, i, j, kc0, kc1, L::all());
    if constexpr (kL > 8)
      for (; j + 4 * kL <= n; j += 4 * kL)
        tile<false, 1, 4, false>(a, k, b, c, n, i, j, kc0, kc1, L::all());
    rows<false, 1>(a, k, b, c, n, i, j, kc0, kc1);
  }

  static void fwd(const float* a, const float* b, float* c, std::int64_t m,
                  std::int64_t k, std::int64_t n) {
    for (std::int64_t kc0 = 0; kc0 < k; kc0 += kKC) {
      const std::int64_t kc1 = kc0 + kKC < k ? kc0 + kKC : k;
      std::int64_t i = 0;
      for (; i + L::kFwdRows <= m; i += L::kFwdRows)
        rows<false, L::kFwdRows>(a, k, b, c, n, i, 0, kc0, kc1);
      for (; i + 4 <= m; i += 4) rows<false, 4>(a, k, b, c, n, i, 0, kc0, kc1);
      for (; i < m; ++i) fwd_row1(a, b, c, k, n, i, kc0, kc1);
    }
  }

  static void bwd_b(const float* a, const float* gc, float* gb, std::int64_t m,
                    std::int64_t k, std::int64_t n) {
    std::int64_t kk = 0;
    for (; kk + L::kDbRows <= k; kk += L::kDbRows)
      rows<true, L::kDbRows>(a, k, gc, gb, n, kk, 0, 0, m);
    for (; kk + 4 <= k; kk += 4) rows<true, 4>(a, k, gc, gb, n, kk, 0, 0, m);
    for (; kk < k; ++kk) rows<true, 1>(a, k, gc, gb, n, kk, 0, 0, m);
  }

  // In-register 8×8 transpose: r[q] lane l ↔ r[l] lane q (constant
  // indices only, so the compiler keeps everything in registers).
  DPOAF_INLINE
  static void transpose8(__m256 r[8]) {
    __m256 t[8], u[8];
    for (int q = 0; q < 4; ++q) {
      t[2 * q] = _mm256_unpacklo_ps(r[2 * q], r[2 * q + 1]);
      t[2 * q + 1] = _mm256_unpackhi_ps(r[2 * q], r[2 * q + 1]);
    }
    for (int q = 0; q < 2; ++q) {
      u[4 * q] = _mm256_shuffle_ps(t[4 * q], t[4 * q + 2], 0x44);
      u[4 * q + 1] = _mm256_shuffle_ps(t[4 * q], t[4 * q + 2], 0xEE);
      u[4 * q + 2] = _mm256_shuffle_ps(t[4 * q + 1], t[4 * q + 3], 0x44);
      u[4 * q + 3] = _mm256_shuffle_ps(t[4 * q + 1], t[4 * q + 3], 0xEE);
    }
    for (int q = 0; q < 4; ++q) {
      r[q] = _mm256_permute2f128_ps(u[q], u[q + 4], 0x20);
      r[q + 4] = _mm256_permute2f128_ps(u[q], u[q + 4], 0x31);
    }
  }

  // b[k, n] packed as ⌈k/L⌉ panels of [n][L]: panel p holds b[L·p + q, j]
  // at p·L·n + L·j + q, zero where L·p + q ≥ k. Built from 8×8 blocks.
  static void pack_bt(const float* b, std::int64_t k, std::int64_t n,
                      float* pack) {
    const std::int64_t kp = (k + kL - 1) / kL * kL;
    for (std::int64_t kk0 = 0; kk0 < kp; kk0 += 8) {
      float* panel = pack + (kk0 - kk0 % kL) * n + kk0 % kL;
      const std::int64_t live_rows = k - kk0 < 8 ? k - kk0 : 8;
      for (std::int64_t j = 0; j < n; j += 8) {
        const std::int64_t cols = n - j < 8 ? n - j : 8;
        const __m256i live = _mm256_cmpgt_epi32(
            _mm256_set1_epi32(static_cast<int>(cols)),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
        // Rows past k load as zeros through an all-off mask (their address
        // is clamped to a real row, never formed past the end of b).
        __m256 r[8];
        for (int q = 0; q < 8; ++q)
          r[q] = _mm256_maskload_ps(
              b + (q < live_rows ? kk0 + q : 0) * n + j,
              q < live_rows ? live : _mm256_setzero_si256());
        transpose8(r);
        for (int l = 0; l < 8; ++l)
          if (l < cols) _mm256_storeu_ps(panel + kL * (j + l), r[l]);
      }
    }
  }

  // dA rows [i, i+R) over one panel, L kk cells per vector: lane q of
  // every register belongs to cell (i + r, kk0 + q), so a cell's chain
  // runs down one lane — acc[r][l] is its lane sum l, the three add levels
  // are its tree, and the tail FMAs and the final add follow. The R rows
  // share each panel load; a panel narrower than L computes zero lanes
  // that the masked store drops.
  template <int R>
  DPOAF_INLINE
  static void bwd_a_rows(const float* gc, const float* panel, float* ga,
                         std::int64_t k, std::int64_t n, std::int64_t i,
                         std::int64_t kk0, Mask mask) {
    V acc[R][8];
    DPOAF_UNROLL for (int r = 0; r < R; ++r)
      DPOAF_UNROLL for (int l = 0; l < 8; ++l) acc[r][l] = L::zero();
    std::int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
      V g[R][8];
      DPOAF_UNROLL for (int r = 0; r < R; ++r)
        L::splat8(gc + (i + r) * n + j, g[r]);
      DPOAF_UNROLL for (int l = 0; l < 8; ++l) {
        V p = L::load(panel + kL * (j + l));
        // One register for all R rows: without this GCC folds the load
        // into each FMA's memory operand, loading the panel R times.
        if constexpr (R > 1) asm("" : "+v"(p));
        DPOAF_UNROLL for (int r = 0; r < R; ++r)
          acc[r][l] = L::fma(g[r][l], p, acc[r][l]);
      }
    }
    DPOAF_UNROLL for (int r = 0; r < R; ++r) {
      const V* lane = acc[r];
      V s = L::add(L::add(L::add(lane[0], lane[4]), L::add(lane[2], lane[6])),
                   L::add(L::add(lane[1], lane[5]), L::add(lane[3], lane[7])));
      const float* g = gc + (i + r) * n;
      for (std::int64_t jt = j; jt < n; ++jt)
        s = L::fma(L::bcast(g + jt), L::load(panel + kL * jt), s);
      float* out = ga + (i + r) * k + kk0;
      L::store(out, L::add(L::load(out, mask), s), mask);
    }
  }

  static void bwd_a(const float* gc, const float* b, float* ga, std::int64_t m,
                    std::int64_t k, std::int64_t n, float* pack) {
    // Packing costs O(k·n) per call against the O(m·k·n) sweep.
    pack_bt(b, k, n, pack);
    for (std::int64_t kk0 = 0; kk0 < k; kk0 += kL) {
      const float* panel = pack + kk0 * n;
      const Mask mask = L::mask(k - kk0 < kL ? k - kk0 : kL);
      std::int64_t i = 0;
      for (; i + L::kDaRows <= m; i += L::kDaRows)
        bwd_a_rows<L::kDaRows>(gc, panel, ga, k, n, i, kk0, mask);
      for (; i < m; ++i) bwd_a_rows<1>(gc, panel, ga, k, n, i, kk0, mask);
    }
  }

  static constexpr MatmulKernels kernels() {
    return {static_cast<int>(kL), &fwd, &bwd_a, &bwd_b};
  }
};

}  // namespace
}  // namespace dpoaf::tensor::backend

#endif  // __AVX2__ && __FMA__
