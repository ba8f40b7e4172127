// AVX2/FMA backend: the matmul kernels of simd_matmul.hpp at 8 lanes
// (or, where the CPU has AVX-512F, simd_avx512.cpp's 16-lane instance)
// plus 8-wide accumulating elementwise and GELU kernels. Compiled with
// -mavx2 -mfma on x86 (see src/tensor/CMakeLists.txt); execution is gated
// at runtime by cpuid in backend::simd_supported(), so carrying the code
// in a generic build is safe.
//
// The matmul chains are documented in simd_matmul.hpp. The accumulating
// elementwise kernels and GELU are per-element; a GELU tail shorter than
// a vector runs the vector code on a zero-padded copy. Results *do*
// differ from the scalar backend (FMA fuses the multiply and add into one
// rounding, and GELU's tanh is a rational approximation rather than
// libm's); that is the allowed cross-backend delta.
#include "tensor/backend/backend.hpp"
#include "tensor/backend/simd_matmul.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace dpoaf::tensor::backend {

namespace {

// 8 lanes of AVX2/FMA for the matmul kernels in simd_matmul.hpp:
// 4-row × 16-column forward and dB tiles (8 accumulators, 2 B vectors and
// the broadcasts fit the 16 ymm registers), one dA row per panel load.
struct Lanes8 {
  using V = __m256;
  using Mask = __m256i;
  static constexpr std::int64_t kLanes = 8, kFwdRows = 4, kDbRows = 4;
  static constexpr int kDaRows = 1;
  static V zero() { return _mm256_setzero_ps(); }
  static V load(const float* p) { return _mm256_loadu_ps(p); }
  static V load(const float* p, Mask m) { return _mm256_maskload_ps(p, m); }
  static void store(float* p, V v) { _mm256_storeu_ps(p, v); }
  static void store(float* p, V v, Mask m) { _mm256_maskstore_ps(p, m, v); }
  static V bcast(const float* p) { return _mm256_broadcast_ss(p); }
  static V fma(V a, V b, V c) { return _mm256_fmadd_ps(a, b, c); }
  static V add(V a, V b) { return _mm256_add_ps(a, b); }
  // Lanes [0, r) set, r in [1, 8].
  static Mask mask(std::int64_t r) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(r)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  static Mask all() { return _mm256_set1_epi32(-1); }
  // g[l] in every lane of out[l]: l < 4 by broadcast loads, l ≥ 4 by
  // in-lane permutes of one 4-float broadcast (eases the load ports).
  static void splat8(const float* g, V out[8]) {
    const __m256 hi =
        _mm256_broadcast_ps(reinterpret_cast<const __m128*>(g + 4));
    for (int l = 0; l < 4; ++l) out[l] = _mm256_broadcast_ss(g + l);
    out[4] = _mm256_permute_ps(hi, 0x00);
    out[5] = _mm256_permute_ps(hi, 0x55);
    out[6] = _mm256_permute_ps(hi, 0xAA);
    out[7] = _mm256_permute_ps(hi, 0xFF);
  }
};

constexpr MatmulKernels kMatmul8 = Matmul<Lanes8>::kernels();

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
  explicit SimdBackend(const MatmulKernels& mm)
      : ComputeBackend("simd", mm.lanes), mm_(mm) {}

  [[nodiscard]] Kind kind() const override { return Kind::kSimd; }

  void matmul_fwd(const float* a, const float* b, float* c, std::int64_t m,
                  std::int64_t k, std::int64_t n) const override {
    mm_.fwd(a, b, c, m, k, n);
  }

  void matmul_bwd_a(const float* gc, const float* b, float* ga, std::int64_t m,
                    std::int64_t k, std::int64_t n) const override {
    // Per-thread, so concurrent calls never share the packed b; 64-byte
    // aligned, so no panel load splits a cache line.
    thread_local std::vector<float> pack;
    const std::int64_t lanes = mm_.lanes;
    pack.resize(
        static_cast<std::size_t>((k + lanes - 1) / lanes * lanes * n + 15));
    const auto misalign = reinterpret_cast<std::uintptr_t>(pack.data()) % 64;
    mm_.bwd_a(gc, b, ga, m, k, n,
              pack.data() + (64 - misalign) % 64 / sizeof(float));
  }

  void matmul_bwd_b(const float* a, const float* gc, float* gb, std::int64_t m,
                    std::int64_t k, std::int64_t n) const override {
    mm_.bwd_b(a, gc, gb, m, k, n);
  }

  // Per-element, so vector grouping cannot change a value; both fuse the
  // multiply and add into one rounding.
  void ew_axpy(float s, const float* a, float* out,
               std::int64_t n) const override {
    const __m256 sv = _mm256_set1_ps(s);
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8)
      _mm256_storeu_ps(out + i,
                       _mm256_fmadd_ps(sv, _mm256_loadu_ps(a + i),
                                       _mm256_loadu_ps(out + i)));
    for (; i < n; ++i) out[i] = std::fma(s, a[i], out[i]);
  }

  void ew_mul_acc(const float* a, const float* b, float* out,
                  std::int64_t n) const override {
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8)
      _mm256_storeu_ps(out + i,
                       _mm256_fmadd_ps(_mm256_loadu_ps(a + i),
                                       _mm256_loadu_ps(b + i),
                                       _mm256_loadu_ps(out + i)));
    for (; i < n; ++i) out[i] = std::fma(a[i], b[i], out[i]);
  }

  // GELU lanes are independent, so grouping never changes a value. A
  // tail shorter than 8 runs the same 8-lane code on a zero-padded copy:
  // an element computes the same bits whether it sits in a full vector or
  // in a tail, so a decode row's GELU equals the batch's whatever d_ff
  // is.
  void gelu_fwd(const float* x, float* y, float* t,
                std::int64_t n) const override {
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8)
      gelu_fwd8(x + i, y + i, t == nullptr ? nullptr : t + i);
    if (i == n) return;
    const std::int64_t r = n - i;
    float xs[8] = {}, ys[8], ts[8];
    std::copy(x + i, x + n, xs);
    gelu_fwd8(xs, ys, ts);
    std::copy(ys, ys + r, y + i);
    if (t != nullptr) std::copy(ts, ts + r, t + i);
  }

  void gelu_bwd(const float* x, const float* t, const float* gy, float* gx,
                std::int64_t n) const override {
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8) gelu_bwd8(x + i, t + i, gy + i, gx + i);
    if (i == n) return;
    const std::int64_t r = n - i;
    float xs[8] = {}, ts[8] = {}, gys[8] = {}, gxs[8] = {};
    std::copy(x + i, x + n, xs);
    std::copy(t + i, t + n, ts);
    std::copy(gy + i, gy + n, gys);
    std::copy(gx + i, gx + n, gxs);
    gelu_bwd8(xs, ts, gys, gxs);
    std::copy(gxs, gxs + r, gx + i);
  }

 private:
  const MatmulKernels& mm_;
};

}  // namespace

namespace detail {

const ComputeBackend* simd_backend_lanes(int lanes) {
  if (!simd_supported()) return nullptr;
  if (lanes == 8) {
    static const SimdBackend backend(kMatmul8);
    return &backend;
  }
  if (lanes == 16 && kMatmul16.lanes == 16 &&
      __builtin_cpu_supports("avx512f")) {
    static const SimdBackend backend(kMatmul16);
    return &backend;
  }
  return nullptr;
}

const ComputeBackend* simd_backend_impl() {
  static const ComputeBackend* const widest = [] {
    const ComputeBackend* wide = simd_backend_lanes(16);
    return wide != nullptr ? wide : simd_backend_lanes(8);
  }();
  return widest;
}

bool simd_compiled() { return true; }

}  // namespace detail

}  // namespace dpoaf::tensor::backend

#else  // !(__AVX2__ && __FMA__): generic build — stub out the backend.

namespace dpoaf::tensor::backend::detail {

const ComputeBackend* simd_backend_lanes(int) { return nullptr; }

const ComputeBackend* simd_backend_impl() { return nullptr; }

bool simd_compiled() { return false; }

}  // namespace dpoaf::tensor::backend::detail

#endif
