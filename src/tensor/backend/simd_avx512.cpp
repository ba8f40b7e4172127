// The 16-lane (AVX-512F) instance of the simd backend's matmul kernels
// (simd_matmul.hpp). Compiled with -mavx512f whatever DPOAF_NATIVE_ARCH
// says (src/tensor/CMakeLists.txt); simd_avx2.cpp runs it only where
// cpuid reports avx512f.
//
// This file must not emit an AVX-512 copy of anything an AVX2-only host
// can reach: everything here has internal linkage except the data table
// kMatmul16, it includes nothing but simd_matmul.hpp (no std::vector or
// other external-linkage inline code to instantiate), and its scratch
// comes from the caller. CI's confinement step
// (scripts/check_isa_confinement.py) checks the linked binaries.
#include "tensor/backend/simd_matmul.hpp"

namespace dpoaf::tensor::backend {

#if defined(__AVX512F__)

namespace {

// 8-row × 32-column forward and dB tiles (16 accumulators of the 32 zmm
// registers; 8 rows also keep 8 FMA chains in flight when a row is one
// vector wide), and three dA rows sharing each panel load (24
// accumulators).
struct Lanes16 {
  using V = __m512;
  using Mask = __mmask16;
  static constexpr std::int64_t kLanes = 16, kFwdRows = 8, kDbRows = 8;
  static constexpr int kDaRows = 3;
  static V zero() { return _mm512_setzero_ps(); }
  static V load(const float* p) { return _mm512_loadu_ps(p); }
  static V load(const float* p, Mask m) { return _mm512_maskz_loadu_ps(m, p); }
  static void store(float* p, V v) { _mm512_storeu_ps(p, v); }
  static void store(float* p, V v, Mask m) { _mm512_mask_storeu_ps(p, m, v); }
  static V bcast(const float* p) { return _mm512_set1_ps(*p); }
  static V fma(V a, V b, V c) { return _mm512_fmadd_ps(a, b, c); }
  static V add(V a, V b) { return _mm512_add_ps(a, b); }
  // Lanes [0, r) set, r in [1, 16].
  static Mask mask(std::int64_t r) {
    return static_cast<Mask>((1u << r) - 1u);
  }
  static Mask all() { return static_cast<Mask>(0xFFFF); }
  static void splat8(const float* g, V out[8]) {
    for (int l = 0; l < 8; ++l) out[l] = bcast(g + l);
  }
};

}  // namespace

extern const MatmulKernels kMatmul16 = Matmul<Lanes16>::kernels();

#else  // no AVX-512F: the 8-lane kernels serve every host.

extern const MatmulKernels kMatmul16 = {0, nullptr, nullptr, nullptr};

#endif

}  // namespace dpoaf::tensor::backend
