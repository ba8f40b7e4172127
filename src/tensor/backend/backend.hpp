// Pluggable compute backends for the tensor hot paths (docs/BACKENDS.md).
//
// A ComputeBackend supplies the *chunk-level* kernels behind
// tensor::ops — matmul forward/backward and the large elementwise/row
// ops. Every kernel takes an index range [i0, i1); tensor::ops calls it
// once over the whole range, because ops are serial and parallelism
// lives in the loops above them (DESIGN.md "Threading model").
//
// Determinism contract:
//  - Each backend must be bitwise-reproducible however a range is split:
//    a kernel's per-element arithmetic (reduction order, rounding) may
//    depend only on the element's absolute indices and the full operand
//    shapes, never on the chunk bounds [i0, i1) it was invoked with.
//    Register blocking is fine as long as the blocked and remainder
//    paths produce identical per-element results (tests/test_backend.cpp
//    sweeps odd shapes across thread-pool splits to pin this).
//  - Different backends may round differently (the simd backend fuses
//    multiply-adds; scalar keeps separate roundings). Cross-backend
//    results agree only within tolerance — pick one backend per
//    experiment when bitwise comparison matters.
//
// Selection precedence (mirrors the DPOAF_THREADS rules):
//  1. an explicit select("scalar"|"simd"|"auto") — e.g. from
//     PipelineConfig::backend;
//  2. the DPOAF_BACKEND environment variable (select("") / first use);
//  3. "auto": cpuid runtime dispatch — simd when the CPU supports
//     AVX2+FMA and the build carries the simd backend, else scalar.
// Explicitly requesting "simd" on hardware without AVX2+FMA is a
// contract violation (loud, never a silent fallback).
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

namespace dpoaf::tensor::backend {

enum class Kind { kScalar, kSimd };

/// GELU's tanh-approximation constants: √(2/π) and the cubic coefficient.
inline constexpr float kGeluC = 0.7978845608028654f;
inline constexpr float kGeluA = 0.044715f;

/// Per-backend matmul telemetry, registered as
/// tensor.matmul.{calls,flops,bwd_calls,bwd_flops}.<backend>.
struct MatmulCounters {
  obs::Counter& fwd_calls;
  obs::Counter& fwd_flops;
  obs::Counter& bwd_calls;
  obs::Counter& bwd_flops;
};

/// Chunk-level compute kernels over a row/index range [i0, i1) chosen by
/// the caller; pointers are dense row-major buffers owned by the caller.
class ComputeBackend {
 public:
  /// `lanes` is the vector width of the matmul kernels (0: scalar).
  explicit ComputeBackend(const char* name, int lanes = 0);
  virtual ~ComputeBackend() = default;
  ComputeBackend(const ComputeBackend&) = delete;
  ComputeBackend& operator=(const ComputeBackend&) = delete;

  [[nodiscard]] const char* name() const { return name_; }
  [[nodiscard]] virtual Kind kind() const = 0;
  [[nodiscard]] int lanes() const { return lanes_; }
  /// Const access is enough to record: the struct members are references
  /// to registry-owned counters.
  [[nodiscard]] const MatmulCounters& matmul_counters() const {
    return counters_;
  }

  // ---- matmul (C[M,N] = A[M,K]·B[K,N]) ------------------------------
  /// Rows [i0, i1) of the forward: c[i,:] = Σ_kk a[i,kk]·b[kk,:].
  /// c rows are zero-initialized by the caller.
  virtual void matmul_fwd(const float* a, const float* b, float* c,
                          std::int64_t k, std::int64_t n, std::int64_t i0,
                          std::int64_t i1) const = 0;
  /// Rows [i0, i1) of dA: ga[i,kk] += Σ_j gc[i,j]·b[kk,j].
  virtual void matmul_bwd_a(const float* gc, const float* b, float* ga,
                            std::int64_t k, std::int64_t n, std::int64_t i0,
                            std::int64_t i1) const = 0;
  /// dB rows [k0, k1): gb[kk,:] += Σ_i a[i,kk]·gc[i,:], i ascending (the
  /// per-cell accumulation order every backend must preserve).
  virtual void matmul_bwd_b(const float* a, const float* gc, float* gb,
                            std::int64_t m, std::int64_t k, std::int64_t n,
                            std::int64_t k0, std::int64_t k1) const = 0;

  // ---- large elementwise ops over flat index range [i0, i1) ---------
  /// out[i] = a[i] + b[i]
  virtual void ew_add(const float* a, const float* b, float* out,
                      std::int64_t i0, std::int64_t i1) const = 0;
  /// out[i] = a[i] · b[i]
  virtual void ew_mul(const float* a, const float* b, float* out,
                      std::int64_t i0, std::int64_t i1) const = 0;
  /// out[i] = s · a[i]
  virtual void ew_scale(const float* a, float s, float* out, std::int64_t i0,
                        std::int64_t i1) const = 0;
  /// out[i] += s · a[i]  (gradient accumulation for add/scale)
  virtual void ew_axpy(float s, const float* a, float* out, std::int64_t i0,
                       std::int64_t i1) const = 0;
  /// out[i] += a[i] · b[i]  (gradient accumulation for mul)
  virtual void ew_mul_acc(const float* a, const float* b, float* out,
                          std::int64_t i0, std::int64_t i1) const = 0;

  // ---- GELU (tanh approximation) over flat index range [i0, i1) -----
  /// t[i] = tanh(kGeluC·(x[i] + kGeluA·x[i]³)), y[i] = ½·x[i]·(1 + t[i]).
  /// t is written only when non-null (the tape saves it for gelu_bwd);
  /// y may alias x.
  virtual void gelu_fwd(const float* x, float* y, float* t, std::int64_t i0,
                        std::int64_t i1) const = 0;
  /// gx[i] += gy[i] · GELU'(x[i]), reading the tanh term t[i] that this
  /// backend's gelu_fwd saved instead of recomputing it.
  virtual void gelu_bwd(const float* x, const float* t, const float* gy,
                        float* gx, std::int64_t i0, std::int64_t i1) const = 0;

  // ---- row ops ------------------------------------------------------
  /// Rows [i0, i1): out[i,:] = x[i,:] + bias[:], bias is [1,N].
  virtual void row_bias_add(const float* x, const float* bias, float* out,
                            std::int64_t n, std::int64_t i0,
                            std::int64_t i1) const = 0;

 private:
  const char* name_;
  int lanes_;
  MatmulCounters counters_;
};

/// True when this build carries the simd backend and the CPU supports
/// AVX2 + FMA (cpuid, checked once).
[[nodiscard]] bool simd_supported();

/// The scalar reference backend (always available).
[[nodiscard]] const ComputeBackend& scalar_backend();

/// The simd backend, or nullptr when the build/CPU cannot run it.
[[nodiscard]] const ComputeBackend* simd_backend();

/// Select the active backend: "scalar", "simd", "auto", or "" (empty
/// defers to DPOAF_BACKEND, then auto). Throws ContractViolation on an
/// unknown name or an explicit "simd" without hardware support.
void select(const std::string& choice);

/// The active backend (resolved via select("") on first use). Also
/// refreshes the tensor.backend.active gauge (0 scalar, 1 simd) and
/// tensor.backend.simd_lanes (0 scalar, else 8 or 16).
[[nodiscard]] const ComputeBackend& active();

/// Kind of the active backend (resolving it if needed).
[[nodiscard]] Kind active_kind();

namespace detail {
/// Defined by simd_avx2.cpp: the simd backend instance when compiled in,
/// nullptr otherwise — 16 lanes where the CPU has AVX-512F, else 8.
/// Runtime cpuid gating happens in simd_supported().
const ComputeBackend* simd_backend_impl();
/// The simd backend at one vector width (8 or 16), or nullptr when the
/// build or CPU cannot run it. For tests that compare the widths;
/// selection always takes simd_backend_impl()'s.
const ComputeBackend* simd_backend_lanes(int lanes);
/// Defined by simd_avx2.cpp: compile-time availability of the kernels.
bool simd_compiled();
}  // namespace detail

}  // namespace dpoaf::tensor::backend
