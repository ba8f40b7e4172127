// Pluggable compute backends for the tensor hot paths (docs/BACKENDS.md).
//
// A ComputeBackend supplies the kernels of tensor::ops whose bits differ
// between backends — matmul forward/backward, the accumulating
// elementwise ops and GELU — each over whole operands. Ops are serial;
// parallelism lives in the loops above them (DESIGN.md "Threading
// model"). Elementwise ops that round the same everywhere (add, mul,
// scale, the row bias add) are plain loops in tensor::ops.
//
// Determinism contract:
//  - What decode needs: a forward or dA cell's arithmetic (reduction
//    order, rounding) depends only on its column index and k/n, and an
//    elementwise or GELU value only on its own inputs — never on m or on
//    where the row sits in the call. So a row computed alone (the m = 1
//    KV-cache decode step) equals that row inside a batch. A dB cell
//    reduces over the rows in ascending order. Register blocking is fine
//    as long as the blocked and remainder paths produce identical
//    per-cell results (tests/test_backend.cpp checks every row of odd
//    shapes against a call over that row alone).
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

namespace dpoaf::tensor::backend {

enum class Kind { kScalar, kSimd };

/// GELU's tanh-approximation constants: √(2/π) and the cubic coefficient.
inline constexpr float kGeluC = 0.7978845608028654f;
inline constexpr float kGeluA = 0.044715f;

/// The backend-dependent kernels over whole operands; pointers are dense
/// row-major buffers owned by the caller.
class ComputeBackend {
 public:
  /// `lanes` is the vector width of the matmul kernels (0: scalar).
  explicit ComputeBackend(const char* name, int lanes = 0)
      : name_(name), lanes_(lanes) {}
  virtual ~ComputeBackend() = default;
  ComputeBackend(const ComputeBackend&) = delete;
  ComputeBackend& operator=(const ComputeBackend&) = delete;

  [[nodiscard]] const char* name() const { return name_; }
  [[nodiscard]] virtual Kind kind() const = 0;
  [[nodiscard]] int lanes() const { return lanes_; }

  // ---- matmul (C[M,N] = A[M,K]·B[K,N]) ------------------------------
  /// c[i,:] = Σ_kk a[i,kk]·b[kk,:]; c is zero-initialized by the caller.
  virtual void matmul_fwd(const float* a, const float* b, float* c,
                          std::int64_t m, std::int64_t k,
                          std::int64_t n) const = 0;
  /// dA: ga[i,kk] += Σ_j gc[i,j]·b[kk,j].
  virtual void matmul_bwd_a(const float* gc, const float* b, float* ga,
                            std::int64_t m, std::int64_t k,
                            std::int64_t n) const = 0;
  /// dB: gb[kk,:] += Σ_i a[i,kk]·gc[i,:], i ascending (the per-cell
  /// accumulation order every backend must preserve).
  virtual void matmul_bwd_b(const float* a, const float* gc, float* gb,
                            std::int64_t m, std::int64_t k,
                            std::int64_t n) const = 0;

  // ---- accumulating elementwise ops over n elements -----------------
  /// out[i] += s · a[i]  (gradient accumulation for add/scale)
  virtual void ew_axpy(float s, const float* a, float* out,
                       std::int64_t n) const = 0;
  /// out[i] += a[i] · b[i]  (gradient accumulation for mul)
  virtual void ew_mul_acc(const float* a, const float* b, float* out,
                          std::int64_t n) const = 0;

  // ---- GELU (tanh approximation) over n elements --------------------
  /// t[i] = tanh(kGeluC·(x[i] + kGeluA·x[i]³)), y[i] = ½·x[i]·(1 + t[i]).
  /// t is written only when non-null (the tape saves it for gelu_bwd);
  /// y may alias x.
  virtual void gelu_fwd(const float* x, float* y, float* t,
                        std::int64_t n) const = 0;
  /// gx[i] += gy[i] · GELU'(x[i]), reading the tanh term t[i] that this
  /// backend's gelu_fwd saved instead of recomputing it.
  virtual void gelu_bwd(const float* x, const float* t, const float* gy,
                        float* gx, std::int64_t n) const = 0;

 private:
  const char* name_;
  int lanes_;
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
