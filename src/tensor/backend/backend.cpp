#include "tensor/backend/backend.hpp"

#include <atomic>
#include <cstdlib>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace dpoaf::tensor::backend {

namespace {

// The active backend. nullptr until the first select()/active() call;
// written under selection (rare), read with a relaxed load on every op.
std::atomic<const ComputeBackend*> g_active{nullptr};

const ComputeBackend& resolve_auto() {
  if (const ComputeBackend* simd = simd_backend()) return *simd;
  return scalar_backend();
}

}  // namespace

bool simd_supported() {
  static const bool supported = [] {
    if (!detail::simd_compiled()) return false;
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
    return false;
#endif
  }();
  return supported;
}

const ComputeBackend* simd_backend() {
  return simd_supported() ? detail::simd_backend_impl() : nullptr;
}

void select(const std::string& choice) {
  std::string want = choice;
  if (want.empty()) {
    const char* env = std::getenv("DPOAF_BACKEND");
    want = env == nullptr ? "auto" : env;
    if (want.empty()) want = "auto";
  }
  const ComputeBackend* next = nullptr;
  if (want == "scalar") {
    next = &scalar_backend();
  } else if (want == "simd") {
    DPOAF_CHECK_MSG(simd_supported(),
                    "backend 'simd' requested but this build/CPU has no "
                    "AVX2+FMA support");
    next = simd_backend();
  } else if (want == "auto") {
    next = &resolve_auto();
  } else {
    DPOAF_CHECK_MSG(false, "unknown backend '" + want +
                               "' (expected scalar|simd|auto)");
  }
  g_active.store(next, std::memory_order_release);
  // Report-only telemetry; Gauge::set is a no-op while obs is disabled,
  // so active() refreshes these on the hot path too (one relaxed load).
  obs::gauge("tensor.backend.active")
      .set(next->kind() == Kind::kSimd ? 1 : 0);
  obs::gauge("tensor.backend.simd_supported").set(simd_supported() ? 1 : 0);
  obs::gauge("tensor.backend.simd_lanes").set(next->lanes());
}

const ComputeBackend& active() {
  static obs::Gauge& active_gauge = obs::gauge("tensor.backend.active");
  static obs::Gauge& lanes_gauge = obs::gauge("tensor.backend.simd_lanes");
  const ComputeBackend* be = g_active.load(std::memory_order_acquire);
  if (be == nullptr) {
    select("");
    be = g_active.load(std::memory_order_acquire);
  }
  // Refreshed here as well as in select(): observability may be switched
  // on after selection, and Gauge::set is a single relaxed load when off.
  active_gauge.set(be->kind() == Kind::kSimd ? 1 : 0);
  lanes_gauge.set(be->lanes());
  return *be;
}

Kind active_kind() { return active().kind(); }

}  // namespace dpoaf::tensor::backend
