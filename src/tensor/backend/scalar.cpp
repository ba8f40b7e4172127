// Scalar reference backend: the exact loops tensor/ops.cpp ran before the
// backend seam existed, so "scalar" results stay byte-identical to the
// pre-backend library. Every other backend is judged against this one
// (tolerance cross-checks in tests/test_backend.cpp and micro_tensor).
#include "tensor/backend/backend.hpp"

#include <cmath>

namespace dpoaf::tensor::backend {

namespace {

class ScalarBackend final : public ComputeBackend {
 public:
  ScalarBackend() : ComputeBackend("scalar") {}

  [[nodiscard]] Kind kind() const override { return Kind::kScalar; }

  void matmul_fwd(const float* a, const float* b, float* c, std::int64_t m,
                  std::int64_t k, std::int64_t n) const override {
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float av = a[i * k + kk];
        const float* pbr = b + kk * n;
        float* pcr = c + i * n;
        for (std::int64_t j = 0; j < n; ++j) pcr[j] += av * pbr[j];
      }
    }
  }

  void matmul_bwd_a(const float* gc, const float* b, float* ga, std::int64_t m,
                    std::int64_t k, std::int64_t n) const override {
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float* gcr = gc + i * n;
        const float* pbr = b + kk * n;
        float acc = 0.0f;
        for (std::int64_t j = 0; j < n; ++j) acc += gcr[j] * pbr[j];
        ga[i * k + kk] += acc;
      }
    }
  }

  void matmul_bwd_b(const float* a, const float* gc, float* gb, std::int64_t m,
                    std::int64_t k, std::int64_t n) const override {
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float av = a[i * k + kk];
        const float* gcr = gc + i * n;
        float* gbr = gb + kk * n;
        for (std::int64_t j = 0; j < n; ++j) gbr[j] += av * gcr[j];
      }
    }
  }

  void ew_axpy(float s, const float* a, float* out,
               std::int64_t n) const override {
    for (std::int64_t i = 0; i < n; ++i) out[i] += s * a[i];
  }

  void ew_mul_acc(const float* a, const float* b, float* out,
                  std::int64_t n) const override {
    for (std::int64_t i = 0; i < n; ++i) out[i] += a[i] * b[i];
  }

  void gelu_fwd(const float* x, float* y, float* t,
                std::int64_t n) const override {
    for (std::int64_t i = 0; i < n; ++i) {
      const float xi = x[i];
      const float ti = std::tanh(kGeluC * (xi + kGeluA * xi * xi * xi));
      if (t != nullptr) t[i] = ti;
      y[i] = 0.5f * xi * (1.0f + ti);
    }
  }

  // Reading the saved t gives the same bits as recomputing tanh from the
  // same expression, so gradients match the recompute reference
  // (tests/test_backend.cpp).
  void gelu_bwd(const float* x, const float* t, const float* gy, float* gx,
                std::int64_t n) const override {
    for (std::int64_t i = 0; i < n; ++i) {
      const float xi = x[i];
      const float ti = t[i];
      const float du = kGeluC * (1.0f + 3.0f * kGeluA * xi * xi);
      const float d =
          0.5f * (1.0f + ti) + 0.5f * xi * (1.0f - ti * ti) * du;
      gx[i] += gy[i] * d;
    }
  }
};

}  // namespace

const ComputeBackend& scalar_backend() {
  static ScalarBackend backend;
  return backend;
}

}  // namespace dpoaf::tensor::backend
