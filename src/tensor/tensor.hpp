// Minimal dense float tensor with reverse-mode autodiff — the substrate
// the tiny GPT and the DPO trainer are built on. Deliberately small:
// row-major 1-D/2-D tensors, a flat gradient buffer per tensor, and an
// explicit Tape that records backward closures in execution order.
//
// Threading: ops run serially on the calling thread, so results are
// bitwise-identical at any thread count; parallelism lives in the loops
// above them (pairs, decode slots, pipeline stages). Tensor handles and
// Tape are not synchronized — don't share one Tape across threads (see
// DESIGN.md "Threading model").
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace dpoaf::tensor {

/// Tensor shape; rank ≤ 2 in this library (scalars are shape {1}).
struct Shape {
  std::int64_t rows = 1;
  std::int64_t cols = 1;

  [[nodiscard]] std::int64_t numel() const { return rows * cols; }
  bool operator==(const Shape&) const = default;
};

namespace detail {
struct TensorImpl {
  Shape shape;
  std::vector<float> data;
  std::vector<float> grad;  // lazily sized on first access
  bool requires_grad = false;
};
}  // namespace detail

/// Value-semantics handle to a shared tensor buffer. Copies alias the same
/// storage (like torch.Tensor); use clone() for a deep copy.
class Tensor {
 public:
  Tensor() : impl_(std::make_shared<detail::TensorImpl>()) {}

  static Tensor zeros(Shape shape);
  static Tensor full(Shape shape, float value);
  static Tensor from(Shape shape, std::vector<float> values);
  /// Gaussian init, scaled (e.g. 0.02 for GPT-style init).
  static Tensor randn(Shape shape, Rng& rng, float scale = 1.0f);

  [[nodiscard]] const Shape& shape() const { return impl_->shape; }
  [[nodiscard]] std::int64_t rows() const { return impl_->shape.rows; }
  [[nodiscard]] std::int64_t cols() const { return impl_->shape.cols; }
  [[nodiscard]] std::int64_t numel() const { return impl_->shape.numel(); }

  [[nodiscard]] float* data() { return impl_->data.data(); }
  [[nodiscard]] const float* data() const { return impl_->data.data(); }
  [[nodiscard]] float item() const;

  [[nodiscard]] float& at(std::int64_t r, std::int64_t c);
  [[nodiscard]] float at(std::int64_t r, std::int64_t c) const;

  [[nodiscard]] bool requires_grad() const { return impl_->requires_grad; }
  Tensor& set_requires_grad(bool v) {
    impl_->requires_grad = v;
    return *this;
  }

  /// Gradient buffer, allocated (zero-filled) on first access.
  [[nodiscard]] float* grad();
  [[nodiscard]] bool has_grad() const { return !impl_->grad.empty(); }
  void zero_grad();

  /// Deep copy of the data (grad not copied; requires_grad preserved).
  [[nodiscard]] Tensor clone() const;
  /// True when two handles alias the same storage.
  [[nodiscard]] bool same_storage(const Tensor& other) const {
    return impl_ == other.impl_;
  }

 private:
  std::shared_ptr<detail::TensorImpl> impl_;
};

/// Records backward closures during the forward pass; backward() replays
/// them in reverse. One Tape per training step; clear() or a fresh Tape
/// between steps.
class Tape {
 public:
  void record(std::function<void()> backward_fn) {
    nodes_.push_back(std::move(backward_fn));
  }
  /// Seed: caller sets the loss tensor's grad to 1 first (or uses
  /// backward(loss) below).
  void backward();
  /// Convenience: seeds `loss` (a scalar) with grad 1 and replays.
  void backward(Tensor loss);
  void clear() { nodes_.clear(); }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

 private:
  std::vector<std::function<void()>> nodes_;
};

}  // namespace dpoaf::tensor
