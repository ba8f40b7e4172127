// Minimal dense float tensor with reverse-mode autodiff — the substrate
// the tiny GPT and the DPO trainer are built on. Deliberately small:
// row-major 1-D/2-D tensors, a flat gradient buffer per tensor, and an
// explicit Tape that records backward closures in execution order and
// owns the bump arena its op outputs live in.
//
// Threading: ops run serially on the calling thread, so results are
// bitwise-identical at any thread count; parallelism lives in the loops
// above them (pairs, decode slots, pipeline stages). Tensor handles and
// Tape are not synchronized — don't share one Tape across threads (see
// DESIGN.md "Threading model").
#pragma once

#include <cstddef>
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

/// Bump allocator behind a Tape: 64-byte-aligned float buffers carved
/// from a few large chunks. rewind() makes the whole capacity reusable at
/// once; when the last pass spilled into more than one chunk it first
/// merges them into one, so a steady-state pass makes no allocation.
class Arena {
 public:
  Arena() = default;
  ~Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// n floats, zero-filled only when `zero` (recycled memory otherwise).
  [[nodiscard]] float* floats(std::int64_t n, bool zero);
  void rewind();
  /// Bytes the chunks hold.
  [[nodiscard]] std::size_t capacity() const;
  /// Most bytes handed out between two rewinds.
  [[nodiscard]] std::size_t peak() const { return peak_; }

 private:
  struct Chunk {
    std::byte* mem;
    std::size_t bytes;
  };
  std::vector<Chunk> chunks_;
  std::size_t chunk_ = 0;   // index of the chunk being filled
  std::size_t offset_ = 0;  // bytes used in chunks_[chunk_]
  std::size_t in_use_ = 0;  // bytes handed out since the last rewind
  std::size_t peak_ = 0;
};

struct TensorImpl {
  Shape shape;
  float* data = nullptr;
  float* grad = nullptr;  // lazily allocated on first access
  // Storage: the heap vectors, or the arena of the Tape that made the
  // tensor (data and grad both); the handle keeps that arena alive.
  std::vector<float> heap_data;
  std::vector<float> heap_grad;
  std::shared_ptr<Arena> arena;
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

  [[nodiscard]] float* data() { return impl_->data; }
  [[nodiscard]] const float* data() const { return impl_->data; }
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
  [[nodiscard]] bool has_grad() const { return impl_->grad != nullptr; }
  void zero_grad();

  /// Deep copy of the data (grad not copied; requires_grad preserved).
  [[nodiscard]] Tensor clone() const;
  /// True when two handles alias the same storage.
  [[nodiscard]] bool same_storage(const Tensor& other) const {
    return impl_ == other.impl_;
  }

 private:
  friend class Tape;
  std::shared_ptr<detail::TensorImpl> impl_;
};

/// Records backward closures during the forward pass; backward() replays
/// them in reverse.
///
/// Arena: ops recorded on a tape take their outputs, those outputs'
/// gradients and the scratch their closures capture from the tape's bump
/// arena instead of the heap; leaf tensors (Tensor::zeros/from/...) and
/// tape-less ops stay on the heap, so parameter gradients and optimizer
/// state never live in an arena. A training loop keeps one Tape for all
/// its items and calls reset() before each one (nn::MinibatchLoop
/// backpropagates item by item into the parameter gradients): that drops
/// the closures and rewinds the arena, so the next item reuses the same
/// memory and the arena peaks at one item. Escape rule: every tensor from the tape must be dead by
/// reset() — one still alive is a ContractViolation (and the arena is
/// then left as is), never a dangling pointer. A tensor that outlives the
/// Tape itself keeps the arena alive.
class Tape {
 public:
  Tape();
  ~Tape();
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  void record(std::function<void()> backward_fn) {
    nodes_.push_back(std::move(backward_fn));
  }
  /// Seed: caller sets the loss tensor's grad to 1 first (or uses
  /// backward(loss) below).
  void backward();
  /// Convenience: seeds `loss` (a scalar) with grad 1 and replays.
  void backward(Tensor loss);
  /// Drops the closures and rewinds the arena (see the escape rule).
  void reset();
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  /// An op output in the arena; its contents are unspecified unless
  /// `zero` (only outputs a kernel accumulates into need zeros).
  [[nodiscard]] Tensor tensor(Shape shape, bool zero);
  /// n floats of op scratch in the arena, valid until reset().
  [[nodiscard]] float* scratch(std::int64_t n) {
    return arena_->floats(n, /*zero=*/false);
  }
  [[nodiscard]] std::size_t arena_capacity() const {
    return arena_->capacity();
  }

 private:
  // Adds the recorded nodes to tensor.tape.nodes and raises
  // tensor.tape.arena_peak_bytes to the arena's peak.
  void publish_metrics() const;

  std::shared_ptr<detail::Arena> arena_;
  std::vector<std::function<void()>> nodes_;  // destroyed before arena_
};

}  // namespace dpoaf::tensor
