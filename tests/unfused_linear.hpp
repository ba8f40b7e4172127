// The op chain Linear::forward recorded before tensor::ops::linear fused
// it into one tape node: matmul, a row-wise bias add and, with a LoRA
// adapter, matmul, matmul, scale and add — six nodes, each keeping its
// output and gradient. The bias add is spelled here, as the library had
// it, because nothing else uses it: this chain is the reference the fused
// op must match bit for bit (tests/test_tensor.cpp,
// bench/micro_tensor.cpp).
#pragma once

#include "tensor/backend/backend.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace dpoaf::tensor::reference {

/// x[M,N] + bias broadcast over rows; bias is [1,N].
inline Tensor add_rowwise(Tape* tape, const Tensor& x, const Tensor& bias) {
  const std::int64_t m = x.rows(), n = x.cols();
  Tensor c = Tensor::zeros(x.shape());
  for (std::int64_t i = 0; i < m; ++i)
    ops::add_row(x.data() + i * n, bias.data(), c.data() + i * n, n);
  if (tape != nullptr && (x.requires_grad() || bias.requires_grad())) {
    c.set_requires_grad(true);
    Tensor xt = x, bt = bias, ct = c;
    tape->record([xt, bt, ct]() mutable {
      const std::int64_t m = xt.rows(), n = xt.cols();
      const float* gc = ct.grad();
      if (xt.requires_grad())
        backend::active().ew_axpy(1.0f, gc, xt.grad(), m * n);
      if (bt.requires_grad()) {
        float* gb = bt.grad();
        for (std::int64_t i = 0; i < m; ++i)
          for (std::int64_t j = 0; j < n; ++j) gb[j] += gc[i * n + j];
      }
    });
  }
  return c;
}

inline Tensor unfused_linear(Tape* tape, const Tensor& x, const Tensor& w,
                             const Tensor& b,
                             const ops::LoRA* lora = nullptr) {
  Tensor y = add_rowwise(tape, ops::matmul(tape, x, w), b);
  if (lora == nullptr) return y;
  const Tensor delta = ops::scale(
      tape, ops::matmul(tape, ops::matmul(tape, x, lora->a), lora->b),
      lora->scale);
  return ops::add(tape, y, delta);
}

}  // namespace dpoaf::tensor::reference
