// The attention chain TinyGpt recorded before tensor::ops::causal_attention
// fused it into one tape node: per head three column slices of qkv, a
// transpose, matmul, scale, causal softmax and matmul, then one concat.
// The slice, concat and transpose ops are spelled here, as the library
// had them, because nothing else uses them: this chain is the reference
// the fused op must match bit for bit (tests/test_tensor.cpp,
// bench/micro_tensor.cpp).
#pragma once

#include <cmath>
#include <vector>

#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace dpoaf::tensor::reference {

inline Tensor slice_cols(Tape* tape, const Tensor& x, std::int64_t start,
                         std::int64_t len) {
  const std::int64_t m = x.rows(), n = x.cols();
  Tensor y = Tensor::zeros({m, len});
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < len; ++j)
      y.data()[i * len + j] = x.data()[i * n + start + j];
  if (tape != nullptr && x.requires_grad()) {
    y.set_requires_grad(true);
    Tensor xt = x, yt = y;
    tape->record([xt, yt, start, len]() mutable {
      const std::int64_t m = xt.rows(), n = xt.cols();
      for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j < len; ++j)
          xt.grad()[i * n + start + j] += yt.grad()[i * len + j];
    });
  }
  return y;
}

inline Tensor concat_cols(Tape* tape, const std::vector<Tensor>& parts) {
  const std::int64_t m = parts.front().rows();
  std::int64_t n = 0;
  for (const Tensor& p : parts) n += p.cols();
  Tensor y = Tensor::zeros({m, n});
  std::int64_t off = 0;
  for (const Tensor& p : parts) {
    for (std::int64_t i = 0; i < m; ++i)
      for (std::int64_t j = 0; j < p.cols(); ++j)
        y.data()[i * n + off + j] = p.data()[i * p.cols() + j];
    off += p.cols();
  }
  if (tape != nullptr && parts.front().requires_grad()) {
    y.set_requires_grad(true);
    std::vector<Tensor> ps = parts;
    Tensor yt = y;
    tape->record([ps, yt]() mutable {
      const std::int64_t m = yt.rows(), n = yt.cols();
      std::int64_t off = 0;
      for (Tensor& p : ps) {
        for (std::int64_t i = 0; i < m; ++i)
          for (std::int64_t j = 0; j < p.cols(); ++j)
            p.grad()[i * p.cols() + j] += yt.grad()[i * n + off + j];
        off += p.cols();
      }
    });
  }
  return y;
}

inline Tensor transpose(Tape* tape, const Tensor& x) {
  const std::int64_t m = x.rows(), n = x.cols();
  Tensor y = Tensor::zeros({n, m});
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j)
      y.data()[j * m + i] = x.data()[i * n + j];
  if (tape != nullptr && x.requires_grad()) {
    y.set_requires_grad(true);
    Tensor xt = x, yt = y;
    tape->record([xt, yt]() mutable {
      const std::int64_t m = xt.rows(), n = xt.cols();
      for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j < n; ++j)
          xt.grad()[i * n + j] += yt.grad()[j * m + i];
    });
  }
  return y;
}

inline Tensor unfused_attention(Tape* tape, const Tensor& qkv,
                                std::int64_t n_heads) {
  const std::int64_t d = qkv.cols() / 3;
  const std::int64_t dh = d / n_heads;
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(dh));
  std::vector<Tensor> heads;
  for (std::int64_t h = 0; h < n_heads; ++h) {
    const Tensor q = slice_cols(tape, qkv, h * dh, dh);
    const Tensor k = slice_cols(tape, qkv, d + h * dh, dh);
    const Tensor v = slice_cols(tape, qkv, 2 * d + h * dh, dh);
    const Tensor scores = ops::scale(
        tape, ops::matmul(tape, q, transpose(tape, k)), inv_sqrt);
    heads.push_back(
        ops::matmul(tape, ops::causal_softmax_rows(tape, scores), v));
  }
  return concat_cols(tape, heads);
}

}  // namespace dpoaf::tensor::reference
