// Differentiable operations over Tensor. Every op takes an optional Tape*;
// passing nullptr runs inference-only (no backward closure recorded).
// Gradients flow only into inputs with requires_grad().
#pragma once

#include <utility>
#include <vector>

#include "tensor/tensor.hpp"

namespace dpoaf::tensor::ops {

/// C[M,N] = A[M,K] · B[K,N]
Tensor matmul(Tape* tape, const Tensor& a, const Tensor& b);

/// Elementwise sum; shapes must match.
Tensor add(Tape* tape, const Tensor& a, const Tensor& b);

/// A LoRA adapter on a linear layer (Hu et al. 2021): A [in,r],
/// B [r,out] and the scale s = α/r.
struct LoRA {
  const Tensor& a;
  const Tensor& b;
  float scale;
};

/// y[T,out] = ((x·W) + b) + s·((x·A)·B) for x [T,in], W [in,out] and
/// b [1,out]; the adapter term only when `lora` is given. One tape node.
/// It runs the kernels of matmul, bias add, matmul, matmul, scale and
/// add in that chain's order, so its output and gradients are bitwise
/// that chain's (docs/BACKENDS.md "Fused linear"); of the chain's
/// activations it keeps only x·A [T,r].
Tensor linear(Tape* tape, const Tensor& x, const Tensor& w, const Tensor& b,
              const LoRA* lora = nullptr);

/// Elementwise product; shapes must match.
Tensor mul(Tape* tape, const Tensor& a, const Tensor& b);

/// Elementwise difference; shapes must match.
Tensor sub(Tape* tape, const Tensor& a, const Tensor& b);

/// s · a
Tensor scale(Tape* tape, const Tensor& a, float s);

/// GELU (tanh approximation), elementwise.
Tensor gelu(Tape* tape, const Tensor& a);

/// Row-wise layer normalization with learnable gamma/beta ([1,N]).
Tensor layer_norm(Tape* tape, const Tensor& x, const Tensor& gamma,
                  const Tensor& beta, float eps = 1e-5f);

/// Row-wise softmax.
Tensor softmax_rows(Tape* tape, const Tensor& x);

/// Row-wise softmax over a causal mask: row i attends to columns j ≤ i
/// only (entries j > i are exactly zero in the output).
Tensor causal_softmax_rows(Tape* tape, const Tensor& scores);

/// Multi-head causal self-attention over a fused projection qkv[T,3D]
/// (q, k and v side by side, each split into n_heads column blocks of
/// D/n_heads): out[T,D] concatenates, per head, softmax_causal(q·kᵀ/√dh)·v.
/// One tape node. Per head it runs the same kernels, in the same order,
/// as matmul, scale, causal_softmax_rows and matmul would, so its output
/// and gradients are bitwise those of that chain (docs/BACKENDS.md).
Tensor causal_attention(Tape* tape, const Tensor& qkv, std::int64_t n_heads);

/// out[T,D] = table[ids[t], :]; backward scatter-adds into the table.
Tensor embedding(Tape* tape, const Tensor& table,
                 const std::vector<int>& ids);

/// Scalar sum of all entries.
Tensor sum(Tape* tape, const Tensor& x);

/// Mean cross-entropy of next-token prediction: logits[T,V] vs targets[T];
/// positions with target < 0 are ignored (e.g. prompt/padding).
Tensor cross_entropy(Tape* tape, const Tensor& logits,
                     const std::vector<int>& targets);

/// Scalar Σ_{t ≥ from} log softmax(logits[t])[targets[t]] — the sequence
/// log-probability of the response region, differentiable for DPO.
/// Positions with target < 0 are skipped.
Tensor sum_log_probs(Tape* tape, const Tensor& logits,
                     const std::vector<int>& targets, std::int64_t from);

/// softplus(x) = log(1 + eˣ), elementwise (numerically stable).
Tensor softplus(Tape* tape, const Tensor& x);

// Row kernels of linear, layer_norm, the softmaxes and causal_attention,
// shared with the KV-cache decode step so its logits are bitwise the
// batch forward's row (docs/BACKENDS.md).

/// out[0, n) = a + b elementwise (add's kernel; out may alias a or b).
void add_row(const float* a, const float* b, float* out, std::int64_t n);

/// linear's forward on m rows without a tape: x [m,in] → y [m,out]. With
/// an adapter, xa [m,r] and delta [m,out] are caller scratch (x·A is left
/// in xa). Counts no matmul.
void linear_rows(const float* x, std::int64_t m, const Tensor& w,
                 const Tensor& b, const LoRA* lora, float* y, float* xa,
                 float* delta);

/// One layer_norm row of n columns into y; returns {mean, 1/stddev}.
std::pair<float, float> layer_norm_row(const float* x, const float* gamma,
                                       const float* beta, std::int64_t n,
                                       float* y, float eps = 1e-5f);

/// y[0, lim) = softmax(x[0, lim)), y[lim, n) = 0.
void softmax_row(const float* x, float* y, std::int64_t lim, std::int64_t n);

/// causal_attention's per-head forward for the last `rows` of t positions:
/// q [rows, dh], kt [dh, t], v [t, dh] → scores and weights [rows, t],
/// output o [rows, dh]; row r sees positions [0, t − rows + r]. Counts
/// no matmul.
void attention_head(const float* q, const float* kt, const float* v,
                    std::int64_t rows, std::int64_t t, std::int64_t dh,
                    float* scores, float* attn, float* o);

}  // namespace dpoaf::tensor::ops
