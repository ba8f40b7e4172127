#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <tuple>

#include "obs/metrics.hpp"
#include "tensor/backend/backend.hpp"

namespace dpoaf::tensor::ops {

namespace {

// The tape an op records on: `tape` when an input takes a gradient, else
// nullptr (the op runs as inference).
Tape* track(Tape* tape, std::initializer_list<const Tensor*> inputs) {
  if (tape == nullptr) return nullptr;
  for (const Tensor* t : inputs)
    if (t->requires_grad()) return tape;
  return nullptr;
}

std::string shape_str(const Shape& s) {
  // Formatted into a char buffer: literal+string concatenation trips
  // GCC 12's -Wrestrict false positive at -O3 (GCC PR105651).
  char buf[56];
  std::snprintf(buf, sizeof buf, "[%lldx%lld]",
                static_cast<long long>(s.rows),
                static_cast<long long>(s.cols));
  return buf;
}

std::string shapes_msg(const char* op, const Shape& a, const Shape& b) {
  return std::string(op) + ": " + shape_str(a) + " vs " + shape_str(b);
}

// An op output: in the arena of the tape the op records on, on the heap
// when it records nothing. Only outputs a kernel accumulates into ask for
// `zero`; every other op writes each entry.
Tensor output(Tape* tape, Shape shape, bool zero = false) {
  return tape != nullptr ? tape->tensor(shape, zero) : Tensor::zeros(shape);
}

// Throughput telemetry (counts only; obs::counter is a no-op when
// observability is off): calls and multiply-add flops of each matmul
// forward and backward (docs/BACKENDS.md).
void count_matmul_fwd(std::int64_t m, std::int64_t k, std::int64_t n) {
  static obs::Counter& calls = obs::counter("tensor.matmul.calls");
  static obs::Counter& flops = obs::counter("tensor.matmul.flops");
  calls.add();
  flops.add(static_cast<std::uint64_t>(2 * m * k * n));
}

// `grads` is how many of the two operands take a gradient.
void count_matmul_bwd(std::int64_t m, std::int64_t k, std::int64_t n,
                      int grads) {
  static obs::Counter& calls = obs::counter("tensor.matmul.bwd_calls");
  static obs::Counter& flops = obs::counter("tensor.matmul.bwd_flops");
  calls.add();
  flops.add(static_cast<std::uint64_t>(2 * m * k * n * grads));
}

// x[0, n) *= s. Like add_row and mul's loop, one IEEE operation per
// element: every backend and vector width rounds it the same.
void scale_row(float* x, float s, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) x[i] *= s;
}

// n floats of per-thread scratch for buffers that live only inside one
// op call or one backward closure (linear's [T,out] terms): one buffer
// per thread, grown to the largest request and then reused.
float* transient(std::int64_t n) {
  thread_local std::vector<float> buf;
  if (buf.size() < static_cast<std::size_t>(n))
    buf.resize(static_cast<std::size_t>(n));
  return buf.data();
}

// softmax_row's backward: gx[0, lim) += y·(gy − ⟨gy, y⟩).
void softmax_row_bwd(const float* yr, const float* gyr, float* gxr,
                     std::int64_t lim) {
  float dot = 0.0f;
  for (std::int64_t j = 0; j < lim; ++j) dot += gyr[j] * yr[j];
  for (std::int64_t j = 0; j < lim; ++j) gxr[j] += yr[j] * (gyr[j] - dot);
}

// layer_norm's backward over one row of n columns, given its mean and
// inverse stddev: one read pass adds the γ/β gradients (when gg and gb are
// given), keeps x̂ in the row scratch xh and runs both reductions over
// d x̂ = gy·γ in column order; a second pass adds dx (when gx is given).
// Every expression keeps the association of the two-pass loop this
// replaced, and the restrict-qualified rows (no two overlap) let the
// compiler vectorize the read pass as it did that loop's reduction pass,
// so the bits are equal.
void layer_norm_row_bwd(const float* __restrict xr,
                        const float* __restrict gyr,
                        const float* __restrict gamma, float mu, float is,
                        std::int64_t n, float* __restrict gg,
                        float* __restrict gb, float* __restrict xh,
                        float* __restrict gx) {
  if (gx == nullptr) {
    for (std::int64_t j = 0; j < n; ++j) {
      gg[j] += gyr[j] * (xr[j] - mu) * is;
      gb[j] += gyr[j];
    }
    return;
  }
  float sum_dxh = 0.0f, sum_dxh_xh = 0.0f;
  for (std::int64_t j = 0; j < n; ++j) {
    if (gg != nullptr) {
      gg[j] += gyr[j] * (xr[j] - mu) * is;
      gb[j] += gyr[j];
    }
    xh[j] = (xr[j] - mu) * is;
    const float dxh = gyr[j] * gamma[j];
    sum_dxh += dxh;
    sum_dxh_xh += dxh * xh[j];
  }
  // dx = is(d x̂ − mean(d x̂) − x̂·mean(d x̂·x̂)); d x̂ is recomputed as
  // gy·γ, not read back, because the compiler fuses that product into the
  // subtraction.
  const float inv_n = 1.0f / static_cast<float>(n);
  for (std::int64_t j = 0; j < n; ++j)
    gx[j] += is * (gyr[j] * gamma[j] - inv_n * sum_dxh -
                   xh[j] * inv_n * sum_dxh_xh);
}

}  // namespace

void add_row(const float* a, const float* b, float* out, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

std::pair<float, float> layer_norm_row(const float* x, const float* gamma,
                                       const float* beta, std::int64_t n,
                                       float* y, float eps) {
  float mu = 0.0f;
  for (std::int64_t j = 0; j < n; ++j) mu += x[j];
  mu /= static_cast<float>(n);
  float var = 0.0f;
  for (std::int64_t j = 0; j < n; ++j) var += (x[j] - mu) * (x[j] - mu);
  var /= static_cast<float>(n);
  const float is = 1.0f / std::sqrt(var + eps);
  for (std::int64_t j = 0; j < n; ++j)
    y[j] = (x[j] - mu) * is * gamma[j] + beta[j];
  return {mu, is};
}

// y needs no zero-fill: the masked tail [lim, n) is written here.
void softmax_row(const float* x, float* y, std::int64_t lim, std::int64_t n) {
  float mx = -1e30f;
  for (std::int64_t j = 0; j < lim; ++j) mx = std::max(mx, x[j]);
  float z = 0.0f;
  for (std::int64_t j = 0; j < lim; ++j) {
    y[j] = std::exp(x[j] - mx);
    z += y[j];
  }
  const float inv = 1.0f / z;
  for (std::int64_t j = 0; j < lim; ++j) y[j] *= inv;
  for (std::int64_t j = lim; j < n; ++j) y[j] = 0.0f;
}

void attention_head(const float* q, const float* kt, const float* v,
                    std::int64_t rows, std::int64_t t, std::int64_t dh,
                    float* scores, float* attn, float* o) {
  const backend::ComputeBackend& be = backend::active();
  std::fill(scores, scores + rows * t, 0.0f);
  be.matmul_fwd(q, kt, scores, rows, dh, t);
  scale_row(scores, 1.0f / std::sqrt(static_cast<float>(dh)), rows * t);
  for (std::int64_t i = 0; i < rows; ++i)
    softmax_row(scores + i * t, attn + i * t, t - rows + i + 1, t);
  std::fill(o, o + rows * dh, 0.0f);
  be.matmul_fwd(attn, v, o, rows, t, dh);
}

Tensor matmul(Tape* tape, const Tensor& a, const Tensor& b) {
  DPOAF_CHECK_MSG(a.cols() == b.rows(),
                  shapes_msg("matmul: inner dimensions differ", a.shape(),
                             b.shape()));
  const std::int64_t m = a.rows(), k = a.cols(), n = b.cols();
  count_matmul_fwd(m, k, n);
  Tape* const rec = track(tape, {&a, &b});
  Tensor c = output(rec, {m, n}, /*zero=*/true);
  backend::active().matmul_fwd(a.data(), b.data(), c.data(), m, k, n);
  if (rec != nullptr) {
    c.set_requires_grad(true);
    Tensor at = a, bt = b, ct = c;
    rec->record([at, bt, ct]() mutable {
      const std::int64_t m = at.rows(), k = at.cols(), n = bt.cols();
      const backend::ComputeBackend& be = backend::active();
      count_matmul_bwd(m, k, n,
                       (at.requires_grad() ? 1 : 0) +
                           (bt.requires_grad() ? 1 : 0));
      const float* gc = ct.grad();
      // dA[i,kk] += Σ_j gC[i,j] · B[kk,j]
      if (at.requires_grad())
        be.matmul_bwd_a(gc, bt.data(), at.grad(), m, k, n);
      // dB[kk,j] += Σ_i A[i,kk] · gC[i,j]
      if (bt.requires_grad())
        be.matmul_bwd_b(at.data(), gc, bt.grad(), m, k, n);
    });
  }
  return c;
}

Tensor add(Tape* tape, const Tensor& a, const Tensor& b) {
  DPOAF_CHECK_MSG(a.shape() == b.shape(),
                  shapes_msg("add: shape mismatch", a.shape(), b.shape()));
  Tape* const rec = track(tape, {&a, &b});
  Tensor c = output(rec, a.shape());
  add_row(a.data(), b.data(), c.data(), a.numel());
  if (rec != nullptr) {
    c.set_requires_grad(true);
    Tensor at = a, bt = b, ct = c;
    rec->record([at, bt, ct]() mutable {
      const backend::ComputeBackend& be = backend::active();
      const float* gc = ct.grad();
      if (at.requires_grad()) be.ew_axpy(1.0f, gc, at.grad(), at.numel());
      if (bt.requires_grad()) be.ew_axpy(1.0f, gc, bt.grad(), bt.numel());
    });
  }
  return c;
}

void linear_rows(const float* x, std::int64_t m, const Tensor& w,
                 const Tensor& b, const LoRA* lora, float* y, float* xa,
                 float* delta) {
  const backend::ComputeBackend& be = backend::active();
  const std::int64_t in = w.rows(), out = w.cols();
  std::fill(y, y + m * out, 0.0f);
  be.matmul_fwd(x, w.data(), y, m, in, out);
  for (std::int64_t i = 0; i < m; ++i)
    add_row(y + i * out, b.data(), y + i * out, out);
  if (lora == nullptr) return;
  const std::int64_t r = lora->a.cols();
  std::fill(xa, xa + m * r, 0.0f);
  be.matmul_fwd(x, lora->a.data(), xa, m, in, r);
  std::fill(delta, delta + m * out, 0.0f);
  be.matmul_fwd(xa, lora->b.data(), delta, m, r, out);
  scale_row(delta, lora->scale, m * out);
  add_row(y, delta, y, m * out);
}

Tensor linear(Tape* tape, const Tensor& x, const Tensor& w, const Tensor& b,
              const LoRA* lora) {
  DPOAF_CHECK_MSG(x.cols() == w.rows(),
                  shapes_msg("linear: inner dimensions differ", x.shape(),
                             w.shape()));
  DPOAF_CHECK_MSG(
      b.rows() == 1 && b.cols() == w.cols(),
      shapes_msg("linear: bias must be [1 x cols(w)]", w.shape(), b.shape()));
  const std::int64_t m = x.rows(), in = x.cols(), out = w.cols();
  const std::int64_t r = lora != nullptr ? lora->a.cols() : 0;
  if (lora != nullptr) {
    DPOAF_CHECK_MSG(lora->a.rows() == in,
                    shapes_msg("linear: LoRA A must be [rows(w) x r]",
                               w.shape(), lora->a.shape()));
    DPOAF_CHECK_MSG(lora->b.rows() == r && lora->b.cols() == out,
                    shapes_msg("linear: LoRA B must be [r x cols(w)]",
                               lora->a.shape(), lora->b.shape()));
  }
  count_matmul_fwd(m, in, out);
  if (lora != nullptr) {
    count_matmul_fwd(m, in, r);
    count_matmul_fwd(m, r, out);
  }
  Tape* const rec =
      lora != nullptr ? track(tape, {&x, &w, &b, &lora->a, &lora->b})
                      : track(tape, {&x, &w, &b});
  Tensor y = output(rec, {m, out});
  // (x·A)·B [T,out] is transient; x·A [T,r] too unless the backward
  // needs it.
  float* const delta = transient(m * (out + r));
  float* const xa = rec != nullptr && r > 0 ? rec->scratch(m * r)
                                            : delta + m * out;
  linear_rows(x.data(), m, w, b, lora, y.data(), xa, delta);
  if (rec == nullptr) return y;

  y.set_requires_grad(true);
  Tensor xt = x, wt = w, bt = b, yt = y;
  Tensor at = lora != nullptr ? lora->a : Tensor();
  Tensor bbt = lora != nullptr ? lora->b : Tensor();
  const float s = lora != nullptr ? lora->scale : 0.0f;
  rec->record([xt, wt, bt, at, bbt, yt, xa, s, r]() mutable {
    const std::int64_t m = xt.rows(), in = xt.cols(), out = wt.cols();
    const backend::ComputeBackend& be = backend::active();
    // Which nodes of the chain would have recorded — matmul(x, W), its
    // bias add, matmul(x, A), and matmul(x·A, B) with its scale and add —
    // and so which of their branches run.
    const bool gx = xt.requires_grad(), gw = wt.requires_grad();
    const bool gb = bt.requires_grad();
    const bool ga = at.requires_grad(), gbb = bbt.requires_grad();
    const bool mm = gx || gw;
    const bool xa_node = gx || ga;
    const float* gy = yt.grad();
    // The chain's fresh gradient tensors: g [T,out] for s·gy, then for
    // the bias add's input, and gxa [T,r] for x·A.
    float* const g = transient(m * (out + r));
    float* const gxa = g + m * out;
    if (r > 0 && (xa_node || gbb)) {
      // add → scale: 0 + s·(0 + 1·gy) is 0 + s·gy, bit for bit.
      std::fill(g, g + m * out, 0.0f);
      be.ew_axpy(s, gy, g, m * out);
      count_matmul_bwd(m, r, out, (xa_node ? 1 : 0) + (gbb ? 1 : 0));
      if (gbb) be.matmul_bwd_b(xa, g, bbt.grad(), m, r, out);
      if (xa_node) {
        std::fill(gxa, gxa + m * r, 0.0f);
        be.matmul_bwd_a(g, bbt.data(), gxa, m, r, out);
        count_matmul_bwd(m, in, r, (gx ? 1 : 0) + (ga ? 1 : 0));
        if (ga) be.matmul_bwd_b(xt.data(), gxa, at.grad(), m, in, r);
        if (gx) be.matmul_bwd_a(gxa, at.data(), xt.grad(), m, in, r);
      }
    }
    if (!mm && !gb) return;
    // The bias add's output gradient: gy itself, or with an adapter the
    // add's seeded copy 0 + 1·gy; its input's gradient is seeded the same
    // way (0 + 1·(0 + 1·gy) is 0 + 1·gy), turning a −0 into +0.
    std::fill(g, g + m * out, 0.0f);
    be.ew_axpy(1.0f, gy, g, m * out);
    if (gb) {
      const float* gc = r > 0 ? g : gy;
      float* gbias = bt.grad();
      for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j < out; ++j) gbias[j] += gc[i * out + j];
    }
    if (!mm) return;
    count_matmul_bwd(m, in, out, (gx ? 1 : 0) + (gw ? 1 : 0));
    if (gx) be.matmul_bwd_a(g, wt.data(), xt.grad(), m, in, out);
    if (gw) be.matmul_bwd_b(xt.data(), g, wt.grad(), m, in, out);
  });
  return y;
}

Tensor mul(Tape* tape, const Tensor& a, const Tensor& b) {
  DPOAF_CHECK_MSG(a.shape() == b.shape(),
                  shapes_msg("mul: shape mismatch", a.shape(), b.shape()));
  Tape* const rec = track(tape, {&a, &b});
  Tensor c = output(rec, a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) pc[i] = pa[i] * pb[i];
  if (rec != nullptr) {
    c.set_requires_grad(true);
    Tensor at = a, bt = b, ct = c;
    rec->record([at, bt, ct]() mutable {
      const backend::ComputeBackend& be = backend::active();
      const float* gc = ct.grad();
      if (at.requires_grad())
        be.ew_mul_acc(gc, bt.data(), at.grad(), at.numel());
      if (bt.requires_grad())
        be.ew_mul_acc(gc, at.data(), bt.grad(), bt.numel());
    });
  }
  return c;
}

Tensor sub(Tape* tape, const Tensor& a, const Tensor& b) {
  return add(tape, a, scale(tape, b, -1.0f));
}

Tensor scale(Tape* tape, const Tensor& a, float s) {
  Tape* const rec = track(tape, {&a});
  Tensor c = output(rec, a.shape());
  const float* pa = a.data();
  float* pc = c.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) pc[i] = s * pa[i];
  if (rec != nullptr) {
    c.set_requires_grad(true);
    Tensor at = a, ct = c;
    rec->record([at, ct, s]() mutable {
      if (!at.requires_grad()) return;
      backend::active().ew_axpy(s, ct.grad(), at.grad(), at.numel());
    });
  }
  return c;
}

Tensor gelu(Tape* tape, const Tensor& a) {
  Tape* const rec = track(tape, {&a});
  Tensor c = output(rec, a.shape());
  // The forward's tanh term, saved so the backward does not recompute it.
  Tensor t = rec != nullptr ? output(rec, a.shape()) : Tensor();
  const backend::ComputeBackend& be = backend::active();
  be.gelu_fwd(a.data(), c.data(), rec != nullptr ? t.data() : nullptr,
              a.numel());
  if (rec != nullptr) {
    c.set_requires_grad(true);
    Tensor at = a, ct = c;
    // The backend that saved t also reads it back (backends are static).
    const backend::ComputeBackend* fwd_be = &be;
    rec->record([at, ct, t, fwd_be]() mutable {
      if (!at.requires_grad()) return;
      fwd_be->gelu_bwd(at.data(), t.data(), ct.grad(), at.grad(), at.numel());
    });
  }
  return c;
}

Tensor layer_norm(Tape* tape, const Tensor& x, const Tensor& gamma,
                  const Tensor& beta, float eps) {
  DPOAF_CHECK_MSG(
      gamma.rows() == 1 && gamma.cols() == x.cols(),
      shapes_msg("layer_norm: gamma must be [1 x cols(x)]", x.shape(),
                 gamma.shape()));
  DPOAF_CHECK_MSG(
      beta.rows() == 1 && beta.cols() == x.cols(),
      shapes_msg("layer_norm: beta must be [1 x cols(x)]", x.shape(),
                 beta.shape()));
  // The backward's restrict-qualified row loop needs three storages.
  DPOAF_CHECK_MSG(!x.same_storage(gamma) && !x.same_storage(beta) &&
                      !gamma.same_storage(beta),
                  "layer_norm: x, gamma and beta must not alias");
  const std::int64_t m = x.rows(), n = x.cols();
  Tape* const rec = track(tape, {&x, &gamma, &beta});
  Tensor y = output(rec, x.shape());
  // Per-row mean and inverse stddev, saved in the arena for the backward,
  // then one row of x̂ scratch for it.
  float* mean = rec != nullptr ? rec->scratch(2 * m + n) : nullptr;
  float* inv_std = rec != nullptr ? mean + m : nullptr;
  for (std::int64_t i = 0; i < m; ++i) {
    const auto stats = layer_norm_row(x.data() + i * n, gamma.data(),
                                      beta.data(), n, y.data() + i * n, eps);
    if (rec != nullptr) std::tie(mean[i], inv_std[i]) = stats;
  }
  if (rec != nullptr) {
    y.set_requires_grad(true);
    Tensor xt = x, gt = gamma, bt = beta, yt = y;
    rec->record([xt, gt, bt, yt, mean, inv_std]() mutable {
      const std::int64_t m = xt.rows(), n = xt.cols();
      const bool params = gt.requires_grad() || bt.requires_grad();
      float* const gg = params ? gt.grad() : nullptr;
      float* const gb = params ? bt.grad() : nullptr;
      const float* gy = yt.grad();
      for (std::int64_t i = 0; i < m; ++i)
        layer_norm_row_bwd(xt.data() + i * n, gy + i * n, gt.data(), mean[i],
                           inv_std[i], n, gg, gb, inv_std + m,
                           xt.requires_grad() ? xt.grad() + i * n : nullptr);
    });
  }
  return y;
}

namespace {

// Row softmax where `limit(i)` gives row i's exclusive column bound.
template <typename Limit>
Tensor softmax_impl(Tape* tape, const Tensor& x, Limit limit) {
  const std::int64_t m = x.rows(), n = x.cols();
  Tape* const rec = track(tape, {&x});
  Tensor y = output(rec, x.shape());
  for (std::int64_t i = 0; i < m; ++i)
    softmax_row(x.data() + i * n, y.data() + i * n, limit(i), n);
  if (rec != nullptr) {
    y.set_requires_grad(true);
    Tensor xt = x, yt = y;
    rec->record([xt, yt, limit]() mutable {
      if (!xt.requires_grad()) return;
      const std::int64_t m = xt.rows(), n = xt.cols();
      const float* gy = yt.grad();
      float* gx = xt.grad();
      for (std::int64_t i = 0; i < m; ++i)
        softmax_row_bwd(yt.data() + i * n, gy + i * n, gx + i * n, limit(i));
    });
  }
  return y;
}

}  // namespace

Tensor softmax_rows(Tape* tape, const Tensor& x) {
  const std::int64_t n = x.cols();
  return softmax_impl(tape, x, [n](std::int64_t) { return n; });
}

Tensor causal_softmax_rows(Tape* tape, const Tensor& scores) {
  DPOAF_CHECK_MSG(scores.rows() == scores.cols(),
                  "causal softmax expects square score matrix");
  return softmax_impl(tape, scores,
                      [](std::int64_t i) { return i + 1; });
}

Tensor causal_attention(Tape* tape, const Tensor& qkv,
                        std::int64_t n_heads) {
  DPOAF_CHECK_MSG(n_heads >= 1 && qkv.cols() % (3 * n_heads) == 0,
                  "causal_attention: " + std::to_string(n_heads) +
                      " heads do not split qkv " + shape_str(qkv.shape()));
  const std::int64_t t = qkv.rows(), w = qkv.cols(), d = w / 3;
  const std::int64_t dh = d / n_heads;
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(dh));
  Tape* const rec = track(tape, {&qkv});
  // One head's q [t,dh], kᵀ [dh,t], v [t,dh] and attention weights [t,t];
  // the backward reads every head's, so a recorded op keeps them all.
  const std::int64_t head = 3 * t * dh + t * t;
  const std::int64_t heads_kept = rec != nullptr ? n_heads : 1;
  // Then the scores [t,t] and one head's output [t,dh].
  const std::int64_t floats = heads_kept * head + t * t + t * dh;
  std::vector<float> heap;
  if (rec == nullptr) heap.resize(static_cast<std::size_t>(floats));
  float* const saved = rec != nullptr ? rec->scratch(floats) : heap.data();
  float* const scores = saved + heads_kept * head;
  float* const o = scores + t * t;

  Tensor out = output(rec, {t, d});
  const float* x = qkv.data();
  for (std::int64_t h = 0; h < n_heads; ++h) {
    float* q = saved + (rec != nullptr ? h : 0) * head;
    float* kt = q + t * dh;
    float* v = kt + dh * t;
    float* attn = v + t * dh;
    for (std::int64_t i = 0; i < t; ++i)
      for (std::int64_t j = 0; j < dh; ++j) {
        const float* xr = x + i * w + h * dh + j;
        q[i * dh + j] = xr[0];
        kt[j * t + i] = xr[d];
        v[i * dh + j] = xr[2 * d];
      }
    count_matmul_fwd(t, dh, t);
    count_matmul_fwd(t, t, dh);
    attention_head(q, kt, v, t, t, dh, scores, attn, o);
    for (std::int64_t i = 0; i < t; ++i)
      std::copy(o + i * dh, o + (i + 1) * dh, out.data() + i * d + h * dh);
  }
  if (rec != nullptr) {
    out.set_requires_grad(true);
    // Backward scratch, reused by every head: gradients of the head
    // output, v, q and kᵀ, then of the weights, scaled and raw scores.
    float* const g = rec->scratch(4 * t * dh + 3 * t * t);
    Tensor xt = qkv, yt = out;
    rec->record([xt, yt, saved, g, t, w, d, dh, n_heads, head,
                  inv_sqrt]() mutable {
      const backend::ComputeBackend& be = backend::active();
      float* go = g;
      float* gv = go + t * dh;
      float* gq = gv + t * dh;
      float* gkt = gq + t * dh;
      float* gattn = gkt + dh * t;
      float* gs = gattn + t * t;
      float* gs0 = gs + t * t;
      const float* gy = yt.grad();
      float* gx = xt.grad();
      for (std::int64_t h = n_heads - 1; h >= 0; --h) {
        const float* q = saved + h * head;
        const float* kt = q + t * dh;
        const float* v = kt + dh * t;
        const float* attn = v + t * dh;
        std::fill(g, g + 4 * t * dh + 3 * t * t, 0.0f);
        for (std::int64_t i = 0; i < t; ++i)
          for (std::int64_t j = 0; j < dh; ++j)
            go[i * dh + j] += gy[i * d + h * dh + j];
        count_matmul_bwd(t, t, dh, 2);
        be.matmul_bwd_a(go, v, gattn, t, t, dh);
        be.matmul_bwd_b(attn, go, gv, t, t, dh);
        for (std::int64_t i = 0; i < t; ++i)
          softmax_row_bwd(attn + i * t, gattn + i * t, gs + i * t, i + 1);
        be.ew_axpy(inv_sqrt, gs, gs0, t * t);
        count_matmul_bwd(t, dh, t, 2);
        be.matmul_bwd_a(gs0, kt, gq, t, dh, t);
        be.matmul_bwd_b(q, gs0, gkt, t, dh, t);
        // qkv's gradient is zeroed on first use, so each += turns a −0
        // into +0 exactly as a separate slice's backward would.
        for (std::int64_t i = 0; i < t; ++i)
          for (std::int64_t j = 0; j < dh; ++j) {
            float* gr = gx + i * w + h * dh + j;
            gr[0] += gq[i * dh + j];
            gr[d] += gkt[j * t + i];
            gr[2 * d] += gv[i * dh + j];
          }
      }
    });
  }
  return out;
}

Tensor embedding(Tape* tape, const Tensor& table,
                 const std::vector<int>& ids) {
  const std::int64_t v = table.rows(), d = table.cols();
  const auto t_len = static_cast<std::int64_t>(ids.size());
  Tape* const rec = track(tape, {&table});
  Tensor out = output(rec, {t_len, d});
  for (std::int64_t t = 0; t < t_len; ++t) {
    const int id = ids[static_cast<std::size_t>(t)];
    DPOAF_CHECK_MSG(id >= 0 && id < v, "embedding id out of range");
    const float* row = table.data() + static_cast<std::int64_t>(id) * d;
    float* dst = out.data() + t * d;
    for (std::int64_t j = 0; j < d; ++j) dst[j] = row[j];
  }
  if (rec != nullptr) {
    out.set_requires_grad(true);
    Tensor tt = table, ot = out;
    rec->record([tt, ot, ids]() mutable {
      if (!tt.requires_grad()) return;
      const std::int64_t d = tt.cols();
      float* gt = tt.grad();
      const float* go = ot.grad();
      for (std::size_t t = 0; t < ids.size(); ++t) {
        float* dst = gt + static_cast<std::int64_t>(ids[t]) * d;
        const float* src = go + static_cast<std::int64_t>(t) * d;
        for (std::int64_t j = 0; j < d; ++j) dst[j] += src[j];
      }
    });
  }
  return out;
}

Tensor sum(Tape* tape, const Tensor& x) {
  Tape* const rec = track(tape, {&x});
  Tensor y = output(rec, {1, 1});
  float acc = 0.0f;
  for (std::int64_t i = 0; i < x.numel(); ++i) acc += x.data()[i];
  y.data()[0] = acc;
  if (rec != nullptr) {
    y.set_requires_grad(true);
    Tensor xt = x, yt = y;
    rec->record([xt, yt]() mutable {
      if (!xt.requires_grad()) return;
      float* gx = xt.grad();
      const float g = yt.grad()[0];
      for (std::int64_t i = 0; i < xt.numel(); ++i) gx[i] += g;
    });
  }
  return y;
}

namespace {

// Shared machinery for cross_entropy and sum_log_probs: computes
// Σ/mean of -log p(target) with softmax-minus-onehot backward.
Tensor nll(Tape* tape, const Tensor& logits, const std::vector<int>& targets,
           std::int64_t from, bool mean, float sign) {
  DPOAF_CHECK_MSG(static_cast<std::int64_t>(targets.size()) == logits.rows(),
                  "nll: " + std::to_string(targets.size()) +
                      " targets for logits " + shape_str(logits.shape()));
  const std::int64_t t_len = logits.rows(), v = logits.cols();
  std::vector<std::int64_t> positions;
  for (std::int64_t t = from; t < t_len; ++t)
    if (targets[static_cast<std::size_t>(t)] >= 0) positions.push_back(t);
  DPOAF_CHECK_MSG(!positions.empty(), "no scored positions");

  Tape* const rec = track(tape, {&logits});
  // Row-wise log-softmax at scored positions only.
  Tensor out = output(rec, {1, 1});
  std::vector<float> logz(positions.size());
  float acc = 0.0f;
  for (std::size_t p = 0; p < positions.size(); ++p) {
    const std::int64_t t = positions[p];
    const float* row = logits.data() + t * v;
    float mx = row[0];
    for (std::int64_t j = 1; j < v; ++j) mx = std::max(mx, row[j]);
    float z = 0.0f;
    for (std::int64_t j = 0; j < v; ++j) z += std::exp(row[j] - mx);
    logz[p] = mx + std::log(z);
    acc += row[targets[static_cast<std::size_t>(t)]] - logz[p];
  }
  const float denom = mean ? static_cast<float>(positions.size()) : 1.0f;
  out.data()[0] = sign * acc / denom;

  if (rec != nullptr) {
    out.set_requires_grad(true);
    Tensor lt = logits, ot = out;
    rec->record([lt, ot, targets, positions, logz, denom, sign]() mutable {
      if (!lt.requires_grad()) return;
      const std::int64_t v = lt.cols();
      const float g = ot.grad()[0] * sign / denom;
      float* gl = lt.grad();
      for (std::size_t p = 0; p < positions.size(); ++p) {
        const std::int64_t t = positions[p];
        const float* row = lt.data() + t * v;
        float* grow = gl + t * v;
        const int y = targets[static_cast<std::size_t>(t)];
        for (std::int64_t j = 0; j < v; ++j) {
          const float prob = std::exp(row[j] - logz[p]);
          // d(log p_y)/d logit_j = 1[j==y] − p_j
          grow[j] += g * ((j == y ? 1.0f : 0.0f) - prob);
        }
      }
    });
  }
  return out;
}

}  // namespace

Tensor cross_entropy(Tape* tape, const Tensor& logits,
                     const std::vector<int>& targets) {
  return nll(tape, logits, targets, 0, /*mean=*/true, /*sign=*/-1.0f);
}

Tensor sum_log_probs(Tape* tape, const Tensor& logits,
                     const std::vector<int>& targets, std::int64_t from) {
  return nll(tape, logits, targets, from, /*mean=*/false, /*sign=*/1.0f);
}

Tensor softplus(Tape* tape, const Tensor& x) {
  Tape* const rec = track(tape, {&x});
  Tensor y = output(rec, x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const float v = x.data()[i];
    // log(1+eᵛ) = max(v,0) + log1p(e^{−|v|})
    y.data()[i] = std::max(v, 0.0f) + std::log1p(std::exp(-std::fabs(v)));
  }
  if (rec != nullptr) {
    y.set_requires_grad(true);
    Tensor xt = x, yt = y;
    rec->record([xt, yt]() mutable {
      if (!xt.requires_grad()) return;
      float* gx = xt.grad();
      const float* gy = yt.grad();
      for (std::int64_t i = 0; i < xt.numel(); ++i) {
        const float s = 1.0f / (1.0f + std::exp(-xt.data()[i]));
        gx[i] += gy[i] * s;
      }
    });
  }
  return y;
}

}  // namespace dpoaf::tensor::ops
