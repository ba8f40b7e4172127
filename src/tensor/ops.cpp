#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "obs/metrics.hpp"
#include "tensor/backend/backend.hpp"

namespace dpoaf::tensor::ops {

namespace {

bool track(const Tape* tape, std::initializer_list<const Tensor*> inputs) {
  if (tape == nullptr) return false;
  for (const Tensor* t : inputs)
    if (t->requires_grad()) return true;
  return false;
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

}  // namespace

Tensor matmul(Tape* tape, const Tensor& a, const Tensor& b) {
  DPOAF_CHECK_MSG(a.cols() == b.rows(),
                  shapes_msg("matmul: inner dimensions differ", a.shape(),
                             b.shape()));
  const std::int64_t m = a.rows(), k = a.cols(), n = b.cols();
  // Throughput telemetry (counts only; obs::counter is a no-op when
  // observability is off): calls and multiply-add flops of the forward,
  // totalled and broken out per backend (docs/BACKENDS.md).
  static obs::Counter& fwd_calls = obs::counter("tensor.matmul.calls");
  static obs::Counter& fwd_flops = obs::counter("tensor.matmul.flops");
  const backend::ComputeBackend& be = backend::active();
  fwd_calls.add();
  fwd_flops.add(static_cast<std::uint64_t>(2 * m * k * n));
  be.matmul_counters().fwd_calls.add();
  be.matmul_counters().fwd_flops.add(static_cast<std::uint64_t>(2 * m * k * n));
  Tensor c = Tensor::zeros({m, n});
  be.matmul_fwd(a.data(), b.data(), c.data(), k, n, 0, m);
  if (track(tape, {&a, &b})) {
    c.set_requires_grad(true);
    Tensor at = a, bt = b, ct = c;
    tape->record([at, bt, ct]() mutable {
      const std::int64_t m = at.rows(), k = at.cols(), n = bt.cols();
      static obs::Counter& bwd_calls = obs::counter("tensor.matmul.bwd_calls");
      static obs::Counter& bwd_flops = obs::counter("tensor.matmul.bwd_flops");
      const backend::ComputeBackend& be = backend::active();
      const auto flops = static_cast<std::uint64_t>(
          2 * m * k * n * ((at.requires_grad() ? 1 : 0) +
                           (bt.requires_grad() ? 1 : 0)));
      bwd_calls.add();
      bwd_flops.add(flops);
      be.matmul_counters().bwd_calls.add();
      be.matmul_counters().bwd_flops.add(flops);
      const float* gc = ct.grad();
      // dA[i,kk] += Σ_j gC[i,j] · B[kk,j]
      if (at.requires_grad())
        be.matmul_bwd_a(gc, bt.data(), at.grad(), k, n, 0, m);
      // dB[kk,j] += Σ_i A[i,kk] · gC[i,j]
      if (bt.requires_grad())
        be.matmul_bwd_b(at.data(), gc, bt.grad(), m, k, n, 0, k);
    });
  }
  return c;
}

Tensor add(Tape* tape, const Tensor& a, const Tensor& b) {
  DPOAF_CHECK_MSG(a.shape() == b.shape(),
                  shapes_msg("add: shape mismatch", a.shape(), b.shape()));
  Tensor c = Tensor::zeros(a.shape());
  const backend::ComputeBackend& be = backend::active();
  be.ew_add(a.data(), b.data(), c.data(), 0, a.numel());
  if (track(tape, {&a, &b})) {
    c.set_requires_grad(true);
    Tensor at = a, bt = b, ct = c;
    tape->record([at, bt, ct]() mutable {
      const backend::ComputeBackend& be = backend::active();
      const float* gc = ct.grad();
      if (at.requires_grad()) be.ew_axpy(1.0f, gc, at.grad(), 0, at.numel());
      if (bt.requires_grad()) be.ew_axpy(1.0f, gc, bt.grad(), 0, bt.numel());
    });
  }
  return c;
}

Tensor add_rowwise(Tape* tape, const Tensor& x, const Tensor& bias) {
  DPOAF_CHECK_MSG(
      bias.rows() == 1 && bias.cols() == x.cols(),
      shapes_msg("add_rowwise: bias must be [1 x cols(x)]", x.shape(),
                 bias.shape()));
  Tensor c = Tensor::zeros(x.shape());
  const std::int64_t m = x.rows(), n = x.cols();
  const backend::ComputeBackend& be = backend::active();
  be.row_bias_add(x.data(), bias.data(), c.data(), n, 0, m);
  if (track(tape, {&x, &bias})) {
    c.set_requires_grad(true);
    Tensor xt = x, bt = bias, ct = c;
    tape->record([xt, bt, ct]() mutable {
      const std::int64_t m = xt.rows(), n = xt.cols();
      const float* gc = ct.grad();
      if (xt.requires_grad())
        backend::active().ew_axpy(1.0f, gc, xt.grad(), 0, m * n);
      if (bt.requires_grad()) {
        float* gb = bt.grad();
        for (std::int64_t i = 0; i < m; ++i)
          for (std::int64_t j = 0; j < n; ++j) gb[j] += gc[i * n + j];
      }
    });
  }
  return c;
}

Tensor mul(Tape* tape, const Tensor& a, const Tensor& b) {
  DPOAF_CHECK_MSG(a.shape() == b.shape(),
                  shapes_msg("mul: shape mismatch", a.shape(), b.shape()));
  Tensor c = Tensor::zeros(a.shape());
  const backend::ComputeBackend& be = backend::active();
  be.ew_mul(a.data(), b.data(), c.data(), 0, a.numel());
  if (track(tape, {&a, &b})) {
    c.set_requires_grad(true);
    Tensor at = a, bt = b, ct = c;
    tape->record([at, bt, ct]() mutable {
      const backend::ComputeBackend& be = backend::active();
      const float* gc = ct.grad();
      if (at.requires_grad())
        be.ew_mul_acc(gc, bt.data(), at.grad(), 0, at.numel());
      if (bt.requires_grad())
        be.ew_mul_acc(gc, at.data(), bt.grad(), 0, bt.numel());
    });
  }
  return c;
}

Tensor sub(Tape* tape, const Tensor& a, const Tensor& b) {
  return add(tape, a, scale(tape, b, -1.0f));
}

Tensor scale(Tape* tape, const Tensor& a, float s) {
  Tensor c = Tensor::zeros(a.shape());
  const backend::ComputeBackend& be = backend::active();
  be.ew_scale(a.data(), s, c.data(), 0, a.numel());
  if (track(tape, {&a})) {
    c.set_requires_grad(true);
    Tensor at = a, ct = c;
    tape->record([at, ct, s]() mutable {
      if (!at.requires_grad()) return;
      backend::active().ew_axpy(s, ct.grad(), at.grad(), 0, at.numel());
    });
  }
  return c;
}

Tensor gelu(Tape* tape, const Tensor& a) {
  Tensor c = Tensor::zeros(a.shape());
  const bool tracked = track(tape, {&a});
  // The forward's tanh term, saved so the backward does not recompute it.
  Tensor t = tracked ? Tensor::zeros(a.shape()) : Tensor();
  const backend::ComputeBackend& be = backend::active();
  be.gelu_fwd(a.data(), c.data(), tracked ? t.data() : nullptr, 0, a.numel());
  if (tracked) {
    c.set_requires_grad(true);
    Tensor at = a, ct = c;
    // The backend that saved t also reads it back (backends are static).
    const backend::ComputeBackend* fwd_be = &be;
    tape->record([at, ct, t, fwd_be]() mutable {
      if (!at.requires_grad()) return;
      fwd_be->gelu_bwd(at.data(), t.data(), ct.grad(), at.grad(), 0,
                       at.numel());
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
  const std::int64_t m = x.rows(), n = x.cols();
  Tensor y = Tensor::zeros(x.shape());
  // Cache per-row mean and inverse stddev for the backward pass.
  std::vector<float> mean(static_cast<std::size_t>(m));
  std::vector<float> inv_std(static_cast<std::size_t>(m));
  for (std::int64_t i = 0; i < m; ++i) {
    const float* xr = x.data() + i * n;
    float mu = 0.0f;
    for (std::int64_t j = 0; j < n; ++j) mu += xr[j];
    mu /= static_cast<float>(n);
    float var = 0.0f;
    for (std::int64_t j = 0; j < n; ++j) var += (xr[j] - mu) * (xr[j] - mu);
    var /= static_cast<float>(n);
    const float is = 1.0f / std::sqrt(var + eps);
    mean[static_cast<std::size_t>(i)] = mu;
    inv_std[static_cast<std::size_t>(i)] = is;
    float* yr = y.data() + i * n;
    for (std::int64_t j = 0; j < n; ++j)
      yr[j] = (xr[j] - mu) * is * gamma.data()[j] + beta.data()[j];
  }
  if (track(tape, {&x, &gamma, &beta})) {
    y.set_requires_grad(true);
    Tensor xt = x, gt = gamma, bt = beta, yt = y;
    tape->record([xt, gt, bt, yt, mean, inv_std]() mutable {
      const std::int64_t m = xt.rows(), n = xt.cols();
      const float* gy = yt.grad();
      for (std::int64_t i = 0; i < m; ++i) {
        const float* xr = xt.data() + i * n;
        const float* gyr = gy + i * n;
        const float mu = mean[static_cast<std::size_t>(i)];
        const float is = inv_std[static_cast<std::size_t>(i)];
        if (gt.requires_grad() || bt.requires_grad()) {
          float* gg = gt.grad();
          float* gb = bt.grad();
          for (std::int64_t j = 0; j < n; ++j) {
            gg[j] += gyr[j] * (xr[j] - mu) * is;
            gb[j] += gyr[j];
          }
        }
        if (xt.requires_grad()) {
          // d x̂ = gy·γ ; dx = is(d x̂ − mean(d x̂) − x̂·mean(d x̂·x̂))
          float sum_dxh = 0.0f, sum_dxh_xh = 0.0f;
          for (std::int64_t j = 0; j < n; ++j) {
            const float xh = (xr[j] - mu) * is;
            const float dxh = gyr[j] * gt.data()[j];
            sum_dxh += dxh;
            sum_dxh_xh += dxh * xh;
          }
          const float inv_n = 1.0f / static_cast<float>(n);
          float* gx = xt.grad() + i * n;
          for (std::int64_t j = 0; j < n; ++j) {
            const float xh = (xr[j] - mu) * is;
            const float dxh = gyr[j] * gt.data()[j];
            gx[j] += is * (dxh - inv_n * sum_dxh - xh * inv_n * sum_dxh_xh);
          }
        }
      }
    });
  }
  return y;
}

namespace {

// Shared forward for (masked) row softmax; `limit(i)` gives the exclusive
// column bound for row i.
template <typename Limit>
Tensor softmax_impl(Tape* tape, const Tensor& x, Limit limit) {
  const std::int64_t m = x.rows(), n = x.cols();
  Tensor y = Tensor::zeros(x.shape());
  for (std::int64_t i = 0; i < m; ++i) {
    const std::int64_t lim = limit(i);
    const float* xr = x.data() + i * n;
    float* yr = y.data() + i * n;
    float mx = -1e30f;
    for (std::int64_t j = 0; j < lim; ++j) mx = std::max(mx, xr[j]);
    float z = 0.0f;
    for (std::int64_t j = 0; j < lim; ++j) {
      yr[j] = std::exp(xr[j] - mx);
      z += yr[j];
    }
    const float inv = 1.0f / z;
    for (std::int64_t j = 0; j < lim; ++j) yr[j] *= inv;
  }
  if (track(tape, {&x})) {
    y.set_requires_grad(true);
    Tensor xt = x, yt = y;
    tape->record([xt, yt, limit]() mutable {
      if (!xt.requires_grad()) return;
      const std::int64_t m = xt.rows(), n = xt.cols();
      const float* gy = yt.grad();
      float* gx = xt.grad();
      for (std::int64_t i = 0; i < m; ++i) {
        const std::int64_t lim = limit(i);
        const float* yr = yt.data() + i * n;
        const float* gyr = gy + i * n;
        float dot = 0.0f;
        for (std::int64_t j = 0; j < lim; ++j) dot += gyr[j] * yr[j];
        for (std::int64_t j = 0; j < lim; ++j)
          gx[i * n + j] += yr[j] * (gyr[j] - dot);
      }
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

Tensor embedding(Tape* tape, const Tensor& table,
                 const std::vector<int>& ids) {
  const std::int64_t v = table.rows(), d = table.cols();
  const auto t_len = static_cast<std::int64_t>(ids.size());
  Tensor out = Tensor::zeros({t_len, d});
  for (std::int64_t t = 0; t < t_len; ++t) {
    const int id = ids[static_cast<std::size_t>(t)];
    DPOAF_CHECK_MSG(id >= 0 && id < v, "embedding id out of range");
    const float* row = table.data() + static_cast<std::int64_t>(id) * d;
    float* dst = out.data() + t * d;
    for (std::int64_t j = 0; j < d; ++j) dst[j] = row[j];
  }
  if (track(tape, {&table})) {
    out.set_requires_grad(true);
    Tensor tt = table, ot = out;
    tape->record([tt, ot, ids]() mutable {
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

Tensor slice_cols(Tape* tape, const Tensor& x, std::int64_t start,
                  std::int64_t len) {
  DPOAF_CHECK_MSG(start >= 0 && len > 0 && start + len <= x.cols(),
                  "slice_cols: [" + std::to_string(start) + ", " +
                      std::to_string(start + len) + ") out of range for " +
                      shape_str(x.shape()));
  const std::int64_t m = x.rows(), n = x.cols();
  Tensor y = Tensor::zeros({m, len});
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < len; ++j)
      y.data()[i * len + j] = x.data()[i * n + start + j];
  if (track(tape, {&x})) {
    y.set_requires_grad(true);
    Tensor xt = x, yt = y;
    tape->record([xt, yt, start, len]() mutable {
      if (!xt.requires_grad()) return;
      const std::int64_t m = xt.rows(), n = xt.cols();
      float* gx = xt.grad();
      const float* gy = yt.grad();
      for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j < len; ++j)
          gx[i * n + start + j] += gy[i * len + j];
    });
  }
  return y;
}

Tensor concat_cols(Tape* tape, const std::vector<Tensor>& parts) {
  DPOAF_CHECK(!parts.empty());
  const std::int64_t m = parts.front().rows();
  std::int64_t n = 0;
  for (const Tensor& p : parts) {
    DPOAF_CHECK_MSG(p.rows() == m,
                    shapes_msg("concat_cols: row mismatch",
                               parts.front().shape(), p.shape()));
    n += p.cols();
  }
  Tensor y = Tensor::zeros({m, n});
  std::int64_t off = 0;
  bool needs_grad = false;
  for (const Tensor& p : parts) {
    for (std::int64_t i = 0; i < m; ++i)
      for (std::int64_t j = 0; j < p.cols(); ++j)
        y.data()[i * n + off + j] = p.data()[i * p.cols() + j];
    off += p.cols();
    needs_grad = needs_grad || p.requires_grad();
  }
  if (tape != nullptr && needs_grad) {
    y.set_requires_grad(true);
    std::vector<Tensor> ps = parts;
    Tensor yt = y;
    tape->record([ps, yt]() mutable {
      const std::int64_t m = yt.rows(), n = yt.cols();
      const float* gy = yt.grad();
      std::int64_t off = 0;
      for (Tensor& p : ps) {
        if (p.requires_grad()) {
          float* gp = p.grad();
          for (std::int64_t i = 0; i < m; ++i)
            for (std::int64_t j = 0; j < p.cols(); ++j)
              gp[i * p.cols() + j] += gy[i * n + off + j];
        }
        off += p.cols();
      }
    });
  }
  return y;
}

Tensor transpose(Tape* tape, const Tensor& x) {
  const std::int64_t m = x.rows(), n = x.cols();
  Tensor y = Tensor::zeros({n, m});
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j)
      y.data()[j * m + i] = x.data()[i * n + j];
  if (track(tape, {&x})) {
    y.set_requires_grad(true);
    Tensor xt = x, yt = y;
    tape->record([xt, yt]() mutable {
      if (!xt.requires_grad()) return;
      const std::int64_t m = xt.rows(), n = xt.cols();
      float* gx = xt.grad();
      const float* gy = yt.grad();
      for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j < n; ++j)
          gx[i * n + j] += gy[j * m + i];
    });
  }
  return y;
}

Tensor sum(Tape* tape, const Tensor& x) {
  Tensor y = Tensor::zeros({1, 1});
  float acc = 0.0f;
  for (std::int64_t i = 0; i < x.numel(); ++i) acc += x.data()[i];
  y.data()[0] = acc;
  if (track(tape, {&x})) {
    y.set_requires_grad(true);
    Tensor xt = x, yt = y;
    tape->record([xt, yt]() mutable {
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

  // Row-wise log-softmax at scored positions only.
  Tensor out = Tensor::zeros({1, 1});
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

  if (track(tape, {&logits})) {
    out.set_requires_grad(true);
    Tensor lt = logits, ot = out;
    tape->record([lt, ot, targets, positions, logz, denom, sign]() mutable {
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
  Tensor y = Tensor::zeros(x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const float v = x.data()[i];
    // log(1+eᵛ) = max(v,0) + log1p(e^{−|v|})
    y.data()[i] = std::max(v, 0.0f) + std::log1p(std::exp(-std::fabs(v)));
  }
  if (track(tape, {&x})) {
    y.set_requires_grad(true);
    Tensor xt = x, yt = y;
    tape->record([xt, yt]() mutable {
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
