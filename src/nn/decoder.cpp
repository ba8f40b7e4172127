#include "nn/decoder.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "tensor/backend/backend.hpp"
#include "util/check.hpp"

namespace dpoaf::nn {

namespace {
constexpr std::int64_t kDefaultBlockTokens = 16;
}  // namespace

int sample_token(const float* logits, std::int64_t vocab, float temperature,
                 int top_k, Rng& rng) {
  DPOAF_CHECK(temperature > 0.0f);
  DPOAF_CHECK(vocab > 0);
  // Collect (logit, id), optionally truncated to the top-k. Ties break
  // by ascending token id: partial_sort's ordering of equal keys is
  // implementation-defined, and the candidate set must not depend on
  // the standard library.
  std::vector<std::pair<float, int>> cand;
  cand.reserve(static_cast<std::size_t>(vocab));
  for (std::int64_t j = 0; j < vocab; ++j)
    cand.emplace_back(logits[j], static_cast<int>(j));
  if (top_k > 0 && top_k < static_cast<int>(cand.size())) {
    std::partial_sort(cand.begin(), cand.begin() + top_k, cand.end(),
                      [](const auto& a, const auto& b) {
                        if (a.first != b.first) return a.first > b.first;
                        return a.second < b.second;
                      });
    cand.resize(static_cast<std::size_t>(top_k));
  }
  float mx = -1e30f;
  for (const auto& [logit, id] : cand) mx = std::max(mx, logit);
  std::vector<double> weights;
  weights.reserve(cand.size());
  for (const auto& [logit, id] : cand)
    weights.push_back(std::exp((logit - mx) / temperature));
  return cand[rng.weighted(weights)].second;
}

int argmax_token(const float* logits, std::int64_t vocab) {
  DPOAF_CHECK(vocab > 0);
  int best = 0;
  for (std::int64_t j = 1; j < vocab; ++j)
    if (logits[j] > logits[best]) best = static_cast<int>(j);
  return best;
}

Rng request_rng(std::uint64_t stream_seed, std::uint64_t request_seed) {
  // Mix both seeds into one 64-bit value with two splitmix64 rounds; Rng's
  // reseed expands it to the full 256-bit state.
  std::uint64_t s = stream_seed ^ (0x9E3779B97F4A7C15ULL *
                                   (request_seed + 0x632BE59BD9B4E019ULL));
  std::uint64_t z = splitmix64(s);
  z ^= splitmix64(s);
  return Rng(z);
}

DecodeStatus decode_step(DecodeSession& session,
                         const std::vector<int>& prompt,
                         const DecodeParams& params, Rng& rng,
                         std::vector<int>& ids) {
  const GptConfig& cfg = session.model().config();
  if (static_cast<std::int64_t>(ids.size()) >= params.max_new)
    return DecodeStatus::kLength;
  if (session.position() + 1 >= cfg.max_seq) return DecodeStatus::kContext;
  const std::vector<float>& logits =
      session.step(ids.empty() ? prompt.back() : ids.back());
  const int next = params.greedy
                       ? argmax_token(logits.data(), cfg.vocab_size)
                       : sample_token(logits.data(), cfg.vocab_size,
                                      params.temperature, params.top_k, rng);
  if (next == params.eos_id) return DecodeStatus::kEos;
  ids.push_back(next);
  return static_cast<std::int64_t>(ids.size()) >= params.max_new
             ? DecodeStatus::kLength
             : DecodeStatus::kContinue;
}

namespace {

// y[out] = x[in] · W + b (+ LoRA delta); single-row inference kernel.
// The dense matvec is a one-row matmul_fwd on the active compute backend
// (docs/BACKENDS.md): the kernel accumulates into y, so seeding y with
// the bias makes it compute b + x·W directly.
void row_linear(const Linear& lin, const float* x, float* y) {
  const std::int64_t in = lin.weight.rows();
  const std::int64_t out = lin.weight.cols();
  const float* b = lin.bias.data();
  for (std::int64_t j = 0; j < out; ++j) y[j] = b[j];
  tensor::backend::active().matmul_fwd(x, lin.weight.data(), y, in, out, 0, 1);
  if (lin.lora_enabled()) {
    const std::int64_t rank = lin.lora_rank();
    const float* a = lin.lora_a.data();
    const float* bb = lin.lora_b.data();
    std::vector<float> xa(static_cast<std::size_t>(rank), 0.0f);
    for (std::int64_t i = 0; i < in; ++i) {
      const float xi = x[i];
      const float* ar = a + i * rank;
      for (std::int64_t r = 0; r < rank; ++r) xa[static_cast<std::size_t>(r)] += xi * ar[r];
    }
    const float scale = lin.lora_scale();
    for (std::int64_t r = 0; r < rank; ++r) {
      const float xr = xa[static_cast<std::size_t>(r)] * scale;
      const float* br = bb + r * out;
      for (std::int64_t j = 0; j < out; ++j) y[j] += xr * br[j];
    }
  }
}

void row_layer_norm(const LayerNorm& ln, const float* x, std::int64_t n,
                    float* y) {
  float mu = 0.0f;
  for (std::int64_t j = 0; j < n; ++j) mu += x[j];
  mu /= static_cast<float>(n);
  float var = 0.0f;
  for (std::int64_t j = 0; j < n; ++j) var += (x[j] - mu) * (x[j] - mu);
  var /= static_cast<float>(n);
  const float inv = 1.0f / std::sqrt(var + 1e-5f);
  const float* gamma = ln.gamma.data();
  const float* beta = ln.beta.data();
  for (std::int64_t j = 0; j < n; ++j)
    y[j] = (x[j] - mu) * inv * gamma[j] + beta[j];
}

}  // namespace

DecodeSession::DecodeSession(const TinyGpt& model, KvBlockPool* pool,
                             std::int64_t block_tokens)
    : model_(model) {
  const auto& cfg = model_.config();
  if (pool != nullptr) {
    pool_ = pool;
  } else {
    const std::int64_t bt =
        block_tokens > 0 ? block_tokens : kDefaultBlockTokens;
    owned_pool_ = std::make_unique<KvBlockPool>(
        cfg.n_layers, cfg.d_model, bt, (cfg.max_seq + bt - 1) / bt);
    pool_ = owned_pool_.get();
  }
  table_.reserve(
      static_cast<std::size_t>(pool_->blocks_for(cfg.max_seq)));
  logits_.resize(static_cast<std::size_t>(cfg.vocab_size));
  x_.resize(static_cast<std::size_t>(cfg.d_model));
  h_.resize(static_cast<std::size_t>(cfg.d_model));
  qkv_.resize(static_cast<std::size_t>(3 * cfg.d_model));
  attn_out_.resize(static_cast<std::size_t>(cfg.d_model));
  mlp_.resize(static_cast<std::size_t>(cfg.d_ff));
  scores_.resize(static_cast<std::size_t>(cfg.max_seq));
}

DecodeSession::~DecodeSession() { reset(); }

void DecodeSession::reset() {
  position_ = 0;
  for (const std::int32_t b : table_) pool_->decref(b);
  table_.clear();
  pending_cow_ = false;
  cow_copies_ = 0;
}

void DecodeSession::adopt_prefix(const std::vector<std::int32_t>& blocks,
                                 std::int64_t tokens) {
  DPOAF_CHECK_MSG(position_ == 0 && table_.empty(),
                  "adopt_prefix requires a fresh session");
  DPOAF_CHECK(tokens >= 0);
  DPOAF_CHECK(static_cast<std::int64_t>(blocks.size()) ==
              pool_->blocks_for(tokens));
  table_ = blocks;
  position_ = tokens;
  // The partially-filled tail (if any) may be shared with the prefix tree
  // or other sessions; the first append resolves it via copy-on-write.
  pending_cow_ = tokens % pool_->block_tokens() != 0;
}

const std::vector<float>& DecodeSession::step(int token_id) {
  const auto& cfg = model_.config();
  DPOAF_CHECK_MSG(position_ < cfg.max_seq,
                  "decode session exceeded max_seq");
  DPOAF_CHECK(token_id >= 0 && token_id < cfg.vocab_size);
  const std::int64_t d = cfg.d_model;
  const std::int64_t n_heads = cfg.n_heads;
  const std::int64_t dh = d / n_heads;
  const std::int64_t bt = pool_->block_tokens();
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(dh));

  // Map this position onto the block table: start a fresh block at a
  // boundary, and copy-on-write the tail block when it is shared (an
  // adopted partial prefix, or a block the prefix tree anchored).
  const std::int64_t bi = position_ / bt;
  const std::int64_t row = position_ % bt;
  if (bi == static_cast<std::int64_t>(table_.size())) {
    table_.push_back(pool_->allocate());
  } else if (pending_cow_ &&
             pool_->refcount(table_[static_cast<std::size_t>(bi)]) > 1) {
    const std::int32_t shared = table_[static_cast<std::size_t>(bi)];
    const std::int32_t fresh = pool_->allocate();
    pool_->copy_rows(shared, fresh, row);
    pool_->decref(shared);
    table_[static_cast<std::size_t>(bi)] = fresh;
    ++cow_copies_;
  }
  pending_cow_ = false;
  const std::int32_t tail = table_[static_cast<std::size_t>(bi)];

  // Token + positional embedding.
  const float* tok = model_.tok_emb_.data() + token_id * d;
  const float* pos = model_.pos_emb_.data() + position_ * d;
  for (std::int64_t j = 0; j < d; ++j) x_[static_cast<std::size_t>(j)] = tok[j] + pos[j];

  const std::int64_t t_len = position_ + 1;
  float* const scores = scores_.data();
  for (std::size_t l = 0; l < model_.blocks_.size(); ++l) {
    const TransformerBlock& block = model_.blocks_[l];
    const auto layer = static_cast<std::int64_t>(l);

    // Attention sublayer.
    row_layer_norm(block.ln1, x_.data(), d, h_.data());
    row_linear(block.attn.qkv, h_.data(), qkv_.data());
    std::copy(qkv_.begin() + d, qkv_.begin() + 2 * d,
              pool_->k(layer, tail) + row * d);
    std::copy(qkv_.begin() + 2 * d, qkv_.begin() + 3 * d,
              pool_->v(layer, tail) + row * d);

    for (std::int64_t head = 0; head < n_heads; ++head) {
      const float* q = qkv_.data() + head * dh;
      // Scores over the cached prefix (causal: all cached positions),
      // walked in position order so the arithmetic matches a contiguous
      // layout bit-for-bit at any block size.
      float mx = -1e30f;
      for (std::int64_t t = 0; t < t_len; ++t) {
        const float* kt =
            pool_->k(layer, table_[static_cast<std::size_t>(t / bt)]) +
            (t % bt) * d + head * dh;
        float acc = 0.0f;
        for (std::int64_t j = 0; j < dh; ++j) acc += q[j] * kt[j];
        scores[t] = acc * inv_sqrt;
        mx = std::max(mx, scores[t]);
      }
      float z = 0.0f;
      for (std::int64_t t = 0; t < t_len; ++t) {
        scores[t] = std::exp(scores[t] - mx);
        z += scores[t];
      }
      const float inv_z = 1.0f / z;
      float* ctx = attn_out_.data() + head * dh;
      for (std::int64_t j = 0; j < dh; ++j) ctx[j] = 0.0f;
      for (std::int64_t t = 0; t < t_len; ++t) {
        const float p = scores[t] * inv_z;
        const float* vt =
            pool_->v(layer, table_[static_cast<std::size_t>(t / bt)]) +
            (t % bt) * d + head * dh;
        for (std::int64_t j = 0; j < dh; ++j) ctx[j] += p * vt[j];
      }
    }
    // Projection + residual (reuse h_ for the projected output).
    row_linear(block.attn.proj, attn_out_.data(), h_.data());
    for (std::int64_t j = 0; j < d; ++j) x_[static_cast<std::size_t>(j)] += h_[static_cast<std::size_t>(j)];

    // MLP sublayer.
    row_layer_norm(block.ln2, x_.data(), d, h_.data());
    row_linear(block.fc1, h_.data(), mlp_.data());
    tensor::backend::active().gelu_fwd(mlp_.data(), mlp_.data(), nullptr, 0,
                                       cfg.d_ff);
    row_linear(block.fc2, mlp_.data(), h_.data());
    for (std::int64_t j = 0; j < d; ++j) x_[static_cast<std::size_t>(j)] += h_[static_cast<std::size_t>(j)];
  }

  row_layer_norm(model_.ln_f_, x_.data(), d, h_.data());
  row_linear(model_.head_, h_.data(), logits_.data());
  ++position_;
  return logits_;
}

}  // namespace dpoaf::nn
