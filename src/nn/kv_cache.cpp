#include "nn/kv_cache.hpp"

#include "util/check.hpp"

namespace dpoaf::nn {

KvBlockPool::KvBlockPool(std::int64_t n_layers, std::int64_t d_model,
                         std::int64_t block_tokens, std::int64_t total_blocks)
    : d_model_(d_model),
      block_tokens_(block_tokens),
      total_blocks_(total_blocks) {
  DPOAF_CHECK(n_layers >= 1);
  DPOAF_CHECK(d_model >= 1);
  DPOAF_CHECK_MSG(block_tokens >= 1, "KV blocks need at least one token");
  DPOAF_CHECK_MSG(total_blocks >= 1, "KV pool needs at least one block");
  const std::size_t slab = static_cast<std::size_t>(total_blocks) *
                           static_cast<std::size_t>(block_tokens) *
                           static_cast<std::size_t>(d_model);
  k_.resize(static_cast<std::size_t>(n_layers));
  v_.resize(static_cast<std::size_t>(n_layers));
  for (auto& layer : k_) layer.resize(slab);
  for (auto& layer : v_) layer.resize(slab);
  allocated_.assign(static_cast<std::size_t>(total_blocks), false);
  free_.reserve(static_cast<std::size_t>(total_blocks));
  // LIFO free list seeded so the first allocations hand out low ids.
  for (std::int64_t b = total_blocks - 1; b >= 0; --b)
    free_.push_back(static_cast<std::int32_t>(b));
}

std::int32_t KvBlockPool::allocate() {
  std::lock_guard<std::mutex> lock(mutex_);
  DPOAF_CHECK_MSG(!free_.empty(),
                  "KV block pool exhausted — the pool must hold every "
                  "session's max_seq sequence");
  const std::int32_t b = free_.back();
  free_.pop_back();
  allocated_[static_cast<std::size_t>(b)] = true;
  return b;
}

void KvBlockPool::release(std::int32_t block) {
  std::lock_guard<std::mutex> lock(mutex_);
  DPOAF_CHECK(block >= 0 && block < total_blocks_);
  DPOAF_CHECK_MSG(allocated_[static_cast<std::size_t>(block)],
                  "released a free KV block");
  allocated_[static_cast<std::size_t>(block)] = false;
  free_.push_back(block);
}

std::int64_t KvBlockPool::free_blocks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<std::int64_t>(free_.size());
}

}  // namespace dpoaf::nn
