// Block-paged KV storage for the serve layer.
//
// A KvBlockPool owns a fixed budget of fixed-size token blocks. Each block
// holds `block_tokens` rows of keys and values for every layer, so one
// block id names the same token span across the whole model. DecodeSession
// maps positions to storage through a per-sequence block table
// (position p lives in block table[p / block_tokens], row p % block_tokens)
// instead of a private contiguous buffer: a sequence holds only the blocks
// its positions reach. Every block has exactly one owner, the session whose
// table holds it.
//
// Thread safety: allocate/release mutate shared state under an internal
// mutex (crossing a block boundary happens once per block_tokens decode
// steps, so the lock is far off the hot path); the raw k()/v() row storage
// is lock-free — callers only touch rows their table entitles them to.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

namespace dpoaf::nn {

/// Fixed pool of KV blocks. Block ids are indices into preallocated
/// storage; storage never moves, so pointers from k()/v() stay valid for
/// the pool's lifetime.
class KvBlockPool {
 public:
  /// `block_tokens` rows per block, `total_blocks` blocks, each row
  /// holding `d_model` floats of keys and values per layer.
  KvBlockPool(std::int64_t n_layers, std::int64_t d_model,
              std::int64_t block_tokens, std::int64_t total_blocks);

  KvBlockPool(const KvBlockPool&) = delete;
  KvBlockPool& operator=(const KvBlockPool&) = delete;

  /// Take a free block. Throws when the pool is exhausted — the serve
  /// layer sizes its pool for one max_seq sequence per slot, so that is a
  /// logic error, not an overload condition.
  [[nodiscard]] std::int32_t allocate();

  /// Return an allocated block to the free list (ids are recycled LIFO).
  /// Releasing a free block is a logic error and throws.
  void release(std::int32_t block);

  /// Key/value storage for `block` at `layer`: block_tokens rows of
  /// d_model floats, row-major.
  [[nodiscard]] float* k(std::int64_t layer, std::int32_t block) {
    return k_[static_cast<std::size_t>(layer)].data() + slab_offset(block);
  }
  [[nodiscard]] float* v(std::int64_t layer, std::int32_t block) {
    return v_[static_cast<std::size_t>(layer)].data() + slab_offset(block);
  }
  [[nodiscard]] const float* k(std::int64_t layer, std::int32_t block) const {
    return k_[static_cast<std::size_t>(layer)].data() + slab_offset(block);
  }
  [[nodiscard]] const float* v(std::int64_t layer, std::int32_t block) const {
    return v_[static_cast<std::size_t>(layer)].data() + slab_offset(block);
  }

  [[nodiscard]] std::int64_t block_tokens() const { return block_tokens_; }
  [[nodiscard]] std::int64_t total_blocks() const { return total_blocks_; }
  [[nodiscard]] std::int64_t free_blocks() const;

  /// Blocks needed to hold `tokens` positions at this pool's block size.
  [[nodiscard]] std::int64_t blocks_for(std::int64_t tokens) const {
    return (tokens + block_tokens_ - 1) / block_tokens_;
  }

 private:
  [[nodiscard]] std::int64_t slab_offset(std::int32_t block) const {
    return static_cast<std::int64_t>(block) * block_tokens_ * d_model_;
  }

  std::int64_t d_model_;
  std::int64_t block_tokens_;
  std::int64_t total_blocks_;
  // Per layer: total_blocks * block_tokens * d_model floats.
  std::vector<std::vector<float>> k_, v_;

  mutable std::mutex mutex_;        // guards allocated_ and free_
  std::vector<bool> allocated_;     // by block id
  std::vector<std::int32_t> free_;  // free list (LIFO)
};

}  // namespace dpoaf::nn
