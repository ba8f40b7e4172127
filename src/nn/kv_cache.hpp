// Block-paged KV storage with copy-on-write prefix sharing — the
// Orca→vLLM step for the serve layer.
//
// A KvBlockPool owns a fixed budget of fixed-size token blocks. Each block
// holds `block_tokens` rows of keys and values for every layer, so one
// block id names the same token span across the whole model. DecodeSession
// maps positions to storage through a per-sequence block table
// (position p lives in block table[p / block_tokens], row p % block_tokens)
// instead of a private contiguous buffer, which makes three things
// possible:
//
//   * memory-bounded admission — a request is admitted when enough free
//     blocks exist, not when a whole max_seq-sized slab does;
//   * prefix sharing — two sequences with a common token prefix can point
//     their tables at the same physical blocks (refcounted), so shared
//     scenario preambles are prefilled once and reused;
//   * copy-on-write — a sequence that needs to append into a shared,
//     partially-filled block first copies the valid rows into a fresh
//     block, leaving every other reader untouched.
//
// The PrefixTree is the sharing index: a trie keyed on token ids from
// position 0 (K/V rows are position-dependent, so only whole prefixes are
// shareable). Completed prefills anchor their block chains at every
// full-block boundary plus the full prompt depth; admission walks the trie
// and adopts the deepest anchored chain covering the new prompt. Because
// decode is deterministic scalar code, an adopted block holds bit-exactly
// the rows a fresh prefill would have produced — sharing changes how much
// prefill compute runs, never the bytes a request returns.
//
// Thread safety: block allocate/release/refcount mutate shared state under
// an internal mutex (crossing a block boundary happens once per
// block_tokens decode steps, so the lock is far off the hot path); the raw
// k()/v() row storage is lock-free — callers only touch rows their table
// entitles them to. The PrefixTree is NOT thread-safe; the serve scheduler
// confines all matching/insertion/eviction to its own thread.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
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

  /// Take a free block (refcount 1). Throws when the pool is exhausted —
  /// the serve layer's admission reservations make that a logic error,
  /// not an overload condition.
  [[nodiscard]] std::int32_t allocate();

  /// Add / drop a reference. A block whose refcount reaches zero returns
  /// to the free list (ids are recycled LIFO).
  void incref(std::int32_t block);
  void decref(std::int32_t block);

  /// Current refcount (0 = free). A reader that holds its own reference
  /// can use this to decide copy-on-write: >1 means someone else also
  /// sees the block.
  [[nodiscard]] int refcount(std::int32_t block) const;

  /// Copy the first `rows` K and V rows of `src` into `dst` for every
  /// layer — the copy half of copy-on-write.
  void copy_rows(std::int32_t src, std::int32_t dst, std::int64_t rows);

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
  [[nodiscard]] std::int64_t d_model() const { return d_model_; }

  /// Blocks needed to hold `tokens` positions at this pool's block size.
  [[nodiscard]] std::int64_t blocks_for(std::int64_t tokens) const {
    return (tokens + block_tokens_ - 1) / block_tokens_;
  }

 private:
  [[nodiscard]] std::int64_t slab_offset(std::int32_t block) const {
    return static_cast<std::int64_t>(block) * block_tokens_ * d_model_;
  }

  std::int64_t n_layers_;
  std::int64_t d_model_;
  std::int64_t block_tokens_;
  std::int64_t total_blocks_;
  // Per layer: total_blocks * block_tokens * d_model floats.
  std::vector<std::vector<float>> k_, v_;

  mutable std::mutex mutex_;       // guards refcounts_ and free_
  std::vector<int> refcounts_;     // by block id; 0 = free
  std::vector<std::int32_t> free_;  // free list (LIFO)
};

/// Trie over token ids indexing cached prompt prefixes by the block
/// chains that hold their K/V. Single-threaded by contract (see file
/// comment). Every reference the tree holds is counted in the pool, so
/// anchored blocks survive their donor request's retirement until
/// evicted.
class PrefixTree {
 public:
  explicit PrefixTree(KvBlockPool* pool);
  ~PrefixTree();

  PrefixTree(const PrefixTree&) = delete;
  PrefixTree& operator=(const PrefixTree&) = delete;

  /// Result of a prefix lookup: `blocks` covers `tokens` leading
  /// positions of the query. Each returned block has been increffed for
  /// the caller (typically handed straight to DecodeSession::adopt_prefix,
  /// whose release path drops them). tokens == 0 means a miss.
  struct Match {
    std::vector<std::int32_t> blocks;
    std::int64_t tokens = 0;
  };

  /// Deepest cached prefix of prompt[0, limit). If the walk matches all
  /// `limit` tokens, a longer anchored chain may be adopted partially —
  /// the caller uses only the first `tokens` rows and copy-on-write
  /// isolates any append.
  [[nodiscard]] Match match(const std::vector<int>& prompt,
                            std::int64_t limit);

  /// True when tokens[0, len) already has an exact-depth anchor — lets a
  /// caller skip the partial-tail copy that insert() would keep alive.
  [[nodiscard]] bool has_anchor(const int* tokens, std::int64_t len) const;

  /// Anchor `chain` (blocks covering tokens[0, len)) at every full-block
  /// boundary of tokens[0, len) and, when `partial_tail` >= 0, at depth
  /// `len` itself with the partial last block. Full blocks are increffed
  /// by the tree; ownership of the `partial_tail` reference transfers to
  /// the tree (the caller must have allocated or increffed it). Existing
  /// anchors are refreshed, not duplicated.
  void insert(const int* tokens, std::int64_t len,
              const std::vector<std::int32_t>& chain,
              std::int32_t partial_tail);

  /// Drop least-recently-used anchors until the pool has at least
  /// `target_free` free blocks or no anchors remain. Returns the number
  /// of pool blocks actually freed (shared blocks survive eviction until
  /// their other references drop).
  std::int64_t evict_until_free(std::int64_t target_free);

  /// Release every anchor (used at shutdown and in tests).
  void clear();

  [[nodiscard]] std::int64_t anchors() const { return by_stamp_.size(); }

 private:
  struct Node {
    Node* parent = nullptr;
    int token = -1;
    std::int64_t depth = 0;  // tokens from the root
    std::map<int, std::unique_ptr<Node>> children;
    // Anchor: blocks covering positions [0, depth). Empty = no anchor.
    std::vector<std::int32_t> chain;
    std::uint64_t stamp = 0;  // LRU key while anchored (0 = unanchored)
  };

  void touch(Node* node);
  void release_anchor(Node* node);
  void prune_upwards(Node* node);

  KvBlockPool* pool_;
  std::unique_ptr<Node> root_;
  std::map<std::uint64_t, Node*> by_stamp_;  // anchored nodes, LRU order
  std::uint64_t next_stamp_ = 1;
};

}  // namespace dpoaf::nn
