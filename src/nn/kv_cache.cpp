#include "nn/kv_cache.hpp"

#include <algorithm>
#include <cstring>

#include "util/check.hpp"

namespace dpoaf::nn {

KvBlockPool::KvBlockPool(std::int64_t n_layers, std::int64_t d_model,
                         std::int64_t block_tokens, std::int64_t total_blocks)
    : n_layers_(n_layers),
      d_model_(d_model),
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
  refcounts_.assign(static_cast<std::size_t>(total_blocks), 0);
  free_.reserve(static_cast<std::size_t>(total_blocks));
  // LIFO free list seeded so the first allocations hand out low ids.
  for (std::int64_t b = total_blocks - 1; b >= 0; --b)
    free_.push_back(static_cast<std::int32_t>(b));
}

std::int32_t KvBlockPool::allocate() {
  std::lock_guard<std::mutex> lock(mutex_);
  DPOAF_CHECK_MSG(!free_.empty(),
                  "KV block pool exhausted — admission reservations must "
                  "cover every allocation");
  const std::int32_t b = free_.back();
  free_.pop_back();
  refcounts_[static_cast<std::size_t>(b)] = 1;
  return b;
}

void KvBlockPool::incref(std::int32_t block) {
  std::lock_guard<std::mutex> lock(mutex_);
  DPOAF_CHECK(block >= 0 && block < total_blocks_);
  DPOAF_CHECK(refcounts_[static_cast<std::size_t>(block)] > 0);
  ++refcounts_[static_cast<std::size_t>(block)];
}

void KvBlockPool::decref(std::int32_t block) {
  std::lock_guard<std::mutex> lock(mutex_);
  DPOAF_CHECK(block >= 0 && block < total_blocks_);
  int& rc = refcounts_[static_cast<std::size_t>(block)];
  DPOAF_CHECK(rc > 0);
  if (--rc == 0) free_.push_back(block);
}

int KvBlockPool::refcount(std::int32_t block) const {
  std::lock_guard<std::mutex> lock(mutex_);
  DPOAF_CHECK(block >= 0 && block < total_blocks_);
  return refcounts_[static_cast<std::size_t>(block)];
}

void KvBlockPool::copy_rows(std::int32_t src, std::int32_t dst,
                            std::int64_t rows) {
  DPOAF_CHECK(rows >= 0 && rows <= block_tokens_);
  const std::size_t n =
      static_cast<std::size_t>(rows) * static_cast<std::size_t>(d_model_);
  if (n == 0) return;
  for (std::int64_t l = 0; l < n_layers_; ++l) {
    std::memcpy(k(l, dst), k(l, src), n * sizeof(float));
    std::memcpy(v(l, dst), v(l, src), n * sizeof(float));
  }
}

std::int64_t KvBlockPool::free_blocks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<std::int64_t>(free_.size());
}

// ---------------------------------------------------------------------------

PrefixTree::PrefixTree(KvBlockPool* pool)
    : pool_(pool), root_(std::make_unique<Node>()) {
  DPOAF_CHECK(pool != nullptr);
}

PrefixTree::~PrefixTree() { clear(); }

void PrefixTree::touch(Node* node) {
  by_stamp_.erase(node->stamp);
  node->stamp = next_stamp_++;
  by_stamp_.emplace(node->stamp, node);
}

PrefixTree::Match PrefixTree::match(const std::vector<int>& prompt,
                                    std::int64_t limit) {
  limit = std::min<std::int64_t>(limit,
                                 static_cast<std::int64_t>(prompt.size()));
  Match out;
  if (limit <= 0) return out;
  Node* node = root_.get();
  Node* best = nullptr;  // deepest anchored node on the walked path
  std::int64_t matched = 0;
  while (matched < limit) {
    const auto it = node->children.find(prompt[static_cast<std::size_t>(
        matched)]);
    if (it == node->children.end()) break;
    node = it->second.get();
    ++matched;
    if (!node->chain.empty()) best = node;
  }
  std::int64_t covered = best != nullptr ? best->depth : 0;
  if (matched == limit) {
    // Every queried token is in the trie; any anchor at or below the walk
    // end covers our whole prefix (its chain's leading blocks hold
    // exactly these positions). Descend the smallest-token branch — every
    // leaf is anchored by construction.
    Node* probe = node;
    while (probe->chain.empty() && !probe->children.empty())
      probe = probe->children.begin()->second.get();
    if (!probe->chain.empty() && probe->depth >= limit) {
      best = probe;
      covered = limit;
    }
  }
  if (best == nullptr || covered <= 0) return out;
  const std::int64_t n_blocks = pool_->blocks_for(covered);
  out.blocks.assign(best->chain.begin(), best->chain.begin() + n_blocks);
  out.tokens = covered;
  for (const std::int32_t b : out.blocks) pool_->incref(b);
  touch(best);
  return out;
}

bool PrefixTree::has_anchor(const int* tokens, std::int64_t len) const {
  const Node* node = root_.get();
  for (std::int64_t i = 0; i < len; ++i) {
    const auto it = node->children.find(tokens[i]);
    if (it == node->children.end()) return false;
    node = it->second.get();
  }
  return !node->chain.empty();
}

void PrefixTree::insert(const int* tokens, std::int64_t len,
                        const std::vector<std::int32_t>& chain,
                        std::int32_t partial_tail) {
  const std::int64_t bt = pool_->block_tokens();
  if (len <= 0) {
    if (partial_tail >= 0) pool_->decref(partial_tail);
    return;
  }
  DPOAF_CHECK(static_cast<std::int64_t>(chain.size()) >= len / bt);
  // Without a partial-tail block there is nothing to anchor past the last
  // full-block boundary, so don't grow unprunable nodes there.
  if (partial_tail < 0) len = (len / bt) * bt;
  Node* node = root_.get();
  bool tail_consumed = false;
  for (std::int64_t i = 0; i < len; ++i) {
    auto& child = node->children[tokens[i]];
    if (!child) {
      child = std::make_unique<Node>();
      child->parent = node;
      child->token = tokens[i];
      child->depth = node->depth + 1;
    }
    node = child.get();
    const std::int64_t depth = i + 1;
    const bool boundary = depth % bt == 0;
    const bool final_partial = depth == len && !boundary;
    if (!boundary && !final_partial) continue;
    if (!node->chain.empty()) {
      // Same tokens from position 0 produce bit-identical K/V, so the
      // existing anchor is as good as ours — just refresh its LRU slot.
      touch(node);
      continue;
    }
    if (boundary) {
      const std::int64_t n_blocks = depth / bt;
      node->chain.assign(chain.begin(), chain.begin() + n_blocks);
      for (const std::int32_t b : node->chain) pool_->incref(b);
      touch(node);
    } else if (partial_tail >= 0) {
      // Full blocks are shared references; the partial tail is the
      // caller-provided copy, whose reference we now own.
      node->chain.assign(chain.begin(), chain.begin() + len / bt);
      for (const std::int32_t b : node->chain) pool_->incref(b);
      node->chain.push_back(partial_tail);
      tail_consumed = true;
      touch(node);
    }
  }
  if (partial_tail >= 0 && !tail_consumed) pool_->decref(partial_tail);
}

void PrefixTree::release_anchor(Node* node) {
  for (const std::int32_t b : node->chain) pool_->decref(b);
  node->chain.clear();
  by_stamp_.erase(node->stamp);
  node->stamp = 0;
}

void PrefixTree::prune_upwards(Node* node) {
  while (node != root_.get() && node->children.empty() &&
         node->chain.empty()) {
    Node* parent = node->parent;
    parent->children.erase(node->token);  // destroys `node`
    node = parent;
  }
}

std::int64_t PrefixTree::evict_until_free(std::int64_t target_free) {
  std::int64_t freed = 0;
  while (pool_->free_blocks() < target_free && !by_stamp_.empty()) {
    Node* node = by_stamp_.begin()->second;
    const std::int64_t before = pool_->free_blocks();
    release_anchor(node);
    prune_upwards(node);
    freed += pool_->free_blocks() - before;
  }
  return freed;
}

void PrefixTree::clear() {
  while (!by_stamp_.empty()) {
    Node* node = by_stamp_.begin()->second;
    release_anchor(node);
    prune_upwards(node);
  }
}

}  // namespace dpoaf::nn
