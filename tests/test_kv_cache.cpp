// Block-paged KV storage (src/nn/kv_cache): pool refcount/recycle
// invariants, prefix-tree anchoring/matching/eviction, and the decode
// guarantees the serve layer leans on — logits equal to the batch
// forward's rows byte for byte at every KV block size, and adopted
// prefixes + copy-on-write reproducing a private prefill exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "nn/decoder.hpp"
#include "nn/gpt.hpp"
#include "nn/kv_cache.hpp"
#include "util/check.hpp"

namespace dpoaf {
namespace {

nn::GptConfig tiny_config(std::int64_t max_seq = 32) {
  nn::GptConfig cfg;
  cfg.vocab_size = 40;
  cfg.d_model = 12;
  cfg.n_heads = 2;
  cfg.n_layers = 2;
  cfg.d_ff = 24;
  cfg.max_seq = max_seq;
  return cfg;
}

// Every parameter perturbed, as after training: nonzero biases and
// layer-norm offsets make a decode that adds them in another order than
// the batch forward show up in a bitwise comparison.
nn::TinyGpt tiny_model(std::uint64_t seed = 5) {
  Rng rng(seed);
  nn::TinyGpt model(tiny_config(), rng);
  for (nn::Tensor p : model.parameters())
    for (std::int64_t i = 0; i < p.numel(); ++i)
      p.data()[i] += static_cast<float>(rng.normal()) * 0.05f;
  return model;
}

std::vector<int> prompt_of(std::initializer_list<int> ids) { return ids; }

TEST(KvBlockPool, AllocateRefcountRecycle) {
  nn::KvBlockPool pool(1, 4, 2, 3);
  EXPECT_EQ(pool.total_blocks(), 3);
  EXPECT_EQ(pool.free_blocks(), 3);
  const std::int32_t a = pool.allocate();
  const std::int32_t b = pool.allocate();
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.free_blocks(), 1);
  EXPECT_EQ(pool.refcount(a), 1);
  pool.incref(a);
  EXPECT_EQ(pool.refcount(a), 2);
  pool.decref(a);
  EXPECT_EQ(pool.refcount(a), 1);
  pool.decref(a);
  EXPECT_EQ(pool.refcount(a), 0);
  EXPECT_EQ(pool.free_blocks(), 2);
  // LIFO recycling: the block just freed is handed out next.
  EXPECT_EQ(pool.allocate(), a);
  const std::int32_t c = pool.allocate();
  EXPECT_GE(c, 0);
  EXPECT_EQ(pool.free_blocks(), 0);
  EXPECT_THROW(static_cast<void>(pool.allocate()), ContractViolation);
  // Refcounting a free block is a logic error, not a no-op.
  pool.decref(b);
  EXPECT_THROW(pool.decref(b), ContractViolation);
  EXPECT_THROW(pool.incref(b), ContractViolation);
}

TEST(KvBlockPool, BlocksForRoundsUp) {
  nn::KvBlockPool pool(1, 1, 4, 1);
  EXPECT_EQ(pool.blocks_for(0), 0);
  EXPECT_EQ(pool.blocks_for(1), 1);
  EXPECT_EQ(pool.blocks_for(4), 1);
  EXPECT_EQ(pool.blocks_for(5), 2);
  EXPECT_EQ(pool.blocks_for(8), 2);
}

TEST(KvBlockPool, CopyRowsCopiesPrefixAcrossLayers) {
  const std::int64_t layers = 2, d = 3, bt = 4;
  nn::KvBlockPool pool(layers, d, bt, 2);
  const std::int32_t src = pool.allocate();
  const std::int32_t dst = pool.allocate();
  for (std::int64_t l = 0; l < layers; ++l)
    for (std::int64_t i = 0; i < bt * d; ++i) {
      pool.k(l, src)[i] = static_cast<float>(100 * l + i);
      pool.v(l, src)[i] = static_cast<float>(-100 * l - i);
      pool.k(l, dst)[i] = -1.0f;
      pool.v(l, dst)[i] = -1.0f;
    }
  pool.copy_rows(src, dst, 2);  // rows [0, 2) only
  for (std::int64_t l = 0; l < layers; ++l)
    for (std::int64_t i = 0; i < bt * d; ++i) {
      if (i < 2 * d) {
        EXPECT_EQ(pool.k(l, dst)[i], pool.k(l, src)[i]);
        EXPECT_EQ(pool.v(l, dst)[i], pool.v(l, src)[i]);
      } else {
        EXPECT_EQ(pool.k(l, dst)[i], -1.0f);  // rows past the copy untouched
        EXPECT_EQ(pool.v(l, dst)[i], -1.0f);
      }
    }
}

TEST(PrefixTree, MatchMissesOnEmptyTreeAndForeignPrompt) {
  nn::KvBlockPool pool(1, 2, 2, 4);
  nn::PrefixTree tree(&pool);
  EXPECT_EQ(tree.match(prompt_of({1, 2, 3}), 3).tokens, 0);
  const std::int32_t b0 = pool.allocate();
  tree.insert(prompt_of({7, 8}).data(), 2, {b0}, -1);
  pool.decref(b0);  // tree holds its own reference now
  EXPECT_EQ(tree.match(prompt_of({1, 2}), 2).tokens, 0);
  EXPECT_EQ(tree.anchors(), 1);
}

TEST(PrefixTree, InsertAnchorsBoundariesAndMatchesDeepestPrefix) {
  nn::KvBlockPool pool(1, 2, 2, 8);  // two tokens per block
  nn::PrefixTree tree(&pool);
  const std::vector<std::int32_t> chain = {pool.allocate(), pool.allocate()};
  const auto toks = prompt_of({4, 5, 6, 7});
  tree.insert(toks.data(), 4, chain, -1);
  EXPECT_EQ(tree.anchors(), 2);  // depths 2 and 4
  EXPECT_EQ(pool.refcount(chain[0]), 3);  // ours + both anchors
  EXPECT_EQ(pool.refcount(chain[1]), 2);  // ours + depth-4 anchor

  // Full match at a boundary.
  auto m = tree.match(prompt_of({4, 5, 6, 7, 9}), 4);
  EXPECT_EQ(m.tokens, 4);
  ASSERT_EQ(m.blocks.size(), 2u);
  EXPECT_EQ(m.blocks[0], chain[0]);
  EXPECT_EQ(m.blocks[1], chain[1]);
  for (const std::int32_t b : m.blocks) pool.decref(b);

  // Diverging after two tokens adopts the depth-2 anchor only.
  m = tree.match(prompt_of({4, 5, 9, 9}), 4);
  EXPECT_EQ(m.tokens, 2);
  ASSERT_EQ(m.blocks.size(), 1u);
  EXPECT_EQ(m.blocks[0], chain[0]);
  for (const std::int32_t b : m.blocks) pool.decref(b);

  // A limit that lands mid-block adopts a deeper anchor's leading blocks:
  // limit 3 rows live in chain[0..1] of the depth-4 anchor.
  m = tree.match(prompt_of({4, 5, 6}), 3);
  EXPECT_EQ(m.tokens, 3);
  ASSERT_EQ(m.blocks.size(), 2u);
  for (const std::int32_t b : m.blocks) pool.decref(b);
}

TEST(PrefixTree, PartialTailAnchorIsOwnedAndMatchable) {
  nn::KvBlockPool pool(1, 2, 4, 4);
  nn::PrefixTree tree(&pool);
  const std::int32_t full = pool.allocate();
  const std::int32_t tail = pool.allocate();  // ownership moves to the tree
  const auto toks = prompt_of({1, 2, 3, 4, 5, 6});
  EXPECT_FALSE(tree.has_anchor(toks.data(), 6));
  tree.insert(toks.data(), 6, {full}, tail);
  EXPECT_TRUE(tree.has_anchor(toks.data(), 6));
  EXPECT_EQ(tree.anchors(), 2);           // depth 4 (boundary) + depth 6
  EXPECT_EQ(pool.refcount(tail), 1);      // transferred, not increffed
  auto m = tree.match(toks, 6);
  EXPECT_EQ(m.tokens, 6);
  ASSERT_EQ(m.blocks.size(), 2u);
  EXPECT_EQ(m.blocks[1], tail);
  for (const std::int32_t b : m.blocks) pool.decref(b);
  // Without a partial tail, nothing past the last boundary is anchored.
  const auto other = prompt_of({9, 8, 7, 6, 5});
  const std::int32_t full2 = pool.allocate();
  tree.insert(other.data(), 5, {full2}, -1);
  pool.decref(full2);
  EXPECT_FALSE(tree.has_anchor(other.data(), 5));
  EXPECT_TRUE(tree.has_anchor(other.data(), 4));
}

TEST(PrefixTree, EvictionIsLruAndSparesSharedBlocks) {
  nn::KvBlockPool pool(1, 2, 2, 6);
  nn::PrefixTree tree(&pool);
  const std::int32_t a = pool.allocate();
  const std::int32_t b = pool.allocate();
  const auto ta = prompt_of({1, 1});
  const auto tb = prompt_of({2, 2});
  tree.insert(ta.data(), 2, {a}, -1);
  tree.insert(tb.data(), 2, {b}, -1);
  pool.decref(b);  // only the tree holds b; we still hold a
  EXPECT_EQ(pool.free_blocks(), 4);
  // Oldest anchor goes first, but block a survives: we still reference it.
  EXPECT_EQ(tree.evict_until_free(5), 1);
  EXPECT_EQ(tree.anchors(), 0);
  EXPECT_EQ(pool.refcount(a), 1);
  EXPECT_EQ(pool.free_blocks(), 5);
  pool.decref(a);
  // clear() releases everything the tree still holds.
  const std::int32_t c = pool.allocate();
  tree.insert(ta.data(), 2, {c}, -1);
  pool.decref(c);
  tree.clear();
  EXPECT_EQ(pool.free_blocks(), 6);
}

// Row t of the batch forward must be the bytes of decode step t.
void expect_row(const nn::Tensor& batch, std::size_t t,
                const std::vector<float>& got) {
  ASSERT_EQ(0, std::memcmp(got.data(),
                           batch.data() + static_cast<std::int64_t>(t) *
                                              batch.cols(),
                           got.size() * sizeof(float)))
      << "position " << t;
}

// Logits must be the batch forward's rows at every block size: attention
// gathers kᵀ and v position by position, whatever the block geometry
// beneath the table.
TEST(PagedDecode, LogitsBitIdenticalAcrossBlockSizes) {
  const nn::TinyGpt model = tiny_model();
  Rng rng(11);
  std::vector<int> ids(20);
  for (auto& t : ids) t = static_cast<int>(rng.below(40));
  const nn::Tensor batch = model.forward(nullptr, ids);
  for (const std::int64_t bt : {std::int64_t{1}, std::int64_t{3},
                                std::int64_t{16}, model.config().max_seq}) {
    nn::DecodeSession session(model, nullptr, bt);
    SCOPED_TRACE("block_tokens " + std::to_string(bt));
    for (std::size_t i = 0; i < ids.size(); ++i)
      expect_row(batch, i, session.step(ids[i]));
  }
}

// Adopting a cached prefix must reproduce a private prefill and the batch
// forward bitwise, and copy-on-write must keep the donor blocks untouched
// while both adopters diverge.
TEST(PagedDecode, AdoptedPrefixAndCowMatchPrivatePrefill) {
  const nn::TinyGpt model = tiny_model();
  const auto& cfg = model.config();
  const std::int64_t bt = 4;
  nn::KvBlockPool pool(cfg.n_layers, cfg.d_model, bt,
                       4 * ((cfg.max_seq + bt - 1) / bt));
  nn::PrefixTree tree(&pool);
  const std::vector<int> preamble = {3, 1, 4, 1, 5, 9};  // 6 = 1.5 blocks

  // Donor prefills the preamble and anchors it (partial tail snapshot).
  nn::DecodeSession donor(model, &pool);
  for (const int t : preamble) donor.step(t);
  const auto& chain = donor.block_table();
  const std::int32_t tail_copy = pool.allocate();
  pool.copy_rows(chain[1], tail_copy, 6 % bt);
  tree.insert(preamble.data(), 6, chain, tail_copy);

  for (const int divergent : {7, 8}) {
    auto m = tree.match(preamble, 6);
    ASSERT_EQ(m.tokens, 6);
    nn::DecodeSession adopter(model, &pool);
    adopter.adopt_prefix(m.blocks, m.tokens);
    EXPECT_TRUE(adopter.pending_cow());

    nn::DecodeSession fresh(model, &pool);
    for (const int t : preamble) fresh.step(t);

    const std::vector<int> suffix = {divergent, 2, 6};
    std::vector<int> full = preamble;
    full.insert(full.end(), suffix.begin(), suffix.end());
    const nn::Tensor batch = model.forward(nullptr, full);
    for (std::size_t i = 0; i < suffix.size(); ++i) {
      SCOPED_TRACE("divergent " + std::to_string(divergent));
      const auto& got = adopter.step(suffix[i]);
      const auto& want = fresh.step(suffix[i]);
      ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                               want.size() * sizeof(float)))
          << "token " << suffix[i];
      expect_row(batch, preamble.size() + i, got);
    }
    // The shared tail was copied before the first append...
    EXPECT_EQ(adopter.cow_copies(), 1);
    EXPECT_FALSE(adopter.pending_cow());
    // ...so the tree's anchor still matches for the next adopter.
    EXPECT_TRUE(tree.has_anchor(preamble.data(), 6));
  }
  // Full-block adoption (limit at a boundary) needs no copy-on-write for
  // the adopted blocks themselves.
  auto m = tree.match(preamble, 4);
  ASSERT_EQ(m.tokens, 4);
  nn::DecodeSession boundary(model, &pool);
  boundary.adopt_prefix(m.blocks, m.tokens);
  EXPECT_FALSE(boundary.pending_cow());
  expect_row(model.forward(nullptr, {3, 1, 4, 1, 5}), 4,
             boundary.step(preamble[4]));
  EXPECT_EQ(boundary.cow_copies(), 0);
  // Appends went into a fresh block, never the shared one.
  EXPECT_NE(boundary.block_table()[1], chain[1]);
}

// reset() returns every reference; a session cycle leaves the pool where
// it started.
TEST(PagedDecode, ResetReleasesAllBlocks) {
  const nn::TinyGpt model = tiny_model();
  const auto& cfg = model.config();
  nn::KvBlockPool pool(cfg.n_layers, cfg.d_model, 4, 16);
  const std::int64_t before = pool.free_blocks();
  nn::DecodeSession session(model, &pool);
  for (int t = 0; t < 10; ++t) session.step(t);
  EXPECT_LT(pool.free_blocks(), before);
  session.reset();
  EXPECT_EQ(pool.free_blocks(), before);
  EXPECT_EQ(session.position(), 0);
}

}  // namespace
}  // namespace dpoaf
