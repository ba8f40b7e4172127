// Block-paged KV storage (src/nn/kv_cache): pool allocate/release/recycle
// invariants, and the decode guarantees the serve layer leans on — logits
// equal to the batch forward's rows byte for byte at every KV block size,
// and every block returned on reset.
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

TEST(KvBlockPool, AllocateReleaseRecycle) {
  nn::KvBlockPool pool(1, 4, 2, 3);
  EXPECT_EQ(pool.total_blocks(), 3);
  EXPECT_EQ(pool.free_blocks(), 3);
  const std::int32_t a = pool.allocate();
  const std::int32_t b = pool.allocate();
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.free_blocks(), 1);
  pool.release(a);
  EXPECT_EQ(pool.free_blocks(), 2);
  // LIFO recycling: the block just freed is handed out next.
  EXPECT_EQ(pool.allocate(), a);
  const std::int32_t c = pool.allocate();
  EXPECT_GE(c, 0);
  EXPECT_EQ(pool.free_blocks(), 0);
  EXPECT_THROW(static_cast<void>(pool.allocate()), ContractViolation);
  // Releasing a free block is a logic error, not a no-op.
  pool.release(b);
  EXPECT_THROW(pool.release(b), ContractViolation);
  EXPECT_THROW(pool.release(-1), ContractViolation);
  EXPECT_THROW(pool.release(3), ContractViolation);
}

TEST(KvBlockPool, BlocksForRoundsUp) {
  nn::KvBlockPool pool(1, 1, 4, 1);
  EXPECT_EQ(pool.blocks_for(0), 0);
  EXPECT_EQ(pool.blocks_for(1), 1);
  EXPECT_EQ(pool.blocks_for(4), 1);
  EXPECT_EQ(pool.blocks_for(5), 2);
  EXPECT_EQ(pool.blocks_for(8), 2);
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

// reset() returns every block; a session cycle leaves the pool where
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
