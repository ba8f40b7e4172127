// Checkpoint subsystem tests: binary framing (CRC32, the little-endian
// codec), corruption/truncation/version rejection, crafted counts and a
// byte-mutation fuzz of the loader, full TrainingCheckpoint round-trips
// (empty buffers, LoRA on/off), atomic save/load, retained-last-K
// rotation, and resume-path resolution. The end-to-end bitwise resume
// properties live in tests/test_properties.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt/format.hpp"
#include "ckpt/store.hpp"
#include "nn/gpt.hpp"

namespace dpoaf {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(Crc32Test, MatchesIeee8023TestVector) {
  const char* s = "123456789";
  EXPECT_EQ(ckpt::crc32(reinterpret_cast<const std::uint8_t*>(s), 9),
            0xCBF43926u);
  EXPECT_EQ(ckpt::crc32(nullptr, 0), 0u);
}

TEST(ByteCodecTest, PrimitivesRoundTripBitExactly) {
  const std::uint8_t u8 = 0xAB;
  const std::uint32_t u32 = 0xDEADBEEFu;
  const std::uint64_t u64 = 0x0123456789ABCDEFull;
  const std::int32_t i32 = -42;
  const std::int64_t i64 = -1234567890123LL;
  const float f32 = -0.0f;
  const double f64 = std::numeric_limits<double>::quiet_NaN();
  const std::string str = "hello world";
  const std::vector<float> floats = {1.5f, -2.25f, 0.0f};
  const std::vector<double> doubles = {3.14159, -1e300};
  const std::vector<std::uint64_t> u64s = {7, 0, 0xFFFFFFFFFFFFFFFFull};
  const std::vector<int> ints = {-1, 0, 1};
  const std::array<std::uint64_t, 2> words = {5, 6};
  const std::pair<std::string, double> named = {"go", 0.5};
  ckpt::ByteWriter w;
  w(u8, u32, u64, i32, i64, f32, f64, str, floats, doubles, u64s, ints, words,
    named);
  // Fixed widths, u64 length prefixes on strings and vectors, none on
  // arrays and pairs.
  EXPECT_EQ(w.buffer().size(), 1u + 4 + 8 + 4 + 8 + 4 + 8 + (8 + 11) +
                                   (8 + 12) + (8 + 16) + (8 + 24) + (8 + 12) +
                                   16 + (8 + 2 + 8));
  // Little-endian: the u32 lands low byte first.
  EXPECT_EQ(w.buffer()[1], 0xEF);
  EXPECT_EQ(w.buffer()[4], 0xDE);

  std::uint8_t r_u8 = 0;
  std::uint32_t r_u32 = 0;
  std::uint64_t r_u64 = 0;
  std::int32_t r_i32 = 0;
  std::int64_t r_i64 = 0;
  float r_f32 = 1.0f;
  double r_f64 = 0.0;
  std::string r_str;
  std::vector<float> r_floats;
  std::vector<double> r_doubles;
  std::vector<std::uint64_t> r_u64s;
  std::vector<int> r_ints;
  std::array<std::uint64_t, 2> r_words{};
  std::pair<std::string, double> r_named;
  ckpt::ByteReader r(w.buffer().data(), w.buffer().size(), "test payload");
  r(r_u8, r_u32, r_u64, r_i32, r_i64, r_f32, r_f64, r_str, r_floats,
    r_doubles, r_u64s, r_ints, r_words, r_named);
  EXPECT_EQ(r_u8, u8);
  EXPECT_EQ(r_u32, u32);
  EXPECT_EQ(r_u64, u64);
  EXPECT_EQ(r_i32, i32);
  EXPECT_EQ(r_i64, i64);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(r_f32),
            std::bit_cast<std::uint32_t>(f32));
  EXPECT_TRUE(std::isnan(r_f64));
  EXPECT_EQ(r_str, str);
  EXPECT_EQ(r_floats, floats);
  EXPECT_EQ(r_doubles, doubles);
  EXPECT_EQ(r_u64s, u64s);
  EXPECT_EQ(r_ints, ints);
  EXPECT_EQ(r_words, words);
  EXPECT_EQ(r_named, named);
  EXPECT_NO_THROW(r.expect_done());
}

TEST(ByteCodecTest, ReaderRejectsOverruns) {
  ckpt::ByteWriter w;
  w(std::uint32_t{7});
  ckpt::ByteReader r(w.buffer().data(), w.buffer().size(), "tiny payload");
  std::uint32_t word = 0;
  r(word);
  std::uint8_t byte = 0;
  EXPECT_THROW(r(byte), ckpt::CheckpointError);
}

TEST(ByteCodecTest, ReaderRejectsHugeBogusElementCount) {
  // A corrupted length prefix must fail fast, not allocate.
  ckpt::ByteWriter w;
  w(std::uint64_t{0xFFFFFFFFFFFFFFFFull});
  ckpt::ByteReader r(w.buffer().data(), w.buffer().size(), "bogus count");
  std::vector<float> floats;
  EXPECT_THROW(r(floats), ckpt::CheckpointError);
}

// ------------------------------------------------------------ framing ---

std::vector<ckpt::Section> sample_sections() {
  ckpt::ByteWriter a;
  a(std::string("alpha"));
  ckpt::ByteWriter b;  // empty payload is legal
  return {{"AAAA", a.take()}, {"BBBB", b.take()}};
}

TEST(SectionsTest, PackUnpackRoundTrips) {
  const auto bytes = ckpt::pack_sections(sample_sections());
  const auto sections = ckpt::unpack_sections(bytes.data(), bytes.size());
  ASSERT_EQ(sections.size(), 2u);
  EXPECT_EQ(sections[0].tag, "AAAA");
  EXPECT_EQ(sections[1].tag, "BBBB");
  EXPECT_TRUE(sections[1].payload.empty());
}

TEST(SectionsTest, RejectsBadMagic) {
  auto bytes = ckpt::pack_sections(sample_sections());
  bytes[0] = 'X';
  try {
    (void)ckpt::unpack_sections(bytes.data(), bytes.size());
    FAIL() << "bad magic accepted";
  } catch (const ckpt::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos);
  }
}

TEST(SectionsTest, RejectsFutureSchemaVersion) {
  auto bytes = ckpt::pack_sections(sample_sections());
  // The u32 version sits right after the 4-byte magic (little-endian).
  bytes[4] = static_cast<std::uint8_t>(ckpt::kSchemaVersion + 1);
  try {
    (void)ckpt::unpack_sections(bytes.data(), bytes.size());
    FAIL() << "future version accepted";
  } catch (const ckpt::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("newer than this build"),
              std::string::npos);
  }
}

TEST(SectionsTest, RejectsCorruptedPayload) {
  auto bytes = ckpt::pack_sections(sample_sections());
  bytes.back() ^= 0x01;  // flip a bit inside the last payload
  try {
    (void)ckpt::unpack_sections(bytes.data(), bytes.size());
    FAIL() << "corruption accepted";
  } catch (const ckpt::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("CRC mismatch"), std::string::npos);
  }
}

TEST(SectionsTest, RejectsTruncatedFile) {
  auto bytes = ckpt::pack_sections(sample_sections());
  bytes.resize(bytes.size() - 3);
  EXPECT_THROW((void)ckpt::unpack_sections(bytes.data(), bytes.size()),
               ckpt::CheckpointError);
}

TEST(SectionsTest, RejectsTrailingGarbage) {
  auto bytes = ckpt::pack_sections(sample_sections());
  bytes.push_back(0x00);
  EXPECT_THROW((void)ckpt::unpack_sections(bytes.data(), bytes.size()),
               ckpt::CheckpointError);
}

// ----------------------------------------------------------- document ---

ckpt::TrainingCheckpoint sample_checkpoint() {
  ckpt::TrainingCheckpoint c;
  c.stage = ckpt::Stage::kDpo;
  c.loop.completed_epochs = 7;
  c.pipeline_seed = 23;
  c.model_config = {/*vocab_size=*/11, /*d_model=*/8, /*n_heads=*/2,
                    /*n_layers=*/1, /*d_ff=*/16, /*max_seq=*/12,
                    /*init_scale=*/0.02f};
  c.lora_rank = 2;
  c.lora_alpha = 4.0f;
  c.vocab = {"<s>", "</s>", "go", "stop"};
  c.loop.weights = {0.25f, -1.0f, 3.5f};
  c.reference_state = {0.0f, 0.125f};
  c.loop.opt_m = {{1.0f, 2.0f}, {}};
  c.loop.opt_v = {{0.5f, 0.25f}, {}};
  c.loop.opt_steps = 99;
  c.loop.rng_state = {1, 2, 3, 4};
  c.loop.order = {2, 0, 1};
  c.dpo_history = {{1, 0.5, 0.75, 0.1, -0.01}};
  dpo::CheckpointEval eval;
  eval.epoch = 5;
  eval.train_mean_satisfied = 12.5;
  eval.val_mean_satisfied = 11.0;
  eval.train_alignment_failure_rate = 0.125;
  eval.val_alignment_failure_rate = 0.0;
  eval.truncated_responses = 2;
  eval.per_task = {{"merge", 13.0}, {"stop_sign", 12.0}};
  eval.per_task_alignment_failure = {0.0, 0.25};
  c.evals = {eval};
  dpo::PreferencePair pair;
  pair.task_id = "merge";
  pair.chosen = {0, 2, 1};
  pair.rejected = {0, 3, 1};
  pair.prompt_len = 1;
  pair.score_chosen = 13;
  pair.score_rejected = 4;
  c.pairs = {pair};
  c.pretrain_losses = {2.5, 1.25};
  return c;
}

void expect_checkpoints_equal(const ckpt::TrainingCheckpoint& a,
                              const ckpt::TrainingCheckpoint& b) {
  EXPECT_EQ(a.stage, b.stage);
  EXPECT_EQ(a.loop.completed_epochs, b.loop.completed_epochs);
  EXPECT_EQ(a.pipeline_seed, b.pipeline_seed);
  EXPECT_EQ(a.model_config.vocab_size, b.model_config.vocab_size);
  EXPECT_EQ(a.model_config.d_model, b.model_config.d_model);
  EXPECT_EQ(a.model_config.n_heads, b.model_config.n_heads);
  EXPECT_EQ(a.model_config.n_layers, b.model_config.n_layers);
  EXPECT_EQ(a.model_config.d_ff, b.model_config.d_ff);
  EXPECT_EQ(a.model_config.max_seq, b.model_config.max_seq);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(a.model_config.init_scale),
            std::bit_cast<std::uint32_t>(b.model_config.init_scale));
  EXPECT_EQ(a.lora_rank, b.lora_rank);
  EXPECT_EQ(a.lora_alpha, b.lora_alpha);
  EXPECT_EQ(a.vocab, b.vocab);
  EXPECT_EQ(a.loop.weights, b.loop.weights);
  EXPECT_EQ(a.reference_state, b.reference_state);
  EXPECT_EQ(a.loop.opt_m, b.loop.opt_m);
  EXPECT_EQ(a.loop.opt_v, b.loop.opt_v);
  EXPECT_EQ(a.loop.opt_steps, b.loop.opt_steps);
  EXPECT_EQ(a.loop.rng_state, b.loop.rng_state);
  EXPECT_EQ(a.loop.order, b.loop.order);
  ASSERT_EQ(a.dpo_history.size(), b.dpo_history.size());
  for (std::size_t i = 0; i < a.dpo_history.size(); ++i) {
    EXPECT_EQ(a.dpo_history[i].epoch, b.dpo_history[i].epoch);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.dpo_history[i].loss),
              std::bit_cast<std::uint64_t>(b.dpo_history[i].loss));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.dpo_history[i].kl),
              std::bit_cast<std::uint64_t>(b.dpo_history[i].kl));
  }
  ASSERT_EQ(a.evals.size(), b.evals.size());
  for (std::size_t i = 0; i < a.evals.size(); ++i) {
    EXPECT_EQ(a.evals[i].epoch, b.evals[i].epoch);
    EXPECT_EQ(a.evals[i].per_task, b.evals[i].per_task);
    EXPECT_EQ(a.evals[i].per_task_alignment_failure,
              b.evals[i].per_task_alignment_failure);
    EXPECT_EQ(a.evals[i].truncated_responses, b.evals[i].truncated_responses);
  }
  ASSERT_EQ(a.pairs.size(), b.pairs.size());
  for (std::size_t i = 0; i < a.pairs.size(); ++i) {
    EXPECT_EQ(a.pairs[i].task_id, b.pairs[i].task_id);
    EXPECT_EQ(a.pairs[i].chosen, b.pairs[i].chosen);
    EXPECT_EQ(a.pairs[i].rejected, b.pairs[i].rejected);
    EXPECT_EQ(a.pairs[i].prompt_len, b.pairs[i].prompt_len);
    EXPECT_EQ(a.pairs[i].score_chosen, b.pairs[i].score_chosen);
    EXPECT_EQ(a.pairs[i].score_rejected, b.pairs[i].score_rejected);
  }
  EXPECT_EQ(a.pretrain_losses, b.pretrain_losses);
}

TEST(CheckpointTest, SerializeDeserializeRoundTrips) {
  const auto original = sample_checkpoint();
  const auto bytes = ckpt::serialize(original);
  const auto restored = ckpt::deserialize(bytes.data(), bytes.size());
  expect_checkpoints_equal(original, restored);
}

TEST(CheckpointTest, ByteLayoutIsPinned) {
  // Round trips cannot see a layout drift that reader and writer share.
  // The size and CRC of the whole container were captured before the
  // in-memory checkpoint types were restructured: the .dpoaf bytes must
  // not move when only the C++ layout does.
  const auto bytes = ckpt::serialize(sample_checkpoint());
  EXPECT_EQ(bytes.size(), 764u);
  EXPECT_EQ(ckpt::crc32(bytes.data(), bytes.size()), 0xD8B7705Bu);
}

TEST(CheckpointTest, RejectsMissingSection) {
  // Repack without the WPOL section; the reader must name what's missing.
  const auto bytes = ckpt::serialize(sample_checkpoint());
  auto sections = ckpt::unpack_sections(bytes.data(), bytes.size());
  sections.erase(std::remove_if(sections.begin(), sections.end(),
                                [](const ckpt::Section& s) {
                                  return s.tag == "WPOL";
                                }),
                 sections.end());
  const auto repacked = ckpt::pack_sections(sections);
  try {
    (void)ckpt::deserialize(repacked.data(), repacked.size());
    FAIL() << "missing section accepted";
  } catch (const ckpt::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("WPOL"), std::string::npos);
  }
}

TEST(CheckpointTest, LoraStateRoundTripsThroughModel) {
  // The flat policy snapshot must restore a LoRA-enabled model exactly,
  // and a LoRA-free model too (the two layouts have different lengths).
  nn::GptConfig cfg;
  cfg.vocab_size = 13;
  cfg.d_model = 8;
  cfg.n_heads = 2;
  cfg.n_layers = 1;
  cfg.d_ff = 16;
  cfg.max_seq = 12;
  for (const bool lora : {false, true}) {
    Rng rng(7);
    nn::TinyGpt model(cfg, rng);
    if (lora) model.enable_lora(2, 4.0f, rng);
    ckpt::TrainingCheckpoint c = sample_checkpoint();
    c.loop.weights = model.state();
    const auto bytes = ckpt::serialize(c);
    const auto restored = ckpt::deserialize(bytes.data(), bytes.size());
    nn::TinyGpt clone = model.clone();
    clone.load_state(restored.loop.weights);
    EXPECT_EQ(clone.state(), model.state()) << "lora=" << lora;
  }
}

TEST(CheckpointTest, SaveIsAtomicAndLoadable) {
  const fs::path dir = fresh_dir("ckpt_atomic");
  const fs::path path = dir / "snap.dpoaf";
  const auto original = sample_checkpoint();
  ckpt::save_checkpoint(path, original);
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(dir / "snap.dpoaf.tmp"));  // renamed away
  expect_checkpoints_equal(original, ckpt::load_checkpoint(path));
}

TEST(CheckpointTest, LoadRejectsTruncatedFile) {
  const fs::path dir = fresh_dir("ckpt_truncated");
  const fs::path path = dir / "snap.dpoaf";
  ckpt::save_checkpoint(path, sample_checkpoint());
  const auto size = fs::file_size(path);
  fs::resize_file(path, size / 2);
  EXPECT_THROW((void)ckpt::load_checkpoint(path), ckpt::CheckpointError);
}

TEST(CheckpointTest, DescribeFileListsSections) {
  const fs::path dir = fresh_dir("ckpt_describe");
  const fs::path path = dir / "snap.dpoaf";
  ckpt::save_checkpoint(path, sample_checkpoint());
  const std::string text = ckpt::describe_file(path);
  EXPECT_NE(text.find("META"), std::string::npos);
  EXPECT_NE(text.find("WPOL"), std::string::npos);
  EXPECT_NE(text.find("stage:"), std::string::npos);
  EXPECT_NE(text.find("dpo"), std::string::npos);
}

TEST(CheckpointTest, LoadAndDescribeRejectDirectory) {
  // A directory opens as an ifstream on Linux and reports a bogus size;
  // both readers must turn that into a CheckpointError, not an
  // allocation failure.
  const fs::path dir = fresh_dir("ckpt_dir_as_file");
  EXPECT_THROW((void)ckpt::load_checkpoint(dir), ckpt::CheckpointError);
  EXPECT_THROW((void)ckpt::describe_file(dir), ckpt::CheckpointError);
}

// ------------------------------------------------------ hostile input ---

TEST(CheckpointTest, RejectsCraftedHeaderSectionCount) {
  // Bytes 8-11 hold the section count, outside every CRC.
  auto bytes = ckpt::serialize(sample_checkpoint());
  for (std::size_t i = 8; i < 12; ++i) bytes[i] = 0xFF;
  EXPECT_THROW((void)ckpt::deserialize(bytes.data(), bytes.size()),
               ckpt::CheckpointError);
}

TEST(CheckpointTest, RejectsCraftedSectionCounts) {
  // A section's leading u64 count set to 2^60 under a recomputed CRC: only
  // the decoder's count check stands between it and the allocator.
  const auto bytes = ckpt::serialize(sample_checkpoint());
  const std::uint64_t count = 1ull << 60;
  for (const char* tag : {"TOKV", "OPTS", "HIST", "EVAL", "PAIR"}) {
    SCOPED_TRACE(tag);
    auto sections = ckpt::unpack_sections(bytes.data(), bytes.size());
    for (ckpt::Section& s : sections)
      if (s.tag == tag)
        for (std::size_t i = 0; i < 8; ++i)
          s.payload.at(i) = static_cast<std::uint8_t>(count >> (8 * i));
    const auto crafted = ckpt::pack_sections(sections);
    EXPECT_THROW((void)ckpt::deserialize(crafted.data(), crafted.size()),
                 ckpt::CheckpointError);
  }
}

TEST(CheckpointFuzzTest, MutatedFilesDecodeOrThrowCheckpointError) {
  // Every single-bit flip, every truncation, and every payload byte
  // inverted under a recomputed CRC: deserialize either returns or throws
  // CheckpointError, never anything else (and, in the sanitizer build,
  // never undefined behaviour). Truncated files never decode.
  const auto valid = ckpt::serialize(sample_checkpoint());
  int failures = 0;
  const auto probe = [&](const std::vector<std::uint8_t>& bytes,
                         const char* kind, std::size_t at,
                         bool must_throw) {
    try {
      (void)ckpt::deserialize(bytes.data(), bytes.size());
      if (must_throw && ++failures <= 5)
        ADD_FAILURE() << kind << " " << at << ": decoded";
    } catch (const ckpt::CheckpointError&) {
    } catch (const std::exception& e) {
      if (++failures <= 5)
        ADD_FAILURE() << kind << " " << at << ": " << e.what();
    }
  };
  for (std::size_t bit = 0; bit < valid.size() * 8; ++bit) {
    auto bytes = valid;
    bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    probe(bytes, "bit flip", bit, false);
  }
  for (std::size_t len = 0; len < valid.size(); ++len)
    probe({valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(len)},
          "truncation to", len, true);
  const auto sections = ckpt::unpack_sections(valid.data(), valid.size());
  std::size_t at = 0;
  for (std::size_t i = 0; i < sections.size(); ++i)
    for (std::size_t b = 0; b < sections[i].payload.size(); ++b, ++at) {
      auto mutated = sections;
      mutated[i].payload[b] ^= 0xFF;
      probe(ckpt::pack_sections(mutated), "inverted payload byte", at, false);
    }
  EXPECT_EQ(failures, 0);
}

// -------------------------------------------------------------- store ---

TEST(StoreTest, RotationKeepsNewestKPerStage) {
  const fs::path dir = fresh_dir("ckpt_rotation");
  ckpt::CheckpointStore store(dir, /*retain_last=*/2);
  ckpt::TrainingCheckpoint c = sample_checkpoint();
  for (int epoch = 1; epoch <= 4; ++epoch) {
    c.stage = ckpt::Stage::kDpo;
    c.loop.completed_epochs = epoch;
    store.write(c);
  }
  c.stage = ckpt::Stage::kPretrain;
  c.loop.completed_epochs = 1;
  store.write(c);

  const auto dpo_files = ckpt::list_checkpoints(dir, ckpt::Stage::kDpo);
  ASSERT_EQ(dpo_files.size(), 2u);  // epochs 3 and 4 survive
  EXPECT_EQ(dpo_files[0].filename(), "ckpt-dpo-epoch-000003.dpoaf");
  EXPECT_EQ(dpo_files[1].filename(), "ckpt-dpo-epoch-000004.dpoaf");
  // Rotation is per stage: the pretrain snapshot is untouched.
  EXPECT_EQ(ckpt::list_checkpoints(dir, ckpt::Stage::kPretrain).size(), 1u);
}

TEST(StoreTest, ResolveResumePathPrefersNewestDpoSnapshot) {
  const fs::path dir = fresh_dir("ckpt_resolve");
  ckpt::CheckpointStore store(dir, /*retain_last=*/0);
  ckpt::TrainingCheckpoint c = sample_checkpoint();
  c.stage = ckpt::Stage::kPretrain;
  c.loop.completed_epochs = 3;
  store.write(c);
  EXPECT_EQ(ckpt::resolve_resume_path(dir).filename(),
            "ckpt-pretrain-epoch-000003.dpoaf");
  c.stage = ckpt::Stage::kDpo;
  c.loop.completed_epochs = 2;
  store.write(c);
  // A dpo snapshot supersedes pretrain regardless of epoch number.
  EXPECT_EQ(ckpt::resolve_resume_path(dir).filename(),
            "ckpt-dpo-epoch-000002.dpoaf");
  // Explicit file paths pass through untouched.
  const fs::path file = dir / "ckpt-dpo-epoch-000002.dpoaf";
  EXPECT_EQ(ckpt::resolve_resume_path(file), file);
}

TEST(StoreTest, ResolveResumePathRejectsEmptyDirAndMissingPath) {
  const fs::path dir = fresh_dir("ckpt_resolve_empty");
  EXPECT_THROW((void)ckpt::resolve_resume_path(dir), ckpt::CheckpointError);
  EXPECT_THROW((void)ckpt::resolve_resume_path(dir / "nope.dpoaf"),
               ckpt::CheckpointError);
}

TEST(StoreTest, ParseCrashPlanForms) {
  EXPECT_FALSE(ckpt::parse_crash_plan(nullptr).has_value());
  EXPECT_FALSE(ckpt::parse_crash_plan("").has_value());
  const auto bare = ckpt::parse_crash_plan("5");
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare->stage, ckpt::Stage::kDpo);
  EXPECT_EQ(bare->epoch, 5);
  const auto pre = ckpt::parse_crash_plan("pretrain:3");
  ASSERT_TRUE(pre.has_value());
  EXPECT_EQ(pre->stage, ckpt::Stage::kPretrain);
  EXPECT_EQ(pre->epoch, 3);
  const auto dpo_plan = ckpt::parse_crash_plan("dpo:7");
  ASSERT_TRUE(dpo_plan.has_value());
  EXPECT_EQ(dpo_plan->stage, ckpt::Stage::kDpo);
  EXPECT_EQ(dpo_plan->epoch, 7);
  EXPECT_THROW((void)ckpt::parse_crash_plan("bogus:1"),
               ckpt::CheckpointError);
  EXPECT_THROW((void)ckpt::parse_crash_plan("abc"), ckpt::CheckpointError);
  EXPECT_THROW((void)ckpt::parse_crash_plan("dpo:"), ckpt::CheckpointError);
}

TEST(StoreTest, MemorySinkCapturesSnapshots) {
  ckpt::MemorySink sink;
  ckpt::TrainingCheckpoint c = sample_checkpoint();
  sink.write(c);
  c.loop.completed_epochs = 8;
  sink.write(c);
  ASSERT_EQ(sink.snapshots.size(), 2u);
  EXPECT_EQ(sink.snapshots[0].loop.completed_epochs, 7);
  EXPECT_EQ(sink.snapshots[1].loop.completed_epochs, 8);
}

}  // namespace
}  // namespace dpoaf
