// Checkpoint subsystem tests: binary framing (CRC32, little-endian
// primitives), corruption/truncation/version rejection, full
// TrainingCheckpoint round-trips (zero-size tensors, LoRA on/off),
// atomic save/load, retained-last-K rotation, and resume-path
// resolution. The end-to-end bitwise resume properties live in
// tests/test_properties.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

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
  ckpt::ByteWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-42);
  w.i64(-1234567890123LL);
  w.f32(-0.0f);
  w.f64(std::numeric_limits<double>::quiet_NaN());
  w.str("hello world");
  w.floats({1.5f, -2.25f, 0.0f});
  w.doubles({3.14159, -1e300});
  w.u64s({7, 0, 0xFFFFFFFFFFFFFFFFull});
  w.ints({-1, 0, 1});

  ckpt::ByteReader r(w.buffer().data(), w.buffer().size(), "test payload");
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1234567890123LL);
  const float neg_zero = r.f32();
  EXPECT_EQ(std::bit_cast<std::uint32_t>(neg_zero),
            std::bit_cast<std::uint32_t>(-0.0f));
  EXPECT_TRUE(std::isnan(r.f64()));
  EXPECT_EQ(r.str(), "hello world");
  EXPECT_EQ(r.floats(), (std::vector<float>{1.5f, -2.25f, 0.0f}));
  EXPECT_EQ(r.doubles(), (std::vector<double>{3.14159, -1e300}));
  EXPECT_EQ(r.u64s(), (std::vector<std::uint64_t>{7, 0, 0xFFFFFFFFFFFFFFFFull}));
  EXPECT_EQ(r.ints(), (std::vector<int>{-1, 0, 1}));
  EXPECT_NO_THROW(r.expect_done());
}

TEST(ByteCodecTest, ReaderRejectsOverruns) {
  ckpt::ByteWriter w;
  w.u32(7);
  ckpt::ByteReader r(w.buffer().data(), w.buffer().size(), "tiny payload");
  (void)r.u32();
  EXPECT_THROW((void)r.u8(), ckpt::CheckpointError);
}

TEST(ByteCodecTest, ReaderRejectsHugeBogusElementCount) {
  // A corrupted length prefix must fail fast, not allocate.
  ckpt::ByteWriter w;
  w.u64(0xFFFFFFFFFFFFFFFFull);
  ckpt::ByteReader r(w.buffer().data(), w.buffer().size(), "bogus count");
  EXPECT_THROW((void)r.floats(), ckpt::CheckpointError);
}

TEST(TensorSerdeTest, RoundTripsIncludingZeroSize) {
  ckpt::ByteWriter w;
  ckpt::write_tensor(w, tensor::Tensor::from({2, 3},
                                             {1, 2, 3, 4, 5, 6}));
  ckpt::write_tensor(w, tensor::Tensor::from({0, 5}, {}));
  ckpt::ByteReader r(w.buffer().data(), w.buffer().size(), "tensors");
  const tensor::Tensor a = ckpt::read_tensor(r);
  EXPECT_EQ(a.rows(), 2);
  EXPECT_EQ(a.cols(), 3);
  EXPECT_EQ(a.data()[5], 6.0f);
  const tensor::Tensor b = ckpt::read_tensor(r);
  EXPECT_EQ(b.rows(), 0);
  EXPECT_EQ(b.cols(), 5);
  EXPECT_EQ(b.numel(), 0);
  EXPECT_NO_THROW(r.expect_done());
}

TEST(TensorSerdeTest, RejectsShapeDataMismatch) {
  ckpt::ByteWriter w;
  w.i64(2);
  w.i64(2);
  w.u64(3);  // claims 3 floats for a 2x2 shape
  for (int i = 0; i < 3; ++i) w.f32(0.0f);
  ckpt::ByteReader r(w.buffer().data(), w.buffer().size(), "bad tensor");
  EXPECT_THROW((void)ckpt::read_tensor(r), ckpt::CheckpointError);
}

// ------------------------------------------------------------ framing ---

std::vector<ckpt::Section> sample_sections() {
  ckpt::ByteWriter a;
  a.str("alpha");
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
