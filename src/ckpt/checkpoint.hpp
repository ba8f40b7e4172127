// TrainingCheckpoint — the durable snapshot of the DPO-AF pipeline at an
// epoch boundary, and its (de)serialization to the versioned .dpoaf
// binary container defined in ckpt/format.hpp.
//
// A checkpoint carries *everything* a fresh process needs to continue a
// run bitwise-identically: model/reference weights, optimizer moments,
// the trainer's RNG stream and shuffle permutation, the tokenizer
// vocabulary (for compatibility validation), the preference dataset, and
// the metric/evaluation history accumulated before the snapshot. See
// docs/CHECKPOINT_FORMAT.md for the normative byte-level layout.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "ckpt/format.hpp"
#include "dpo/dataset.hpp"
#include "dpo/trainer.hpp"
#include "nn/gpt.hpp"
#include "nn/optim.hpp"

namespace dpoaf::ckpt {

/// Which pipeline stage wrote the snapshot. Resuming a kPretrain
/// checkpoint re-enters the pre-training loop and then runs the remaining
/// stages; resuming a kDpo checkpoint re-enters DPO directly (the stored
/// preference pairs make stages 1–4 unnecessary).
enum class Stage : std::uint32_t { kPretrain = 0, kDpo = 1 };

/// "pretrain" / "dpo" — used in file names and human-readable output.
[[nodiscard]] const char* stage_name(Stage stage);

/// One durable pipeline snapshot. Stage-independent fields are always
/// populated; the dpo_* / pretrain_* groups belong to their stage only
/// and stay empty otherwise.
struct TrainingCheckpoint {
  Stage stage = Stage::kDpo;
  /// PipelineConfig::seed of the producing run, validated on resume.
  std::uint64_t pipeline_seed = 0;

  /// Model architecture + LoRA layout, validated against the resuming
  /// pipeline's configuration before any weight is loaded.
  nn::GptConfig model_config;
  std::int64_t lora_rank = 0;
  float lora_alpha = 0.0f;

  /// Tokenizer vocabulary in id order — resume fails loudly if the task
  /// catalog (and therefore the derived vocabulary) changed under us.
  std::vector<std::string> vocab;

  /// The stage's training loop at the epoch boundary: completed epochs in
  /// the stage's own numbering (pretrain counts 1..epochs, DPO counts
  /// 1..config.epochs), the training policy's weights, AdamW moments and
  /// step count, RNG stream and shuffle permutation.
  nn::LoopState loop;

  /// kDpo: the frozen reference model's weights, per-epoch metrics and
  /// checkpoint evaluations accumulated up to the snapshot, and the full
  /// preference dataset.
  std::vector<float> reference_state;
  std::vector<dpo::EpochMetrics> dpo_history;
  std::vector<dpo::CheckpointEval> evals;
  std::vector<dpo::PreferencePair> pairs;

  /// kPretrain: per-epoch mean cross-entropy accumulated so far.
  std::vector<double> pretrain_losses;
};

/// Encode to the versioned binary container (in memory).
[[nodiscard]] std::vector<std::uint8_t> serialize(
    const TrainingCheckpoint& ckpt);

/// Decode and validate a container produced by serialize(). Throws
/// CheckpointError on bad magic, future schema version, CRC mismatch,
/// truncation, or missing/malformed sections.
[[nodiscard]] TrainingCheckpoint deserialize(const std::uint8_t* data,
                                             std::size_t size);

/// Write atomically: serialize to `path` + ".tmp" in the same directory,
/// flush, then rename over `path`. A crash mid-write can therefore never
/// leave a half-written file at `path`. Throws CheckpointError on I/O
/// failure.
void save_checkpoint(const std::filesystem::path& path,
                     const TrainingCheckpoint& ckpt);

/// Read + deserialize + validate. Throws CheckpointError.
[[nodiscard]] TrainingCheckpoint load_checkpoint(
    const std::filesystem::path& path);

/// Human-readable one-screen summary (stage, epochs, model shape,
/// parameter counts, dataset size) — the `export_artifacts
/// --inspect-checkpoint` output.
[[nodiscard]] std::string describe(const TrainingCheckpoint& ckpt);

/// describe() plus the physical section table (tag, payload bytes, CRC)
/// read directly from the file.
[[nodiscard]] std::string describe_file(const std::filesystem::path& path);

}  // namespace dpoaf::ckpt
