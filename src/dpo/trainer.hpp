// Direct preference optimization (Rafailov et al. 2023) with LoRA-restricted
// updates — the fine-tuning stage of the paper's DPO-AF pipeline (§4.3).
//
// Loss per pair:  −log σ( β·[(log πθ(y_w|x) − log π_ref(y_w|x))
//                          −(log πθ(y_l|x) − log π_ref(y_l|x))] )
//
// Metrics match Figure 8:
//  * loss      — the mean DPO loss,
//  * accuracy  — mean 1[log πθ(y_w|x) > log πθ(y_l|x)],
//  * margin    — mean of the bracketed reward difference ("marginal
//                preference": 0 = indifferent, >0 = favours y_w).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "dpo/dataset.hpp"
#include "nn/gpt.hpp"
#include "nn/optim.hpp"

namespace dpoaf::dpo {

using nn::TinyGpt;

struct DpoConfig {
  float beta = 1.0f;
  float lr = 5e-4f;
  /// Weight of an auxiliary next-token NLL term on the *chosen* response
  /// (RPO-style anchor). At 7B scale this is optional; at this library's
  /// tiny scale it is what keeps generations coherent once the preference
  /// margin saturates (see EXPERIMENTS.md). 0 disables.
  float nll_coef = 0.2f;
  int epochs = 100;
  /// Train on a random subsample of this many pairs each epoch (0 = all).
  int pairs_per_epoch = 0;
  /// LoRA adapter rank/alpha; rank 0 trains all parameters instead.
  std::int64_t lora_rank = 4;
  float lora_alpha = 8.0f;
  /// Invoke the checkpoint hook every this many epochs (paper: 20); ≤ 0
  /// invokes it at epoch 0 only.
  int checkpoint_every = 20;
};

struct EpochMetrics {
  int epoch = 0;
  double loss = 0.0;
  double accuracy = 0.0;
  double margin = 0.0;
  /// Mean policy-vs-reference log-probability shift over the epoch's pair
  /// responses (chosen and rejected averaged) — the sampled-KL proxy that
  /// tracks how far DPO has pulled the policy off the frozen reference.
  /// 0 at initialization; grows as the preference margin is bought with
  /// distribution shift. Deterministic like the other metrics.
  double kl = 0.0;
};

/// Per-checkpoint formal-verification evaluation (Figure 9's y-axis): the
/// policy sampled at a CheckpointHook epoch and every response verified.
struct CheckpointEval {
  int epoch = 0;
  double train_mean_satisfied = 0.0;  // mean over training tasks, of 15
  double val_mean_satisfied = 0.0;    // mean over validation tasks, of 15
  // Fraction of sampled responses whose feedback score was −1 (GLM2FSA
  // alignment failed). The means above count such responses as 0 satisfied
  // specs; these rates keep "unalignable" distinguishable from "aligned
  // but satisfied nothing" — the §4.1 property-1 signal.
  double train_alignment_failure_rate = 0.0;
  double val_alignment_failure_rate = 0.0;
  // Responses cut short by the model's max_seq context limit (still
  // scored; surfaced so truncation is never silent).
  int truncated_responses = 0;
  std::vector<std::pair<std::string, double>> per_task;
  // Parallel to per_task: alignment-failure fraction per task.
  std::vector<double> per_task_alignment_failure;
};

/// Called with (epoch, policy) at epoch 0, every checkpoint_every epochs,
/// and after the final epoch.
using CheckpointHook = std::function<void(int, const TinyGpt&)>;

/// Everything train() needs to continue from an epoch boundary exactly as
/// if the process had never stopped: the policy's loop state (weights with
/// LoRA adapters, AdamW moments, the trainer's RNG stream, the in-place
/// shuffle permutation), the frozen reference weights, and the metric
/// history so far. Captured by the snapshot hook; fed back via train()'s
/// `resume`.
struct TrainerCheckpointState {
  nn::LoopState loop;
  std::vector<float> reference_state;
  std::vector<EpochMetrics> history;
};

/// Receives the full resumable state at a snapshot boundary. Runs after
/// the CheckpointHook of the same epoch, so a snapshot always includes
/// every evaluation the caller recorded up to and including that epoch.
using SnapshotHook = std::function<void(const TrainerCheckpointState&)>;

/// Hook bundle for train(). `checkpoint` keeps the historical
/// (epoch, policy) evaluation cadence; `snapshot` fires every
/// `snapshot_every` epochs (and after the final epoch) with durable
/// state. snapshot_every == 0 disables snapshots.
struct TrainHooks {
  CheckpointHook checkpoint;
  SnapshotHook snapshot;
  int snapshot_every = 0;
};

class DpoTrainer {
 public:
  /// Takes ownership of a policy initialized from the pre-trained model.
  /// The frozen reference model is an internal clone of `policy` made
  /// before any update; LoRA adapters are attached here (per config).
  DpoTrainer(TinyGpt policy, DpoConfig config, Rng& rng);

  /// Run DPO over the pairs; returns one metrics row per epoch. When
  /// `resume` is non-null the trainer restores weights/optimizer/RNG/
  /// permutation from it and continues at resume->loop.completed_epochs + 1;
  /// the returned history is resume->history extended with the new epochs,
  /// and the final result is bitwise-identical to an uninterrupted run (the
  /// property tests in tests/test_properties.cpp enforce this). Throws
  /// nn::LoopStateError if `resume` does not fit this pair set.
  std::vector<EpochMetrics> train(
      const std::vector<PreferencePair>& pairs, const TrainHooks& hooks = {},
      const TrainerCheckpointState* resume = nullptr);

  [[nodiscard]] const TinyGpt& policy() const { return policy_; }
  [[nodiscard]] const TinyGpt& reference() const { return reference_; }
  [[nodiscard]] const DpoConfig& config() const { return config_; }

 private:
  TinyGpt policy_;
  TinyGpt reference_;
  DpoConfig config_;
  Rng rng_;
};

}  // namespace dpoaf::dpo
