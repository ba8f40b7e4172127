// DpoAfPipeline — the paper's contribution, end to end (Figure 2):
//
//   1. pre-train the language model on the synthetic driving corpus
//      (stand-in for the generic pre-trained Llama2-7B);
//   2. query it for m responses per control task;
//   3. construct an automaton-based controller from each response
//      (GLM2FSA), implement it in the scenario's world model, and verify
//      against the 15-specification rulebook — the automated feedback;
//   4. rank responses by specifications satisfied and build (x, y_w, y_l)
//      preference pairs;
//   5. fine-tune with DPO (LoRA-restricted), checkpointing every 20 epochs;
//   6. evaluate each checkpoint by re-querying the model on training and
//      held-out validation tasks and counting satisfied specifications
//      (Figure 9).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ckpt/store.hpp"
#include "dpo/trainer.hpp"
#include "driving/domain.hpp"
#include "lm/pretrain.hpp"

namespace dpoaf::core {

using driving::DrivingDomain;
using nn::TinyGpt;
using nn::Tokenizer;

struct PipelineConfig {
  std::uint64_t seed = 1;

  /// Size of the global thread pool that serve's decode step fans out
  /// on. Scoring runs on the calling thread; tensor ops and training stay
  /// serial. 0 ⇒ resolve from the DPOAF_THREADS
  /// environment variable, else hardware concurrency. Results are
  /// bitwise-identical at any setting (see DESIGN.md).
  int threads = 0;

  /// Tensor compute backend: "scalar", "simd", or "auto". Empty (the
  /// default) defers to the DPOAF_BACKEND environment variable, then to
  /// auto cpuid dispatch. Each backend is bitwise-reproducible across
  /// thread counts, but backends round differently from each other, so
  /// hold the backend fixed when comparing runs (docs/BACKENDS.md).
  std::string backend;

  // Model size (vocab is derived from the corpus).
  std::int64_t d_model = 48;
  std::int64_t n_heads = 4;
  std::int64_t n_layers = 2;
  std::int64_t d_ff = 192;

  // Stage 1: pre-training corpus and loop.
  int corpus_samples_per_task = 40;
  lm::PretrainConfig pretrain;

  // Stage 2: sampling the pre-trained model.
  int responses_per_task = 16;  // m, >= 1
  lm::SamplerConfig sampler;
  /// If true, use the catalog's variant texts as the candidate pool
  /// instead of sampling the LM (deterministic; used by fast benches —
  /// the paper's unlimited automated feedback makes the candidate source
  /// interchangeable).
  bool candidates_from_catalog = false;
  /// Ignored: every sampled decode runs on the generation service. Only
  /// perfbench still assigns it.
  bool serve = false;
  /// Concurrent decode slots of the generation service (src/serve) that
  /// runs every sampled decode. Results are bitwise-identical at any slot
  /// count (docs/SERVING.md).
  int serve_slots = 8;

  // Stage 5: DPO.
  dpo::DpoConfig dpo;

  // Checkpoint evaluation: sample this many responses (>= 1) per task at
  // the given temperature (and lm::SamplerConfig's default top_k) and
  // average the per-response specification counts (an unalignable response
  // counts 0; the failure *rate* is reported separately in CheckpointEval).
  // Deterministic per (seed, epoch).
  int eval_samples_per_task = 10;
  float eval_temperature = 0.7f;
  int eval_max_new_tokens = 72;

  // ---- Procedural scenario generation (docs/GENERATOR.md) ------------
  /// Number of procedurally generated scenarios appended to the paper's
  /// five (0 disables generation; the default domain is unchanged). Each
  /// generated scenario contributes one control task to the catalog.
  int generated_scenarios = 0;
  /// Of the generated scenarios, hold out the *last* M entirely: their
  /// tasks are excluded from the pre-training corpus, candidate
  /// collection, and checkpoint evaluation, then scored by the held-out
  /// generalization eval after DPO (RunResult::generalization).
  int holdout_scenarios = 0;
  /// Seed of the generator's private stream — independent of `seed`, so
  /// the scenario set can stay fixed while training randomness varies.
  std::uint64_t generator_seed = 7;

  /// Memoize formal feedback per (scenario, canonicalized response text).
  /// Feedback is deterministic, so caching cannot change any metric (the
  /// property tests assert bitwise-identical runs either way); off means
  /// every response is re-parsed and re-verified from scratch.
  bool feedback_cache = true;

  /// Turn on the process-wide observability layer (metric counters and
  /// trace spans; obs::capture_run_report rolls them up into a report).
  /// Only ever *enables* — a pipeline built with the default never
  /// switches globally-enabled observability off, so benches that call
  /// obs::set_enabled(true) themselves keep recording.
  /// Observability never feeds back into any computed number: the property
  /// tests assert RunResult is bitwise-identical with it on or off.
  bool observability = false;

  // ---- Durable checkpointing (docs/CHECKPOINT_FORMAT.md) -------------
  /// When non-empty, write a resumable snapshot into this directory at
  /// every `checkpoint_every_epochs` epoch boundary of pre-training and
  /// DPO (atomic temp-file-then-rename; file names
  /// ckpt-<stage>-epoch-NNNNNN.dpoaf). Empty disables durable snapshots
  /// unless a sink is injected via set_checkpoint_sink().
  std::string checkpoint_dir;
  /// Epochs between durable snapshots (per stage; the final epoch of a
  /// stage is always snapshotted too). 0 disables snapshots even when a
  /// sink is configured.
  int checkpoint_every_epochs = 20;
  /// Keep only the newest K snapshot files per stage (0 keeps all).
  int checkpoint_retain_last = 3;
  /// Path to a .dpoaf file — or a checkpoint directory, resolved to its
  /// newest snapshot — to resume from. The checkpoint's seed, model
  /// architecture, LoRA layout, and vocabulary must match this config;
  /// run() then continues the interrupted stage and produces a RunResult
  /// bitwise-identical to the uninterrupted run (property-tested).
  std::string resume_from;
};

/// Per-checkpoint formal-verification evaluation (Figure 9's y-axis); the
/// record lives next to dpo::EpochMetrics so checkpoints store it as is.
using CheckpointEval = dpo::CheckpointEval;

struct TaskCandidates {
  std::string task_id;
  std::vector<dpo::Candidate> candidates;  // text + verification score
  int truncated = 0;  // sampled candidates that hit the context limit
};

/// Train-vs-held-out comparison on the *final* policy (docs/GENERATOR.md):
/// the checkpoint-eval sampler run once more after DPO, but split by the
/// holdout flag and normalized per scenario rulebook size (generated
/// rulebooks differ in length, so raw satisfied counts are incomparable
/// across scenarios). Deterministic per pipeline seed.
struct GeneralizationEval {
  int train_tasks = 0;    // tasks the model trained on (incl. paper tasks)
  int holdout_tasks = 0;  // tasks of held-out generated scenarios
  // Mean over tasks of (satisfied specs / rulebook size), unalignable
  // responses counting 0.
  double train_mean_satisfied_fraction = 0.0;
  double holdout_mean_satisfied_fraction = 0.0;
  // Fraction of sampled responses GLM2FSA could not align.
  double train_alignment_failure_rate = 0.0;
  double holdout_alignment_failure_rate = 0.0;
  // Fraction of sampled responses that aligned but violated ≥ 1 spec.
  double train_violation_rate = 0.0;
  double holdout_violation_rate = 0.0;
  // (task id, mean satisfied fraction) for every held-out task.
  std::vector<std::pair<std::string, double>> per_holdout_task;
};

struct RunResult {
  std::vector<dpo::EpochMetrics> metrics;     // Figure 8 series
  std::vector<CheckpointEval> checkpoints;    // Figure 9 series
  std::size_t pair_count = 0;
  /// Memoization counters at the end of the run: the domain's
  /// (scenario, response) feedback cache and the process-wide LTL→Büchi
  /// translation cache (the latter is cumulative across pipelines).
  util::CacheStats feedback_cache_stats;
  util::CacheStats buchi_cache_stats;
  /// Inert: always zero. The compiled-monitor cache it counted is gone;
  /// the field stays only because perfbench/worker.cpp still reads it.
  util::CacheStats monitor_cache_stats;
  /// Procedural-generation tally (all zeros when generation was off),
  /// including the satisfiability pre-pass discard counts.
  driving::generator::GeneratorStats generator_stats;
  /// Held-out generalization eval; meaningful only when has_generalization
  /// (i.e. the domain contains held-out generated scenarios).
  bool has_generalization = false;
  GeneralizationEval generalization;
};

class DpoAfPipeline {
 public:
  /// Throws ContractViolation, naming the field, when a count, model-shape
  /// field, sampling temperature or token budget no run can use is out of
  /// range (validated() in pipeline.cpp lists every rule).
  explicit DpoAfPipeline(PipelineConfig config);

  [[nodiscard]] const DrivingDomain& domain() const { return domain_; }
  [[nodiscard]] const Tokenizer& tokenizer() const { return tokenizer_; }
  [[nodiscard]] const PipelineConfig& config() const { return config_; }

  /// Stage 1. Returns per-epoch pre-training losses. `resume`, when set,
  /// re-enters the loop from a restored snapshot; snapshots are written to
  /// the checkpoint sink either way.
  lm::PretrainStats pretrain_model(const lm::PretrainState* resume = nullptr);
  [[nodiscard]] const TinyGpt& model() const { return model_; }

  /// Stages 2–3: sample m responses per training task and score each via
  /// formal verification as soon as it is decoded (docs/PIPELINE.md).
  [[nodiscard]] std::vector<TaskCandidates> collect_candidates();

  /// Stage 4: all strictly-ordered preference pairs.
  [[nodiscard]] std::vector<dpo::PreferencePair> build_pairs(
      const std::vector<TaskCandidates>& candidates) const;

  /// Stages 5–6: DPO fine-tuning with formal-verification checkpoint
  /// evaluation. Leaves the fine-tuned policy accessible via model().
  /// `resume`, when set, continues from a dpo-stage snapshot, splicing its
  /// metric history and evaluations back in.
  RunResult run_dpo(const std::vector<dpo::PreferencePair>& pairs,
                    const ckpt::TrainingCheckpoint* resume = nullptr);

  /// Convenience: run all stages —
  /// run_dpo(build_pairs(collect_candidates())) after pre-training — and
  /// return the result. When
  /// config.resume_from is set, the run restarts from that snapshot
  /// instead: a pretrain-stage checkpoint re-enters the pre-training loop
  /// (then runs stages 2–6 normally); a dpo-stage checkpoint restores the
  /// stored preference dataset and re-enters DPO directly.
  RunResult run();

  /// Replace the snapshot destination (tests inject ckpt::MemorySink; a
  /// non-empty config.checkpoint_dir installs a ckpt::CheckpointStore at
  /// construction). Pass nullptr to disable snapshots.
  void set_checkpoint_sink(std::shared_ptr<ckpt::CheckpointSink> sink) {
    sink_ = std::move(sink);
  }

  /// Verification score of one response for a task (−1 ⇒ unalignable).
  [[nodiscard]] int score_response(const driving::Task& task,
                                   const std::string& response_text) const;

  /// Sample eval_samples_per_task responses for every non-held-out task
  /// and verify them (one Figure-9 data point; held-out tasks are reserved
  /// for evaluate_generalization).
  [[nodiscard]] CheckpointEval evaluate_model(const TinyGpt& model,
                                              int epoch) const;

  /// Sample the *current* policy on every task — held-out ones included —
  /// and split the per-rulebook-normalized metrics by the holdout flag.
  /// Run automatically at the end of run_dpo when the domain has held-out
  /// scenarios; exposed for tests.
  [[nodiscard]] GeneralizationEval evaluate_generalization() const;

 private:
  /// One response and its verification score: slot `seq` of the vector
  /// stream_scored_responses returns.
  struct ScoredItem {
    std::size_t task_index = 0;
    dpo::Candidate candidate;
    bool truncated = false;
  };
  /// The streaming engine behind sampled candidate collection and both
  /// evals: sample `per_task` responses for each task in one batch on the
  /// generation service, score each response on the calling thread in
  /// sequence (task-major, sample-minor) order as soon as its decode
  /// resolves — while the service keeps decoding the later ones — and
  /// return the scored responses in that order (see docs/PIPELINE.md for
  /// the scoring loop, the error model, and the determinism contract).
  [[nodiscard]] std::vector<ScoredItem> stream_scored_responses(
      const std::vector<const driving::Task*>& tasks, int per_task,
      const TinyGpt& model, const lm::SamplerConfig& sampler,
      std::vector<Rng>& task_rngs) const;

  /// Means over eval samples, for one task or over a group of tasks.
  struct EvalMeans {
    double satisfied = 0.0;           // max(0, score)
    double satisfied_fraction = 0.0;  // max(0, score) / rulebook size
    double alignment_failure = 0.0;   // score < 0 (unalignable)
    double violation = 0.0;           // aligned, but violates >= 1 spec
    EvalMeans& operator+=(const EvalMeans& o) {
      satisfied += o.satisfied;
      satisfied_fraction += o.satisfied_fraction;
      alignment_failure += o.alignment_failure;
      violation += o.violation;
      return *this;
    }
    EvalMeans& operator/=(double n) {
      satisfied /= n;
      satisfied_fraction /= n;
      alignment_failure /= n;
      violation /= n;
      return *this;
    }
  };
  /// Both evals' reduction: per-task means, and the means of those over
  /// group 0 and group 1 (0 for an empty group).
  struct EvalTally {
    std::vector<EvalMeans> per_task;
    EvalMeans group[2];
    int group_tasks[2] = {0, 0};
    int truncated = 0;  // responses cut short by the context limit
  };
  /// Samples eval_samples_per_task responses per task at the eval sampler
  /// settings, with per-task RNGs split from the private stream
  /// seed * 0x9E3779B9 + `stream`, and tallies them; `in_group1` puts a
  /// task in group 1, else group 0.
  [[nodiscard]] EvalTally tally_eval(
      const std::vector<const driving::Task*>& tasks, const TinyGpt& model,
      std::uint64_t stream, bool (*in_group1)(const driving::Task&)) const;

  /// A snapshot of `stage` at `loop` with the stage-independent identity
  /// fields (seed, model config, LoRA layout, vocabulary) filled in.
  [[nodiscard]] ckpt::TrainingCheckpoint base_checkpoint(
      ckpt::Stage stage, const nn::LoopState& loop) const;
  /// Throws ckpt::CheckpointError unless the snapshot is resumable under
  /// this exact configuration (seed/architecture/LoRA/vocabulary match)
  /// and every stored pair and float is one training can use.
  void validate_checkpoint(const ckpt::TrainingCheckpoint& ckpt) const;

  PipelineConfig config_;
  DrivingDomain domain_;
  Tokenizer tokenizer_;
  Rng rng_;
  TinyGpt model_;
  bool pretrained_ = false;
  std::shared_ptr<ckpt::CheckpointSink> sink_;
};

}  // namespace dpoaf::core
