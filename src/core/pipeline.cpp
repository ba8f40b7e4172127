#include "core/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "modelcheck/buchi.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/service.hpp"
#include "tensor/backend/backend.hpp"
#include "util/check.hpp"
#include "util/threadpool.hpp"

namespace dpoaf::core {

namespace {

// Throws a ContractViolation naming the field unless `c.field op bound`.
#define DPOAF_REQUIRE(field, op, bound)                                    \
  DPOAF_CHECK_MSG(c.field op(bound), "PipelineConfig::" #field " must be " \
                  #op " " + std::to_string(bound) + ", got " +             \
                      std::to_string(c.field))
// Throws a ContractViolation naming the field unless `c.field` is finite
// and `c.field op bound`.
#define DPOAF_REQUIRE_FINITE(field, op, bound)                             \
  DPOAF_CHECK_MSG(std::isfinite(c.field) && c.field op(bound),             \
                  "PipelineConfig::" #field " must be finite and " #op " " + \
                      std::to_string(bound) + ", got " +                    \
                      std::to_string(c.field))

// Rejects values no run can use before any construction work. Without
// these, a sample count below 1 surfaces deep in collection or collects
// nothing, a bad scenario count aborts in the generator, a DPO epoch or
// checkpoint interval below 1 leaves no loss history or divides by zero,
// a model shape below 1 fails (or raises SIGFPE) only after construction,
// a non-positive temperature or a negative token budget is rejected by the
// decoder mid-run, d_ff below 1 trains a model stuck at the initial DPO
// loss, and a NaN learning rate or beta surfaces mid-run as a
// sampling-weight CHECK. The trainers would silently reinterpret the
// rest: a NaN or negative nll_coef drops the RPO anchor, a negative
// pairs_per_epoch trains on all pairs, a negative lora_rank trains every
// parameter (and is written into checkpoints), a negative pre-training
// epoch count trains nothing, and a negative checkpoint_retain_last keeps
// every snapshot. A negative thread count would fail in the pool without
// naming the field.
const PipelineConfig& validated(const PipelineConfig& c) {
  DPOAF_REQUIRE(d_model, >=, 1);
  DPOAF_REQUIRE(n_heads, >=, 1);
  DPOAF_CHECK_MSG(c.d_model % c.n_heads == 0,
                  "PipelineConfig::n_heads must divide d_model");
  DPOAF_REQUIRE(n_layers, >=, 1);
  DPOAF_REQUIRE(d_ff, >=, 1);
  DPOAF_REQUIRE(corpus_samples_per_task, >=, 1);
  DPOAF_REQUIRE(pretrain.epochs, >=, 0);
  DPOAF_REQUIRE_FINITE(pretrain.lr, >, 0);
  DPOAF_REQUIRE(responses_per_task, >=, 1);
  DPOAF_REQUIRE(sampler.temperature, >, 0);
  DPOAF_REQUIRE(sampler.max_new_tokens, >=, 0);
  DPOAF_REQUIRE(serve_slots, >=, 1);
  DPOAF_REQUIRE(dpo.epochs, >=, 1);
  DPOAF_REQUIRE(dpo.checkpoint_every, >=, 1);
  DPOAF_REQUIRE_FINITE(dpo.lr, >, 0);
  DPOAF_REQUIRE_FINITE(dpo.beta, >, 0);
  DPOAF_REQUIRE_FINITE(dpo.nll_coef, >=, 0);
  DPOAF_REQUIRE(dpo.pairs_per_epoch, >=, 0);
  DPOAF_REQUIRE(dpo.lora_rank, >=, 0);
  DPOAF_REQUIRE_FINITE(dpo.lora_alpha, >, 0);
  DPOAF_REQUIRE(eval_samples_per_task, >=, 1);
  DPOAF_REQUIRE(eval_temperature, >, 0);
  DPOAF_REQUIRE(eval_max_new_tokens, >=, 0);
  DPOAF_REQUIRE(generated_scenarios, >=, 0);
  DPOAF_REQUIRE(holdout_scenarios, >=, 0);
  DPOAF_REQUIRE(holdout_scenarios, <=, c.generated_scenarios);
  DPOAF_REQUIRE(checkpoint_every_epochs, >=, 0);
  DPOAF_REQUIRE(checkpoint_retain_last, >=, 0);
  DPOAF_REQUIRE(threads, >=, 0);
  return c;
}

#undef DPOAF_REQUIRE
#undef DPOAF_REQUIRE_FINITE

driving::generator::GeneratorConfig make_generator_config(
    const PipelineConfig& config) {
  driving::generator::GeneratorConfig gen;
  gen.seed = config.generator_seed;
  gen.count = config.generated_scenarios;
  gen.holdout = config.holdout_scenarios;
  return gen;
}

serve::ServiceConfig make_serve_config(const PipelineConfig& config) {
  serve::ServiceConfig scfg;
  scfg.slots = config.serve_slots;
  scfg.seed = config.seed;
  return scfg;
}

/// One RNG per task, split from `parent` in serial task order: each task's
/// sampling stream is fixed before any fan-out, so any schedule yields
/// identical responses.
std::vector<Rng> split_task_rngs(Rng& parent, std::size_t n_tasks) {
  std::vector<Rng> out;
  out.reserve(n_tasks);
  for (std::size_t i = 0; i < n_tasks; ++i) out.push_back(parent.split());
  return out;
}

}  // namespace

DpoAfPipeline::DpoAfPipeline(PipelineConfig config)
    : config_(validated(config)),
      domain_(make_generator_config(config_)),
      tokenizer_(lm::build_tokenizer(domain_.tasks())),
      rng_(config.seed) {
  util::set_global_threads(config_.threads);
  tensor::backend::select(config_.backend);
  domain_.set_feedback_cache(config_.feedback_cache);
  // Enable-only: never turn off observability some other component (a
  // bench harness, the example binary) switched on for the process.
  if (config_.observability) obs::set_enabled(true);
  nn::GptConfig gpt_cfg;
  gpt_cfg.vocab_size = static_cast<std::int64_t>(tokenizer_.vocab_size());
  gpt_cfg.d_model = config_.d_model;
  gpt_cfg.n_heads = config_.n_heads;
  gpt_cfg.n_layers = config_.n_layers;
  gpt_cfg.d_ff = config_.d_ff;
  // Size the context to the longest catalog sequence plus slack for
  // sampled responses.
  std::int64_t longest = 0;
  for (const auto& task : domain_.tasks())
    for (const auto& variant : task.variants)
      longest = std::max(
          longest, static_cast<std::int64_t>(
                       lm::encode_example(tokenizer_, task.prompt,
                                          variant.text)
                           .size()));
  gpt_cfg.max_seq = longest + 16;
  model_ = TinyGpt(gpt_cfg, rng_);
  if (!config_.checkpoint_dir.empty())
    sink_ = std::make_shared<ckpt::CheckpointStore>(
        config_.checkpoint_dir, config_.checkpoint_retain_last);
}

ckpt::TrainingCheckpoint DpoAfPipeline::base_checkpoint(
    ckpt::Stage stage, const nn::LoopState& loop) const {
  ckpt::TrainingCheckpoint c;
  c.stage = stage;
  c.loop = loop;
  c.pipeline_seed = config_.seed;
  c.model_config = model_.config();
  c.lora_rank = config_.dpo.lora_rank;
  c.lora_alpha = config_.dpo.lora_alpha;
  c.vocab.reserve(tokenizer_.vocab_size());
  for (std::size_t i = 0; i < tokenizer_.vocab_size(); ++i)
    c.vocab.push_back(tokenizer_.word_of(static_cast<int>(i)));
  return c;
}

void DpoAfPipeline::validate_checkpoint(
    const ckpt::TrainingCheckpoint& snap) const {
  if (snap.pipeline_seed != config_.seed)
    throw ckpt::CheckpointError(
        "checkpoint was produced with seed " +
        std::to_string(snap.pipeline_seed) +
        " but this pipeline is configured with seed " +
        std::to_string(config_.seed));
  const nn::GptConfig& want = model_.config();
  const nn::GptConfig& got = snap.model_config;
  if (got.vocab_size != want.vocab_size || got.d_model != want.d_model ||
      got.n_heads != want.n_heads || got.n_layers != want.n_layers ||
      got.d_ff != want.d_ff || got.max_seq != want.max_seq)
    throw ckpt::CheckpointError(
        "checkpoint model architecture does not match this pipeline's "
        "configuration");
  if (snap.lora_rank != config_.dpo.lora_rank ||
      snap.lora_alpha != config_.dpo.lora_alpha)
    throw ckpt::CheckpointError(
        "checkpoint LoRA layout (rank " + std::to_string(snap.lora_rank) +
        ") does not match this pipeline's configuration (rank " +
        std::to_string(config_.dpo.lora_rank) + ")");
  if (snap.vocab.size() != tokenizer_.vocab_size())
    throw ckpt::CheckpointError(
        "checkpoint vocabulary size does not match this pipeline's "
        "tokenizer — the task catalog changed");
  for (std::size_t i = 0; i < snap.vocab.size(); ++i)
    if (snap.vocab[i] != tokenizer_.word_of(static_cast<int>(i)))
      throw ckpt::CheckpointError(
          "checkpoint vocabulary differs from this pipeline's tokenizer at "
          "token id " + std::to_string(i) + " — the task catalog changed");
  // The CRC catches damage, not a crafted file: every stored pair must be
  // one the DPO trainer can score without tripping a model CHECK.
  const auto defect = [&](const std::vector<int>& seq,
                          std::int64_t prompt_len) -> const char* {
    const auto len = static_cast<std::int64_t>(seq.size());
    if (len > want.max_seq) return "a sequence longer than max_seq";
    for (const int t : seq)
      if (t < 0 || t >= want.vocab_size) return "a token id out of range";
    if (prompt_len < 1 || prompt_len >= len)
      return "a prompt_len outside [1, sequence length)";
    return nullptr;
  };
  for (std::size_t i = 0; i < snap.pairs.size(); ++i) {
    const dpo::PreferencePair& p = snap.pairs[i];
    for (const std::vector<int>* seq : {&p.chosen, &p.rejected})
      if (const char* why = defect(*seq, p.prompt_len))
        throw ckpt::CheckpointError("checkpoint preference pair " +
                                    std::to_string(i) + " has " + why);
  }
  // Nor may a float be NaN or infinite: the first sampled decode would
  // CHECK-fail on it.
  const auto require_finite = [](const std::vector<float>& xs,
                                 const char* what) {
    for (const float x : xs)
      if (!std::isfinite(x))
        throw ckpt::CheckpointError(std::string("checkpoint ") + what +
                                    " hold a NaN or infinity");
  };
  require_finite(snap.loop.weights, "weights");
  for (const auto& m : snap.loop.opt_m) require_finite(m, "optimizer moments");
  for (const auto& v : snap.loop.opt_v) require_finite(v, "optimizer moments");
  require_finite(snap.reference_state, "reference weights");
}

lm::PretrainStats DpoAfPipeline::pretrain_model(
    const lm::PretrainState* resume) {
  // A resume at the final epoch boundary skips the stage entirely; without
  // the guard its span would still charge the corpus rebuild (needed only
  // for the RNG stream) to "pretrain" — wall time for a phase that did
  // not run.
  const bool will_train =
      (resume == nullptr ? 0 : resume->loop.completed_epochs) <
      config_.pretrain.epochs;
  std::optional<obs::Span> span;
  if (will_train)
    span.emplace("pretrain", obs::histogram("pipeline.pretrain_ns"));
  // The corpus build consumes the pipeline RNG identically on fresh and
  // resumed runs; pretrain() then restores the RNG from the snapshot, so
  // by the end of the stage the stream matches an uninterrupted run.
  //
  // Held-out scenarios must leave no trace in the training signal: their
  // tasks are dropped from the corpus here (the tokenizer still covers
  // them, so held-out prompts stay encodable at eval time).
  std::vector<driving::Task> visible_tasks;
  for (const auto& task : domain_.tasks())
    if (!task.holdout) visible_tasks.push_back(task);
  const auto corpus =
      lm::build_corpus(visible_tasks, tokenizer_,
                       config_.corpus_samples_per_task,
                       lm::VariantWeights{}, rng_);
  lm::PretrainHooks hooks;
  if (sink_ && config_.checkpoint_every_epochs > 0) {
    hooks.snapshot_every = config_.checkpoint_every_epochs;
    hooks.snapshot = [this](const lm::PretrainState& s) {
      ckpt::TrainingCheckpoint snap =
          base_checkpoint(ckpt::Stage::kPretrain, s.loop);
      snap.pretrain_losses = s.epoch_losses;
      sink_->write(snap);
    };
  }
  auto stats =
      lm::pretrain(model_, corpus, config_.pretrain, rng_, hooks, resume);
  pretrained_ = true;
  return stats;
}

int DpoAfPipeline::score_response(const driving::Task& task,
                                  const std::string& response_text) const {
  return driving::formal_feedback(domain_, task.scenario, response_text)
      .score();
}

std::vector<DpoAfPipeline::ScoredItem>
DpoAfPipeline::stream_scored_responses(
    const std::vector<const driving::Task*>& tasks, int per_task,
    const TinyGpt& model, const lm::SamplerConfig& sampler,
    std::vector<Rng>& task_rngs) const {
  // Sequence numbers are assigned here, task-major then sample-minor, and
  // request s of task u always decodes with
  // nn::request_rng(config_.seed, task_rngs[u]()) — the s-th serial
  // draw. Each scored response lands in its own slot out[seq], so the
  // result is the same at any thread count and slot count
  // (docs/PIPELINE.md).
  const std::uint64_t total =
      tasks.size() * static_cast<std::uint64_t>(per_task);
  std::vector<ScoredItem> out(total);
  std::vector<serve::GenerateRequest> requests;
  requests.reserve(total);
  for (std::size_t u = 0, seq = 0; u < tasks.size(); ++u) {
    const std::vector<int> prompt =
        lm::encode_prompt(tokenizer_, tasks[u]->prompt);
    for (int s = 0; s < per_task; ++s) {
      out[seq++].task_index = u;
      serve::GenerateRequest req;
      req.prompt = prompt;
      req.max_new_tokens = sampler.max_new_tokens;
      req.temperature = sampler.temperature;
      req.top_k = sampler.top_k;
      req.eos_id = tokenizer_.eos();
      req.seed = task_rngs[u]();
      requests.push_back(std::move(req));
    }
  }

  // Every request goes to the service in one batch, so its scheduling
  // (and its serve.* counters) never depends on thread timing. Declared
  // before the loop so an exception thrown mid-loop unwinds the futures
  // and then the service.
  serve::GenerationService service(model, make_serve_config(config_));
  std::vector<std::future<serve::GenerateResult>> responses =
      service.submit_all(std::move(requests));

  // One scorer on the calling thread, in sequence order: wait for the
  // response's text and score it into out[seq] while the service's
  // scheduler thread keeps decoding the later ones. Overlap telemetry
  // counts the scorings done while some later response is still decoding
  // — work a sample-then-score barrier would serialize. `decoding` is the
  // first response not yet known to be ready; it only moves forward, so
  // the readiness polls are O(total) over the whole loop.
  std::uint64_t decoding = 0;
  std::uint64_t scored_while_sampling = 0;
  for (std::uint64_t seq = 0; seq < total; ++seq) {
    ScoredItem& item = out[seq];
    {
      static obs::Histogram& generation_ns =
          obs::histogram("pipeline.generation_ns");
      obs::Span span("generation", generation_ns);
      const serve::GenerateResult r = responses[seq].get();
      DPOAF_CHECK_MSG(r.finish != serve::FinishReason::kInvalid,
                      "the generation service rejected a sampling request "
                      "as invalid");
      item.truncated = r.finish == serve::FinishReason::kContext;
      item.candidate.text =
          lm::decode_response(tokenizer_, r.ids, item.truncated);
    }
    item.candidate.score =
        score_response(*tasks[item.task_index], item.candidate.text);
    decoding = std::max(decoding, seq + 1);
    while (decoding < total &&
           responses[decoding].wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready)
      ++decoding;
    if (decoding < total) ++scored_while_sampling;
  }

  if (obs::enabled()) {
    obs::gauge("dataflow.pipeline.scored_while_sampling")
        .record_max(static_cast<std::int64_t>(scored_while_sampling));
    obs::gauge("dataflow.pipeline.items")
        .record_max(static_cast<std::int64_t>(total));
  }
  return out;
}

std::vector<TaskCandidates> DpoAfPipeline::collect_candidates() {
  DPOAF_CHECK_MSG(pretrained_ || config_.candidates_from_catalog,
                  "call pretrain_model() before sampling candidates");
  std::vector<const driving::Task*> training;
  for (const auto& task : domain_.tasks())  // pairs: training, non-held-out
    if (task.training && !task.holdout) training.push_back(&task);
  // Split even when nothing is sampled, so the pipeline RNG stream does not
  // depend on the candidate source.
  std::vector<Rng> task_rngs = split_task_rngs(rng_, training.size());

  std::vector<TaskCandidates> out(training.size());
  for (std::size_t u = 0; u < training.size(); ++u)
    out[u].task_id = training[u]->id;
  if (config_.candidates_from_catalog) {
    for (std::size_t u = 0; u < training.size(); ++u)
      for (const auto& variant : training[u]->variants)
        out[u].candidates.push_back(
            {variant.text, score_response(*training[u], variant.text)});
    return out;
  }
  for (ScoredItem& item :
       stream_scored_responses(training, config_.responses_per_task, model_,
                               config_.sampler, task_rngs)) {
    TaskCandidates& tc = out[item.task_index];
    if (item.truncated) ++tc.truncated;
    tc.candidates.push_back(std::move(item.candidate));
  }
  return out;
}

std::vector<dpo::PreferencePair> DpoAfPipeline::build_pairs(
    const std::vector<TaskCandidates>& candidates) const {
  static obs::Counter& pair_counter = obs::counter("pipeline.pairs_built");
  std::vector<dpo::PreferencePair> pairs;
  // A phase that never ran must not appear in the trace: an empty input
  // would otherwise charge pure call overhead to "ranking" and the phase
  // rollup would double-count wall time that belongs elsewhere.
  if (candidates.empty()) return pairs;
  // "ranking" is the fourth of the five pipeline phases in the RunReport.
  obs::Span span("ranking", obs::histogram("pipeline.ranking_ns"));
  for (const auto& tc : candidates) {
    const auto& task = domain_.task_by_id(tc.task_id);
    const auto task_pairs = dpo::build_preference_pairs(
        task.id, task.prompt, tc.candidates, tokenizer_,
        model_.config().max_seq);
    pairs.insert(pairs.end(), task_pairs.begin(), task_pairs.end());
  }
  pair_counter.add(pairs.size());
  return pairs;
}

DpoAfPipeline::EvalTally DpoAfPipeline::tally_eval(
    const std::vector<const driving::Task*>& tasks, const TinyGpt& model,
    std::uint64_t stream, bool (*in_group1)(const driving::Task&)) const {
  Rng eval_rng(config_.seed * 0x9E3779B9ULL + stream);
  lm::SamplerConfig sampler;
  sampler.temperature = config_.eval_temperature;
  sampler.max_new_tokens = config_.eval_max_new_tokens;
  std::vector<Rng> task_rngs = split_task_rngs(eval_rng, tasks.size());

  EvalTally out;
  out.per_task.resize(tasks.size());
  // Generated rulebooks differ in length, so satisfied counts are also
  // normalized by each task's own rulebook size.
  std::vector<double> rulebook(tasks.size());
  for (std::size_t u = 0; u < tasks.size(); ++u)
    rulebook[u] =
        static_cast<double>(domain_.specs_for(tasks[u]->scenario).size());
  for (const ScoredItem& item :
       stream_scored_responses(tasks, config_.eval_samples_per_task, model,
                               sampler, task_rngs)) {
    const std::size_t u = item.task_index;
    const int score = item.candidate.score;
    EvalMeans& m = out.per_task[u];
    if (item.truncated) ++out.truncated;
    // The means count an unalignable response as 0 satisfied specs; the
    // failure itself is tallied separately so the two outcomes stay
    // distinguishable.
    if (score < 0)
      m.alignment_failure += 1.0;
    else if (static_cast<double>(score) < rulebook[u])
      m.violation += 1.0;
    m.satisfied += std::max(0, score);
    m.satisfied_fraction += std::max(0, score) / rulebook[u];
  }

  // Serial reductions in task order: each task over its samples, then
  // each group over its tasks.
  const auto n = static_cast<double>(config_.eval_samples_per_task);
  for (std::size_t u = 0; u < tasks.size(); ++u) {
    out.per_task[u] /= n;
    const int g = in_group1(*tasks[u]) ? 1 : 0;
    out.group[g] += out.per_task[u];
    ++out.group_tasks[g];
  }
  for (int g = 0; g < 2; ++g)
    if (out.group_tasks[g] > 0)
      out.group[g] /= static_cast<double>(out.group_tasks[g]);
  return out;
}

CheckpointEval DpoAfPipeline::evaluate_model(const TinyGpt& model,
                                             int epoch) const {
  obs::Span span("eval", obs::histogram("pipeline.eval_ns"));
  // Held-out tasks never appear in checkpoint evaluation — they are
  // reserved for evaluate_generalization (and skipping them here keeps the
  // no-holdout RNG stream untouched: the split count only drops when a
  // holdout exists).
  std::vector<const driving::Task*> tasks;
  for (const auto& task : domain_.tasks())
    if (!task.holdout) tasks.push_back(&task);
  // Deterministic per (seed, epoch) so evaluation noise is shared across
  // configurations being compared. Group 1 is validation.
  const EvalTally t =
      tally_eval(tasks, model, static_cast<std::uint64_t>(epoch),
                 [](const driving::Task& task) { return !task.training; });
  CheckpointEval eval;
  eval.epoch = epoch;
  eval.train_mean_satisfied = t.group[0].satisfied;
  eval.val_mean_satisfied = t.group[1].satisfied;
  eval.train_alignment_failure_rate = t.group[0].alignment_failure;
  eval.val_alignment_failure_rate = t.group[1].alignment_failure;
  eval.truncated_responses = t.truncated;
  for (std::size_t u = 0; u < tasks.size(); ++u) {
    eval.per_task.emplace_back(tasks[u]->id, t.per_task[u].satisfied);
    eval.per_task_alignment_failure.push_back(
        t.per_task[u].alignment_failure);
  }
  return eval;
}

GeneralizationEval DpoAfPipeline::evaluate_generalization() const {
  std::vector<const driving::Task*> tasks;
  for (const auto& task : domain_.tasks()) tasks.push_back(&task);
  // A fixed stream offset — private, so running (or skipping) this eval
  // never perturbs any other RNG consumer. Group 1 is held out.
  const EvalTally t =
      tally_eval(tasks, model_, 0xC0FFEE,
                 [](const driving::Task& task) { return task.holdout; });
  GeneralizationEval out;
  out.train_tasks = t.group_tasks[0];
  out.holdout_tasks = t.group_tasks[1];
  out.train_mean_satisfied_fraction = t.group[0].satisfied_fraction;
  out.holdout_mean_satisfied_fraction = t.group[1].satisfied_fraction;
  out.train_alignment_failure_rate = t.group[0].alignment_failure;
  out.holdout_alignment_failure_rate = t.group[1].alignment_failure;
  out.train_violation_rate = t.group[0].violation;
  out.holdout_violation_rate = t.group[1].violation;
  for (std::size_t u = 0; u < tasks.size(); ++u)
    if (tasks[u]->holdout)
      out.per_holdout_task.emplace_back(tasks[u]->id,
                                        t.per_task[u].satisfied_fraction);
  return out;
}

RunResult DpoAfPipeline::run_dpo(
    const std::vector<dpo::PreferencePair>& pairs,
    const ckpt::TrainingCheckpoint* resume) {
  RunResult result;
  result.pair_count = pairs.size();

  dpo::TrainerCheckpointState trainer_resume;
  if (resume != nullptr) {
    // Splice the persisted history back in: metric rows come back through
    // the trainer (which extends them), evaluations directly here.
    trainer_resume = {resume->loop, resume->reference_state,
                      resume->dpo_history};
    result.checkpoints = resume->evals;
  }

  {
    // "dpo" is the fifth of the five pipeline phases in the RunReport.
    // Skipped-stage guard: a resume that already completed every epoch
    // would otherwise charge the trainer setup (reference-model clone) to
    // a phase that never trained.
    const bool will_train =
        (resume == nullptr ? 0 : resume->loop.completed_epochs) <
        config_.dpo.epochs;
    std::optional<obs::Span> span;
    if (will_train) span.emplace("dpo", obs::histogram("pipeline.dpo_ns"));
    dpo::DpoTrainer trainer(model_.clone(), config_.dpo, rng_);
    dpo::TrainHooks hooks;
    hooks.checkpoint = [this, &result](int epoch, const TinyGpt& policy) {
      result.checkpoints.push_back(evaluate_model(policy, epoch));
    };
    if (sink_ && config_.checkpoint_every_epochs > 0) {
      hooks.snapshot_every = config_.checkpoint_every_epochs;
      hooks.snapshot = [this, &result,
                        &pairs](const dpo::TrainerCheckpointState& s) {
        ckpt::TrainingCheckpoint snap =
            base_checkpoint(ckpt::Stage::kDpo, s.loop);
        snap.reference_state = s.reference_state;
        snap.dpo_history = s.history;
        snap.evals = result.checkpoints;
        snap.pairs = pairs;
        sink_->write(snap);
      };
    }
    result.metrics = trainer.train(
        pairs, hooks, resume != nullptr ? &trainer_resume : nullptr);
    model_ = trainer.policy().clone();
  }
  result.generator_stats = domain_.generator_stats();
  for (const driving::Task& task : domain_.tasks())
    if (task.holdout) {
      // The fine-tuned policy against scenarios it never trained on —
      // the held-out generalization protocol of docs/GENERATOR.md.
      obs::Span span("generalization",
                     obs::histogram("pipeline.generalization_ns"));
      result.generalization = evaluate_generalization();
      result.has_generalization = true;
      break;
    }
  result.feedback_cache_stats = domain_.feedback_cache_stats();
  result.buchi_cache_stats = modelcheck::buchi_cache_stats();
  if (obs::enabled()) {
    // Mirror the cache counters into gauges so a MetricsSnapshot alone
    // (e.g. a bench's --metrics-json report) carries them too.
    const auto publish = [](const char* prefix, const util::CacheStats& s) {
      const auto as_i64 = [](std::uint64_t v) {
        return static_cast<std::int64_t>(v);
      };
      const std::string p(prefix);
      obs::gauge(p + ".hits").set(as_i64(s.hits));
      obs::gauge(p + ".misses").set(as_i64(s.misses));
      obs::gauge(p + ".inserts").set(as_i64(s.inserts));
      obs::gauge(p + ".evictions").set(as_i64(s.evictions));
    };
    publish("feedback_cache", result.feedback_cache_stats);
    publish("buchi_cache", result.buchi_cache_stats);
  }
  return result;
}

RunResult DpoAfPipeline::run() {
  if (!config_.resume_from.empty()) {
    const auto path = ckpt::resolve_resume_path(config_.resume_from);
    const ckpt::TrainingCheckpoint snap = ckpt::load_checkpoint(path);
    validate_checkpoint(snap);
    if (snap.stage == ckpt::Stage::kDpo) {
      // The stored preference dataset makes stages 1–4 unnecessary; DPO
      // resumes directly and nothing downstream reads the pipeline RNG, so
      // the final RunResult is bitwise-identical to an uninterrupted run.
      return run_dpo(snap.pairs, &snap);
    }
    const lm::PretrainState state{snap.loop, snap.pretrain_losses};
    pretrain_model(&state);
  }
  if (!pretrained_) pretrain_model();
  return run_dpo(build_pairs(collect_candidates()));
}

}  // namespace dpoaf::core
