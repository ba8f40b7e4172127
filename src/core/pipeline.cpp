#include "core/pipeline.hpp"

#include <algorithm>
#include <atomic>
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
// parameter (and is written into checkpoints), and a negative pre-training
// epoch count trains nothing.
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

// The admission queue holds all `requests` of one batch.
serve::ServiceConfig make_serve_config(const PipelineConfig& config,
                                       std::uint64_t requests) {
  serve::ServiceConfig scfg;
  scfg.slots = config.serve_slots;
  scfg.queue_capacity =
      static_cast<int>(std::max<std::uint64_t>(1, requests));
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
  // them, so held-out prompts stay encodable at eval time). Without any
  // holdout the task list passes through untouched.
  std::vector<driving::Task> visible_tasks;
  const std::vector<driving::Task>* corpus_tasks = &domain_.tasks();
  for (const auto& task : domain_.tasks())
    if (task.holdout) {
      for (const auto& t : domain_.tasks())
        if (!t.holdout) visible_tasks.push_back(t);
      corpus_tasks = &visible_tasks;
      break;
    }
  const auto corpus =
      lm::build_corpus(*corpus_tasks, tokenizer_,
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
    const std::vector<const driving::Task*>& tasks,
    const std::vector<int>& counts, const TinyGpt& model,
    const lm::SamplerConfig& sampler, bool from_catalog,
    std::vector<Rng>& task_rngs) const {
  // Sequence numbers are assigned here, task-major then sample-minor, and
  // request s of task u always decodes with
  // nn::request_rng(config_.seed, task_rngs[u]()) — the s-th serial
  // draw. Each scored response lands in its own slot out[seq], so the
  // result is the same at any thread count and slot count
  // (docs/PIPELINE.md).
  std::uint64_t total = 0;
  for (const int c : counts) total += static_cast<std::uint64_t>(c);
  std::vector<ScoredItem> out(total);
  std::vector<serve::GenerateRequest> requests;
  requests.reserve(from_catalog ? 0 : total);
  for (std::size_t u = 0, seq = 0; u < tasks.size(); ++u) {
    std::vector<int> prompt;
    if (!from_catalog) prompt = lm::encode_prompt(tokenizer_, tasks[u]->prompt);
    for (int s = 0; s < counts[u]; ++s) {
      ScoredItem& item = out[seq++];
      item.task_index = u;
      if (from_catalog) {
        item.candidate.text =
            tasks[u]->variants[static_cast<std::size_t>(s)].text;
        continue;
      }
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

  // Sampled sources: every request goes to the service in one batch, so
  // its scheduling (and its serve.* counters) never depends on thread
  // timing. Declared before the workers so none of them outlives it.
  std::unique_ptr<serve::GenerationService> service;
  std::vector<std::future<serve::GenerateResult>> responses;
  if (!from_catalog) {
    service = std::make_unique<serve::GenerationService>(
        model, make_serve_config(config_, total));
    responses = service->submit_all(std::move(requests));
  }

  // Verify workers claim sequence numbers in order, wait for that
  // response's text, and score it into out[seq]. They are dedicated
  // threads, not pool jobs: a pool job blocked on a future would hold a
  // thread that the service's decode step needs. A throwing worker stops
  // the others from claiming more; get() below rethrows its error.
  std::atomic<std::uint64_t> next{0};
  std::atomic<bool> stop{false};
  // Overlap telemetry: scorings that complete while some response's text
  // is not yet in hand — work a sample-then-score barrier would serialize.
  std::atomic<std::uint64_t> undecoded{from_catalog ? 0 : total};
  std::atomic<std::uint64_t> scored_while_sampling{0};
  const auto verify = [&] {
    try {
      for (std::uint64_t seq = next++; seq < total && !stop; seq = next++) {
        ScoredItem& item = out[seq];
        if (!from_catalog) {
          obs::Span span("generation",
                         obs::histogram("pipeline.generation_ns"));
          const serve::GenerateResult r = responses[seq].get();
          undecoded.fetch_sub(1, std::memory_order_relaxed);
          DPOAF_CHECK_MSG(r.finish != serve::FinishReason::kInvalid,
                          "the generation service rejected a sampling "
                          "request as invalid");
          item.truncated = r.finish == serve::FinishReason::kContext;
          item.candidate.text =
              lm::decode_response(tokenizer_, r.ids, item.truncated);
        }
        item.candidate.score =
            score_response(*tasks[item.task_index], item.candidate.text);
        if (undecoded.load(std::memory_order_relaxed) > 0)
          scored_while_sampling.fetch_add(1, std::memory_order_relaxed);
      }
    } catch (...) {
      stop = true;
      throw;
    }
  };
  std::vector<std::future<void>> workers;
  for (int w = 0; w < util::global_threads(); ++w)
    workers.push_back(std::async(std::launch::async, verify));
  for (std::future<void>& w : workers) w.get();

  if (obs::enabled()) {
    obs::gauge("dataflow.pipeline.scored_while_sampling")
        .record_max(static_cast<std::int64_t>(
            scored_while_sampling.load(std::memory_order_relaxed)));
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
  std::vector<Rng> task_rngs = split_task_rngs(rng_, training.size());

  std::vector<int> counts(training.size(), config_.responses_per_task);
  if (config_.candidates_from_catalog)
    for (std::size_t u = 0; u < training.size(); ++u)
      counts[u] = static_cast<int>(training[u]->variants.size());

  std::vector<TaskCandidates> out(training.size());
  for (std::size_t u = 0; u < training.size(); ++u)
    out[u].task_id = training[u]->id;
  for (ScoredItem& item : stream_scored_responses(
           training, counts, model_, config_.sampler,
           config_.candidates_from_catalog, task_rngs)) {
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

std::vector<DpoAfPipeline::ScoredItem> DpoAfPipeline::score_eval_samples(
    const std::vector<const driving::Task*>& tasks, const TinyGpt& model,
    std::uint64_t stream) const {
  Rng eval_rng(config_.seed * 0x9E3779B9ULL + stream);
  lm::SamplerConfig sampler;
  sampler.temperature = config_.eval_temperature;
  sampler.max_new_tokens = config_.eval_max_new_tokens;
  std::vector<Rng> task_rngs = split_task_rngs(eval_rng, tasks.size());
  const std::vector<int> counts(tasks.size(), config_.eval_samples_per_task);
  return stream_scored_responses(tasks, counts, model, sampler, false,
                                 task_rngs);
}

CheckpointEval DpoAfPipeline::evaluate_model(const TinyGpt& model,
                                             int epoch) const {
  obs::Span span("eval", obs::histogram("pipeline.eval_ns"));
  CheckpointEval eval;
  eval.epoch = epoch;
  // Held-out tasks never appear in checkpoint evaluation — they are
  // reserved for evaluate_generalization (and skipping them here keeps the
  // no-holdout RNG stream untouched: the split count only drops when a
  // holdout exists).
  std::vector<const driving::Task*> tasks;
  for (const auto& task : domain_.tasks())
    if (!task.holdout) tasks.push_back(&task);

  std::vector<double> score_sum(tasks.size(), 0.0);
  std::vector<int> failures(tasks.size(), 0);
  // Deterministic per (seed, epoch) so evaluation noise is shared across
  // configurations being compared.
  for (const ScoredItem& item :
       score_eval_samples(tasks, model, static_cast<std::uint64_t>(epoch))) {
    const std::size_t u = item.task_index;
    if (item.truncated) ++eval.truncated_responses;
    // The mean counts an unalignable response as 0 satisfied specs; the
    // failure itself is tallied separately so the two outcomes stay
    // distinguishable.
    if (item.candidate.score < 0) ++failures[u];
    score_sum[u] += std::max(0, item.candidate.score);
  }

  // Serial reduction in task order.
  const auto n = static_cast<double>(config_.eval_samples_per_task);
  double train_sum = 0.0, val_sum = 0.0;
  double train_fail = 0.0, val_fail = 0.0;
  std::size_t train_n = 0, val_n = 0;
  for (std::size_t u = 0; u < tasks.size(); ++u) {
    const double score = score_sum[u] / n;
    const double fail = static_cast<double>(failures[u]) / n;
    eval.per_task.emplace_back(tasks[u]->id, score);
    eval.per_task_alignment_failure.push_back(fail);
    if (tasks[u]->training) {
      train_sum += score;
      train_fail += fail;
      ++train_n;
    } else {
      val_sum += score;
      val_fail += fail;
      ++val_n;
    }
  }
  if (train_n > 0) {
    eval.train_mean_satisfied = train_sum / static_cast<double>(train_n);
    eval.train_alignment_failure_rate =
        train_fail / static_cast<double>(train_n);
  }
  if (val_n > 0) {
    eval.val_mean_satisfied = val_sum / static_cast<double>(val_n);
    eval.val_alignment_failure_rate = val_fail / static_cast<double>(val_n);
  }
  return eval;
}

GeneralizationEval DpoAfPipeline::evaluate_generalization() const {
  GeneralizationEval out;
  std::vector<const driving::Task*> tasks;
  for (const auto& task : domain_.tasks()) tasks.push_back(&task);

  // Generated rulebooks differ in length, so satisfied counts are
  // normalized by each task's own rulebook size before averaging.
  std::vector<double> rulebook_size(tasks.size());
  for (std::size_t u = 0; u < tasks.size(); ++u)
    rulebook_size[u] =
        static_cast<double>(domain_.specs_for(tasks[u]->scenario).size());
  struct TaskScore {
    double satisfied_fraction = 0.0;
    double alignment_failure = 0.0;
    double violation = 0.0;
  };
  std::vector<TaskScore> scores(tasks.size());
  // A fixed stream offset — private, so running (or skipping) this eval
  // never perturbs any other RNG consumer.
  for (const ScoredItem& item : score_eval_samples(tasks, model_, 0xC0FFEE)) {
    const std::size_t u = item.task_index;
    const int score = item.candidate.score;
    TaskScore& s = scores[u];
    if (score < 0)
      s.alignment_failure += 1.0;
    else if (static_cast<double>(score) < rulebook_size[u])
      s.violation += 1.0;
    s.satisfied_fraction += std::max(0, score) / rulebook_size[u];
  }

  // Serial reduction in task order.
  const auto n = static_cast<double>(config_.eval_samples_per_task);
  for (std::size_t u = 0; u < tasks.size(); ++u) {
    TaskScore& s = scores[u];
    s.satisfied_fraction /= n;
    s.alignment_failure /= n;
    s.violation /= n;
    if (tasks[u]->holdout) {
      ++out.holdout_tasks;
      out.holdout_mean_satisfied_fraction += s.satisfied_fraction;
      out.holdout_alignment_failure_rate += s.alignment_failure;
      out.holdout_violation_rate += s.violation;
      out.per_holdout_task.emplace_back(tasks[u]->id, s.satisfied_fraction);
    } else {
      ++out.train_tasks;
      out.train_mean_satisfied_fraction += s.satisfied_fraction;
      out.train_alignment_failure_rate += s.alignment_failure;
      out.train_violation_rate += s.violation;
    }
  }
  if (out.train_tasks > 0) {
    const auto n = static_cast<double>(out.train_tasks);
    out.train_mean_satisfied_fraction /= n;
    out.train_alignment_failure_rate /= n;
    out.train_violation_rate /= n;
  }
  if (out.holdout_tasks > 0) {
    const auto n = static_cast<double>(out.holdout_tasks);
    out.holdout_mean_satisfied_fraction /= n;
    out.holdout_alignment_failure_rate /= n;
    out.holdout_violation_rate /= n;
  }
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
