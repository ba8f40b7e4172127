// perfbench worker: one cold DPO-AF pass (or one cold set-up probe) per
// process, printed as a single JSON object on stdout. perfbench/run.py
// spawns it, so every sample pays the process-cold costs a user pays.
//
// Usage:
//   perfbench_worker run   --workload NAME --seed N [--smoke] [--threads N]
//                          [--trace-json PATH]
//   perfbench_worker setup --workload NAME --seed N [--smoke]
//   perfbench_worker parts --workload NAME --seed N [--smoke]
//
// `run` drives core::DpoAfPipeline through its public stage calls in the
// order examples/finetune_pipeline.cpp uses (constructor, pretrain_model,
// collect_candidates, build_pairs, run_dpo) and checks the outputs. With
// --trace-json it enables the obs layer, wraps each call in a benchmark
// span, derives the per-layer metrics from the spans, counters and
// histograms the library already records, and writes a Chrome trace.
// --threads overrides the workload's thread count (the cross-thread digest
// check).
// `setup` times one cold pipeline construction; `parts` times a cold
// DrivingDomain, lm::build_tokenizer and TinyGpt init on their own.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt/store.hpp"
#include "core/pipeline.hpp"
#include "lm/corpus.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "tensor/backend/backend.hpp"

namespace {

using namespace dpoaf;

// ---- workloads --------------------------------------------------------

struct Workload {
  const char* name;
  int threads;
  bool serve;
  int generated;
  int holdout;
  int pretrain_epochs;
  int dpo_epochs;
  int responses_per_task;   // m
  int eval_samples;
  int corpus_samples;
};

// paper_t1: finetune_pipeline defaults at --epochs 8 on the paper's five
// scenarios, 1 thread. gen64_serve: 64 generated scenarios (8 held out),
// serve-backed sampling and short training, so generation, synthesis and
// verification carry a large share of the run.
constexpr Workload kWorkloads[] = {
    {"paper_t1", 1, false, 0, 0, 12, 8, 16, 10, 40},
    {"gen64_serve", 1, true, 64, 8, 2, 2, 8, 4, 12},
};

// Smoke sizes keep every stage and code path but finish in about a second.
constexpr Workload kSmoke[] = {
    {"paper_t1", 1, false, 0, 0, 1, 2, 4, 2, 4},
    {"gen64_serve", 1, true, 8, 2, 1, 2, 4, 2, 4},
};

constexpr int kPairsPerEpoch = 48;
constexpr int kCheckpointEvery = 20;

const Workload* find_workload(const std::string& name, bool smoke) {
  for (std::size_t i = 0; i < std::size(kWorkloads); ++i)
    if (name == kWorkloads[i].name) return smoke ? &kSmoke[i] : &kWorkloads[i];
  return nullptr;
}

core::PipelineConfig make_config(const Workload& w, std::uint64_t seed) {
  core::PipelineConfig cfg;
  cfg.seed = seed;
  // The generated catalog stays the repository's default set: verification
  // cost differs up to 2x between generator seeds, which would swamp every
  // timing, while the pipeline seed only moves sampling and training.
  cfg.generator_seed = 7;
  cfg.threads = w.threads;
  cfg.backend = tensor::backend::simd_supported() ? "simd" : "scalar";
  cfg.serve = w.serve;
  cfg.generated_scenarios = w.generated;
  cfg.holdout_scenarios = w.holdout;
  cfg.pretrain.epochs = w.pretrain_epochs;
  cfg.dpo.epochs = w.dpo_epochs;
  cfg.dpo.checkpoint_every = kCheckpointEvery;
  cfg.dpo.pairs_per_epoch = kPairsPerEpoch;
  cfg.responses_per_task = w.responses_per_task;
  cfg.eval_samples_per_task = w.eval_samples;
  cfg.corpus_samples_per_task = w.corpus_samples;
  return cfg;
}

// ---- small helpers ----------------------------------------------------

// CLOCK_MONOTONIC is the clock Python's time.monotonic() reads: run.py
// subtracts its spawn time from this process's t_done to get wall_s.
double mono_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double since(double t0) { return mono_s() - t0; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

/// Ordered JSON object builder (values are pre-rendered JSON).
class JsonObject {
 public:
  JsonObject& add(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
    return *this;
  }
  JsonObject& add(const std::string& key, double v) { return add(key, num(v)); }
  [[nodiscard]] std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += quote(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// 64-bit FNV-1a over the bytes of everything a run computes.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001B3ULL;
    }
  }
  template <typename T>
  void pod(const T& v) {
    bytes(&v, sizeof v);
  }
  void str(const std::string& s) {
    pod(s.size());
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::string hex() const {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

std::string run_digest(const lm::PretrainStats& pt,
                       const std::vector<core::TaskCandidates>& candidates,
                       const std::vector<dpo::PreferencePair>& pairs,
                       const core::RunResult& r, const nn::TinyGpt& model) {
  Digest d;
  for (const double l : pt.epoch_losses) d.pod(l);
  for (const auto& tc : candidates) {
    d.str(tc.task_id);
    for (const auto& c : tc.candidates) {
      d.str(c.text);
      d.pod(c.score);
    }
  }
  for (const auto& p : pairs) {
    d.str(p.task_id);
    d.pod(p.prompt_len);
    for (const int id : p.chosen) d.pod(id);
    for (const int id : p.rejected) d.pod(id);
  }
  for (const auto& m : r.metrics) {
    d.pod(m.epoch);
    d.pod(m.loss);
    d.pod(m.accuracy);
    d.pod(m.margin);
    d.pod(m.kl);
  }
  for (const auto& c : r.checkpoints) {
    d.pod(c.epoch);
    d.pod(c.train_mean_satisfied);
    d.pod(c.val_mean_satisfied);
    d.pod(c.train_alignment_failure_rate);
    d.pod(c.val_alignment_failure_rate);
    d.pod(c.truncated_responses);
    for (const auto& [id, v] : c.per_task) {
      d.str(id);
      d.pod(v);
    }
  }
  d.pod(r.pair_count);
  if (r.has_generalization) {
    const auto& g = r.generalization;
    d.pod(g.train_mean_satisfied_fraction);
    d.pod(g.holdout_mean_satisfied_fraction);
    d.pod(g.train_alignment_failure_rate);
    d.pod(g.holdout_alignment_failure_rate);
    d.pod(g.train_violation_rate);
    d.pod(g.holdout_violation_rate);
  }
  for (const float w : model.state()) d.pod(w);
  return d.hex();
}

/// Percent of each training task's rulebook the final policy satisfies,
/// averaged over training tasks (unalignable responses count 0).
double spec_sat_pct(const core::DpoAfPipeline& pipe,
                    const core::CheckpointEval& last) {
  double sum = 0.0;
  int n = 0;
  for (const auto& [task_id, satisfied] : last.per_task) {
    const driving::Task& task = pipe.domain().task_by_id(task_id);
    if (!task.training || task.holdout) continue;
    const auto rulebook =
        static_cast<double>(pipe.domain().specs_for(task.scenario).size());
    sum += 100.0 * satisfied / rulebook;
    ++n;
  }
  return n > 0 ? sum / n : -1.0;
}

/// Records when each pre-training epoch ends: the pipeline's snapshot hook
/// fires at every epoch boundary once checkpoint_every_epochs is 1.
class EpochClock final : public ckpt::CheckpointSink {
 public:
  void write(const ckpt::TrainingCheckpoint& snap) override {
    if (snap.stage == ckpt::Stage::kPretrain) pretrain_ends.push_back(mono_s());
  }
  std::vector<double> pretrain_ends;
};

// ---- traced-run analysis ----------------------------------------------

struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  std::vector<double> self_each;  // per-instance self time
};

/// Per-name inclusive and self time: a span's self time is its duration
/// minus what its direct children on the same thread cover.
std::map<std::string, SpanTotals> span_totals(
    const std::vector<obs::TraceEvent>& events) {
  std::vector<const obs::TraceEvent*> order;
  order.reserve(events.size());
  for (const auto& e : events) order.push_back(&e);
  std::sort(order.begin(), order.end(), [](const auto* a, const auto* b) {
    if (a->tid != b->tid) return a->tid < b->tid;
    if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
    return a->depth < b->depth;
  });
  std::vector<std::uint64_t> child_ns(events.size(), 0);
  std::vector<std::size_t> stack;  // indices into order
  std::uint32_t tid = UINT32_MAX;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const obs::TraceEvent& e = *order[i];
    if (e.tid != tid) {
      stack.clear();
      tid = e.tid;
    }
    while (!stack.empty()) {
      const obs::TraceEvent& top = *order[stack.back()];
      if (top.start_ns + top.dur_ns <= e.start_ns || top.depth >= e.depth)
        stack.pop_back();
      else
        break;
    }
    if (!stack.empty()) child_ns[stack.back()] += e.dur_ns;
    stack.push_back(i);
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const obs::TraceEvent& e = *order[i];
    SpanTotals& t = out[e.name];
    const double self =
        1e-9 * static_cast<double>(e.dur_ns - std::min(e.dur_ns, child_ns[i]));
    ++t.count;
    t.total_s += 1e-9 * static_cast<double>(e.dur_ns);
    t.self_s += self;
    t.self_each.push_back(self);
  }
  return out;
}

/// Quantile of a log2-bucketed histogram, interpolated linearly inside the
/// bucket and clamped to [min, max]. Resolution is one power of two.
double hist_quantile(const obs::HistogramSnapshot& h, double q) {
  if (h.count == 0) return 0.0;
  const double rank = q * static_cast<double>(h.count);
  double seen = 0.0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    const auto c = static_cast<double>(h.buckets[i]);
    if (c == 0.0) continue;
    if (seen + c >= rank) {
      const double lo = i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i) - 1);
      const double hi = i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i)) - 1;
      const double v = lo + (hi - lo) * ((rank - seen) / c);
      return std::clamp(v, static_cast<double>(h.min), static_cast<double>(h.max));
    }
    seen += c;
  }
  return static_cast<double>(h.max);
}

struct Registry {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, obs::HistogramSnapshot> hists;

  static Registry capture() {
    Registry r;
    const obs::MetricsSnapshot s = obs::MetricsRegistry::instance().snapshot();
    for (const auto& c : s.counters) r.counters[c.name] = c.value;
    for (const auto& g : s.gauges) r.gauges[g.name] = g.value;
    for (const auto& h : s.histograms) r.hists[h.name] = h.snapshot;
    return r;
  }
  [[nodiscard]] double c(const std::string& n) const {
    const auto it = counters.find(n);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  }
  [[nodiscard]] double g(const std::string& n) const {
    const auto it = gauges.find(n);
    return it == gauges.end() ? 0.0 : static_cast<double>(it->second);
  }
  [[nodiscard]] obs::HistogramSnapshot h(const std::string& n) const {
    const auto it = hists.find(n);
    return it == hists.end() ? obs::HistogramSnapshot{} : it->second;
  }
};

double hit_ratio(const util::CacheStats& s) {
  return ratio(static_cast<double>(s.hits),
               static_cast<double>(s.hits + s.misses));
}

// ---- modes ------------------------------------------------------------

struct RunOptions {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  std::string trace_json;  // non-empty ⇒ traced pass
};

int run_pass(const RunOptions& opt) {
  const Workload& w = *opt.workload;
  const bool traced = !opt.trace_json.empty();
  core::PipelineConfig cfg = make_config(w, opt.seed);
  std::shared_ptr<EpochClock> clock;
  if (traced) {
    // On before construction, so scenario generation is counted too.
    obs::set_enabled(true);
    cfg.observability = true;
    cfg.checkpoint_every_epochs = 1;
    clock = std::make_shared<EpochClock>();
  }

  std::vector<std::string> failed_checks;
  const auto check = [&](bool ok, const std::string& what) {
    if (!ok) failed_checks.push_back(what);
  };

  // Untraced stage times come from the same clock the spans would use.
  std::map<std::string, double> stage_s;
  double t = mono_s();
  std::optional<core::DpoAfPipeline> pipe;
  {
    obs::Span span("bench.setup");
    pipe.emplace(cfg);
  }
  stage_s["setup"] = since(t);
  if (clock) pipe->set_checkpoint_sink(clock);

  t = mono_s();
  lm::PretrainStats pt;
  {
    obs::Span span("bench.pretrain");
    pt = pipe->pretrain_model();
  }
  stage_s["pretrain"] = since(t);

  t = mono_s();
  std::vector<core::TaskCandidates> candidates;
  {
    obs::Span span("bench.collect");
    candidates = pipe->collect_candidates();
  }
  stage_s["collect"] = since(t);
  // The dataflow gauges keep a running max over every streamed call; read
  // them now, before checkpoint evaluation streams through the same stages.
  const Registry after_collect = traced ? Registry::capture() : Registry{};

  t = mono_s();
  std::vector<dpo::PreferencePair> pairs;
  {
    obs::Span span("bench.rank");
    pairs = pipe->build_pairs(candidates);
  }
  stage_s["rank"] = since(t);

  t = mono_s();
  core::RunResult result;
  {
    obs::Span span("bench.dpo");
    result = pipe->run_dpo(pairs);
  }
  stage_s["dpo"] = since(t);
  const double t_done = mono_s();
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  // ---- output checks --------------------------------------------------
  const core::PipelineConfig& pc = pipe->config();
  bool finite = pt.epoch_losses.size() ==
                static_cast<std::size_t>(pc.pretrain.epochs);
  for (const double l : pt.epoch_losses) finite = finite && std::isfinite(l);
  check(finite, "pretrain losses finite, one per epoch");
  std::size_t training_tasks = 0;
  for (const auto& task : pipe->domain().tasks())
    if (task.training && !task.holdout) ++training_tasks;
  std::size_t responses = 0;
  for (const auto& tc : candidates) responses += tc.candidates.size();
  check(candidates.size() == training_tasks &&
            responses == training_tasks *
                             static_cast<std::size_t>(pc.responses_per_task),
        "responses == training tasks x m");
  check(result.pair_count > 0 && result.pair_count == pairs.size(),
        "pair_count > 0");
  bool dpo_ok =
      result.metrics.size() == static_cast<std::size_t>(pc.dpo.epochs);
  for (const auto& m : result.metrics) dpo_ok = dpo_ok && std::isfinite(m.loss);
  check(dpo_ok, "DPO losses finite, one per epoch");
  std::size_t expected_ckpts = 1;  // epoch 0
  for (int e = 1; e <= pc.dpo.epochs; ++e)
    if (e % pc.dpo.checkpoint_every == 0 || e == pc.dpo.epochs) ++expected_ckpts;
  check(result.checkpoints.size() == expected_ckpts, "checkpoint count");
  check(result.has_generalization == (w.holdout > 0),
        "generalization eval iff held-out scenarios");
  const double sat =
      result.checkpoints.empty() ? -1.0
                                 : spec_sat_pct(*pipe, result.checkpoints.back());
  check(sat >= 0.0 && sat <= 100.0, "spec_sat_pct within [0, 100]");
  const double pairs_per_epoch = static_cast<double>(std::min<std::size_t>(
      pairs.size(), static_cast<std::size_t>(pc.dpo.pairs_per_epoch)));
  const std::string digest = run_digest(pt, candidates, pairs, result, pipe->model());

  JsonObject out;
  out.add("t_done", t_done)
      .add("user_s", static_cast<double>(ru.ru_utime.tv_sec) +
                         1e-6 * static_cast<double>(ru.ru_utime.tv_usec))
      .add("sys_s", static_cast<double>(ru.ru_stime.tv_sec) +
                        1e-6 * static_cast<double>(ru.ru_stime.tv_usec))
      .add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0)
      .add("spec_sat_pct", sat)
      .add("digest", quote(digest))
      .add("backend", quote(tensor::backend::active().name()))
      .add("simd_supported", tensor::backend::simd_supported() ? "true" : "false")
      .add("threads", pc.threads)
      .add("pairs", static_cast<double>(pairs.size()));
  JsonObject stages;
  for (const auto& [name, secs] : stage_s) stages.add(name, secs);
  out.add("stage_s", stages.str());

  if (traced) {
    const Registry reg = Registry::capture();
    const std::vector<obs::TraceEvent> events = obs::trace_snapshot();
    const auto spans = span_totals(events);
    const auto total = [&](const char* name) {
      const auto it = spans.find(name);
      return it == spans.end() ? 0.0 : it->second.total_s;
    };
    check(obs::dropped_trace_events() == 0, "trace kept every span");
    check(reg.c("dpo.pairs_seen") == pc.dpo.epochs * pairs_per_epoch,
          "pairs_seen == epochs x pairs_per_epoch");
    check(reg.c("dpo.epochs") == pc.dpo.epochs, "DPO epochs run");

    std::map<std::string, double> m;
    const double pretrain_s = total("bench.pretrain");
    const double eval_s = total("eval") + total("generalization");
    const double dpo_s = total("bench.dpo") - eval_s;
    const double collect_s = total("bench.collect");
    m["core.setup_s"] = total("bench.setup");
    m["core.pretrain_s"] = pretrain_s;
    m["core.collect_s"] = collect_s;
    m["core.rank_s"] = total("bench.rank");
    m["core.dpo_s"] = dpo_s;
    m["core.eval_s"] = eval_s;
    m["core.overlap_ratio"] =
        ratio(after_collect.g("dataflow.pipeline.scored_while_sampling"),
              after_collect.g("dataflow.pipeline.items"));
    m["core.backpressure_waits"] =
        after_collect.g("dataflow.pipeline.candidates.backpressure_waits") +
        after_collect.g("dataflow.pipeline.inflight.backpressure_waits");

    std::vector<double> epochs;
    for (std::size_t i = 1; i < clock->pretrain_ends.size(); ++i)
      epochs.push_back(clock->pretrain_ends[i] - clock->pretrain_ends[i - 1]);
    const obs::HistogramSnapshot pe = reg.h("lm.pretrain.epoch_ns");
    m["lm.pretrain_epoch_s"] =
        epochs.empty() ? 1e-9 * pe.mean() : median(std::move(epochs));
    m["lm.gen_tokens"] = reg.c("lm.generated_tokens");
    m["lm.gen_tok_per_s"] = ratio(reg.c("lm.generated_tokens"), collect_s + eval_s);

    const double calls = reg.c("tensor.matmul.calls") + reg.c("tensor.matmul.bwd_calls");
    const double flops = reg.c("tensor.matmul.flops") + reg.c("tensor.matmul.bwd_flops");
    m["tensor.matmul_calls"] = calls;
    m["tensor.matmul_gflop"] = 1e-9 * flops;
    m["tensor.flop_per_call"] = ratio(flops, calls);
    m["tensor.gflops"] = ratio(1e-9 * flops, pretrain_s + dpo_s);

    const double pf_calls = reg.c("threadpool.parallel_for.calls");
    m["util.parallel_for_calls"] = pf_calls;
    m["util.inline_ratio"] = ratio(reg.c("threadpool.parallel_for.inline"), pf_calls);
    m["util.jobs"] = reg.c("threadpool.jobs");
    m["util.sys_s"] = static_cast<double>(ru.ru_stime.tv_sec) +
                      1e-6 * static_cast<double>(ru.ru_stime.tv_usec);

    const auto epoch_it = spans.find("dpo.epoch");
    const double epoch_self =
        epoch_it == spans.end() ? 0.0 : epoch_it->second.self_s;
    m["dpo.epoch_s"] =
        epoch_it == spans.end() ? 0.0 : median(epoch_it->second.self_each);
    m["dpo.pairs_per_s"] = ratio(reg.c("dpo.pairs_seen"), epoch_self);
    m["dpo.ref_precompute_s"] = total("dpo.ref_precompute");

    const obs::HistogramSnapshot ttft = reg.h("serve.ttft_ns");
    const obs::HistogramSnapshot queue = reg.h("serve.queue_ns");
    m["serve.tok_per_s"] = ratio(reg.c("serve.generated_tokens"), total("serve"));
    m["serve.ttft_p50_ms"] = 1e-6 * hist_quantile(ttft, 0.50);
    m["serve.ttft_p99_ms"] = 1e-6 * hist_quantile(ttft, 0.99);
    m["serve.ttft_samples"] = static_cast<double>(ttft.count);
    m["serve.queue_p50_ms"] = 1e-6 * hist_quantile(queue, 0.50);
    m["serve.queue_samples"] = static_cast<double>(queue.count);
    m["serve.prefix_hit_ratio"] = ratio(reg.c("serve.prefix_hits"), reg.c("serve.requests"));
    m["serve.iterations"] = reg.c("serve.iterations");

    const double computed = reg.c("feedback.computed");
    m["glm2fsa.synthesis_s"] = total("synthesis");
    m["glm2fsa.aligned_ratio"] =
        ratio(computed - reg.c("feedback.alignment_failures"), computed);

    const obs::HistogramSnapshot chk = reg.h("modelcheck.check_ns");
    m["modelcheck.verify_s"] = total("verification");
    m["modelcheck.checks"] = reg.c("modelcheck.checks");
    m["modelcheck.check_p50_us"] = 1e-3 * hist_quantile(chk, 0.50);
    m["modelcheck.check_p99_us"] = 1e-3 * hist_quantile(chk, 0.99);
    m["modelcheck.buchi_hit_ratio"] = hit_ratio(result.buchi_cache_stats);

    m["driving.feedback_hit_ratio"] =
        ratio(static_cast<double>(result.feedback_cache_stats.hits),
              reg.c("feedback.requests"));
    m["driving.feedback_computed"] = computed;
    m["monitor.compilations"] = reg.c("monitor.compilations");
    m["monitor.hit_ratio"] = hit_ratio(result.monitor_cache_stats);

    JsonObject layer;
    for (const auto& [name, v] : m) layer.add(name, v);
    out.add("layer", layer.str());
    std::string table = "[";
    for (const auto& [name, s] : spans) {
      if (table.size() > 1) table += ", ";
      table += JsonObject()
                   .add("name", quote(name))
                   .add("count", static_cast<double>(s.count))
                   .add("total_s", s.total_s)
                   .add("self_s", s.self_s)
                   .str();
    }
    out.add("spans", table + "]");

    // Spans stay in memory during the run; the trace file is written last.
    if (!obs::write_text_file(opt.trace_json,
                              obs::to_chrome_trace(obs::capture_run_report("perfbench"))))
      check(false, "chrome trace written");
  }

  std::string fails = "[";
  for (const auto& f : failed_checks) fails += (fails.size() > 1 ? ", " : "") + quote(f);
  out.add("failed_checks", fails + "]");
  std::printf("%s\n", out.str().c_str());
  return 0;
}

int setup_probe(const Workload& w, std::uint64_t seed) {
  const core::PipelineConfig cfg = make_config(w, seed);
  const double t0 = mono_s();
  const core::DpoAfPipeline pipe(cfg);
  const double setup_s = since(t0);
  std::printf("%s\n", JsonObject()
                          .add("setup_s", setup_s)
                          .add("parameters", static_cast<double>(
                                                 pipe.model().parameter_count()))
                          .str()
                          .c_str());
  return 0;
}

int parts_probe(const Workload& w, std::uint64_t seed) {
  const core::PipelineConfig cfg = make_config(w, seed);
  driving::generator::GeneratorConfig gen;
  gen.seed = cfg.generator_seed;
  gen.count = cfg.generated_scenarios;
  gen.holdout = cfg.holdout_scenarios;

  double t = mono_s();
  const driving::DrivingDomain domain(gen);
  const double domain_s = since(t);

  t = mono_s();
  const nn::Tokenizer tok = lm::build_tokenizer(domain.tasks());
  const double tokenizer_s = since(t);

  t = mono_s();
  nn::GptConfig gpt;
  gpt.vocab_size = static_cast<std::int64_t>(tok.vocab_size());
  gpt.d_model = cfg.d_model;
  gpt.n_heads = cfg.n_heads;
  gpt.n_layers = cfg.n_layers;
  gpt.d_ff = cfg.d_ff;
  std::int64_t longest = 0;
  for (const auto& task : domain.tasks())
    for (const auto& variant : task.variants)
      longest = std::max(longest, static_cast<std::int64_t>(
                                      lm::encode_example(tok, task.prompt,
                                                         variant.text)
                                          .size()));
  gpt.max_seq = longest + 16;
  Rng rng(cfg.seed);
  const nn::TinyGpt model(gpt, rng);
  const double model_s = since(t);

  std::printf("%s\n", JsonObject()
                          .add("domain_s", domain_s)
                          .add("tokenizer_s", tokenizer_s)
                          .add("model_init_s", model_s)
                          .add("parameters",
                               static_cast<double>(model.parameter_count()))
                          .str()
                          .c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_worker run|setup|parts --workload NAME "
               "--seed N [--smoke] [--threads N] [--trace-json PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::string workload;
  std::uint64_t seed = 1;
  bool smoke = false;
  int threads = 0;
  RunOptions opt;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--trace-json" && has_value) {
      opt.trace_json = argv[++i];
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--threads" && has_value) {
      threads = std::atoi(argv[++i]);
    } else {
      return usage();
    }
  }
  const Workload* w = find_workload(workload, smoke);
  if (w == nullptr) return usage();
  Workload single = *w;
  if (threads > 0) single.threads = threads;
  try {
    if (mode == "run") {
      opt.workload = &single;
      opt.seed = seed;
      return run_pass(opt);
    }
    if (mode == "setup") return setup_probe(single, seed);
    if (mode == "parts") return parts_probe(single, seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_worker: %s\n", e.what());
    return 1;
  }
  return usage();
}
