// Streaming-pipeline wall clock (docs/PIPELINE.md): one full checkpoint
// evaluation — serve-backed generation of every task's samples, GLM2FSA
// synthesis, formal verification, per-task means — on a pre-trained
// pipeline. The --metrics-json report carries the dataflow queue/overlap
// gauges that show verification running while generation is still
// draining; CI asserts on them.
//
//   ./micro_pipeline --benchmark_filter='BM_Pipeline'
//                    [--metrics-json out.json]
//
// The feedback cache is disabled so every iteration re-runs synthesis and
// verification in earnest — with the cache on, scoring collapses to hash
// lookups after the first iteration and the overlap being measured
// disappears.
#include <benchmark/benchmark.h>

#include "bench_metrics_main.hpp"
#include "core/pipeline.hpp"

namespace {

using dpoaf::core::DpoAfPipeline;
using dpoaf::core::PipelineConfig;

PipelineConfig bench_config() {
  PipelineConfig cfg;
  cfg.seed = 7;
  cfg.d_model = 32;
  cfg.n_heads = 2;
  cfg.n_layers = 2;
  cfg.d_ff = 64;
  cfg.corpus_samples_per_task = 10;
  cfg.pretrain.epochs = 2;
  cfg.serve_slots = 4;
  cfg.eval_samples_per_task = 4;
  cfg.eval_max_new_tokens = 48;
  cfg.feedback_cache = false;  // keep verification as real per-item work
  return cfg;
}

void BM_Pipeline(benchmark::State& state) {
  static DpoAfPipeline* pipe = [] {
    auto* p = new DpoAfPipeline(bench_config());
    p->pretrain_model();
    return p;
  }();
  for (auto _ : state) {
    // evaluate_model is deterministic per (seed, epoch): every iteration
    // generates, synthesizes, and verifies the same responses.
    auto eval = pipe->evaluate_model(pipe->model(), 0);
    benchmark::DoNotOptimize(eval);
  }
}

BENCHMARK(BM_Pipeline)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return dpoaf_benchmark_main(argc, argv, "micro_pipeline");
}
