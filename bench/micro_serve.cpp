// Continuous-batching vs serial serving throughput (google-benchmark).
// Both rows push the same 8-request batch through a GenerationService;
// only the slot count differs. slots=1 is the serial baseline — one
// request decodes at a time, and a single decode step has no intra-step
// parallelism to exploit — while slots=8 lets the scheduler
// advance every active request each iteration, spreading the per-slot
// forward passes across the 4 worker threads. The tok/s ratio between the
// two rows is the continuous-batching speedup (the CI gate asserts >= 2x).
// A third row (lora:1) decodes serially with the LoRA policy the pipeline
// evaluates after DPO: rank-4 adapters on every block Linear, perturbed so
// they contribute (ungated).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "bench_metrics_main.hpp"
#include "nn/gpt.hpp"
#include "serve/service.hpp"
#include "util/threadpool.hpp"

namespace {

using namespace dpoaf;

nn::TinyGpt& serving_model() {
  static nn::TinyGpt model = [] {
    nn::GptConfig cfg;
    cfg.vocab_size = 80;
    cfg.d_model = 128;
    cfg.n_heads = 4;
    cfg.n_layers = 4;
    cfg.d_ff = 512;
    cfg.max_seq = 96;
    Rng rng(4);
    return nn::TinyGpt(cfg, rng);
  }();
  return model;
}

// The serving model with rank-4 LoRA adapters. enable_lora zero-fills B,
// so the adapters are perturbed to make every delta nonzero.
const nn::TinyGpt& lora_serving_model() {
  static const nn::TinyGpt model = [] {
    nn::TinyGpt m = serving_model().clone();
    Rng rng(5);
    m.enable_lora(4, 8.0f, rng);
    for (nn::Tensor p : m.trainable_parameters())
      for (std::int64_t i = 0; i < p.numel(); ++i)
        p.data()[i] += static_cast<float>(rng.normal()) * 0.05f;
    return m;
  }();
  return model;
}

std::vector<serve::GenerateRequest> request_batch(int n) {
  Rng rng(11);
  std::vector<serve::GenerateRequest> reqs;
  reqs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    serve::GenerateRequest req;
    req.prompt.resize(1 + rng.below(8));
    for (auto& t : req.prompt) t = static_cast<int>(rng.below(80));
    req.max_new_tokens = 32;
    req.temperature = 1.0f;
    req.top_k = 4;
    req.eos_id = -1;  // never fires: every request decodes the full budget
    req.seed = rng();
    reqs.push_back(std::move(req));
  }
  return reqs;
}

// Real time, not CPU time: the decoding happens on the scheduler and pool
// threads, so the calling thread's CPU clock would measure nothing.
void BM_ServeThroughput(benchmark::State& state) {
  const int slots = static_cast<int>(state.range(0));
  const bool lora = state.range(1) != 0;
  util::set_global_threads(4);
  serve::ServiceConfig cfg;
  cfg.slots = slots;
  cfg.seed = 7;
  serve::GenerationService service(
      lora ? lora_serving_model() : serving_model(), cfg);
  const auto requests = request_batch(8);
  std::int64_t tokens = 0;
  for (auto _ : state) {
    for (auto& f : service.submit_all(requests))
      tokens += static_cast<std::int64_t>(f.get().ids.size());
  }
  util::set_global_threads(1);
  state.SetItemsProcessed(tokens);
  state.counters["tok/s"] = benchmark::Counter(
      static_cast<double>(tokens), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ServeThroughput)
    ->ArgNames({"slots", "lora"})
    ->Args({1, 0})
    ->Args({8, 0})
    ->Args({1, 1})
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  return dpoaf_benchmark_main(argc, argv, "micro_serve");
}
