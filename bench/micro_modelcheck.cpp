// Micro-benchmarks (google-benchmark): the formal-verification substrate.
// Measures LTL→Büchi translation for each rulebook specification, product
// construction, and full 15-spec verification of the paper's controllers —
// the inner loop of the automated feedback channel.
#include <benchmark/benchmark.h>

#include "automata/product.hpp"
#include "bench_metrics_main.hpp"
#include "driving/domain.hpp"
#include "modelcheck/buchi.hpp"

namespace {

using namespace dpoaf;

// Non-const: the cached-vs-uncached sweeps toggle the feedback cache.
driving::DrivingDomain& domain() {
  static driving::DrivingDomain d;
  return d;
}

const automata::FsaController& after_controller() {
  static automata::FsaController c = [] {
    auto r = glm2fsa::glm2fsa(driving::paper_right_turn_after(),
                              domain().aligner(), domain().build_options());
    return r.controller;
  }();
  return c;
}

void BM_LtlToBuchi(benchmark::State& state) {
  const auto& spec =
      domain().specs()[static_cast<std::size_t>(state.range(0))];
  std::size_t ba_states = 0;
  for (auto _ : state) {
    const auto ba = modelcheck::ltl_to_buchi(logic::ltl::lnot(spec.formula));
    ba_states = ba.state_count();
    benchmark::DoNotOptimize(ba_states);
  }
  state.counters["ba_states"] = static_cast<double>(ba_states);
  state.SetLabel(spec.name);
}
BENCHMARK(BM_LtlToBuchi)->DenseRange(0, 14, 7);

void BM_LtlToBuchiCached(benchmark::State& state) {
  // Steady-state hit path of the spec-level Büchi cache: the first
  // iteration pays one translation, every following one is a lookup.
  const auto& spec =
      domain().specs()[static_cast<std::size_t>(state.range(0))];
  modelcheck::set_buchi_cache_enabled(true);
  modelcheck::clear_buchi_cache();
  std::size_t ba_states = 0;
  for (auto _ : state) {
    const auto ba =
        modelcheck::ltl_to_buchi_cached(logic::ltl::lnot(spec.formula));
    ba_states = ba->state_count();
    benchmark::DoNotOptimize(ba_states);
  }
  state.counters["ba_states"] = static_cast<double>(ba_states);
  state.SetLabel(spec.name);
}
BENCHMARK(BM_LtlToBuchiCached)->DenseRange(0, 14, 7);

void BM_ProductConstruction(benchmark::State& state) {
  const auto& model = domain().universal_model();
  for (auto _ : state) {
    const auto k = automata::make_product(model, after_controller(),
                                          domain().product_options());
    benchmark::DoNotOptimize(k.state_count());
  }
}
BENCHMARK(BM_ProductConstruction);

void BM_VerifyAllSpecs_Scenario(benchmark::State& state) {
  // Arg 0: Büchi cache disabled (every spec retranslated per call).
  // Arg 1: enabled — the steady state of the scoring hot path.
  const bool cached = state.range(0) != 0;
  modelcheck::set_buchi_cache_enabled(cached);
  modelcheck::clear_buchi_cache();
  const auto& model = domain().model(driving::ScenarioId::TrafficLight);
  const auto product = automata::make_product(model, after_controller(),
                                              domain().product_options());
  std::size_t satisfied = 0;
  for (auto _ : state) {
    const auto report = modelcheck::verify_all(
        product, domain().specs(),
        domain().fairness(driving::ScenarioId::TrafficLight));
    satisfied = report.satisfied();
    benchmark::DoNotOptimize(satisfied);
  }
  modelcheck::set_buchi_cache_enabled(true);
  state.counters["satisfied"] = static_cast<double>(satisfied);
  state.counters["product_states"] =
      static_cast<double>(product.state_count());
  state.SetLabel(cached ? "buchi_cached" : "buchi_uncached");
}
BENCHMARK(BM_VerifyAllSpecs_Scenario)->Arg(0)->Arg(1);

void BM_FullFeedbackChannel(benchmark::State& state) {
  // Text → parse → align → FSA → product → 15-spec verification: the cost
  // of scoring one LM response. Both memoization tiers disabled — this is
  // the raw single-score cost the caches amortize.
  domain().set_feedback_cache(false);
  modelcheck::set_buchi_cache_enabled(false);
  for (auto _ : state) {
    const auto fb = driving::formal_feedback(
        domain(), driving::ScenarioId::TrafficLight,
        driving::paper_right_turn_before());
    benchmark::DoNotOptimize(fb.score());
  }
  domain().set_feedback_cache(true);
  modelcheck::set_buchi_cache_enabled(true);
}
BENCHMARK(BM_FullFeedbackChannel);

void BM_ScoreRepeatedCandidates(benchmark::State& state) {
  // The DPO-AF loop's actual scoring pattern: every candidate of a task
  // re-scored across rounds (duplicate samples, checkpoint re-evaluation).
  // Arg 0: both caches off. Arg 1: both on (cleared per iteration, so each
  // iteration pays the compulsory misses and then replays).
  auto& d = domain();
  const bool cached = state.range(0) != 0;
  const auto& task = d.task_by_id("turn_right_traffic_light");
  constexpr int kRounds = 4;
  for (auto _ : state) {
    state.PauseTiming();
    d.set_feedback_cache(cached);
    modelcheck::set_buchi_cache_enabled(cached);
    d.clear_feedback_cache();
    modelcheck::clear_buchi_cache();
    state.ResumeTiming();
    int total = 0;
    for (int round = 0; round < kRounds; ++round)
      for (const auto& v : task.variants)
        total += driving::formal_feedback(d, task.scenario, v.text).score();
    benchmark::DoNotOptimize(total);
  }
  d.set_feedback_cache(true);
  modelcheck::set_buchi_cache_enabled(true);
  state.counters["scores_per_iter"] =
      static_cast<double>(kRounds * task.variants.size());
  state.SetLabel(cached ? "cached" : "uncached");
}
BENCHMARK(BM_ScoreRepeatedCandidates)->Arg(0)->Arg(1);

}  // namespace

int main(int argc, char** argv) {
  return dpoaf_benchmark_main(argc, argv, "micro_modelcheck");
}
