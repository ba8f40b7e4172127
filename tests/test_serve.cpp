// Continuous-batching generation service (src/serve): served decoding must
// reproduce the batch-forward reference decoder (tests/reference_decode.hpp)
// bitwise per request, stay invariant to
// arrival order / slot count / thread count, and keep its admission and
// robustness contract (FIFO admission into free slots, context-bound
// backlogs that complete, an unbounded queue, invalid requests resolve
// without reaching the scheduler, a decode fault fails only its own
// request, draining shutdown, context truncation).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "reference_decode.hpp"
#include "serve/service.hpp"
#include "util/threadpool.hpp"

namespace dpoaf {
namespace {

nn::GptConfig small_config(std::int64_t max_seq = 48) {
  nn::GptConfig cfg;
  cfg.vocab_size = 48;
  cfg.d_model = 16;
  cfg.n_heads = 2;
  cfg.n_layers = 2;
  cfg.d_ff = 32;
  cfg.max_seq = max_seq;
  return cfg;
}

nn::TinyGpt small_model(std::uint64_t seed = 3) {
  Rng rng(seed);
  return nn::TinyGpt(small_config(), rng);
}

// A varied request set: different prompts, lengths, budgets, temperatures,
// top-k settings, and per-request seeds. eos_id = 1 so a random
// model terminates some requests early.
std::vector<serve::GenerateRequest> request_set(int n,
                                                std::uint64_t seed = 17) {
  Rng rng(seed);
  std::vector<serve::GenerateRequest> reqs(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& req = reqs[static_cast<std::size_t>(i)];
    const auto len = static_cast<std::size_t>(rng.between(1, 6));
    req.prompt.resize(len);
    for (auto& t : req.prompt) t = static_cast<int>(rng.below(48));
    req.max_new_tokens = static_cast<int>(rng.between(0, 40));
    req.temperature = 0.5f + 0.1f * static_cast<float>(rng.below(8));
    req.top_k = static_cast<int>(rng.between(0, 8));
    req.eos_id = 1;
    req.seed = rng();
  }
  return reqs;
}

struct Outcome {
  std::vector<int> ids;
  serve::FinishReason finish = serve::FinishReason::kEos;

  bool operator==(const Outcome& o) const {
    return ids == o.ids && finish == o.finish;
  }
};

// Outcomes of one submit_all, in input order.
std::vector<serve::GenerateResult> get_all(
    std::vector<std::future<serve::GenerateResult>> futures) {
  std::vector<serve::GenerateResult> out;
  out.reserve(futures.size());
  for (auto& f : futures) out.push_back(f.get());
  return out;
}

// Submit `reqs` in the order given by `order` and return outcomes indexed
// by original request position.
std::vector<Outcome> run_served(const nn::TinyGpt& model,
                                serve::ServiceConfig cfg,
                                const std::vector<serve::GenerateRequest>& reqs,
                                const std::vector<std::size_t>& order) {
  serve::GenerationService service(model, cfg);
  std::vector<std::future<serve::GenerateResult>> futures(reqs.size());
  for (const std::size_t u : order)
    futures[u] = service.submit(reqs[u]);
  std::vector<Outcome> out(reqs.size());
  for (std::size_t u = 0; u < reqs.size(); ++u) {
    serve::GenerateResult r = futures[u].get();
    out[u] = Outcome{std::move(r.ids), r.finish};
  }
  return out;
}

TEST(Serve, MatchesReferenceBitwisePerRequest) {
  util::set_global_threads(2);
  const nn::TinyGpt model = small_model();
  const auto reqs = request_set(16);
  serve::ServiceConfig cfg;
  cfg.slots = 4;
  cfg.seed = 99;
  serve::GenerationService service(model, cfg);
  const auto results = get_all(service.submit_all(reqs));
  ASSERT_EQ(results.size(), reqs.size());
  for (std::size_t u = 0; u < reqs.size(); ++u) {
    const auto want = serve::reference::decode(model, reqs[u], cfg.seed);
    EXPECT_EQ(results[u].ids, want.ids) << "request " << u;
    EXPECT_EQ(results[u].finish, want.finish) << "request " << u;
  }
  const auto stats = service.stats();
  std::size_t total_tokens = 0;
  for (const auto& r : results) total_tokens += r.ids.size();
  EXPECT_EQ(stats.accepted, reqs.size());
  EXPECT_EQ(stats.completed, reqs.size());
  EXPECT_EQ(stats.generated_tokens, total_tokens);
  util::set_global_threads(1);
}

// submit_all enqueues a whole batch under one lock, so every scheduling
// decision — and with it every ServiceStats total — is a function of the
// batch alone: repeated runs at any thread count agree exactly. Outcomes
// equal one-by-one submission, an invalid entry resolves in place, and
// every valid prompt is prefilled in full.
TEST(Serve, SubmitAllSchedulesIdenticallyAtAnyThreadCount) {
  const nn::TinyGpt model = small_model();
  auto reqs = request_set(40);
  // Longer prompts on half the requests.
  for (std::size_t u = 0; u < reqs.size(); u += 2)
    reqs[u].prompt.insert(reqs[u].prompt.begin(), {5, 6, 7, 8, 9, 10, 11});
  reqs[7].prompt.clear();
  serve::ServiceConfig cfg;
  cfg.slots = 4;
  cfg.seed = 99;
  const auto run = [&](int threads) {
    util::set_global_threads(threads);
    serve::GenerationService service(model, cfg);
    std::vector<Outcome> out;
    for (auto& f : service.submit_all(reqs)) {
      serve::GenerateResult r = f.get();
      out.push_back(Outcome{std::move(r.ids), r.finish});
    }
    service.shutdown();
    return std::make_pair(std::move(out), service.stats());
  };
  const auto [want, want_stats] = run(1);
  EXPECT_EQ(want[7].finish, serve::FinishReason::kInvalid);
  EXPECT_EQ(want_stats.rejected_invalid, 1u);
  std::uint64_t prefill = 0;
  for (const auto& req : reqs)
    if (!req.prompt.empty()) prefill += req.prompt.size() - 1;
  EXPECT_EQ(want_stats.prefill_steps, prefill);
  std::vector<std::size_t> order(reqs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  EXPECT_EQ(run_served(model, cfg, reqs, order), want);
  for (const int threads : {1, 4, 4}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    const auto [got, stats] = run(threads);
    EXPECT_EQ(got, want);
    EXPECT_EQ(stats.accepted, want_stats.accepted);
    EXPECT_EQ(stats.iterations, want_stats.iterations);
    EXPECT_EQ(stats.prefill_steps, want_stats.prefill_steps);
  }
  util::set_global_threads(1);
}

// The acceptance property: the same request set yields bitwise-identical
// responses regardless of arrival order, slot count, or thread count.
TEST(Serve, DeterministicAcrossArrivalOrderSlotsAndThreads) {
  const nn::TinyGpt model = small_model(7);
  const auto reqs = request_set(24, 41);
  std::vector<std::size_t> fifo(reqs.size());
  std::iota(fifo.begin(), fifo.end(), std::size_t{0});
  std::vector<std::size_t> shuffled = fifo;
  Rng shuffle_rng(2718);
  shuffle_rng.shuffle(shuffled);
  std::vector<std::size_t> reversed(fifo.rbegin(), fifo.rend());

  serve::ServiceConfig base;
  base.seed = 4;

  util::set_global_threads(1);
  serve::ServiceConfig one_slot = base;
  one_slot.slots = 1;
  const auto reference = run_served(model, one_slot, reqs, fifo);

  struct Variant {
    int slots;
    int threads;
    const std::vector<std::size_t>* order;
  };
  const Variant variants[] = {
      {8, 4, &shuffled},
      {3, 2, &reversed},
      {8, 1, &fifo},
  };
  for (const Variant& v : variants) {
    util::set_global_threads(v.threads);
    serve::ServiceConfig cfg = base;
    cfg.slots = v.slots;
    const auto got = run_served(model, cfg, reqs, *v.order);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t u = 0; u < reference.size(); ++u)
      EXPECT_TRUE(got[u] == reference[u])
          << "request " << u << " diverged at slots=" << v.slots
          << " threads=" << v.threads;
  }
  util::set_global_threads(1);
}

// Admission is FIFO: with one slot, requests start in submission order,
// so their queue times never decrease along it.
TEST(Serve, OneSlotAdmitsInSubmissionOrder) {
  util::set_global_threads(2);
  const nn::TinyGpt model = small_model();
  serve::ServiceConfig cfg;
  cfg.slots = 1;
  serve::GenerationService service(model, cfg);
  const auto results = get_all(service.submit_all(request_set(16, 61)));
  for (std::size_t u = 1; u < results.size(); ++u)
    EXPECT_LE(results[u - 1].queue_ns, results[u].queue_ns) << "request " << u;
  util::set_global_threads(1);
}

// Each slot's session holds one max_seq sequence, so a backlog of requests
// that all run into the context limit reuses the slots to the end and
// every request completes.
TEST(Serve, ContextBoundBacklogCompletes) {
  util::set_global_threads(2);
  const nn::TinyGpt model = small_model();
  auto reqs = request_set(16, 67);
  for (auto& req : reqs) {
    req.max_new_tokens = 1000;
    req.eos_id = -1;
  }
  serve::ServiceConfig cfg;
  cfg.slots = 4;
  serve::GenerationService service(model, cfg);
  for (const auto& r : get_all(service.submit_all(reqs)))
    EXPECT_EQ(r.finish, serve::FinishReason::kContext);
  service.shutdown();
  EXPECT_EQ(service.stats().completed, reqs.size());
  util::set_global_threads(1);
}

// The queue has no bound: a batch deeper than any fixed default completes.
TEST(Serve, DefaultConfigTakesADeepBatch) {
  util::set_global_threads(2);
  const nn::TinyGpt model = small_model();
  serve::GenerationService service(model, serve::ServiceConfig{});
  const auto reqs = request_set(200, 71);
  const auto results = get_all(service.submit_all(reqs));
  ASSERT_EQ(results.size(), reqs.size());
  for (const auto& r : results)
    EXPECT_NE(r.finish, serve::FinishReason::kInvalid);
  EXPECT_EQ(service.stats().completed, reqs.size());
  util::set_global_threads(1);
}

TEST(Serve, ContextExhaustionReportsTruncation) {
  const nn::TinyGpt model = small_model(11);
  serve::ServiceConfig cfg;
  serve::GenerationService service(model, cfg);
  const auto max_seq = static_cast<std::size_t>(model.config().max_seq);

  // Prompt exactly fills the context: not a single token fits.
  serve::GenerateRequest full;
  full.prompt.assign(max_seq, 2);
  full.max_new_tokens = 8;
  full.eos_id = -1;
  const auto r1 = service.submit(full).get();
  EXPECT_TRUE(r1.ids.empty());
  EXPECT_EQ(r1.finish, serve::FinishReason::kContext);

  // Budget larger than the remaining context: truncated mid-decode.
  serve::GenerateRequest over;
  over.prompt = {2};
  over.max_new_tokens = 1000;
  over.eos_id = -1;
  const auto r2 = service.submit(over).get();
  EXPECT_EQ(r2.ids.size(), max_seq - 1);
  EXPECT_EQ(r2.finish, serve::FinishReason::kContext);
}

TEST(Serve, GracefulDrainCompletesAllAdmittedWork) {
  util::set_global_threads(2);
  const nn::TinyGpt model = small_model();
  serve::ServiceConfig cfg;
  cfg.slots = 2;
  serve::GenerationService service(model, cfg);
  const auto reqs = request_set(10, 83);
  std::vector<std::future<serve::GenerateResult>> futures;
  for (const auto& req : reqs) futures.push_back(service.submit(req));
  service.shutdown();
  for (auto& f : futures)
    EXPECT_NE(f.get().finish, serve::FinishReason::kInvalid);
  EXPECT_EQ(service.stats().completed, reqs.size());
  // A shut-down service admits nothing more.
  EXPECT_THROW(service.submit(reqs[0]), ContractViolation);
  util::set_global_threads(1);
}

// An invalid request must never reach the scheduler: submit resolves the
// future immediately with FinishReason::kInvalid instead of throwing (or
// crashing a decode slot).
TEST(Serve, EmptyPromptResolvesInvalidWithoutReachingScheduler) {
  const nn::TinyGpt model = small_model();
  serve::ServiceConfig cfg;
  serve::GenerationService service(model, cfg);
  serve::GenerateRequest ok;
  ok.prompt = {2, 3};
  ok.max_new_tokens = 2;
  std::vector<serve::GenerateRequest> bad(4, ok);
  bad[0].prompt.clear();
  bad[1].prompt = {-1};
  bad[2].temperature = 0.0f;
  bad[3].prompt.assign(static_cast<std::size_t>(model.config().max_seq) + 1,
                       2);
  for (const auto& req : bad) {
    EXPECT_NE(service.validate(req), "");
    const auto r = service.submit(req).get();
    EXPECT_EQ(r.finish, serve::FinishReason::kInvalid);
    EXPECT_TRUE(r.ids.empty());
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.rejected_invalid, bad.size());
  EXPECT_EQ(stats.accepted, 0u);
  EXPECT_EQ(stats.iterations, 0u);
  // The service still works for valid traffic afterwards.
  EXPECT_EQ(service.validate(ok), "");
  EXPECT_EQ(service.submit(ok).get().finish,
            serve::FinishReason::kLength);
}

// Time-to-first-token must be recorded for the first decode step even when
// that step samples eos (the old path only stamped it after a token was
// appended, so eos-first responses reported ttft_ns == 0).
TEST(Serve, TtftRecordedWhenFirstTokenIsEos) {
  const nn::TinyGpt model = small_model();
  serve::ServiceConfig cfg;
  serve::GenerationService service(model, cfg);
  serve::GenerateRequest req;
  req.prompt = {2, 3, 5};
  req.max_new_tokens = 4;
  req.eos_id = -1;
  req.seed = 5;
  // Probe the decode under a fixed request seed for its first token, then
  // make exactly that token the eos.
  const auto probe = service.submit(req).get();
  ASSERT_FALSE(probe.ids.empty());
  req.eos_id = probe.ids.front();
  const auto r = service.submit(req).get();
  EXPECT_EQ(r.finish, serve::FinishReason::kEos);
  EXPECT_TRUE(r.ids.empty());
  EXPECT_GT(r.ttft_ns, 0u);
  EXPECT_LE(r.ttft_ns, r.total_ns);
  // No decode step at all (max_new == 0) still legitimately reports 0.
  req.eos_id = -1;
  req.max_new_tokens = 0;
  EXPECT_EQ(service.submit(req).get().ttft_ns, 0u);
}

// A fault inside one slot's decode step fails that request's future and
// nothing else. Token kPoison's embedding row is NaN, so a request with it
// in its prompt gets NaN logits at its first decode step and the weighted
// draw CHECK-fails. The healthy requests make kPoison their eos, so they
// never feed it: decoded in the same iterations, they return the reference
// decoder's tokens, and the service keeps taking work until shutdown.
TEST(Serve, DecodeFaultFailsOnlyThatRequest) {
  constexpr int kPoison = 0;
  nn::TinyGpt model = small_model();
  const auto d = model.config().d_model;
  float* const poison_row = model.parameters().front().data() + kPoison * d;
  std::fill(poison_row, poison_row + d,
            std::numeric_limits<float>::quiet_NaN());
  auto reqs = request_set(12, 89);
  for (std::size_t u = 0; u < reqs.size(); ++u) {
    auto& req = reqs[u];
    std::replace(req.prompt.begin(), req.prompt.end(), kPoison, 2);
    if (u % 2 == 1) {
      req.eos_id = kPoison;
      continue;
    }
    req.prompt.insert(req.prompt.begin() + static_cast<std::ptrdiff_t>(
                                               u % req.prompt.size()),
                      kPoison);
    req.max_new_tokens = std::max(req.max_new_tokens, 1);
  }
  const auto faults = [](const serve::GenerateRequest& req) {
    return req.eos_id != kPoison;
  };
  serve::ServiceConfig cfg;
  cfg.slots = 4;
  std::vector<serve::reference::Decode> want(reqs.size());
  std::size_t longest = 0;
  for (std::size_t u = 1; u < reqs.size(); u += 2) {
    want[u] = serve::reference::decode(model, reqs[u], cfg.seed);
    longest = std::max(longest, want[u].ids.size());
  }
  ASSERT_GE(longest, 4u);  // a healthy request outlives several iterations
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    util::set_global_threads(threads);
    serve::GenerationService service(model, cfg);
    auto futures = service.submit_all(reqs);
    std::uint64_t completed = 0;
    for (std::size_t u = 0; u < reqs.size(); ++u) {
      if (faults(reqs[u])) {
        EXPECT_THROW((void)futures[u].get(), ContractViolation)
            << "request " << u;
        continue;
      }
      const serve::GenerateResult got = futures[u].get();
      EXPECT_EQ(got.ids, want[u].ids) << "request " << u;
      EXPECT_EQ(got.finish, want[u].finish) << "request " << u;
      ++completed;
    }
    EXPECT_EQ(service.submit(reqs[1]).get().ids, want[1].ids);
    service.shutdown();
    EXPECT_EQ(service.stats().completed, completed + 1);
  }
  util::set_global_threads(1);
}

// Pipeline routing: every sampled decode runs on the service, so
// candidates and checkpoint eval are identical at any (serve_slots,
// threads) setting.
TEST(Serve, PipelineServeModeDeterministicAcrossSlotsAndThreads) {
  const auto run_with = [](int slots, int threads) {
    core::PipelineConfig cfg;
    cfg.seed = 29;
    cfg.threads = threads;
    cfg.d_model = 16;
    cfg.n_heads = 2;
    cfg.n_layers = 1;
    cfg.d_ff = 32;
    cfg.corpus_samples_per_task = 6;
    cfg.pretrain.epochs = 1;
    cfg.responses_per_task = 4;
    cfg.sampler.max_new_tokens = 16;
    cfg.eval_samples_per_task = 2;
    cfg.eval_max_new_tokens = 16;
    cfg.serve_slots = slots;
    core::DpoAfPipeline pipe(cfg);
    pipe.pretrain_model();
    auto candidates = pipe.collect_candidates();
    auto eval = pipe.evaluate_model(pipe.model(), 0);
    return std::make_pair(std::move(candidates), std::move(eval));
  };
  const auto [cand_a, eval_a] = run_with(2, 1);
  const auto [cand_b, eval_b] = run_with(8, 4);
  util::set_global_threads(1);

  ASSERT_EQ(cand_a.size(), cand_b.size());
  for (std::size_t t = 0; t < cand_a.size(); ++t) {
    EXPECT_EQ(cand_a[t].task_id, cand_b[t].task_id);
    EXPECT_EQ(cand_a[t].truncated, cand_b[t].truncated);
    ASSERT_EQ(cand_a[t].candidates.size(), cand_b[t].candidates.size());
    for (std::size_t c = 0; c < cand_a[t].candidates.size(); ++c) {
      EXPECT_EQ(cand_a[t].candidates[c].text, cand_b[t].candidates[c].text);
      EXPECT_EQ(cand_a[t].candidates[c].score,
                cand_b[t].candidates[c].score);
    }
  }
  EXPECT_EQ(eval_a.train_mean_satisfied, eval_b.train_mean_satisfied);
  EXPECT_EQ(eval_a.val_mean_satisfied, eval_b.val_mean_satisfied);
  ASSERT_EQ(eval_a.per_task.size(), eval_b.per_task.size());
  for (std::size_t t = 0; t < eval_a.per_task.size(); ++t) {
    EXPECT_EQ(eval_a.per_task[t].first, eval_b.per_task[t].first);
    EXPECT_EQ(eval_a.per_task[t].second, eval_b.per_task[t].second);
  }
}

}  // namespace
}  // namespace dpoaf
