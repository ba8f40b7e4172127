// Load generator for the continuous-batching generation service: submits
// an open-loop arrival trace (fixed inter-arrival gaps) against a
// GenerationService and prints two kinds of output.
//
//   stdout — deterministic request outcomes (token counts, finish reasons,
//            a hash of every generated id). The service's outputs never
//            depend on timing, so this is byte-identical across runs,
//            arrival timings, slot counts, and thread counts; CI diffs two
//            runs to enforce it.
//   stderr or --latency-out FILE — the wall-clock latency table
//            (queue / time-to-first-token / total), which legitimately
//            varies run to run and is kept off stdout.
//
// Usage: serve_demo [--requests N] [--slots N] [--threads N] [--seed N]
//                   [--arrival-us N] [--max-new N] [--latency-out PATH]
//                   [--preamble N]
// (an unknown flag, a missing value, a non-integer or an out-of-range
// integer — e.g. --slots 0 — prints this usage, exit code 2)
//
// Half the trace opens with a common scenario preamble of --preamble
// tokens, the prompt shape of the paper's per-scenario templates. KV-cache
// telemetry (prefill steps) is printed with the latency table, never on
// stdout.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "nn/gpt.hpp"
#include "parse_integer.hpp"
#include "serve/service.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/threadpool.hpp"

namespace {

using namespace dpoaf;

// FNV-1a over the generated ids: one stable word per request on stdout
// instead of dumping every token.
std::uint64_t hash_ids(const std::vector<int>& ids) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const int id : ids) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(id));
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  using examples::parse_integer;
  int requests = 24;
  int slots = 4;
  int threads = 4;
  std::uint64_t seed = 7;
  int arrival_us = 2000;
  int max_new = 24;
  int preamble_len = 12;
  std::string latency_out;
  const auto usage = [&] {
    std::cerr << "usage: " << argv[0]
              << " [--requests N] [--slots N] [--threads N] [--seed N]"
                 " [--arrival-us N] [--max-new N] [--latency-out PATH]"
                 " [--preamble N]\n";
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();  // every flag takes a value
    const char* value = argv[++i];
    bool parsed = true;
    if (arg == "--requests")
      parsed = parse_integer(value, requests) && requests >= 0;
    else if (arg == "--slots")
      parsed = parse_integer(value, slots);
    else if (arg == "--threads")
      parsed = parse_integer(value, threads);
    else if (arg == "--seed")
      parsed = parse_integer(value, seed);
    else if (arg == "--arrival-us")
      parsed = parse_integer(value, arrival_us);
    else if (arg == "--max-new")
      parsed = parse_integer(value, max_new);
    else if (arg == "--preamble")
      parsed = parse_integer(value, preamble_len);
    else if (arg == "--latency-out")
      latency_out = value;
    else
      return usage();
    if (!parsed) {
      std::cerr << arg << ": invalid value '" << value << "'\n";
      return usage();
    }
  }

  nn::GptConfig mcfg;
  mcfg.vocab_size = 80;
  mcfg.d_model = 48;
  mcfg.n_heads = 4;
  mcfg.n_layers = 2;
  mcfg.d_ff = 192;
  mcfg.max_seq = 96;
  Rng model_rng(seed);
  nn::TinyGpt model(mcfg, model_rng);

  serve::ServiceConfig scfg;
  scfg.slots = slots;
  scfg.seed = seed;
  // A thread count or service setting the library rejects (e.g.
  // --slots 0) is a usage error, not an abort.
  std::optional<serve::GenerationService> built;
  try {
    util::set_global_threads(threads);
    built.emplace(model, scfg);
  } catch (const ContractViolation& e) {
    std::cerr << e.what() << "\n";
    return usage();
  }
  serve::GenerationService& service = *built;

  // Build the trace up front so request contents never depend on timing.
  // Even-indexed requests open with a common scenario preamble.
  Rng trace_rng(seed + 1);
  std::vector<int> preamble(static_cast<std::size_t>(
      std::max(0, std::min(preamble_len, static_cast<int>(mcfg.max_seq) -
                                             (max_new > 0 ? max_new : 1) -
                                             9))));
  for (auto& t : preamble)
    t = static_cast<int>(trace_rng.below(mcfg.vocab_size));
  std::vector<serve::GenerateRequest> trace;
  trace.reserve(static_cast<std::size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    serve::GenerateRequest req;
    if (i % 2 == 0) req.prompt = preamble;
    const std::size_t suffix = 1 + trace_rng.below(8);
    for (std::size_t j = 0; j < suffix; ++j)
      req.prompt.push_back(static_cast<int>(trace_rng.below(mcfg.vocab_size)));
    req.max_new_tokens = max_new;
    req.temperature = 0.9f;
    req.top_k = 6;
    req.eos_id = 1;
    req.seed = trace_rng();
    trace.push_back(std::move(req));
  }

  // Open-loop submission: one request per arrival tick, regardless of how
  // the previous ones are progressing (submit never blocks).
  std::vector<std::future<serve::GenerateResult>> pending;
  pending.reserve(trace.size());
  for (auto& req : trace) {
    pending.push_back(service.submit(serve::GenerateRequest(req)));
    if (arrival_us > 0)
      std::this_thread::sleep_for(std::chrono::microseconds(arrival_us));
  }

  std::vector<double> queue_ms, ttft_ms, total_ms;
  std::uint64_t tokens = 0;
  std::cout << "req  prompt  tokens  finish    truncated  ids_hash\n";
  for (std::size_t i = 0; i < pending.size(); ++i) {
    const serve::GenerateResult r = pending[i].get();
    tokens += r.ids.size();
    queue_ms.push_back(static_cast<double>(r.queue_ns) / 1e6);
    if (r.ttft_ns > 0) ttft_ms.push_back(static_cast<double>(r.ttft_ns) / 1e6);
    total_ms.push_back(static_cast<double>(r.total_ns) / 1e6);
    std::cout << i << "  " << trace[i].prompt.size() << "  " << r.ids.size()
              << "  " << serve::to_string(r.finish) << "  "
              << (r.finish == serve::FinishReason::kContext ? "yes" : "no")
              << "  " << std::hex << hash_ids(r.ids) << std::dec << "\n";
  }
  service.shutdown();

  const auto stats = service.stats();
  std::cout << "\naccepted " << stats.accepted << ", completed "
            << stats.completed << ", generated tokens "
            << stats.generated_tokens << "\n";

  // Wall-clock latency breakdown — off stdout so the determinism gate can
  // byte-diff the rest.
  TextTable table("serve latency (ms, wall clock)");
  table.set_header({"stage", "min", "mean", "p95", "max"});
  const auto add_stage = [&table](const std::string& name,
                                  std::vector<double> xs) {
    if (xs.empty()) return;
    RunningStats rs;
    for (const double x : xs) rs.add(x);
    table.add_row({name, TextTable::num(rs.min(), 3),
                   TextTable::num(rs.mean(), 3),
                   TextTable::num(quantile_of(xs, 0.95), 3),
                   TextTable::num(rs.max(), 3)});
  };
  add_stage("queue", queue_ms);
  add_stage("ttft", ttft_ms);
  add_stage("total", total_ms);
  // KV-cache telemetry rides with the latency table; stdout keeps only
  // the request outcomes.
  TextTable cache("kv cache");
  cache.set_header({"metric", "value"});
  cache.add_row({"prefill steps", std::to_string(stats.prefill_steps)});
  if (!latency_out.empty()) {
    std::ofstream out(latency_out);
    if (!out) {
      std::cerr << "failed to open " << latency_out << "\n";
      return 1;
    }
    table.print(out);
    cache.print(out);
  } else {
    table.print(std::cerr);
    cache.print(std::cerr);
  }
  return 0;
}
