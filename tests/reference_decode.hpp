// A serial decode loop that uses neither the KV cache nor the scheduler:
// every step runs the batch TinyGpt::forward over the whole sequence and
// picks the next token with nn::sample_token from its last row, under the
// RNG serve::GenerationService derives for the request. It stops as the
// service does: on the token budget, then on the context window
// (truncated), then on eos (never appended). Served decodes must match it
// token for token (tests/test_serve.cpp, tests/test_decode_diff.cpp,
// tests/test_dataflow.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "nn/decoder.hpp"
#include "nn/gpt.hpp"
#include "serve/service.hpp"

namespace dpoaf::serve::reference {

struct Decode {
  std::vector<int> ids;  // generated tokens, eos never included
  FinishReason finish = FinishReason::kEos;
};

/// Decode `req` as a service seeded `service_seed` would.
inline Decode decode(const nn::TinyGpt& model, const GenerateRequest& req,
                     std::uint64_t service_seed) {
  Rng rng = nn::request_rng(service_seed, req.seed);
  std::vector<int> seq = req.prompt;
  Decode out;
  for (;;) {
    if (static_cast<int>(out.ids.size()) >= req.max_new_tokens) {
      out.finish = FinishReason::kLength;
      return out;
    }
    if (static_cast<std::int64_t>(seq.size()) >= model.config().max_seq) {
      out.finish = FinishReason::kContext;
      return out;
    }
    const nn::Tensor logits = model.forward(nullptr, seq);
    const int next = nn::sample_token(
        logits.data() + (logits.rows() - 1) * logits.cols(), logits.cols(),
        req.temperature, req.top_k, rng);
    if (next == req.eos_id) return out;
    out.ids.push_back(next);
    seq.push_back(next);
  }
}

}  // namespace dpoaf::serve::reference
