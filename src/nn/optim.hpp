// AdamW (decoupled weight decay) over an explicit parameter list, and the
// resumable epoch-boundary state of a training loop built on it.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace dpoaf::nn {

class TinyGpt;

struct AdamWConfig {
  float lr = 3e-4f;
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float eps = 1e-8f;
  float weight_decay = 0.0f;
  float grad_clip = 1.0f;  // global-norm clip; ≤ 0 disables
};

class AdamW {
 public:
  AdamW(std::vector<tensor::Tensor> params, AdamWConfig config);

  /// Apply one update from the accumulated gradients.
  void step();
  /// Zero every parameter's gradient buffer.
  void zero_grad();

  [[nodiscard]] float lr() const { return config_.lr; }
  [[nodiscard]] std::int64_t steps_taken() const { return t_; }
  /// Global gradient norm observed at the last step() (pre-clipping).
  [[nodiscard]] double last_grad_norm() const { return last_grad_norm_; }

  /// Per-parameter first/second-moment buffers in parameter-list order —
  /// the optimizer state a durable checkpoint must carry alongside the
  /// weights for resumed training to be bitwise-identical.
  [[nodiscard]] const std::vector<std::vector<float>>& moments_m() const {
    return m_;
  }
  [[nodiscard]] const std::vector<std::vector<float>>& moments_v() const {
    return v_;
  }
  /// Restore moments and step count captured by a checkpoint. The buffer
  /// layout must match this optimizer's parameter list exactly.
  void load_state(const std::vector<std::vector<float>>& m,
                  const std::vector<std::vector<float>>& v,
                  std::int64_t steps);

 private:
  std::vector<tensor::Tensor> params_;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
  AdamWConfig config_;
  std::int64_t t_ = 0;
  double last_grad_norm_ = 0.0;
};

/// Everything a shuffled-minibatch AdamW loop needs to continue from an
/// epoch boundary exactly as if it had never stopped: the trained model's
/// weights (TinyGpt::state() order), the AdamW moments (trainable-parameter
/// order) and step count, the loop's RNG stream (xoshiro256** state words)
/// and its in-place shuffle permutation. Pre-training and DPO both carry
/// one; the .dpoaf checkpoint persists one.
struct LoopState {
  int completed_epochs = 0;
  std::vector<float> weights;
  std::vector<std::vector<float>> opt_m;
  std::vector<std::vector<float>> opt_v;
  std::int64_t opt_steps = 0;
  std::array<std::uint64_t, 4> rng_state{};
  std::vector<std::uint64_t> order;
};

/// Thrown by restore_loop_state() for a state that cannot belong to the
/// loop it is restored into (e.g. a crafted checkpoint whose shuffle order
/// is not a permutation of the loop's items).
class LoopStateError : public std::runtime_error {
 public:
  explicit LoopStateError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Snapshot a loop at the boundary after `completed_epochs` epochs.
[[nodiscard]] LoopState capture_loop_state(
    int completed_epochs, const TinyGpt& model, const AdamW& opt,
    const Rng& rng, const std::vector<std::size_t>& order);

/// Restore a captured state into a live loop. `order` must already have
/// one slot per item the loop trains on. Throws LoopStateError, before
/// touching anything, unless `state.order` is a permutation of
/// [0, order.size()), the weights and moments fit `model` and `opt`,
/// `completed_epochs` and `opt_steps` are non-negative and the RNG words
/// are not all zero.
void restore_loop_state(const LoopState& state, TinyGpt& model, AdamW& opt,
                        Rng& rng, std::vector<std::size_t>& order);

}  // namespace dpoaf::nn
