// AdamW (decoupled weight decay) over an explicit parameter list, and the
// shuffled-minibatch training loop built on it with its resumable
// epoch-boundary state.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
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

/// Everything a MinibatchLoop needs to continue from an epoch boundary
/// exactly as if it had never stopped: the trained model's weights
/// (TinyGpt::state() order), the AdamW moments (trainable-parameter order)
/// and step count, the loop's RNG stream (xoshiro256** state words) and
/// its in-place shuffle permutation. Pre-training and DPO both carry one;
/// the .dpoaf checkpoint persists one.
struct LoopState {
  int completed_epochs = 0;
  std::vector<float> weights;
  std::vector<std::vector<float>> opt_m;
  std::vector<std::vector<float>> opt_v;
  std::int64_t opt_steps = 0;
  std::array<std::uint64_t, 4> rng_state{};
  std::vector<std::uint64_t> order;
};

/// Thrown by MinibatchLoop's constructor for a resume state that cannot
/// belong to the loop (e.g. a crafted checkpoint whose shuffle order is
/// not a permutation of the loop's items).
class LoopStateError : public std::runtime_error {
 public:
  explicit LoopStateError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Items per minibatch in every training loop (the last one of an epoch
/// may be short).
inline constexpr std::size_t kBatchSize = 8;

/// The shuffled-minibatch AdamW loop that pre-training and DPO both run:
/// the optimizer over the model's trainable parameters, an in-place
/// shuffle order over the items, the caller's RNG stream that shuffles it
/// and one Tape reused by every item. `model` and `rng` must outlive the
/// loop.
class MinibatchLoop {
 public:
  /// Scalar loss of one item (an index into the caller's items), recorded
  /// on `tape`. No tensor recorded on `tape` may outlive the call's
  /// backward: the tape is reset before the next item.
  using ItemLoss = std::function<tensor::Tensor(tensor::Tape*, std::size_t)>;

  /// With `resume` non-null, continues from that state. Throws
  /// LoopStateError, before touching anything, unless `resume->order` is a
  /// permutation of [0, items), the weights and moments fit `model`,
  /// `completed_epochs` and `opt_steps` are non-negative and the RNG words
  /// are not all zero.
  MinibatchLoop(TinyGpt& model, float lr, Rng& rng, std::size_t items,
                const LoopState* resume);

  /// Shuffles the order, then takes one AdamW step per kBatchSize slice
  /// of its first `items` entries on the mean of `item_loss` over the
  /// slice. Returns the number of steps.
  ///
  /// Per slice: zero the gradients; then, for each item from the slice's
  /// last to its first, reset the tape, record `item_loss` scaled by
  /// 1/(slice size) and backpropagate it into the parameter gradients;
  /// then step. The tape holds one item at a time, so its arena peaks at
  /// the largest item, not at a slice of them.
  ///
  /// Last item first is what makes this the bits of one backward over a
  /// tape recording the whole slice (sum of scaled item losses): that
  /// backward replays the items' nodes last to first, so every parameter
  /// gradient accumulated item b−1's contribution first, and matmul dB
  /// carries its FMA chain on from the gradient so far. Forward order,
  /// or per-item gradients summed afterwards, round differently.
  ///
  /// `item_loss` therefore runs on the slice's items in reverse. A caller
  /// that sums per-item values must keep them per item and sum them in
  /// order() after the epoch to keep the sums' bits.
  std::size_t epoch(std::size_t items, const ItemLoss& item_loss);

  /// The shuffle order over every item: after epoch(), the order its
  /// minibatches cover them in (the first `items` entries were visited).
  [[nodiscard]] const std::vector<std::size_t>& order() const {
    return order_;
  }
  [[nodiscard]] int completed_epochs() const { return completed_; }
  /// Snapshot at the current epoch boundary.
  [[nodiscard]] LoopState capture() const;
  /// Whether a hook with period `every` (≤ 0 never) fires at the current
  /// boundary; `last` marks the run's last epoch, where it always fires.
  [[nodiscard]] bool due(int every, bool last) const {
    return every > 0 && (completed_ % every == 0 || last);
  }

 private:
  TinyGpt& model_;
  Rng& rng_;
  AdamW opt_;
  std::vector<std::size_t> order_;
  int completed_ = 0;
  tensor::Tape tape_;
};

}  // namespace dpoaf::nn
