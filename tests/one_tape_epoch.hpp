// The epoch nn::MinibatchLoop ran before it backpropagated one item at a
// time: every item of a minibatch recorded on one Tape, their scaled
// losses chained by add, and one backward over the sum. The loop must
// match it bit for bit (tests/test_nn.cpp); it is spelled here over the
// loop's own parts — the optimizer, the RNG stream and the shuffle order —
// because nothing in the library runs it any more.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "nn/optim.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace dpoaf::nn::reference {

/// One epoch over the first `items` entries of `order` after `rng`
/// shuffles it; one `opt` step per kBatchSize slice on the slice's mean
/// loss. Returns the number of steps.
inline std::size_t one_tape_epoch(AdamW& opt, Rng& rng,
                                  std::vector<std::size_t>& order,
                                  tensor::Tape& tape, std::size_t items,
                                  const MinibatchLoop::ItemLoss& item_loss) {
  rng.shuffle(order);
  std::size_t steps = 0;
  for (std::size_t i = 0; i < items; i += kBatchSize, ++steps) {
    const std::size_t batch_end = std::min(items, i + kBatchSize);
    const auto n_in_batch = static_cast<float>(batch_end - i);
    tape.reset();
    tensor::Tensor batch_loss;
    for (std::size_t j = i; j < batch_end; ++j) {
      tensor::Tensor scaled = tensor::ops::scale(
          &tape, item_loss(&tape, order[j]), 1.0f / n_in_batch);
      batch_loss =
          j == i ? scaled : tensor::ops::add(&tape, batch_loss, scaled);
    }
    opt.zero_grad();
    tape.backward(batch_loss);
    opt.step();
  }
  return steps;
}

}  // namespace dpoaf::nn::reference
