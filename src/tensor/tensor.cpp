#include "tensor/tensor.hpp"

#include <algorithm>
#include <cstring>
#include <new>
#include <sys/mman.h>

#include "obs/metrics.hpp"

namespace dpoaf::tensor {

namespace detail {

namespace {
constexpr std::size_t kAlign = 64;
constexpr std::size_t kMinChunkBytes = std::size_t{64} << 10;

// Chunks from 1 MiB up are mapped directly, so freeing one always hands
// its pages back: malloc raises its mmap threshold to the size of each
// mapped block it frees and would keep later chunks in its heap, where a
// finished training loop's arena would stay resident.
constexpr std::size_t kMapBytes = std::size_t{1} << 20;

std::byte* new_chunk(std::size_t bytes) {
  if (bytes < kMapBytes)
    return static_cast<std::byte*>(
        ::operator new(bytes, std::align_val_t{kAlign}));
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return static_cast<std::byte*>(p);
}

void delete_chunk(std::byte* mem, std::size_t bytes) {
  if (bytes < kMapBytes)
    ::operator delete(mem, std::align_val_t{kAlign});
  else
    munmap(mem, bytes);
}
}  // namespace

Arena::~Arena() {
  for (const Chunk& c : chunks_) delete_chunk(c.mem, c.bytes);
}

float* Arena::floats(std::int64_t n, bool zero) {
  DPOAF_CHECK(n >= 0);
  const std::size_t bytes =
      (static_cast<std::size_t>(n) * sizeof(float) + kAlign - 1) &
      ~(kAlign - 1);
  // Fill the current chunk, then any later one; grow by the whole
  // capacity so a pass spills at most log2(need) times.
  while (chunk_ < chunks_.size() && offset_ + bytes > chunks_[chunk_].bytes) {
    ++chunk_;
    offset_ = 0;
  }
  if (chunk_ == chunks_.size()) {
    const std::size_t size = std::max({bytes, capacity(), kMinChunkBytes});
    chunks_.push_back({new_chunk(size), size});
    offset_ = 0;
  }
  auto* out = reinterpret_cast<float*>(chunks_[chunk_].mem + offset_);
  offset_ += bytes;
  in_use_ += bytes;
  peak_ = std::max(peak_, in_use_);
  if (zero) std::memset(out, 0, static_cast<std::size_t>(n) * sizeof(float));
  return out;
}

void Arena::rewind() {
  if (chunks_.size() > 1) {
    const std::size_t total = capacity();
    std::byte* merged = new_chunk(total);
    for (const Chunk& c : chunks_) delete_chunk(c.mem, c.bytes);
    chunks_.assign(1, {merged, total});
  }
  chunk_ = 0;
  offset_ = 0;
  in_use_ = 0;
}

std::size_t Arena::capacity() const {
  std::size_t total = 0;
  for (const Chunk& c : chunks_) total += c.bytes;
  return total;
}

}  // namespace detail

Tensor Tensor::zeros(Shape shape) {
  Tensor t;
  t.impl_->shape = shape;
  t.impl_->heap_data.assign(static_cast<std::size_t>(shape.numel()), 0.0f);
  t.impl_->data = t.impl_->heap_data.data();
  return t;
}

Tensor Tensor::full(Shape shape, float value) {
  Tensor t = zeros(shape);
  std::fill(t.data(), t.data() + t.numel(), value);
  return t;
}

Tensor Tensor::from(Shape shape, std::vector<float> values) {
  DPOAF_CHECK(static_cast<std::int64_t>(values.size()) == shape.numel());
  Tensor t;
  t.impl_->shape = shape;
  t.impl_->heap_data = std::move(values);
  t.impl_->data = t.impl_->heap_data.data();
  return t;
}

Tensor Tensor::randn(Shape shape, Rng& rng, float scale) {
  Tensor t = zeros(shape);
  for (float& v : t.impl_->heap_data)
    v = static_cast<float>(rng.normal()) * scale;
  return t;
}

float Tensor::item() const {
  DPOAF_CHECK_MSG(numel() == 1, "item() requires a scalar tensor");
  return impl_->data[0];
}

float& Tensor::at(std::int64_t r, std::int64_t c) {
  DPOAF_DCHECK(r >= 0 && r < rows() && c >= 0 && c < cols());
  return impl_->data[r * cols() + c];
}

float Tensor::at(std::int64_t r, std::int64_t c) const {
  DPOAF_DCHECK(r >= 0 && r < rows() && c >= 0 && c < cols());
  return impl_->data[r * cols() + c];
}

float* Tensor::grad() {
  detail::TensorImpl& t = *impl_;
  if (t.grad == nullptr) {
    if (t.arena) {
      t.grad = t.arena->floats(numel(), /*zero=*/true);
    } else {
      t.heap_grad.assign(static_cast<std::size_t>(numel()), 0.0f);
      t.grad = t.heap_grad.data();
    }
  }
  return t.grad;
}

void Tensor::zero_grad() {
  if (impl_->grad != nullptr)
    std::fill(impl_->grad, impl_->grad + numel(), 0.0f);
}

Tensor Tensor::clone() const {
  Tensor t;
  t.impl_->shape = shape();
  if (data() != nullptr) {  // a default-constructed tensor has no storage
    t.impl_->heap_data.assign(data(), data() + numel());
    t.impl_->data = t.impl_->heap_data.data();
  }
  t.impl_->requires_grad = impl_->requires_grad;
  return t;
}

Tape::Tape() : arena_(std::make_shared<detail::Arena>()) {}

Tape::~Tape() { publish_metrics(); }

void Tape::publish_metrics() const {
  static obs::Counter& nodes = obs::counter("tensor.tape.nodes");
  static obs::Gauge& peak = obs::gauge("tensor.tape.arena_peak_bytes");
  nodes.add(nodes_.size());
  peak.record_max(static_cast<std::int64_t>(arena_->peak()));
}

void Tape::backward() {
  for (auto it = nodes_.rbegin(); it != nodes_.rend(); ++it) (*it)();
}

void Tape::backward(Tensor loss) {
  DPOAF_CHECK_MSG(loss.numel() == 1, "backward() seeds a scalar loss");
  loss.grad()[0] = 1.0f;
  backward();
}

void Tape::reset() {
  publish_metrics();
  nodes_.clear();
  // Every arena tensor holds a reference to the arena; only the tape's
  // own may remain before the memory is handed out again.
  DPOAF_CHECK_MSG(arena_.use_count() == 1,
                  "Tape::reset(): a tensor recorded on this tape is still "
                  "alive");
  arena_->rewind();
}

Tensor Tape::tensor(Shape shape, bool zero) {
  Tensor t;
  t.impl_->shape = shape;
  t.impl_->data = arena_->floats(shape.numel(), zero);
  t.impl_->arena = arena_;
  return t;
}

}  // namespace dpoaf::tensor
