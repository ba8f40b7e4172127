// The memoized recursive LTLf evaluator that logic::evaluate_ltlf replaced:
// a (node id, position) → verdict hash map per trace, rescanning the suffix
// at every F/G/U/R position. test_logic compares the column evaluator's
// verdicts against it position by position.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "logic/ltl.hpp"
#include "logic/ltlf.hpp"
#include "logic/vocabulary.hpp"

namespace dpoaf::logic::reference {

class MemoLtlf {
 public:
  explicit MemoLtlf(const Trace& trace) : trace_(trace) {}

  /// `f` at `pos`; requires pos < trace.size().
  bool memo(const Ltl& f, std::size_t pos) {
    const Key k{f->id, pos};
    if (auto it = table_.find(k); it != table_.end()) return it->second;
    const bool v = eval(f, pos);
    table_.emplace(k, v);
    return v;
  }

 private:
  struct Key {
    std::uint64_t id = 0;
    std::uint64_t pos = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::uint64_t h = k.id * 0x9E3779B97F4A7C15ULL + k.pos;
      h ^= h >> 30;
      h *= 0xBF58476D1CE4E5B9ULL;
      h ^= h >> 27;
      return static_cast<std::size_t>(h);
    }
  };

  bool eval(const Ltl& f, std::size_t pos) {
    const std::size_t n = trace_.size();
    switch (f->op) {
      case LtlOp::True:
        return true;
      case LtlOp::False:
        return false;
      case LtlOp::Prop:
        return Vocabulary::has(trace_[pos], f->prop);
      case LtlOp::Not:
        return !eval(f->lhs, pos);
      case LtlOp::And:
        return eval(f->lhs, pos) && eval(f->rhs, pos);
      case LtlOp::Or:
        return eval(f->lhs, pos) || eval(f->rhs, pos);
      case LtlOp::Implies:
        return !eval(f->lhs, pos) || eval(f->rhs, pos);
      case LtlOp::Next:
        return pos + 1 < n && memo(f->lhs, pos + 1);
      case LtlOp::Eventually:
        for (std::size_t j = pos; j < n; ++j)
          if (memo(f->lhs, j)) return true;
        return false;
      case LtlOp::Always:
        for (std::size_t j = pos; j < n; ++j)
          if (!memo(f->lhs, j)) return false;
        return true;
      case LtlOp::Until:
        for (std::size_t j = pos; j < n; ++j) {
          if (memo(f->rhs, j)) return true;
          if (!memo(f->lhs, j)) return false;
        }
        return false;
      case LtlOp::Release:
        for (std::size_t j = pos; j < n; ++j) {
          if (!memo(f->rhs, j)) return false;
          if (memo(f->lhs, j)) return true;
        }
        return true;
    }
    return false;
  }

  const Trace& trace_;
  std::unordered_map<Key, bool, KeyHash> table_;
};

}  // namespace dpoaf::logic::reference
