#include "logic/ltlf.hpp"

#include <unordered_map>

#include "util/check.hpp"

namespace dpoaf::logic {

namespace {

struct Memo {
  // Key: (node id, position), compared exactly. The previous scheme
  // flattened the pair into `id * 1000003 + pos`, which collides whenever
  // two pairs differ by a multiple of the stride — reachable with traces
  // past a million steps (ids are consecutive for formulas interned
  // back-to-back), silently returning one subformula's verdict for
  // another's (regression: tests/test_logic.cpp MemoKeyCollision).
  struct Key {
    std::uint64_t id = 0;
    std::uint64_t pos = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      // splitmix64-style mix of both fields; exactness comes from
      // operator==, the hash only needs to spread.
      std::uint64_t h = k.id * 0x9E3779B97F4A7C15ULL + k.pos;
      h ^= h >> 30;
      h *= 0xBF58476D1CE4E5B9ULL;
      h ^= h >> 27;
      return static_cast<std::size_t>(h);
    }
  };
  std::unordered_map<Key, bool, KeyHash> table;
  const Trace* trace = nullptr;

  static Key key(const Ltl& f, std::size_t pos) {
    return Key{f->id, pos};
  }

  bool eval(const Ltl& f, std::size_t pos) {
    const std::size_t n = trace->size();
    DPOAF_DCHECK(pos < n);
    switch (f->op) {
      case LtlOp::True:
        return true;
      case LtlOp::False:
        return false;
      case LtlOp::Prop:
        return Vocabulary::has((*trace)[pos], f->prop);
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
      case LtlOp::Eventually: {
        for (std::size_t j = pos; j < n; ++j)
          if (memo(f->lhs, j)) return true;
        return false;
      }
      case LtlOp::Always: {
        for (std::size_t j = pos; j < n; ++j)
          if (!memo(f->lhs, j)) return false;
        return true;
      }
      case LtlOp::Until: {
        for (std::size_t j = pos; j < n; ++j) {
          if (memo(f->rhs, j)) return true;
          if (!memo(f->lhs, j)) return false;
        }
        return false;
      }
      case LtlOp::Release: {
        // φ R ψ on finite traces: ψ holds up to and including the step where
        // φ first holds; if φ never holds, ψ must hold to the end.
        for (std::size_t j = pos; j < n; ++j) {
          if (!memo(f->rhs, j)) return false;
          if (memo(f->lhs, j)) return true;
        }
        return true;
      }
    }
    DPOAF_CHECK_MSG(false, "unreachable LtlOp in LTLf evaluation");
    return false;
  }

  bool memo(const Ltl& f, std::size_t pos) {
    const Key k = key(f, pos);
    if (auto it = table.find(k); it != table.end()) return it->second;
    const bool v = eval(f, pos);
    table.emplace(k, v);
    return v;
  }
};

}  // namespace

bool evaluate_ltlf(const Ltl& f, const Trace& trace, std::size_t pos) {
  DPOAF_CHECK(f != nullptr);
  DPOAF_CHECK_MSG(pos < trace.size(),
                  "LTLf evaluation requires a non-empty trace");
  Memo memo;
  memo.trace = &trace;
  return memo.memo(f, pos);
}

bool holds_on(const Ltl& f, Symbol label) {
  return evaluate_ltlf(f, Trace{label});
}

double satisfaction_rate(const Ltl& f, const std::vector<Trace>& traces) {
  if (traces.empty()) return 0.0;
  // Empty traces carry no step to evaluate: they are excluded from the
  // denominator rather than silently counted as violations, and a batch
  // of *only* empty traces is a simulator bug, not a 0% rate.
  std::size_t sat = 0, evaluated = 0;
  for (const Trace& t : traces) {
    if (t.empty()) continue;
    ++evaluated;
    if (evaluate_ltlf(f, t)) ++sat;
  }
  DPOAF_CHECK_MSG(evaluated > 0,
                  "satisfaction_rate over " + std::to_string(traces.size()) +
                      " traces: every trace is empty — the simulator "
                      "produced no steps");
  return static_cast<double>(sat) / static_cast<double>(evaluated);
}

}  // namespace dpoaf::logic
