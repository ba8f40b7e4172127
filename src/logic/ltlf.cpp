#include "logic/ltlf.hpp"

#include <cstdint>
#include <unordered_map>

#include "util/check.hpp"

namespace dpoaf::logic {

namespace {

/// One formula's distinct subformulas, children before parents, each
/// evaluated as a column of truth values over a trace suffix. Every column
/// fills in one backward pass: a temporal operator's value at k needs only
/// its operands at k and its own value at k + 1. The buffer is reused across
/// the traces one evaluator walks.
class Columns {
 public:
  explicit Columns(const Ltl& f) {
    std::unordered_map<std::uint64_t, int> index;
    add(f, index);
  }

  /// `f` at `pos` of `trace`; requires pos < trace.size().
  bool eval(const Trace& trace, std::size_t pos) {
    const std::size_t len = trace.size() - pos;
    cells_.resize(nodes_.size() * len);
    const auto column = [&](int node) {
      return cells_.data() + static_cast<std::size_t>(node) * len;
    };
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const Node& node = nodes_[i];
      std::uint8_t* out = column(static_cast<int>(i));
      const std::uint8_t* a = node.lhs >= 0 ? column(node.lhs) : nullptr;
      const std::uint8_t* b = node.rhs >= 0 ? column(node.rhs) : nullptr;
      std::uint8_t carry = 0;  // the column's value past the end
      switch (node.op) {
        case LtlOp::True:
        case LtlOp::False:
          for (std::size_t k = 0; k < len; ++k)
            out[k] = node.op == LtlOp::True;
          break;
        case LtlOp::Prop:
          for (std::size_t k = 0; k < len; ++k)
            out[k] = Vocabulary::has(trace[pos + k], node.prop);
          break;
        case LtlOp::Not:
          for (std::size_t k = 0; k < len; ++k) out[k] = !a[k];
          break;
        case LtlOp::And:
          for (std::size_t k = 0; k < len; ++k) out[k] = a[k] & b[k];
          break;
        case LtlOp::Or:
          for (std::size_t k = 0; k < len; ++k) out[k] = a[k] | b[k];
          break;
        case LtlOp::Implies:
          for (std::size_t k = 0; k < len; ++k) out[k] = !a[k] || b[k];
          break;
        case LtlOp::Next:  // strong next: false at the last position
          for (std::size_t k = len; k-- > 0;) {
            out[k] = carry;
            carry = a[k];
          }
          break;
        case LtlOp::Eventually:
          for (std::size_t k = len; k-- > 0;) out[k] = carry |= a[k];
          break;
        case LtlOp::Always:
          carry = 1;
          for (std::size_t k = len; k-- > 0;) out[k] = carry &= a[k];
          break;
        case LtlOp::Until:
          for (std::size_t k = len; k-- > 0;)
            out[k] = carry = b[k] | (a[k] & carry);
          break;
        case LtlOp::Release:
          // φ R ψ on finite traces: ψ holds up to and including the step
          // where φ first holds; if φ never holds, ψ must hold to the end.
          carry = 1;
          for (std::size_t k = len; k-- > 0;)
            out[k] = carry = b[k] & (a[k] | carry);
          break;
      }
    }
    return column(static_cast<int>(nodes_.size()) - 1)[0] != 0;
  }

 private:
  struct Node {
    LtlOp op;
    int prop;
    int lhs;  // operand columns; -1 when absent
    int rhs;
  };

  // Appends `f` after its operands (the root lands last); hash-consed
  // subformulas shared in the DAG get one column.
  int add(const Ltl& f, std::unordered_map<std::uint64_t, int>& index) {
    if (auto it = index.find(f->id); it != index.end()) return it->second;
    const int lhs = f->lhs ? add(f->lhs, index) : -1;
    const int rhs = f->rhs ? add(f->rhs, index) : -1;
    nodes_.push_back(Node{f->op, f->prop, lhs, rhs});
    const int id = static_cast<int>(nodes_.size()) - 1;
    index.emplace(f->id, id);
    return id;
  }

  std::vector<Node> nodes_;
  std::vector<std::uint8_t> cells_;
};

}  // namespace

bool evaluate_ltlf(const Ltl& f, const Trace& trace, std::size_t pos) {
  DPOAF_CHECK(f != nullptr);
  DPOAF_CHECK_MSG(pos < trace.size(),
                  "LTLf evaluation requires a non-empty trace");
  return Columns(f).eval(trace, pos);
}

bool holds_on(const Ltl& f, Symbol label) {
  // The LTLf verdict on the one-step trace {label}: X is false there, and
  // every other temporal operator reduces to its operand at that step.
  switch (f->op) {
    case LtlOp::True:
      return true;
    case LtlOp::False:
    case LtlOp::Next:
      return false;
    case LtlOp::Prop:
      return Vocabulary::has(label, f->prop);
    case LtlOp::Not:
      return !holds_on(f->lhs, label);
    case LtlOp::And:
      return holds_on(f->lhs, label) && holds_on(f->rhs, label);
    case LtlOp::Or:
      return holds_on(f->lhs, label) || holds_on(f->rhs, label);
    case LtlOp::Implies:
      return !holds_on(f->lhs, label) || holds_on(f->rhs, label);
    case LtlOp::Eventually:
    case LtlOp::Always:
      return holds_on(f->lhs, label);
    case LtlOp::Until:
    case LtlOp::Release:
      return holds_on(f->rhs, label);
  }
  DPOAF_CHECK_MSG(false, "unreachable LtlOp in LTLf evaluation");
  return false;
}

double satisfaction_rate(const Ltl& f, const std::vector<Trace>& traces) {
  if (traces.empty()) return 0.0;
  DPOAF_CHECK(f != nullptr);
  // Empty traces carry no step to evaluate: they are excluded from the
  // denominator rather than silently counted as violations, and a batch
  // of *only* empty traces is a simulator bug, not a 0% rate.
  Columns columns(f);
  std::size_t sat = 0, evaluated = 0;
  for (const Trace& t : traces) {
    if (t.empty()) continue;
    ++evaluated;
    if (columns.eval(t, 0)) ++sat;
  }
  DPOAF_CHECK_MSG(evaluated > 0,
                  "satisfaction_rate over " + std::to_string(traces.size()) +
                      " traces: every trace is empty — the simulator "
                      "produced no steps");
  return static_cast<double>(sat) / static_cast<double>(evaluated);
}

}  // namespace dpoaf::logic
