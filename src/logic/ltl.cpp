#include "logic/ltl.hpp"

#include <mutex>
#include <unordered_map>

#include "util/check.hpp"

namespace dpoaf::logic {

namespace {

struct Key {
  LtlOp op;
  int prop;
  std::uint64_t lhs;
  std::uint64_t rhs;
  bool operator==(const Key&) const = default;
};

struct KeyHash {
  std::size_t operator()(const Key& k) const {
    std::uint64_t h = static_cast<std::uint64_t>(k.op) * 0x9E3779B97F4A7C15ULL;
    h ^= static_cast<std::uint64_t>(static_cast<std::int64_t>(k.prop)) +
         0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    h ^= k.lhs + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    h ^= k.rhs + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    return static_cast<std::size_t>(h);
  }
};

// Process-wide interning pool. Every verification builds derived formulas
// (NNF, tableau closures) that intern nodes here. The pipeline scores on
// one thread, but the pool is process-wide and any library caller may
// build formulas from another thread, so it is guarded by a mutex. Node
// *identity* stays canonical — interning the same structure always yields
// the same handle — but id assignment order may vary across runs if
// threads race on first construction; nothing observable depends on the
// order, only on identity.
std::mutex& pool_mutex() {
  static std::mutex m;
  return m;
}

std::unordered_map<Key, Ltl, KeyHash>& pool() {
  static std::unordered_map<Key, Ltl, KeyHash> p;
  return p;
}

Ltl intern(LtlOp op, int prop, const Ltl& lhs, const Ltl& rhs) {
  const Key key{op, prop, lhs ? lhs->id : 0, rhs ? rhs->id : 0};
  std::lock_guard<std::mutex> lock(pool_mutex());
  auto& p = pool();
  if (auto it = p.find(key); it != p.end()) return it->second;
  static std::uint64_t next_id = 1;
  auto node = std::make_shared<LtlNode>(LtlNode{op, prop, lhs, rhs, next_id++});
  p.emplace(key, node);
  return node;
}

}  // namespace

namespace ltl {

Ltl ltrue() { return intern(LtlOp::True, -1, nullptr, nullptr); }
Ltl lfalse() { return intern(LtlOp::False, -1, nullptr, nullptr); }

Ltl prop(int index) {
  DPOAF_CHECK(index >= 0 &&
              static_cast<std::size_t>(index) < Vocabulary::kMaxProps);
  return intern(LtlOp::Prop, index, nullptr, nullptr);
}

Ltl lnot(const Ltl& a) {
  DPOAF_CHECK(a != nullptr);
  // Light simplification keeps tableau closures small.
  if (a->op == LtlOp::True) return lfalse();
  if (a->op == LtlOp::False) return ltrue();
  if (a->op == LtlOp::Not) return a->lhs;
  return intern(LtlOp::Not, -1, a, nullptr);
}

Ltl land(const Ltl& a, const Ltl& b) {
  DPOAF_CHECK(a != nullptr && b != nullptr);
  if (a->op == LtlOp::False || b->op == LtlOp::False) return lfalse();
  if (a->op == LtlOp::True) return b;
  if (b->op == LtlOp::True) return a;
  if (a == b) return a;
  return intern(LtlOp::And, -1, a, b);
}

Ltl lor(const Ltl& a, const Ltl& b) {
  DPOAF_CHECK(a != nullptr && b != nullptr);
  if (a->op == LtlOp::True || b->op == LtlOp::True) return ltrue();
  if (a->op == LtlOp::False) return b;
  if (b->op == LtlOp::False) return a;
  if (a == b) return a;
  return intern(LtlOp::Or, -1, a, b);
}

Ltl implies(const Ltl& a, const Ltl& b) {
  return intern(LtlOp::Implies, -1, a, b);
}

Ltl next(const Ltl& a) { return intern(LtlOp::Next, -1, a, nullptr); }

Ltl eventually(const Ltl& a) {
  return intern(LtlOp::Eventually, -1, a, nullptr);
}

Ltl always(const Ltl& a) { return intern(LtlOp::Always, -1, a, nullptr); }

Ltl until(const Ltl& a, const Ltl& b) {
  return intern(LtlOp::Until, -1, a, b);
}

Ltl release(const Ltl& a, const Ltl& b) {
  return intern(LtlOp::Release, -1, a, b);
}

Ltl land_all(const std::vector<Ltl>& xs) {
  Ltl acc = ltrue();
  for (const Ltl& x : xs) acc = land(acc, x);
  return acc;
}

Ltl lor_all(const std::vector<Ltl>& xs) {
  Ltl acc = lfalse();
  for (const Ltl& x : xs) acc = lor(acc, x);
  return acc;
}

}  // namespace ltl

namespace {

Ltl nnf_pos(const Ltl& f);

Ltl nnf_neg(const Ltl& f) {
  using namespace ltl;
  switch (f->op) {
    case LtlOp::True:
      return lfalse();
    case LtlOp::False:
      return ltrue();
    case LtlOp::Prop:
      return lnot(f);
    case LtlOp::Not:
      return nnf_pos(f->lhs);
    case LtlOp::And:
      return lor(nnf_neg(f->lhs), nnf_neg(f->rhs));
    case LtlOp::Or:
      return land(nnf_neg(f->lhs), nnf_neg(f->rhs));
    case LtlOp::Implies:
      return land(nnf_pos(f->lhs), nnf_neg(f->rhs));
    case LtlOp::Next:
      return next(nnf_neg(f->lhs));
    case LtlOp::Eventually:  // ¬◇φ = □¬φ = false R ¬φ
      return release(lfalse(), nnf_neg(f->lhs));
    case LtlOp::Always:  // ¬□φ = ◇¬φ = true U ¬φ
      return until(ltrue(), nnf_neg(f->lhs));
    case LtlOp::Until:  // ¬(φ U ψ) = ¬φ R ¬ψ
      return release(nnf_neg(f->lhs), nnf_neg(f->rhs));
    case LtlOp::Release:  // ¬(φ R ψ) = ¬φ U ¬ψ
      return until(nnf_neg(f->lhs), nnf_neg(f->rhs));
  }
  DPOAF_CHECK_MSG(false, "unreachable LtlOp in nnf_neg");
  return nullptr;
}

Ltl nnf_pos(const Ltl& f) {
  using namespace ltl;
  switch (f->op) {
    case LtlOp::True:
    case LtlOp::False:
    case LtlOp::Prop:
      return f;
    case LtlOp::Not:
      return nnf_neg(f->lhs);
    case LtlOp::And:
      return land(nnf_pos(f->lhs), nnf_pos(f->rhs));
    case LtlOp::Or:
      return lor(nnf_pos(f->lhs), nnf_pos(f->rhs));
    case LtlOp::Implies:
      return lor(nnf_neg(f->lhs), nnf_pos(f->rhs));
    case LtlOp::Next:
      return next(nnf_pos(f->lhs));
    case LtlOp::Eventually:  // ◇φ = true U φ
      return until(ltrue(), nnf_pos(f->lhs));
    case LtlOp::Always:  // □φ = false R φ
      return release(lfalse(), nnf_pos(f->lhs));
    case LtlOp::Until:
      return until(nnf_pos(f->lhs), nnf_pos(f->rhs));
    case LtlOp::Release:
      return release(nnf_pos(f->lhs), nnf_pos(f->rhs));
  }
  DPOAF_CHECK_MSG(false, "unreachable LtlOp in nnf_pos");
  return nullptr;
}

}  // namespace

Ltl to_nnf(const Ltl& f) {
  DPOAF_CHECK(f != nullptr);
  return nnf_pos(f);
}

bool is_propositional(const Ltl& f) {
  switch (f->op) {
    case LtlOp::True:
    case LtlOp::False:
    case LtlOp::Prop:
      return true;
    case LtlOp::Not:
    case LtlOp::And:
    case LtlOp::Or:
    case LtlOp::Implies:
      return (!f->lhs || is_propositional(f->lhs)) &&
             (!f->rhs || is_propositional(f->rhs));
    default:
      return false;
  }
}

std::size_t formula_size(const Ltl& f) {
  if (!f) return 0;
  return 1 + formula_size(f->lhs) + formula_size(f->rhs);
}

namespace {

// Precedence for parenthesis-minimal printing.
int prec(LtlOp op) {
  switch (op) {
    case LtlOp::Implies:
      return 1;
    case LtlOp::Or:
      return 2;
    case LtlOp::And:
      return 3;
    case LtlOp::Until:
    case LtlOp::Release:
      return 4;
    default:
      return 5;  // literals and unary operators
  }
}

void print(const Ltl& f, const Vocabulary& vocab, int parent_prec,
           std::string& out) {
  const int p = prec(f->op);
  const bool need_paren = p < parent_prec;
  if (need_paren) out += "(";
  switch (f->op) {
    case LtlOp::True:
      out += "true";
      break;
    case LtlOp::False:
      out += "false";
      break;
    case LtlOp::Prop:
      out += vocab.name(f->prop);
      break;
    case LtlOp::Not:
      out += "!";
      print(f->lhs, vocab, p + 1, out);
      break;
    // The parser folds & and | left-associatively, so the right child
    // needs parens at equal precedence or round-tripping would re-nest
    // `a | (b | c)` into `(a | b) | c`.
    case LtlOp::And:
      print(f->lhs, vocab, p, out);
      out += " & ";
      print(f->rhs, vocab, p + 1, out);
      break;
    case LtlOp::Or:
      print(f->lhs, vocab, p, out);
      out += " | ";
      print(f->rhs, vocab, p + 1, out);
      break;
    case LtlOp::Implies:
      print(f->lhs, vocab, p + 1, out);
      out += " -> ";
      print(f->rhs, vocab, p, out);
      break;
    case LtlOp::Next:
      out += "X ";
      print(f->lhs, vocab, p + 1, out);
      break;
    case LtlOp::Eventually:
      out += "F ";
      print(f->lhs, vocab, p + 1, out);
      break;
    case LtlOp::Always:
      out += "G ";
      print(f->lhs, vocab, p + 1, out);
      break;
    case LtlOp::Until:
      print(f->lhs, vocab, p + 1, out);
      out += " U ";
      print(f->rhs, vocab, p + 1, out);
      break;
    case LtlOp::Release:
      print(f->lhs, vocab, p + 1, out);
      out += " R ";
      print(f->rhs, vocab, p + 1, out);
      break;
  }
  if (need_paren) out += ")";
}

}  // namespace

std::string to_string(const Ltl& f, const Vocabulary& vocab) {
  DPOAF_CHECK(f != nullptr);
  std::string out;
  print(f, vocab, 0, out);
  return out;
}

}  // namespace dpoaf::logic
