#include "modelcheck/buchi.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace dpoaf::modelcheck {

namespace {

using logic::LtlOp;

// Formula sets are sets of interning ids; `known` maps ids back to nodes.
using FSet = std::set<std::uint64_t>;

struct Registry {
  std::unordered_map<std::uint64_t, Ltl> known;
  std::uint64_t id(const Ltl& f) {
    known.emplace(f->id, f);
    return f->id;
  }
  const Ltl& get(std::uint64_t id) const {
    auto it = known.find(id);
    DPOAF_CHECK(it != known.end());
    return it->second;
  }
};

constexpr int kInitName = -1;

struct TableauNode {
  int name = 0;
  std::set<int> incoming;
  FSet news;
  FSet olds;
  FSet nexts;
};

// GPVW expansion. `done_` accumulates the finished tableau nodes.
class Expander {
 public:
  explicit Expander(Registry& reg) : reg_(reg) {}

  std::vector<TableauNode> run(const Ltl& nnf_formula) {
    TableauNode init;
    init.name = fresh();
    init.incoming.insert(kInitName);
    init.news.insert(reg_.id(nnf_formula));
    // Depth-first over an explicit stack (recursion overflows on large
    // formulas); a split pushes its right node first, so the left finishes
    // first.
    pending_.push_back(std::move(init));
    while (!pending_.empty()) {
      TableauNode node = std::move(pending_.back());
      pending_.pop_back();
      expand(std::move(node));
    }
    return std::move(done_);
  }

 private:
  int fresh() { return next_name_++; }

  static bool contradicts(const Ltl& f, const FSet& olds, Registry& reg) {
    // literal vs its negation already in Old
    if (f->op == LtlOp::Prop) {
      const Ltl neg = logic::ltl::lnot(f);
      return olds.count(reg.id(neg)) > 0;
    }
    if (f->op == LtlOp::Not) {
      return olds.count(f->lhs->id) > 0;
    }
    return false;
  }

  // One step: finishes, discards or rewrites `node` onto `pending_`.
  void expand(TableauNode node) {
    if (node.news.empty()) {
      // Merge with an existing node that has identical Old and Next.
      for (TableauNode& nd : done_) {
        if (nd.olds == node.olds && nd.nexts == node.nexts) {
          nd.incoming.insert(node.incoming.begin(), node.incoming.end());
          return;
        }
      }
      TableauNode next;
      next.name = fresh();
      next.incoming.insert(node.name);
      next.news = node.nexts;
      done_.push_back(std::move(node));
      pending_.push_back(std::move(next));
      return;
    }

    const std::uint64_t eta_id = *node.news.begin();
    node.news.erase(node.news.begin());
    const Ltl eta = reg_.get(eta_id);

    switch (eta->op) {
      case LtlOp::False:
        return;  // inconsistent node: discard
      case LtlOp::True:
        pending_.push_back(std::move(node));
        return;
      case LtlOp::Prop:
      case LtlOp::Not: {
        DPOAF_CHECK_MSG(eta->op == LtlOp::Prop || eta->lhs->op == LtlOp::Prop,
                        "tableau input must be in negation normal form");
        if (contradicts(eta, node.olds, reg_)) return;
        node.olds.insert(eta_id);
        pending_.push_back(std::move(node));
        return;
      }
      case LtlOp::And: {
        node.olds.insert(eta_id);
        for (const Ltl& part : {eta->lhs, eta->rhs}) {
          const std::uint64_t pid = reg_.id(part);
          if (node.olds.count(pid) == 0) node.news.insert(pid);
        }
        pending_.push_back(std::move(node));
        return;
      }
      case LtlOp::Next: {
        node.olds.insert(eta_id);
        node.nexts.insert(reg_.id(eta->lhs));
        pending_.push_back(std::move(node));
        return;
      }
      case LtlOp::Or: {
        TableauNode left = node;
        left.name = fresh();
        left.olds.insert(eta_id);
        if (left.olds.count(reg_.id(eta->lhs)) == 0)
          left.news.insert(reg_.id(eta->lhs));

        TableauNode right = std::move(node);
        right.olds.insert(eta_id);
        if (right.olds.count(reg_.id(eta->rhs)) == 0)
          right.news.insert(reg_.id(eta->rhs));

        pending_.push_back(std::move(right));
        pending_.push_back(std::move(left));
        return;
      }
      case LtlOp::Until: {
        // μ U ψ  ≡  ψ ∨ (μ ∧ X(μ U ψ))
        TableauNode left = node;
        left.name = fresh();
        left.olds.insert(eta_id);
        if (left.olds.count(reg_.id(eta->lhs)) == 0)
          left.news.insert(reg_.id(eta->lhs));
        left.nexts.insert(eta_id);

        TableauNode right = std::move(node);
        right.olds.insert(eta_id);
        if (right.olds.count(reg_.id(eta->rhs)) == 0)
          right.news.insert(reg_.id(eta->rhs));

        pending_.push_back(std::move(right));
        pending_.push_back(std::move(left));
        return;
      }
      case LtlOp::Release: {
        // μ R ψ  ≡  (ψ ∧ μ) ∨ (ψ ∧ X(μ R ψ))
        TableauNode left = node;
        left.name = fresh();
        left.olds.insert(eta_id);
        if (left.olds.count(reg_.id(eta->rhs)) == 0)
          left.news.insert(reg_.id(eta->rhs));
        left.nexts.insert(eta_id);

        TableauNode right = std::move(node);
        right.olds.insert(eta_id);
        for (const Ltl& part : {eta->lhs, eta->rhs}) {
          const std::uint64_t pid = reg_.id(part);
          if (right.olds.count(pid) == 0) right.news.insert(pid);
        }

        pending_.push_back(std::move(right));
        pending_.push_back(std::move(left));
        return;
      }
      case LtlOp::Implies:
      case LtlOp::Eventually:
      case LtlOp::Always:
        DPOAF_CHECK_MSG(false, "tableau input must be in negation normal form");
    }
  }

  Registry& reg_;
  std::vector<TableauNode> pending_;
  std::vector<TableauNode> done_;
  int next_name_ = 0;
};

}  // namespace

std::size_t BuchiAutomaton::transition_count() const {
  std::size_t n = initial.size();
  for (const auto& s : states) n += s.successors.size();
  return n;
}

BuchiAutomaton ltl_to_buchi(const Ltl& formula) {
  BuchiStats stats;
  return ltl_to_buchi(formula, stats);
}

BuchiAutomaton ltl_to_buchi(const Ltl& formula, BuchiStats& stats) {
  DPOAF_CHECK(formula != nullptr);
  // Counts tableau runs the Büchi cache did not absorb; timing feeds the
  // report's histogram only (never any computed metric).
  static obs::Counter& translations =
      obs::counter("modelcheck.buchi.translations");
  translations.add();
  static obs::Histogram& translate_ns =
      obs::histogram("modelcheck.buchi.translate_ns");
  obs::ScopedTimer timer(translate_ns);
  Registry reg;
  const Ltl nnf = logic::to_nnf(formula);
  Expander expander(reg);
  const std::vector<TableauNode> nodes = expander.run(nnf);
  stats.gba_states = nodes.size();

  // Index tableau nodes by name and invert `incoming` into adjacency.
  std::map<int, std::size_t> by_name;
  for (std::size_t i = 0; i < nodes.size(); ++i)
    by_name.emplace(nodes[i].name, i);

  std::vector<std::vector<std::size_t>> gba_succ(nodes.size());
  std::vector<std::size_t> gba_init;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (int src : nodes[i].incoming) {
      if (src == kInitName) {
        gba_init.push_back(i);
      } else if (auto it = by_name.find(src); it != by_name.end()) {
        gba_succ[it->second].push_back(i);
      }
      // Sources that never became finished nodes (intermediate split names)
      // have no states; their edges are realized through their descendants.
    }
  }

  // Literal constraints per node.
  std::vector<Symbol> pos(nodes.size(), 0);
  std::vector<Symbol> neg(nodes.size(), 0);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::uint64_t id : nodes[i].olds) {
      const Ltl& f = reg.get(id);
      if (f->op == LtlOp::Prop)
        pos[i] |= logic::Vocabulary::bit(f->prop);
      else if (f->op == LtlOp::Not && f->lhs->op == LtlOp::Prop)
        neg[i] |= logic::Vocabulary::bit(f->lhs->prop);
    }
  }

  // Generalized acceptance: one set per Until subformula appearing in any
  // node: F_(μUψ) = { n | (μUψ) ∉ n.Old or ψ ∈ n.Old }.
  std::vector<std::uint64_t> untils;
  for (const TableauNode& n : nodes)
    for (std::uint64_t id : n.olds)
      if (reg.get(id)->op == LtlOp::Until) untils.push_back(id);
  std::sort(untils.begin(), untils.end());
  untils.erase(std::unique(untils.begin(), untils.end()), untils.end());

  std::vector<std::vector<bool>> in_accept(
      std::max<std::size_t>(untils.size(), 1),
      std::vector<bool>(nodes.size(), true));
  for (std::size_t k = 0; k < untils.size(); ++k) {
    const Ltl u = reg.get(untils[k]);
    const std::uint64_t psi_id = reg.id(u->rhs);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const bool has_u = nodes[i].olds.count(untils[k]) > 0;
      const bool has_psi = nodes[i].olds.count(psi_id) > 0;
      in_accept[k][i] = !has_u || has_psi;
    }
  }
  const std::size_t k_sets = std::max<std::size_t>(untils.size(), 1);
  stats.acceptance_sets = k_sets;

  // Degeneralize: BA states are (node, counter).
  BuchiAutomaton ba;
  ba.states.resize(nodes.size() * k_sets);
  auto ba_index = [&](std::size_t node, std::size_t counter) {
    return static_cast<int>(node * k_sets + counter);
  };
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t c = 0; c < k_sets; ++c) {
      BuchiState& s = ba.states[static_cast<std::size_t>(ba_index(i, c))];
      s.pos = pos[i];
      s.neg = neg[i];
      s.accepting = (c == 0) && in_accept[0][i];
      const std::size_t next_c = in_accept[c][i] ? (c + 1) % k_sets : c;
      for (std::size_t j : gba_succ[i])
        s.successors.push_back(ba_index(j, next_c));
    }
  }
  for (std::size_t j : gba_init) ba.initial.push_back(ba_index(j, 0));

  stats.ba_states = ba.state_count();
  stats.ba_transitions = ba.transition_count();
  return ba;
}

namespace {

// Process-wide translation cache. The working set is one ¬Φ per spec —
// dozens, not millions — but the capacity must comfortably exceed it so
// the rulebook is never evicted mid-run.
std::atomic<bool> buchi_cache_on{true};

util::BoundedCache<std::uint64_t, BuchiPtr>& buchi_cache() {
  static util::BoundedCache<std::uint64_t, BuchiPtr> cache(/*capacity=*/2048);
  return cache;
}

}  // namespace

BuchiPtr ltl_to_buchi_cached(const Ltl& formula) {
  DPOAF_CHECK(formula != nullptr);
  if (!buchi_cache_on.load(std::memory_order_relaxed))
    return std::make_shared<const BuchiAutomaton>(ltl_to_buchi(formula));
  return buchi_cache().get_or_compute(formula->id, [&] {
    return std::make_shared<const BuchiAutomaton>(ltl_to_buchi(formula));
  });
}

void set_buchi_cache_enabled(bool enabled) {
  buchi_cache_on.store(enabled, std::memory_order_relaxed);
}

bool buchi_cache_enabled() {
  return buchi_cache_on.load(std::memory_order_relaxed);
}

util::CacheStats buchi_cache_stats() { return buchi_cache().stats(); }

void clear_buchi_cache() {
  buchi_cache().clear();
  buchi_cache().reset_stats();
}

}  // namespace dpoaf::modelcheck
