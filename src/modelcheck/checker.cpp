#include "modelcheck/checker.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <utility>

#include "logic/lasso_eval.hpp"
#include "logic/ltlf.hpp"
#include "modelcheck/buchi.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace dpoaf::modelcheck {

namespace {

// Synchronous product of the Kripke structure with the Büchi automaton for
// ¬Φ, built on the fly (reachable fragment only).
struct Product {
  // product state -> (kripke state, büchi state)
  std::vector<std::pair<int, int>> states;
  std::vector<std::vector<int>> succ;
  std::vector<int> initial;
  std::vector<bool> accepting;
};

Product build_product(const Kripke& k, const BuchiAutomaton& ba) {
  Product prod;
  std::map<std::pair<int, int>, int> index;

  auto get = [&](int ks, int bs) {
    const auto key = std::make_pair(ks, bs);
    if (auto it = index.find(key); it != index.end()) return it->second;
    const int id = static_cast<int>(prod.states.size());
    prod.states.push_back(key);
    prod.succ.emplace_back();
    prod.accepting.push_back(ba.states[static_cast<std::size_t>(bs)].accepting);
    index.emplace(key, id);
    return id;
  };

  std::deque<int> frontier;
  for (int ks : k.initial) {
    for (int bs : ba.initial) {
      if (!ba.states[static_cast<std::size_t>(bs)].enabled(
              k.labels[static_cast<std::size_t>(ks)]))
        continue;
      const std::size_t before = prod.states.size();
      const int id = get(ks, bs);
      prod.initial.push_back(id);
      if (prod.states.size() > before) frontier.push_back(id);
    }
  }

  while (!frontier.empty()) {
    const int id = frontier.front();
    frontier.pop_front();
    const auto [ks, bs] = prod.states[static_cast<std::size_t>(id)];
    for (int ks2 : k.successors[static_cast<std::size_t>(ks)]) {
      const logic::Symbol label2 = k.labels[static_cast<std::size_t>(ks2)];
      for (int bs2 : ba.states[static_cast<std::size_t>(bs)].successors) {
        if (!ba.states[static_cast<std::size_t>(bs2)].enabled(label2))
          continue;
        const std::size_t before = prod.states.size();
        const int id2 = get(ks2, bs2);
        prod.succ[static_cast<std::size_t>(id)].push_back(id2);
        if (prod.states.size() > before) frontier.push_back(id2);
      }
    }
  }
  return prod;
}

// Iterative Tarjan SCC (explicit stack; product graphs can be deep).
std::vector<int> tarjan_scc(const Product& prod, int& scc_count) {
  const int n = static_cast<int>(prod.states.size());
  std::vector<int> comp(static_cast<std::size_t>(n), -1);
  std::vector<int> low(static_cast<std::size_t>(n), 0);
  std::vector<int> disc(static_cast<std::size_t>(n), -1);
  std::vector<bool> on_stack(static_cast<std::size_t>(n), false);
  std::vector<int> stack;
  scc_count = 0;
  int timer = 0;

  struct Frame {
    int v;
    std::size_t child = 0;
  };

  for (int start = 0; start < n; ++start) {
    if (disc[static_cast<std::size_t>(start)] != -1) continue;
    std::vector<Frame> call;
    call.push_back({start});
    disc[static_cast<std::size_t>(start)] =
        low[static_cast<std::size_t>(start)] = timer++;
    stack.push_back(start);
    on_stack[static_cast<std::size_t>(start)] = true;

    while (!call.empty()) {
      Frame& f = call.back();
      const auto& out = prod.succ[static_cast<std::size_t>(f.v)];
      if (f.child < out.size()) {
        const int w = out[f.child++];
        if (disc[static_cast<std::size_t>(w)] == -1) {
          disc[static_cast<std::size_t>(w)] =
              low[static_cast<std::size_t>(w)] = timer++;
          stack.push_back(w);
          on_stack[static_cast<std::size_t>(w)] = true;
          call.push_back({w});
        } else if (on_stack[static_cast<std::size_t>(w)]) {
          low[static_cast<std::size_t>(f.v)] =
              std::min(low[static_cast<std::size_t>(f.v)],
                       disc[static_cast<std::size_t>(w)]);
        }
      } else {
        if (low[static_cast<std::size_t>(f.v)] ==
            disc[static_cast<std::size_t>(f.v)]) {
          while (true) {
            const int w = stack.back();
            stack.pop_back();
            on_stack[static_cast<std::size_t>(w)] = false;
            comp[static_cast<std::size_t>(w)] = scc_count;
            if (w == f.v) break;
          }
          ++scc_count;
        }
        const int v = f.v;
        call.pop_back();
        if (!call.empty()) {
          const int parent = call.back().v;
          low[static_cast<std::size_t>(parent)] =
              std::min(low[static_cast<std::size_t>(parent)],
                       low[static_cast<std::size_t>(v)]);
        }
      }
    }
  }
  return comp;
}

// BFS path from any of `sources` to `target`; returns the state sequence
// including both endpoints. Optionally restrict moves to one SCC.
std::vector<int> bfs_path(const Product& prod, const std::vector<int>& sources,
                          int target, const std::vector<int>* comp = nullptr,
                          int restrict_comp = -1) {
  const int n = static_cast<int>(prod.states.size());
  std::vector<int> parent(static_cast<std::size_t>(n), -2);
  std::deque<int> queue;
  for (int s : sources) {
    if (parent[static_cast<std::size_t>(s)] != -2) continue;
    parent[static_cast<std::size_t>(s)] = -1;
    queue.push_back(s);
  }
  while (!queue.empty()) {
    const int v = queue.front();
    queue.pop_front();
    for (int w : prod.succ[static_cast<std::size_t>(v)]) {
      if (comp != nullptr &&
          (*comp)[static_cast<std::size_t>(w)] != restrict_comp)
        continue;
      if (w == target) {
        std::vector<int> path;
        path.push_back(w);
        int cur = v;
        while (cur != -1) {
          path.push_back(cur);
          cur = parent[static_cast<std::size_t>(cur)];
        }
        std::reverse(path.begin(), path.end());
        return path;
      }
      if (parent[static_cast<std::size_t>(w)] != -2) continue;
      parent[static_cast<std::size_t>(w)] = v;
      queue.push_back(w);
    }
  }
  // target is a source itself (empty path) or unreachable
  for (int s : sources)
    if (s == target) return {target};
  return {};
}

// L(B) = ∅ iff no reachable accepting state lies on a cycle. A state's
// literals constrain only the letter read on entering it, and the tableau
// discards every node whose literals contradict, so every path spells a
// word.
bool accepts_nothing(const BuchiAutomaton& ba) {
  // `from` and every state after it.
  const auto reach = [&](const std::vector<int>& from) {
    std::vector<bool> seen(ba.states.size(), false);
    std::vector<int> stack;
    const auto visit = [&](int s) {
      if (seen[static_cast<std::size_t>(s)]) return;
      seen[static_cast<std::size_t>(s)] = true;
      stack.push_back(s);
    };
    for (int s : from) visit(s);
    while (!stack.empty()) {
      const int s = stack.back();
      stack.pop_back();
      for (int t : ba.states[static_cast<std::size_t>(s)].successors) visit(t);
    }
    return seen;
  };
  const std::vector<bool> reachable = reach(ba.initial);
  for (std::size_t s = 0; s < ba.states.size(); ++s)
    if (reachable[s] && ba.states[s].accepting &&
        reach(ba.states[s].successors)[s])
      return false;
  return true;
}

}  // namespace

CheckResult check(const Kripke& kripke, const Ltl& spec,
                  const std::vector<Ltl>& justice) {
  DPOAF_CHECK(spec != nullptr);
  DPOAF_CHECK_MSG(justice.size() <= 32, "at most 32 justice conditions");
  for (const Ltl& p : justice)
    DPOAF_CHECK_MSG(p != nullptr && logic::is_propositional(p),
                    "a justice condition must be propositional");
  static obs::Counter& checks = obs::counter("modelcheck.checks");
  checks.add();
  obs::ScopedTimer timer(obs::histogram("modelcheck.check_ns"));
  CheckResult res;

  // ¬Φ is hash-consed, so repeated checks of the same spec share one
  // translated automaton (read-only) instead of re-running the tableau.
  const BuchiPtr ba_ptr = ltl_to_buchi_cached(logic::ltl::lnot(spec));
  const BuchiAutomaton& ba = *ba_ptr;
  res.buchi_states = ba.state_count();

  const Product prod = build_product(kripke, ba);
  res.product_states = prod.states.size();
  if (prod.initial.empty()) {
    res.holds = true;  // no joint run at all ⇒ language of ¬Φ ∩ K is empty
    return res;
  }

  int scc_count = 0;
  const std::vector<int> comp = tarjan_scc(prod, scc_count);

  // A violation is a fair accepting cycle: a non-trivial SCC (size > 1 or a
  // self-loop) holding an accepting state and, for each justice condition
  // p_i, a state whose Kripke label satisfies p_i. Everything in `prod` is
  // reachable from the initial states by construction.
  std::vector<int> comp_size(static_cast<std::size_t>(scc_count), 0);
  for (int c : comp) ++comp_size[static_cast<std::size_t>(c)];
  auto accepting_cycle = [&](std::size_t v) {
    if (!prod.accepting[v]) return false;
    if (comp_size[static_cast<std::size_t>(comp[v])] > 1) return true;
    const auto& out = prod.succ[v];
    return std::find(out.begin(), out.end(), static_cast<int>(v)) != out.end();
  };

  // Bit i of met[k]: Kripke state k's label satisfies p_i; scc_met ORs
  // the bits of each SCC's states.
  std::vector<std::uint32_t> met(kripke.state_count(), 0);
  for (std::size_t k = 0; k < met.size(); ++k)
    for (std::size_t i = 0; i < justice.size(); ++i)
      if (logic::holds_on(justice[i], kripke.labels[k]))
        met[k] |= std::uint32_t{1} << i;
  auto met_at = [&](int v) {
    return met[static_cast<std::size_t>(
        prod.states[static_cast<std::size_t>(v)].first)];
  };
  std::vector<std::uint32_t> scc_met(static_cast<std::size_t>(scc_count), 0);
  for (std::size_t v = 0; v < prod.states.size(); ++v)
    scc_met[static_cast<std::size_t>(comp[v])] |= met_at(static_cast<int>(v));
  const auto all_met =
      static_cast<std::uint32_t>((std::uint64_t{1} << justice.size()) - 1);

  int witness = -1;
  for (std::size_t v = 0; v < prod.states.size() && witness < 0; ++v)
    if (accepting_cycle(v) &&
        scc_met[static_cast<std::size_t>(comp[v])] == all_met)
      witness = static_cast<int>(v);

  if (witness < 0) {
    res.holds = true;
    return res;
  }

  // Counter-example: prefix from an initial state to the witness, then a
  // cycle inside its SCC from the witness through one state per justice
  // condition the cycle does not meet yet, and back to the witness.
  const std::vector<int> prefix = bfs_path(prod, prod.initial, witness);
  DPOAF_CHECK(!prefix.empty());

  const int wcomp = comp[static_cast<std::size_t>(witness)];
  auto path_from = [&](int from, int target) {
    std::vector<int> sources;
    for (int w : prod.succ[static_cast<std::size_t>(from)])
      if (comp[static_cast<std::size_t>(w)] == wcomp) sources.push_back(w);
    std::vector<int> path = bfs_path(prod, sources, target, &comp, wcomp);
    DPOAF_CHECK(!path.empty());
    return path;
  };
  std::vector<int> cycle{witness};
  std::uint32_t cycle_met = met_at(witness);
  for (std::size_t i = 0; i < justice.size(); ++i) {
    const std::uint32_t bit = std::uint32_t{1} << i;
    if ((cycle_met & bit) != 0) continue;
    int target = 0;
    while (comp[static_cast<std::size_t>(target)] != wcomp ||
           (met_at(target) & bit) == 0)
      ++target;
    for (int v : path_from(cycle.back(), target)) {
      cycle.push_back(v);
      cycle_met |= met_at(v);
    }
  }
  // The path back ends at the witness (excluded; the cycle list holds the
  // witness once, at its head).
  const std::vector<int> back = path_from(cycle.back(), witness);
  cycle.insert(cycle.end(), back.begin(), back.end() - 1);

  res.holds = false;
  for (std::size_t i = 0; i + 1 < prefix.size(); ++i)
    res.counterexample.prefix.push_back(
        prod.states[static_cast<std::size_t>(prefix[i])].first);
  for (int v : cycle)
    res.counterexample.cycle.push_back(
        prod.states[static_cast<std::size_t>(v)].first);
  return res;
}

std::size_t VerificationReport::satisfied() const {
  std::size_t n = 0;
  for (const auto& o : outcomes)
    if (o.result.holds) ++n;
  return n;
}

double VerificationReport::fraction() const {
  if (outcomes.empty()) return 0.0;
  return static_cast<double>(satisfied()) /
         static_cast<double>(outcomes.size());
}

std::vector<std::string> VerificationReport::violated() const {
  std::vector<std::string> out;
  for (const auto& o : outcomes)
    if (!o.result.holds) out.push_back(o.spec.name);
  return out;
}

VerificationReport verify_all(const Kripke& kripke,
                              const std::vector<NamedSpec>& specs,
                              const std::vector<Ltl>& justice) {
  VerificationReport report;
  report.outcomes.reserve(specs.size());
  for (const NamedSpec& spec : specs) {
    report.outcomes.push_back(
        {spec, check(kripke, spec.formula, justice)});
  }
  return report;
}

SpecClass classify_spec(const Ltl& formula) {
  DPOAF_CHECK(formula != nullptr);
  // The same hash-consed ¬Φ that check() looks up in the cache.
  if (accepts_nothing(*ltl_to_buchi_cached(logic::ltl::lnot(formula))))
    return SpecClass::kTriviallyTrue;
  // A constant word that satisfies φ proves it satisfiable without
  // translating φ; one of the two does for every rulebook spec.
  for (const Symbol letter : {Symbol{0}, ~Symbol{0}})
    if (logic::evaluate_lasso(formula, {{}, {letter}}))
      return SpecClass::kNormal;
  return accepts_nothing(ltl_to_buchi(formula)) ? SpecClass::kUnsatisfiable
                                                : SpecClass::kNormal;
}

std::string format_counterexample(const Lasso& lasso, const Kripke& kripke,
                                  const automata::TransitionSystem& model,
                                  const automata::FsaController& ctrl,
                                  const Vocabulary& vocab) {
  std::string out;
  for (int s : lasso.prefix) {
    out += kripke.describe_state(s, model, ctrl, vocab);
    out += " -> ";
  }
  out += "[cycle: ";
  for (std::size_t i = 0; i < lasso.cycle.size(); ++i) {
    if (i > 0) out += " -> ";
    out += kripke.describe_state(lasso.cycle[i], model, ctrl, vocab);
  }
  out += " -> ...]";
  return out;
}

}  // namespace dpoaf::modelcheck
