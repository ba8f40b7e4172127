#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "automata/product.hpp"
#include "logic/lasso_eval.hpp"
#include "logic/parser.hpp"
#include "modelcheck/buchi.hpp"
#include "modelcheck/checker.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace dpoaf::modelcheck {
namespace {

using automata::Kripke;
using logic::LassoWord;
using logic::Ltl;
using logic::Symbol;
using logic::Vocabulary;
using namespace logic::ltl;

// Build a bare Kripke structure directly (bypassing the product) so the
// checker can be exercised on arbitrary graphs.
Kripke make_kripke(std::vector<Symbol> labels,
                   std::vector<std::vector<int>> succ,
                   std::vector<int> initial) {
  Kripke k;
  k.labels = std::move(labels);
  k.successors = std::move(succ);
  k.initial = std::move(initial);
  k.origin.resize(k.labels.size());
  return k;
}

class CheckerTest : public ::testing::Test {
 protected:
  CheckerTest() : vocab_(logic::make_driving_vocabulary()) {
    a_ = *vocab_.find("green_traffic_light");
    b_ = *vocab_.find("car_from_left");
    c_ = *vocab_.find("stop");
    A_ = Vocabulary::bit(a_);
    B_ = Vocabulary::bit(b_);
    C_ = Vocabulary::bit(c_);
  }
  Ltl parse(const char* s) { return logic::parse_ltl(s, vocab_); }

  Vocabulary vocab_;
  int a_ = 0, b_ = 0, c_ = 0;
  Symbol A_ = 0, B_ = 0, C_ = 0;
};

// ------------------------------------------------------------- Büchi ---

TEST_F(CheckerTest, BuchiForAlwaysPropIsSmall) {
  BuchiStats stats;
  const auto ba = ltl_to_buchi(parse("G green_traffic_light"), stats);
  EXPECT_GE(ba.state_count(), 1u);
  EXPECT_LE(stats.gba_states, 4u);
  EXPECT_FALSE(ba.initial.empty());
}

TEST_F(CheckerTest, BuchiAcceptanceOnSimpleWords) {
  // Accepting runs of B_(F a) must exist exactly for words containing a.
  // We test through the checker: K generating only the word w satisfies
  // F a iff w contains a.
  const Ltl f = parse("F green_traffic_light");
  // Single self-loop word: {} repeated
  auto k_empty = make_kripke({0}, {{0}}, {0});
  EXPECT_FALSE(check(k_empty, f).holds);
  auto k_green = make_kripke({A_}, {{0}}, {0});
  EXPECT_TRUE(check(k_green, f).holds);
}

// ------------------------------------------------------- Büchi cache ---

TEST_F(CheckerTest, CachedTranslationSharesOneAutomatonPerFormula) {
  clear_buchi_cache();
  const Ltl f = parse("G (green_traffic_light -> F stop)");
  const auto first = ltl_to_buchi_cached(f);
  const auto second = ltl_to_buchi_cached(f);
  EXPECT_EQ(first.get(), second.get()) << "repeat query must not retranslate";
  // Hash-consing makes an independently parsed structurally-equal formula
  // the same node, so it hits the same entry.
  const auto third =
      ltl_to_buchi_cached(parse("G (green_traffic_light -> F stop)"));
  EXPECT_EQ(first.get(), third.get());
  const auto stats = buchi_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
  // The cached automaton is the one a fresh translation would build.
  BuchiStats fresh_stats;
  const auto fresh = ltl_to_buchi(f, fresh_stats);
  EXPECT_EQ(first->state_count(), fresh.state_count());
  EXPECT_EQ(first->initial, fresh.initial);
}

TEST_F(CheckerTest, DisabledBuchiCacheBypassesEntirely) {
  clear_buchi_cache();
  set_buchi_cache_enabled(false);
  const auto a = ltl_to_buchi_cached(parse("F stop"));
  const auto b = ltl_to_buchi_cached(parse("F stop"));
  set_buchi_cache_enabled(true);
  EXPECT_TRUE(buchi_cache_enabled());
  EXPECT_NE(a.get(), b.get());
  const auto stats = buchi_cache_stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.inserts, 0u);
}

TEST_F(CheckerTest, CheckVerdictsIdenticalWithCacheOnAndOff) {
  auto k = make_kripke({A_, 0}, {{1}, {1}}, {0});
  const std::vector<const char*> formulas{
      "G green_traffic_light", "F stop", "X !green_traffic_light",
      "stop U green_traffic_light", "G F green_traffic_light"};
  for (const char* s : formulas) {
    clear_buchi_cache();
    const auto on1 = check(k, parse(s));
    const auto on2 = check(k, parse(s));  // second query replays the cache
    set_buchi_cache_enabled(false);
    const auto off = check(k, parse(s));
    set_buchi_cache_enabled(true);
    EXPECT_EQ(on1.holds, off.holds) << s;
    EXPECT_EQ(on2.holds, off.holds) << s;
    EXPECT_EQ(on1.buchi_states, off.buchi_states) << s;
    EXPECT_EQ(on1.counterexample.prefix, off.counterexample.prefix) << s;
    EXPECT_EQ(on1.counterexample.cycle, off.counterexample.cycle) << s;
    EXPECT_EQ(on2.counterexample.prefix, on1.counterexample.prefix) << s;
    EXPECT_EQ(on2.counterexample.cycle, on1.counterexample.cycle) << s;
  }
  EXPECT_GT(buchi_cache_stats().hits, 0u);
}

// ------------------------------------------------------------ checker ---

TEST_F(CheckerTest, AlwaysHoldsOnInvariantGraph) {
  auto k = make_kripke({A_, A_ | C_}, {{1}, {0}}, {0});
  EXPECT_TRUE(check(k, parse("G green_traffic_light")).holds);
  EXPECT_FALSE(check(k, parse("G stop")).holds);
}

TEST_F(CheckerTest, CounterexampleIsValidLasso) {
  auto k = make_kripke({A_, 0}, {{1}, {1}}, {0});
  const auto res = check(k, parse("G green_traffic_light"));
  ASSERT_FALSE(res.holds);
  ASSERT_FALSE(res.counterexample.cycle.empty());
  LassoWord w;
  for (int s : res.counterexample.prefix)
    w.prefix.push_back(k.labels[static_cast<std::size_t>(s)]);
  for (int s : res.counterexample.cycle)
    w.cycle.push_back(k.labels[static_cast<std::size_t>(s)]);
  EXPECT_FALSE(evaluate_lasso(parse("G green_traffic_light"), w));
}

TEST_F(CheckerTest, EventuallyRequiresAllPaths) {
  // Branching: initial can go to a-branch or to empty-branch forever.
  auto k = make_kripke({0, A_, 0}, {{1, 2}, {1}, {2}}, {0});
  EXPECT_FALSE(check(k, parse("F green_traffic_light")).holds);
  // Remove the empty branch: now F a holds on all paths.
  auto k2 = make_kripke({0, A_}, {{1}, {1}}, {0});
  EXPECT_TRUE(check(k2, parse("F green_traffic_light")).holds);
}

TEST_F(CheckerTest, UntilSemantics) {
  // c holds until a, on the single path c,c,a^ω.
  auto k = make_kripke({C_, C_, A_}, {{1}, {2}, {2}}, {0});
  EXPECT_TRUE(check(k, parse("stop U green_traffic_light")).holds);
  // Break the chain: middle state lacks c.
  auto k2 = make_kripke({C_, 0, A_}, {{1}, {2}, {2}}, {0});
  EXPECT_FALSE(check(k2, parse("stop U green_traffic_light")).holds);
}

TEST_F(CheckerTest, NextSemantics) {
  auto k = make_kripke({C_, A_, 0}, {{1}, {2}, {2}}, {0});
  EXPECT_TRUE(check(k, parse("X green_traffic_light")).holds);
  EXPECT_FALSE(check(k, parse("X stop")).holds);
}

TEST_F(CheckerTest, InfinitelyOftenOnCycle) {
  // Cycle alternating a and empty: GF a holds, GF c fails.
  auto k = make_kripke({A_, 0}, {{1}, {0}}, {0});
  EXPECT_TRUE(check(k, parse("G F green_traffic_light")).holds);
  EXPECT_FALSE(check(k, parse("G F stop")).holds);
  EXPECT_FALSE(check(k, parse("F G green_traffic_light")).holds);
}

TEST_F(CheckerTest, MultipleInitialStatesAllChecked) {
  // Initial state 1 violates G a even though initial state 0 satisfies it.
  auto k = make_kripke({A_, 0}, {{0}, {1}}, {0, 1});
  EXPECT_FALSE(check(k, parse("G green_traffic_light")).holds);
}

TEST_F(CheckerTest, FairnessAssumptionDischargesEventuality) {
  // Model may loop on "car from left" forever; under the justice
  // condition !car_from_left (GF !car_from_left) the spec F !car_from_left
  // holds.
  auto k = make_kripke({B_, 0}, {{0, 1}, {1}}, {0});
  const Ltl spec = parse("F !car_from_left");
  EXPECT_FALSE(check(k, spec).holds);
  EXPECT_TRUE(check(k, spec, {parse("!car_from_left")}).holds);
}

TEST_F(CheckerTest, JusticeConditionMustBePropositional) {
  auto k = make_kripke({B_, 0}, {{0, 1}, {1}}, {0});
  EXPECT_THROW((void)check(k, parse("F stop"), {parse("G F stop")}),
               ContractViolation);
}

TEST_F(CheckerTest, VerifyAllCountsAndNames) {
  auto k = make_kripke({A_ | C_}, {{0}}, {0});
  std::vector<NamedSpec> specs{
      {"holds_1", parse("G green_traffic_light")},
      {"fails", parse("G !stop")},
      {"holds_2", parse("F stop")},
  };
  const auto report = verify_all(k, specs);
  EXPECT_EQ(report.total(), 3u);
  EXPECT_EQ(report.satisfied(), 2u);
  EXPECT_NEAR(report.fraction(), 2.0 / 3.0, 1e-12);
  ASSERT_EQ(report.violated().size(), 1u);
  EXPECT_EQ(report.violated()[0], "fails");
}

TEST_F(CheckerTest, TautologyAndContradiction) {
  auto k = make_kripke({0}, {{0}}, {0});
  EXPECT_TRUE(check(k, parse("G (stop | !stop)")).holds);
  EXPECT_FALSE(check(k, parse("F (stop & !stop)")).holds);
}

// Property-based validation against the independent lasso-word oracle,
// under a random justice set {p_i}:
//  * the verdict equals the premise check (∧ G F p_i) → f;
//  * if the checker reports a violation, the returned lasso must satisfy
//    every G F p_i and falsify the specification;
//  * if the checker reports the spec holds, every random lasso sampled
//    from the Kripke structure that satisfies all G F p_i satisfies it.
class CheckerPropertyTest : public CheckerTest,
                            public ::testing::WithParamInterface<int> {};

TEST_P(CheckerPropertyTest, AgreesWithLassoOracle) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);

  // Random Kripke structure over 3 propositions.
  const int n = 2 + static_cast<int>(rng.below(4));
  std::vector<Symbol> labels;
  std::vector<std::vector<int>> succ(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Symbol lab = 0;
    if (rng.chance(0.5)) lab |= A_;
    if (rng.chance(0.5)) lab |= B_;
    if (rng.chance(0.5)) lab |= C_;
    labels.push_back(lab);
    // ensure at least one successor (no deadlocks)
    succ[static_cast<std::size_t>(i)].push_back(
        static_cast<int>(rng.below(static_cast<std::uint64_t>(n))));
    if (rng.chance(0.6))
      succ[static_cast<std::size_t>(i)].push_back(
          static_cast<int>(rng.below(static_cast<std::uint64_t>(n))));
  }
  auto k = make_kripke(labels, succ, {0});

  // Random formula.
  const std::vector<Ltl> atoms{prop(a_), prop(b_), prop(c_)};
  std::function<Ltl(int)> gen = [&](int depth) -> Ltl {
    if (depth == 0 || rng.chance(0.3)) return atoms[rng.below(atoms.size())];
    switch (rng.below(8)) {
      case 0: return lnot(gen(depth - 1));
      case 1: return land(gen(depth - 1), gen(depth - 1));
      case 2: return lor(gen(depth - 1), gen(depth - 1));
      case 3: return implies(gen(depth - 1), gen(depth - 1));
      case 4: return next(gen(depth - 1));
      case 5: return eventually(gen(depth - 1));
      case 6: return always(gen(depth - 1));
      default: return until(gen(depth - 1), gen(depth - 1));
    }
  };
  const Ltl f = gen(3);

  // Random justice set: 0–2 propositional conditions over a, b, c.
  std::function<Ltl(int)> gen_prop = [&](int depth) -> Ltl {
    if (depth == 0 || rng.chance(0.4)) return atoms[rng.below(atoms.size())];
    switch (rng.below(3)) {
      case 0: return lnot(gen_prop(depth - 1));
      case 1: return land(gen_prop(depth - 1), gen_prop(depth - 1));
      default: return lor(gen_prop(depth - 1), gen_prop(depth - 1));
    }
  };
  std::vector<Ltl> justice, premises;
  for (std::uint64_t i = rng.below(3); i > 0; --i) {
    justice.push_back(gen_prop(2));
    premises.push_back(always(eventually(justice.back())));
  }
  const Ltl fair = land_all(premises);

  const auto res = check(k, f, justice);
  ASSERT_EQ(res.holds, check(k, implies(fair, f)).holds)
      << to_string(f, vocab_) << " under " << to_string(fair, vocab_);
  if (!res.holds) {
    ASSERT_FALSE(res.counterexample.cycle.empty());
    LassoWord w;
    for (int s : res.counterexample.prefix)
      w.prefix.push_back(k.labels[static_cast<std::size_t>(s)]);
    for (int s : res.counterexample.cycle)
      w.cycle.push_back(k.labels[static_cast<std::size_t>(s)]);
    EXPECT_FALSE(evaluate_lasso(f, w))
        << "counterexample does not falsify " << to_string(f, vocab_);
    EXPECT_TRUE(evaluate_lasso(fair, w))
        << "counterexample is not fair under " << to_string(fair, vocab_);
    // The lasso must also be a real path of the Kripke structure.
    auto edge_ok = [&](int u, int v) {
      const auto& out = k.successors[static_cast<std::size_t>(u)];
      return std::find(out.begin(), out.end(), v) != out.end();
    };
    std::vector<int> walk = res.counterexample.prefix;
    walk.insert(walk.end(), res.counterexample.cycle.begin(),
                res.counterexample.cycle.end());
    for (std::size_t i = 0; i + 1 < walk.size(); ++i)
      ASSERT_TRUE(edge_ok(walk[i], walk[i + 1]));
    ASSERT_TRUE(edge_ok(walk.back(), res.counterexample.cycle.front()));
  } else {
    // Sample random lassos from K; all fair ones must satisfy f.
    for (int trial = 0; trial < 30; ++trial) {
      std::vector<int> path{0};
      std::vector<Symbol> word{k.labels[0]};
      int cycle_start = -1;
      std::vector<int> seen_at(static_cast<std::size_t>(n), -1);
      seen_at[0] = 0;
      while (cycle_start < 0) {
        const auto& out = k.successors[static_cast<std::size_t>(path.back())];
        const int nxt = out[rng.below(out.size())];
        if (seen_at[static_cast<std::size_t>(nxt)] >= 0 && rng.chance(0.5)) {
          cycle_start = seen_at[static_cast<std::size_t>(nxt)];
        } else {
          seen_at[static_cast<std::size_t>(nxt)] =
              static_cast<int>(path.size());
          path.push_back(nxt);
          word.push_back(k.labels[static_cast<std::size_t>(nxt)]);
        }
      }
      LassoWord w;
      w.prefix.assign(word.begin(), word.begin() + cycle_start);
      w.cycle.assign(word.begin() + cycle_start, word.end());
      if (!evaluate_lasso(fair, w)) continue;
      EXPECT_TRUE(evaluate_lasso(f, w))
          << to_string(f, vocab_) << " claimed to hold but a sampled fair "
          << "lasso falsifies it";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomizedSweep, CheckerPropertyTest,
                         ::testing::Range(0, 120));

}  // namespace
}  // namespace dpoaf::modelcheck
