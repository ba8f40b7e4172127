#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "logic/lasso_eval.hpp"
#include "logic/ltl.hpp"
#include "logic/ltlf.hpp"
#include "logic/parser.hpp"
#include "logic/vocabulary.hpp"
#include "memo_ltlf.hpp"
#include "util/rng.hpp"

namespace dpoaf::logic {
namespace {

using namespace dpoaf::logic::ltl;

class LogicTest : public ::testing::Test {
 protected:
  LogicTest() : vocab_(make_driving_vocabulary()) {
    a_ = *vocab_.find("green_traffic_light");
    b_ = *vocab_.find("car_from_left");
    c_ = *vocab_.find("stop");
  }
  Vocabulary vocab_;
  int a_ = 0, b_ = 0, c_ = 0;
};

TEST_F(LogicTest, VocabularyRegistersKinds) {
  EXPECT_EQ(vocab_.prop_count(), 10u);
  EXPECT_EQ(vocab_.action_count(), 4u);
  EXPECT_FALSE(vocab_.is_action(a_));
  EXPECT_TRUE(vocab_.is_action(c_));
}

TEST_F(LogicTest, VocabularyReRegisterReturnsSameIndex) {
  Vocabulary v;
  const int i = v.add_prop("x");
  EXPECT_EQ(v.add_prop("x"), i);
  EXPECT_THROW(v.add_action("x"), ContractViolation);
}

TEST_F(LogicTest, SymbolBitOperations) {
  const Symbol s = vocab_.make_symbol({"green_traffic_light", "stop"});
  EXPECT_TRUE(Vocabulary::has(s, a_));
  EXPECT_TRUE(Vocabulary::has(s, c_));
  EXPECT_FALSE(Vocabulary::has(s, b_));
}

TEST_F(LogicTest, EnvAndActionMasksPartition) {
  const Symbol env = vocab_.env_mask();
  const Symbol act = vocab_.action_mask();
  EXPECT_EQ(env & act, 0u);
  EXPECT_EQ(__builtin_popcountll(env), 10);
  EXPECT_EQ(__builtin_popcountll(act), 4);
}

TEST_F(LogicTest, FormatSymbolListsNames) {
  const Symbol s = vocab_.make_symbol({"stop_sign"});
  EXPECT_EQ(vocab_.format(s), "{stop_sign}");
}

TEST_F(LogicTest, MakeSymbolUnknownNameThrows) {
  EXPECT_THROW((void)vocab_.make_symbol({"no_such_prop"}), ContractViolation);
}

TEST_F(LogicTest, InterningGivesPointerEquality) {
  const Ltl f1 = always(implies(prop(a_), eventually(prop(c_))));
  const Ltl f2 = always(implies(prop(a_), eventually(prop(c_))));
  EXPECT_EQ(f1.get(), f2.get());
}

TEST_F(LogicTest, SimplificationsApply) {
  EXPECT_EQ(lnot(lnot(prop(a_))).get(), prop(a_).get());
  EXPECT_EQ(land(ltrue(), prop(a_)).get(), prop(a_).get());
  EXPECT_EQ(land(lfalse(), prop(a_)).get(), lfalse().get());
  EXPECT_EQ(lor(ltrue(), prop(a_)).get(), ltrue().get());
  EXPECT_EQ(lor(prop(a_), prop(a_)).get(), prop(a_).get());
}

TEST_F(LogicTest, NnfEliminatesDerivedOperators) {
  const Ltl f = lnot(always(implies(prop(a_), eventually(prop(b_)))));
  const Ltl nnf = to_nnf(f);
  // Check no Implies/Eventually/Always/non-literal Not remain.
  std::function<void(const Ltl&)> walk = [&](const Ltl& g) {
    ASSERT_NE(g->op, LtlOp::Implies);
    ASSERT_NE(g->op, LtlOp::Eventually);
    ASSERT_NE(g->op, LtlOp::Always);
    if (g->op == LtlOp::Not) {
      ASSERT_EQ(g->lhs->op, LtlOp::Prop);
    }
    if (g->lhs) walk(g->lhs);
    if (g->rhs) walk(g->rhs);
  };
  walk(nnf);
}

TEST_F(LogicTest, ParserRoundTripsThroughPrinter) {
  const char* inputs[] = {
      "G (pedestrian_in_front -> F stop)",
      "G (!green_traffic_light -> !go_straight)",
      "(car_from_left | pedestrian_at_right) -> !turn_right",
      "a_unknown_free_form",  // replaced below; placeholder skipped
  };
  for (int i = 0; i < 3; ++i) {
    const Ltl f = parse_ltl(inputs[i], vocab_);
    const Ltl g = parse_ltl(to_string(f, vocab_), vocab_);
    EXPECT_EQ(f.get(), g.get()) << inputs[i];
  }
}

TEST_F(LogicTest, ParserPrecedence) {
  // a | b & c  parses as  a | (b & c)
  const Ltl f = parse_ltl(
      "green_traffic_light | car_from_left & stop", vocab_);
  EXPECT_EQ(f->op, LtlOp::Or);
  EXPECT_EQ(f->rhs->op, LtlOp::And);
  // Implication is right-associative and lowest precedence.
  const Ltl g = parse_ltl("stop -> stop -> stop", vocab_);
  EXPECT_EQ(g->op, LtlOp::Implies);
  EXPECT_EQ(g->rhs->op, LtlOp::Implies);
}

TEST_F(LogicTest, ParserUnicodeSynonyms) {
  const Ltl f = parse_ltl("□(pedestrian_in_front → ◇ stop)", vocab_);
  const Ltl g = parse_ltl("G (pedestrian_in_front -> F stop)", vocab_);
  EXPECT_EQ(f.get(), g.get());
}

TEST_F(LogicTest, ParserErrors) {
  EXPECT_THROW(parse_ltl("G (", vocab_), ParseError);
  EXPECT_THROW(parse_ltl("unknown_prop_name", vocab_), ParseError);
  EXPECT_THROW(parse_ltl("stop stop", vocab_), ParseError);
  EXPECT_THROW(parse_ltl("", vocab_), ParseError);
}

TEST_F(LogicTest, UntilAndReleaseParse) {
  const Ltl f = parse_ltl("stop U green_traffic_light", vocab_);
  EXPECT_EQ(f->op, LtlOp::Until);
  const Ltl g = parse_ltl("stop R green_traffic_light", vocab_);
  EXPECT_EQ(g->op, LtlOp::Release);
}

// ---------------------------------------------------------------- LTLf ---

class LtlfTest : public LogicTest {
 protected:
  Symbol sym(std::initializer_list<std::string_view> names) {
    return vocab_.make_symbol(names);
  }
};

TEST_F(LtlfTest, AlwaysOnFiniteTrace) {
  const Ltl f = parse_ltl("G stop", vocab_);
  Trace all_stop(5, sym({"stop"}));
  EXPECT_TRUE(evaluate_ltlf(f, all_stop));
  all_stop[3] = 0;
  EXPECT_FALSE(evaluate_ltlf(f, all_stop));
}

TEST_F(LtlfTest, EventuallyOnFiniteTrace) {
  const Ltl f = parse_ltl("F green_traffic_light", vocab_);
  Trace t(4, 0);
  EXPECT_FALSE(evaluate_ltlf(f, t));
  t[3] = sym({"green_traffic_light"});
  EXPECT_TRUE(evaluate_ltlf(f, t));
}

TEST_F(LtlfTest, NextIsStrongAtLastPosition) {
  const Ltl f = parse_ltl("X stop", vocab_);
  const Trace t{sym({"stop"})};
  EXPECT_FALSE(evaluate_ltlf(f, t));  // no next position ⇒ false
  const Trace t2{0, sym({"stop"})};
  EXPECT_TRUE(evaluate_ltlf(f, t2));
}

TEST_F(LtlfTest, UntilRequiresWitness) {
  const Ltl f = parse_ltl("stop U green_traffic_light", vocab_);
  const Trace never{sym({"stop"}), sym({"stop"})};
  EXPECT_FALSE(evaluate_ltlf(f, never));  // ψ never holds on finite trace
  const Trace witness{sym({"stop"}), sym({"green_traffic_light"})};
  EXPECT_TRUE(evaluate_ltlf(f, witness));
}

TEST_F(LtlfTest, ReleaseHoldsWhenPsiHoldsToEnd) {
  const Ltl f = parse_ltl("green_traffic_light R stop", vocab_);
  const Trace t(3, sym({"stop"}));
  EXPECT_TRUE(evaluate_ltlf(f, t));
  const Trace t2{sym({"stop"}), 0, sym({"stop"})};
  EXPECT_FALSE(evaluate_ltlf(f, t2));
}

TEST_F(LtlfTest, PedestrianSpecOnTraces) {
  const Ltl phi1 = parse_ltl("G (pedestrian_in_front -> F stop)", vocab_);
  const Trace good{sym({"pedestrian_in_front"}), sym({"stop"})};
  const Trace bad{sym({"pedestrian_in_front"}), sym({"go_straight"})};
  EXPECT_TRUE(evaluate_ltlf(phi1, good));
  EXPECT_FALSE(evaluate_ltlf(phi1, bad));
}

// Each row pins the verdict at a semantic boundary: length-1 traces, strong
// Next at the last position, vacuous Release, …
struct BoundaryCase {
  const char* name;
  const char* formula;
  std::vector<std::vector<std::string_view>> trace;  // prop names per step
  bool expected;
};

const BoundaryCase kBoundaryCases[] = {
    {"next_strong_at_last", "X stop", {{"stop"}}, false},
    {"next_holds_one_before_last", "X stop", {{}, {"stop"}}, true},
    {"double_next_needs_three_steps", "X X stop", {{}, {"stop"}}, false},
    {"double_next_at_third_step", "X X stop", {{}, {}, {"stop"}}, true},
    {"always_on_length_one", "G stop", {{"stop"}}, true},
    {"always_fails_on_length_one", "G stop", {{}}, false},
    {"always_of_next_truncates", "G (stop -> X stop)", {{"stop"}}, false},
    {"eventually_on_length_one", "F stop", {{}}, false},
    {"eventually_at_last_position", "F stop", {{}, {}, {"stop"}}, true},
    {"until_witness_at_first", "stop U green_traffic_light",
     {{"green_traffic_light"}}, true},
    {"until_without_witness", "stop U green_traffic_light",
     {{"stop"}, {"stop"}}, false},
    {"until_gap_before_witness", "stop U green_traffic_light",
     {{"stop"}, {}, {"green_traffic_light"}}, false},
    {"release_vacuous_to_end", "green_traffic_light R stop",
     {{"stop"}, {"stop"}}, true},
    {"release_discharged_at_first", "green_traffic_light R stop",
     {{"stop", "green_traffic_light"}, {}}, true},
    {"release_fails_on_length_one", "green_traffic_light R stop", {{}},
     false},
    {"release_psi_gap", "green_traffic_light R stop",
     {{"stop"}, {}, {"stop"}}, false},
    {"implication_spec_satisfied", "G (pedestrian_in_front -> F stop)",
     {{"pedestrian_in_front"}, {"stop"}}, true},
    {"implication_spec_violated", "G (pedestrian_in_front -> F stop)",
     {{"pedestrian_in_front"}, {"go_straight"}}, false},
};

TEST_F(LtlfTest, BoundarySemanticsTable) {
  for (const BoundaryCase& c : kBoundaryCases) {
    Trace trace;
    for (const auto& step : c.trace) {
      Symbol s = 0;
      for (const std::string_view name : step)
        s |= Vocabulary::bit(*vocab_.find(name));
      trace.push_back(s);
    }
    EXPECT_EQ(evaluate_ltlf(parse_ltl(c.formula, vocab_), trace), c.expected)
        << c.name;
  }
}

TEST_F(LtlfTest, SatisfactionRateCountsFractions) {
  const Ltl f = parse_ltl("F stop", vocab_);
  std::vector<Trace> traces{
      {sym({"stop"})}, {Symbol{0}}, {Symbol{0}, sym({"stop"})}};
  EXPECT_NEAR(satisfaction_rate(f, traces), 2.0 / 3.0, 1e-12);
  EXPECT_EQ(satisfaction_rate(f, {}), 0.0);
}

TEST_F(LtlfTest, SatisfactionRateExcludesEmptyTraces) {
  // An empty rollout carries no step to evaluate; it must leave the
  // denominator, not count as a violation. 2 satisfied / 3 evaluated.
  const Ltl f = parse_ltl("F stop", vocab_);
  std::vector<Trace> traces{
      {sym({"stop"})}, {Symbol{0}}, {Symbol{0}, sym({"stop"})}, {}};
  EXPECT_NEAR(satisfaction_rate(f, traces), 2.0 / 3.0, 1e-12);
}

TEST_F(LtlfTest, SatisfactionRateAllEmptyTracesThrows) {
  const Ltl f = parse_ltl("F stop", vocab_);
  const std::vector<Trace> all_empty{{}, {}, {}};
  EXPECT_THROW((void)satisfaction_rate(f, all_empty), ContractViolation);
}

TEST_F(LtlfTest, EmptyTraceRejected) {
  EXPECT_THROW(evaluate_ltlf(ltrue(), Trace{}), ContractViolation);
}

// A million-step trace with a true only at position 1,000,003 and b never
// true: F a & F b is false. (A memo keyed on `id * 1000003 + pos` once
// let F b inherit F a's verdict here.)
TEST_F(LtlfTest, MemoKeyCollisionOnMillionStepTrace) {
  const Ltl pa = prop(40);  // fresh, unused prop indices so the two nodes
  const Ltl pb = prop(41);  // are interned back-to-back
  ASSERT_EQ(pb->id, pa->id + 1)
      << "collision setup needs consecutive interning ids";
  const Ltl f = land(eventually(pa), eventually(pb));
  Trace t(1000004, Symbol{0});
  t[1000003] = Symbol{1} << 40;  // a holds only here; b never holds
  EXPECT_FALSE(evaluate_ltlf(f, t));
}

// A random formula over props 0..3 using every operator, with shared
// subformulas (the interning makes repeated draws one DAG node).
Ltl random_formula(Rng& rng, int depth) {
  if (depth == 0 || rng.below(4) == 0) {
    switch (rng.below(6)) {
      case 0: return ltrue();
      case 1: return lfalse();
      default: return prop(static_cast<int>(rng.below(4)));
    }
  }
  const Ltl a = random_formula(rng, depth - 1);
  switch (rng.below(11)) {
    case 0: return lnot(a);
    case 1: return land(a, random_formula(rng, depth - 1));
    case 2: return lor(a, random_formula(rng, depth - 1));
    case 3: return implies(a, random_formula(rng, depth - 1));
    case 4: return next(a);
    case 5: return eventually(a);
    case 6: return always(a);
    case 7: return until(a, random_formula(rng, depth - 1));
    case 8: return release(a, random_formula(rng, depth - 1));
    case 9: return land(a, eventually(a));
    default: return until(a, always(a));
  }
}

// The backward column evaluator agrees with the memoized recursive one at
// every start position, holds_on agrees with it on one-step traces, and
// satisfaction_rate counts its verdicts.
TEST_F(LtlfTest, ColumnsMatchMemoizedReferenceAtEveryPosition) {
  Rng rng(97);
  for (int round = 0; round < 400; ++round) {
    const Ltl f = random_formula(rng, 5);
    std::vector<Trace> traces;
    std::size_t want_sat = 0;
    for (int t = 0; t < 4; ++t) {
      Trace trace(1 + rng.below(12));
      for (Symbol& s : trace) s = static_cast<Symbol>(rng.below(16));
      reference::MemoLtlf ref(trace);
      for (std::size_t pos = 0; pos < trace.size(); ++pos)
        ASSERT_EQ(evaluate_ltlf(f, trace, pos), ref.memo(f, pos))
            << to_string(f, vocab_) << " at " << pos << " of round "
            << round;
      want_sat += ref.memo(f, 0) ? 1 : 0;
      traces.push_back(std::move(trace));
    }
    EXPECT_EQ(satisfaction_rate(f, traces),
              static_cast<double>(want_sat) / 4.0);
    for (Symbol s = 0; s < 16; ++s) {
      const Trace one{s};
      ASSERT_EQ(holds_on(f, s), reference::MemoLtlf(one).memo(f, 0))
          << to_string(f, vocab_) << " on symbol " << s;
    }
  }
}

// ----------------------------------------------------------- lasso LTL ---

TEST_F(LogicTest, LassoAlwaysDependsOnCycleOnly) {
  const Ltl f = parse_ltl("G stop", vocab_);
  const Symbol s = vocab_.make_symbol({"stop"});
  // prefix violates G stop
  EXPECT_FALSE(evaluate_lasso(f, {{Symbol{0}}, {s}}));
  // prefix and cycle both satisfy it
  EXPECT_TRUE(evaluate_lasso(f, {{s}, {s}}));
  // cycle violates it
  EXPECT_FALSE(evaluate_lasso(f, {{s}, {s, Symbol{0}}}));
}

TEST_F(LogicTest, LassoEventuallyFindsWitnessInCycle) {
  const Ltl f = parse_ltl("F green_traffic_light", vocab_);
  const Symbol g = vocab_.make_symbol({"green_traffic_light"});
  EXPECT_TRUE(evaluate_lasso(f, {{}, {Symbol{0}, g}}));
  EXPECT_FALSE(evaluate_lasso(f, {{}, {Symbol{0}}}));
}

TEST_F(LogicTest, LassoInfinitelyOften) {
  const Ltl f = parse_ltl("G F stop", vocab_);
  const Symbol s = vocab_.make_symbol({"stop"});
  // stop only in the prefix: not infinitely often
  EXPECT_FALSE(evaluate_lasso(f, {{s}, {Symbol{0}}}));
  // stop once per cycle: infinitely often
  EXPECT_TRUE(evaluate_lasso(f, {{Symbol{0}}, {Symbol{0}, s}}));
}

TEST_F(LogicTest, LassoUntil) {
  const Ltl f = parse_ltl("stop U green_traffic_light", vocab_);
  const Symbol s = vocab_.make_symbol({"stop"});
  const Symbol g = vocab_.make_symbol({"green_traffic_light"});
  EXPECT_TRUE(evaluate_lasso(f, {{s, s}, {g}}));
  EXPECT_FALSE(evaluate_lasso(f, {{s, Symbol{0}}, {g}}));  // gap before ψ
  EXPECT_FALSE(evaluate_lasso(f, {{}, {s}}));              // ψ never holds
}

TEST_F(LogicTest, LassoNextWrapsIntoCycle) {
  const Ltl f = parse_ltl("G (stop -> X green_traffic_light)", vocab_);
  const Symbol s = vocab_.make_symbol({"stop"});
  const Symbol g = vocab_.make_symbol({"green_traffic_light"});
  // cycle = [stop, green]: stop at last-cycle position wraps to green? No —
  // position order is stop→green→stop→…, so X after stop is green. Holds.
  EXPECT_TRUE(evaluate_lasso(f, {{}, {s, g}}));
  // cycle = [stop, stop]: next of stop is stop, not green.
  EXPECT_FALSE(evaluate_lasso(f, {{}, {s, s}}));
}

TEST_F(LogicTest, LassoEmptyCycleRejected) {
  EXPECT_THROW(evaluate_lasso(ltrue(), {{Symbol{0}}, {}}), ContractViolation);
}

// Property: LTL negation is complement on any single lasso word.
TEST_F(LogicTest, PropertyLassoNegationIsComplement) {
  Rng rng(123);
  const std::vector<Ltl> atoms{prop(a_), prop(b_), prop(c_)};
  for (int trial = 0; trial < 200; ++trial) {
    // random small formula
    std::function<Ltl(int)> gen = [&](int depth) -> Ltl {
      if (depth == 0 || rng.chance(0.3))
        return atoms[rng.below(atoms.size())];
      switch (rng.below(7)) {
        case 0: return lnot(gen(depth - 1));
        case 1: return land(gen(depth - 1), gen(depth - 1));
        case 2: return lor(gen(depth - 1), gen(depth - 1));
        case 3: return next(gen(depth - 1));
        case 4: return eventually(gen(depth - 1));
        case 5: return always(gen(depth - 1));
        default: return until(gen(depth - 1), gen(depth - 1));
      }
    };
    const Ltl f = gen(3);
    LassoWord w;
    const std::size_t plen = rng.below(3);
    const std::size_t clen = 1 + rng.below(3);
    for (std::size_t i = 0; i < plen; ++i)
      w.prefix.push_back(rng.below(16));
    for (std::size_t i = 0; i < clen; ++i)
      w.cycle.push_back(rng.below(16));
    EXPECT_NE(evaluate_lasso(f, w), evaluate_lasso(lnot(f), w));
  }
}

// Property: NNF preserves lasso semantics.
TEST_F(LogicTest, PropertyNnfPreservesSemantics) {
  Rng rng(321);
  const std::vector<Ltl> atoms{prop(a_), prop(b_), prop(c_)};
  for (int trial = 0; trial < 200; ++trial) {
    std::function<Ltl(int)> gen = [&](int depth) -> Ltl {
      if (depth == 0 || rng.chance(0.3))
        return atoms[rng.below(atoms.size())];
      switch (rng.below(8)) {
        case 0: return lnot(gen(depth - 1));
        case 1: return land(gen(depth - 1), gen(depth - 1));
        case 2: return lor(gen(depth - 1), gen(depth - 1));
        case 3: return implies(gen(depth - 1), gen(depth - 1));
        case 4: return next(gen(depth - 1));
        case 5: return eventually(gen(depth - 1));
        case 6: return always(gen(depth - 1));
        default: return release(gen(depth - 1), gen(depth - 1));
      }
    };
    const Ltl f = gen(3);
    const Ltl nnf = to_nnf(f);
    LassoWord w;
    for (std::size_t i = 0, n = 1 + rng.below(4); i < n; ++i)
      w.cycle.push_back(rng.below(16));
    for (std::size_t i = 0, n = rng.below(3); i < n; ++i)
      w.prefix.push_back(rng.below(16));
    EXPECT_EQ(evaluate_lasso(f, w), evaluate_lasso(nnf, w))
        << to_string(f, vocab_) << "  vs NNF  " << to_string(nnf, vocab_);
  }
}

// ------------------------------------------------------- parser fuzzing ---

// Build a random formula over the whole driving vocabulary with every
// operator the printer can emit.
Ltl random_formula(Rng& rng, const Vocabulary& vocab, int depth) {
  if (depth == 0 || rng.chance(0.3))
    return prop(static_cast<int>(rng.below(vocab.size())));
  switch (rng.below(9)) {
    case 0: return lnot(random_formula(rng, vocab, depth - 1));
    case 1:
      return land(random_formula(rng, vocab, depth - 1),
                  random_formula(rng, vocab, depth - 1));
    case 2:
      return lor(random_formula(rng, vocab, depth - 1),
                 random_formula(rng, vocab, depth - 1));
    case 3:
      return implies(random_formula(rng, vocab, depth - 1),
                     random_formula(rng, vocab, depth - 1));
    case 4: return next(random_formula(rng, vocab, depth - 1));
    case 5: return eventually(random_formula(rng, vocab, depth - 1));
    case 6: return always(random_formula(rng, vocab, depth - 1));
    case 7:
      return until(random_formula(rng, vocab, depth - 1),
                   random_formula(rng, vocab, depth - 1));
    default:
      return release(random_formula(rng, vocab, depth - 1),
                     random_formula(rng, vocab, depth - 1));
  }
}

// Print → re-parse must land on the hash-consed identical node: the
// printer's precedence handling and the parser are exact inverses up to
// the constructors' simplifications (which both sides apply).
TEST_F(LogicTest, PropertyPrintParseRoundTripIsHashConsedIdentity) {
  Rng rng(777);
  for (int trial = 0; trial < 500; ++trial) {
    const Ltl f = random_formula(rng, vocab_, 4);
    const std::string text = to_string(f, vocab_);
    const Ltl reparsed = parse_ltl(text, vocab_);
    ASSERT_EQ(f.get(), reparsed.get()) << "trial " << trial << ": " << text;
  }
}

// Mutated/garbled inputs must either parse or raise ParseError — never
// crash, hang, or throw anything else.
TEST_F(LogicTest, FuzzMutatedInputsRejectedWithParseError) {
  Rng rng(888);
  const std::string charset =
      "abcdefghijklmnopqrstuvwxyz_0123456789 ()!&|->UFRGX<>~^#.,\"\\";
  int parse_errors = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    std::string text = to_string(random_formula(rng, vocab_, 3), vocab_);
    // 1-6 random edits: replace, insert, or delete a byte.
    for (std::uint64_t e = 0, n = 1 + rng.below(6); e < n; ++e) {
      if (text.empty()) {
        text.push_back(charset[rng.below(charset.size())]);
        continue;
      }
      const std::size_t at = rng.below(text.size());
      switch (rng.below(3)) {
        case 0: text[at] = charset[rng.below(charset.size())]; break;
        case 1:
          text.insert(at, 1, charset[rng.below(charset.size())]);
          break;
        default: text.erase(at, 1); break;
      }
    }
    try {
      (void)parse_ltl(text, vocab_);
    } catch (const ParseError&) {
      ++parse_errors;  // the only acceptable failure mode
    }
    // Any other exception type propagates and fails the test.
  }
  // Sanity: the mutator actually produced plenty of invalid inputs.
  EXPECT_GT(parse_errors, 100);
}

}  // namespace
}  // namespace dpoaf::logic
