#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/cache.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace dpoaf {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng.below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // every residue hit
}

TEST(Rng, BetweenInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.between(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceFrequencyRoughlyMatchesP) {
  Rng rng(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (rng.chance(0.25)) ++hits;
  const double freq = static_cast<double>(hits) / n;
  EXPECT_NEAR(freq, 0.25, 0.02);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.05);
}

TEST(Rng, WeightedNeverPicksZeroWeight) {
  Rng rng(17);
  const std::vector<double> w{0.0, 1.0, 0.0, 3.0};
  for (int i = 0; i < 2000; ++i) {
    const std::size_t idx = rng.weighted(w);
    EXPECT_TRUE(idx == 1 || idx == 3);
  }
}

TEST(Rng, WeightedMatchesProportions) {
  Rng rng(19);
  const std::vector<double> w{1.0, 3.0};
  int counts[2] = {0, 0};
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[rng.weighted(w)];
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.75, 0.02);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto copy = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

TEST(Rng, BelowZeroThrows) {
  Rng rng(1);
  EXPECT_THROW(rng.below(0), ContractViolation);
}

TEST(RunningStats, MatchesDirectComputation) {
  RunningStats s;
  const std::vector<double> xs{1.0, 2.0, 4.0, 8.0};
  for (double x : xs) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.75);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 8.0);
  EXPECT_NEAR(s.variance(), 9.583333333, 1e-6);
}

TEST(RunningStats, EmptyAndSingleAreSafe) {
  RunningStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  s.add(5.0);
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Stats, QuantileInterpolates) {
  std::vector<double> xs{0.0, 1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(quantile_of(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile_of(xs, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(quantile_of(xs, 0.5), 1.5);
}

TEST(Stats, PearsonPerfectCorrelation) {
  std::vector<double> xs{1, 2, 3, 4};
  std::vector<double> ys{2, 4, 6, 8};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  std::vector<double> neg{8, 6, 4, 2};
  EXPECT_NEAR(pearson(xs, neg), -1.0, 1e-12);
}

TEST(Stats, SpearmanHandlesMonotoneNonlinear) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  std::vector<double> ys{1, 8, 27, 64, 125};
  EXPECT_NEAR(spearman(xs, ys), 1.0, 1e-12);
}

TEST(Stats, SpearmanTiesGetAverageRanks) {
  std::vector<double> xs{1, 1, 2, 2};
  std::vector<double> ys{1, 1, 2, 2};
  EXPECT_NEAR(spearman(xs, ys), 1.0, 1e-12);
}

TEST(Strings, SplitAndJoinRoundTrip) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(join({"a", "b", "c"}, "-"), "a-b-c");
}

TEST(Strings, SplitWsDropsEmpty) {
  const auto parts = split_ws("  foo \t bar\nbaz  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "foo");
  EXPECT_EQ(parts[2], "baz");
}

TEST(Strings, TrimAndLower) {
  EXPECT_EQ(trim("  Hello \n"), "Hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(to_lower("AbC"), "abc");
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(replace_all("a-b-c", "-", "+"), "a+b+c");
  EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");
}

TEST(Strings, EditDistanceKnownValues) {
  EXPECT_EQ(edit_distance("kitten", "sitting"), 3u);
  EXPECT_EQ(edit_distance("", "abc"), 3u);
  EXPECT_EQ(edit_distance("same", "same"), 0u);
}

TEST(Strings, NormalizedEditDistanceBounds) {
  EXPECT_DOUBLE_EQ(normalized_edit_distance("", ""), 0.0);
  EXPECT_DOUBLE_EQ(normalized_edit_distance("abc", "xyz"), 1.0);
  const double d = normalized_edit_distance("stop sign", "stop signs");
  EXPECT_GT(d, 0.0);
  EXPECT_LT(d, 0.2);
}

TEST(TextTable, RowWidthMismatchThrows) {
  TextTable t("t");
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), ContractViolation);
}

TEST(TextTable, CsvOutput) {
  TextTable t("t");
  t.set_header({"x", "y"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(BoundedCache, GetOrComputeComputesOnlyOnMiss) {
  util::BoundedCache<int, int> cache(/*capacity=*/1024);
  int computes = 0;
  const auto fn = [&] { ++computes; return 42; };
  EXPECT_EQ(cache.get_or_compute(5, fn), 42);
  EXPECT_EQ(cache.get_or_compute(5, fn), 42);
  EXPECT_EQ(computes, 1);
}

TEST(BoundedCache, MissThenHitCountsStats) {
  util::BoundedCache<std::string, int> cache(/*capacity=*/1024);
  EXPECT_EQ(cache.get_or_compute("a", [] { return 7; }), 7);
  EXPECT_EQ(cache.get_or_compute("a", [] { return -1; }), 7);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(BoundedCache, SizeNeverExceedsCapacityBound) {
  constexpr int kCapacity = 16;
  util::BoundedCache<int, int> cache(kCapacity);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(cache.get_or_compute(i, [i] { return i * i; }), i * i);
    EXPECT_LE(cache.size(), static_cast<std::size_t>(kCapacity));
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1000u);
  EXPECT_EQ(stats.inserts, 1000u);
  EXPECT_EQ(stats.evictions, 1000u - kCapacity);
  // The newest kCapacity keys survive with the values they were given.
  for (int i = 1000 - kCapacity; i < 1000; ++i)
    EXPECT_EQ(cache.get_or_compute(i, [] { return -1; }), i * i);
  EXPECT_EQ(cache.stats().hits, static_cast<std::uint64_t>(kCapacity));
}

TEST(BoundedCache, EvictionIsOldestFirst) {
  // Keys far apart in hash value: the order is over the whole map.
  util::BoundedCache<int, int> cache(/*capacity=*/3);
  int computes = 0;
  const auto put = [&](int key) {
    return cache.get_or_compute(key, [&computes, key] {
      ++computes;
      return key;
    });
  };
  for (const int key : {10, 2000, 30, 400000}) put(key);  // evicts 10
  EXPECT_EQ(cache.stats().evictions, 1u);
  put(5);  // evicts 2000
  EXPECT_EQ(computes, 5);
  for (const int key : {30, 400000, 5}) put(key);  // hits keep the order
  EXPECT_EQ(computes, 5);
  put(2000);  // recomputed, evicts 30
  put(10);    // recomputed, evicts 400000
  EXPECT_EQ(computes, 7);
  put(5);
  EXPECT_EQ(computes, 7);
  put(30);
  EXPECT_EQ(computes, 8);
  EXPECT_EQ(cache.stats().evictions, 5u);
}

TEST(BoundedCache, ClearEmptiesTheMap) {
  util::BoundedCache<int, int> cache(/*capacity=*/1024);
  for (int i = 0; i < 100; ++i) cache.get_or_compute(i, [i] { return i; });
  EXPECT_EQ(cache.size(), 100u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  int computes = 0;
  EXPECT_EQ(cache.get_or_compute(0, [&] { ++computes; return 0; }), 0);
  EXPECT_EQ(computes, 1);
}

TEST(BoundedCache, ConcurrentGetOrComputeIsSingleFlight) {
  util::BoundedCache<int, int> cache(/*capacity=*/1024);
  constexpr int kThreads = 8;
  constexpr int kKeys = 500;
  std::atomic<int> computes{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &computes] {
      // All threads race over the same key range; single-flight means each
      // key is computed exactly once, and everyone reads key * 3.
      for (int i = 0; i < kKeys; ++i) {
        const int v = cache.get_or_compute(i, [&computes, i] {
          computes.fetch_add(1, std::memory_order_relaxed);
          return i * 3;
        });
        ASSERT_EQ(v, i * 3);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(computes.load(), kKeys);
  EXPECT_EQ(cache.size(), static_cast<std::size_t>(kKeys));
  // Deterministic counters regardless of interleaving: one miss per unique
  // key, everything else a hit — what keeps bench stats byte-identical
  // across thread counts.
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, static_cast<std::uint64_t>(kKeys));
  EXPECT_EQ(stats.inserts, static_cast<std::uint64_t>(kKeys));
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kThreads - 1) * kKeys);
}

TEST(BoundedCache, ThrowDoesNotWedgeItsKey) {
  util::BoundedCache<int, int> cache(/*capacity=*/1024);
  EXPECT_THROW(cache.get_or_compute(
                   1, []() -> int { throw std::runtime_error("boom"); }),
               std::runtime_error);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().inserts, 0u);
  // The failed compute must not wedge the key: the next caller recomputes.
  EXPECT_EQ(cache.get_or_compute(1, [] { return 9; }), 9);
  EXPECT_EQ(cache.get_or_compute(1, [] { return -1; }), 9);
}

TEST(BoundedCache, ConcurrentMixedOpsUnderEvictionPressureKeepCountersExact) {
  // Tiny capacity over a wide key range: evictions fire constantly, so
  // keys get recomputed after falling out, while other threads read
  // size() and stats(). Run under TSan in CI. Invariants that must
  // survive any interleaving:
  //   - every observed value is f(key) (no lost or torn updates),
  //   - hits + misses == lookups issued,
  //   - inserts == computes (each compute lands exactly once),
  //   - evictions == inserts - size() (every insert grows or displaces),
  //   - size() <= capacity.
  constexpr std::size_t kCapacity = 4;
  util::BoundedCache<int, long> cache(kCapacity);
  constexpr int kThreads = 8;
  constexpr int kIters = 4000;
  constexpr int kKeyRange = 64;
  const auto value_of = [](int key) { return 7L * key + 1L; };
  std::atomic<std::uint64_t> computes{0};
  std::atomic<std::uint64_t> lookups{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(1000 + t));
      std::uint64_t my_lookups = 0;
      for (int i = 0; i < kIters; ++i) {
        const int key = static_cast<int>(rng.below(kKeyRange));
        if (rng.chance(0.3)) {
          ASSERT_LE(cache.size(), kCapacity);
          const auto s = cache.stats();
          ASSERT_EQ(s.inserts, s.misses);
        } else {
          ++my_lookups;
          const long v = cache.get_or_compute(key, [&computes, &value_of, key] {
            computes.fetch_add(1, std::memory_order_relaxed);
            return value_of(key);
          });
          ASSERT_EQ(v, value_of(key));
        }
      }
      lookups.fetch_add(my_lookups, std::memory_order_relaxed);
    });
  }
  for (auto& th : threads) th.join();

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, lookups.load());
  EXPECT_EQ(stats.inserts, computes.load());
  EXPECT_EQ(stats.evictions, stats.inserts - cache.size());
  EXPECT_EQ(cache.size(), kCapacity);
  EXPECT_GT(stats.evictions, 0u);  // the pressure actually materialized
}

TEST(CacheStats, SummaryAndHitRate) {
  const util::CacheStats a{10, 2, 2, 1};
  EXPECT_DOUBLE_EQ(a.hit_rate(), 10.0 / 12.0);
  const std::string s = a.summary();
  EXPECT_NE(s.find("hits=10"), std::string::npos);
  EXPECT_NE(s.find("misses=2"), std::string::npos);
  EXPECT_NE(s.find("evictions=1"), std::string::npos);
  EXPECT_EQ(util::CacheStats{}.hit_rate(), 0.0);
}

TEST(Check, MacrosThrowWithContext) {
  try {
    DPOAF_CHECK_MSG(false, "custom context");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("custom context"), std::string::npos);
  }
}

}  // namespace
}  // namespace dpoaf
