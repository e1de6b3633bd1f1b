// Unit tests for common/: strong types, statistics, RNG, and the one ring
// storage (RingFifo) with its oldest-evicting policy (BoundedRing). The
// reject-and-count policy, fleet::BoundedFifo, is tested in test_fleet.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ranges>
#include <string>
#include <type_traits>
#include <vector>

#include "common/check.hpp"
#include "common/ids.hpp"
#include "common/ring.hpp"
#include "common/rng.hpp"
#include "common/seq_containers.hpp"
#include "common/stats.hpp"
#include "common/table_printer.hpp"
#include "common/time.hpp"
#include "common/units.hpp"

namespace w11 {
namespace {

// ---------------------------------------------------------------- Time --

TEST(Time, FactoriesProduceExpectedNanos) {
  EXPECT_EQ(time::nanos(5).ns(), 5);
  EXPECT_EQ(time::micros(3).ns(), 3'000);
  EXPECT_EQ(time::millis(2).ns(), 2'000'000);
  EXPECT_EQ(time::seconds(1).ns(), 1'000'000'000);
  EXPECT_EQ(time::minutes(1).ns(), 60'000'000'000LL);
  EXPECT_EQ(time::hours(1).ns(), 3'600'000'000'000LL);
}

TEST(Time, ArithmeticAndComparison) {
  const Time a = time::millis(5);
  const Time b = time::millis(3);
  EXPECT_EQ((a + b).ns(), time::millis(8).ns());
  EXPECT_EQ((a - b).ns(), time::millis(2).ns());
  EXPECT_EQ((a * 2).ns(), time::millis(10).ns());
  EXPECT_EQ((a / 5).ns(), time::millis(1).ns());
  EXPECT_EQ(a / b, 1);  // integer division of durations
  EXPECT_LT(b, a);
  EXPECT_GE(a, a);
}

TEST(Time, UnitConversions) {
  const Time t = time::micros(1500);
  EXPECT_DOUBLE_EQ(t.us(), 1500.0);
  EXPECT_DOUBLE_EQ(t.ms(), 1.5);
  EXPECT_DOUBLE_EQ(t.sec(), 0.0015);
}

TEST(Time, FromSecRoundsToNearest) {
  EXPECT_EQ(time::from_sec(1e-9).ns(), 1);
  EXPECT_EQ(time::from_sec(2.5e-9).ns(), 3);  // round half up
  EXPECT_EQ(time::from_sec(1.0).ns(), 1'000'000'000);
}

TEST(Time, CompoundAssignment) {
  Time t = time::millis(1);
  t += time::millis(2);
  EXPECT_EQ(t, time::millis(3));
  t -= time::millis(1);
  EXPECT_EQ(t, time::millis(2));
}

// --------------------------------------------------------------- Units --

TEST(Units, ByteFactoriesAndConversions) {
  EXPECT_EQ(units::kilobytes(2).count(), 2'000);
  EXPECT_EQ(units::megabytes(1).count(), 1'000'000);
  EXPECT_EQ(units::gigabytes(1).count(), 1'000'000'000);
  EXPECT_EQ(Bytes{10}.bits(), 80);
  EXPECT_DOUBLE_EQ(units::megabytes(1500).gigabytes(), 1.5);
  EXPECT_DOUBLE_EQ(units::gigabytes(2500).terabytes(), 2.5);
}

TEST(Units, TransmitTime) {
  // 1250 bytes = 10000 bits at 10 Mbps = 1 ms.
  EXPECT_EQ(transmit_time(Bytes{1250}, RateMbps{10.0}), time::millis(1));
  // Zero rate: never completes.
  EXPECT_EQ(transmit_time(Bytes{1}, RateMbps{0.0}), time::kForever);
}

TEST(Units, RateComparisonAndScaling) {
  EXPECT_LT(RateMbps{10.0}, RateMbps{20.0});
  EXPECT_DOUBLE_EQ((RateMbps{10.0} * 2.0).mbps(), 20.0);
  EXPECT_DOUBLE_EQ((RateMbps{10.0} + RateMbps{5.0}).mbps(), 15.0);
  EXPECT_DOUBLE_EQ(RateMbps{1.0}.bits_per_sec(), 1e6);
  EXPECT_FALSE(RateMbps{0.0}.positive());
}

// ----------------------------------------------------------------- Ids --

TEST(Ids, DefaultIsInvalid) {
  EXPECT_FALSE(ApId{}.valid());
  EXPECT_TRUE(ApId{0}.valid());
}

TEST(Ids, EqualityAndOrdering) {
  EXPECT_EQ(ApId{3}, ApId{3});
  EXPECT_NE(ApId{3}, ApId{4});
  EXPECT_LT(ApId{3}, ApId{4});
}

TEST(Ids, HashWorksInUnorderedContainers) {
  std::unordered_map<FlowId, int> m;
  m[FlowId{1}] = 10;
  m[FlowId{2}] = 20;
  EXPECT_EQ(m.at(FlowId{1}), 10);
  EXPECT_EQ(m.at(FlowId{2}), 20);
}

// --------------------------------------------------------------- Check --

TEST(Check, ThrowsLogicErrorWithContext) {
  EXPECT_THROW(W11_CHECK(false), std::logic_error);
  EXPECT_NO_THROW(W11_CHECK(true));
  try {
    W11_CHECK_MSG(1 == 2, "custom " << 42);
    FAIL() << "should have thrown";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("custom 42"), std::string::npos);
  }
}

// -------------------------------------------------------- RunningStats --

TEST(RunningStats, KnownSequence) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic population-variance example
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MergeMatchesSingleStream) {
  // Sharded accumulation (Chan et al. combine) must agree with one stream
  // that saw every sample: exact on count/sum/min/max, tight on mean/var.
  const std::vector<double> xs = {2.0, 4.0,  4.0, 4.0, 5.0, 5.0,
                                  7.0, 9.0,  1.5, 8.25, -3.0, 0.0};
  RunningStats whole;
  for (double x : xs) whole.add(x);

  for (std::size_t split = 0; split <= xs.size(); ++split) {
    RunningStats a, b;
    for (std::size_t i = 0; i < split; ++i) a.add(xs[i]);
    for (std::size_t i = split; i < xs.size(); ++i) b.add(xs[i]);
    a.merge(b);
    EXPECT_EQ(a.count(), whole.count()) << "split " << split;
    EXPECT_DOUBLE_EQ(a.sum(), whole.sum()) << "split " << split;
    EXPECT_DOUBLE_EQ(a.min(), whole.min()) << "split " << split;
    EXPECT_DOUBLE_EQ(a.max(), whole.max()) << "split " << split;
    EXPECT_NEAR(a.mean(), whole.mean(), 1e-12) << "split " << split;
    EXPECT_NEAR(a.variance(), whole.variance(), 1e-12) << "split " << split;
  }
}

TEST(RunningStats, MergeWithEmptySides) {
  RunningStats filled;
  for (double x : {1.0, 2.0, 3.0}) filled.add(x);

  RunningStats lhs_empty;
  lhs_empty.merge(filled);
  EXPECT_EQ(lhs_empty.count(), 3u);
  EXPECT_DOUBLE_EQ(lhs_empty.mean(), 2.0);

  RunningStats rhs_empty;
  filled.merge(rhs_empty);
  EXPECT_EQ(filled.count(), 3u);
  EXPECT_DOUBLE_EQ(filled.mean(), 2.0);
}

TEST(RunningStats, ManyShardMergeIsOrderedDeterministic) {
  // The bench sharding pattern: per-shard accumulators folded in shard
  // order. Two identical folds must agree bit-for-bit.
  auto fold = [] {
    RunningStats total;
    for (int shard = 0; shard < 8; ++shard) {
      RunningStats s;
      Rng rng(1000 + static_cast<std::uint64_t>(shard));
      for (int i = 0; i < 257; ++i) s.add(rng.normal(shard, 1.5));
      total.merge(s);
    }
    return total;
  };
  const RunningStats a = fold();
  const RunningStats b = fold();
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.sum(), b.sum());
}

// ------------------------------------------------------------- Samples --

TEST(Samples, QuantilesInterpolate) {
  Samples s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(s.median(), 2.5);
  EXPECT_DOUBLE_EQ(s.quantile(1.0 / 3.0), 2.0);
}

TEST(Samples, SingleElement) {
  Samples s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.median(), 42.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.9), 42.0);
}

TEST(Samples, EmptyQuantileThrows) {
  Samples s;
  EXPECT_THROW((void)s.median(), std::logic_error);
}

TEST(Samples, CdfAt) {
  Samples s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.cdf_at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.cdf_at(2.0), 0.5);
  EXPECT_DOUBLE_EQ(s.cdf_at(10.0), 1.0);
}

TEST(Samples, CdfSeriesIsMonotone) {
  Samples s;
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) s.add(rng.normal(0, 1));
  const auto cdf = s.cdf(20);
  ASSERT_EQ(cdf.size(), 20u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].first, cdf[i - 1].first);
    EXPECT_GE(cdf[i].second, cdf[i - 1].second);
  }
}

TEST(Samples, MeanMatchesRunningStats) {
  Samples s;
  RunningStats r;
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(0, 100);
    s.add(x);
    r.add(x);
  }
  EXPECT_NEAR(s.mean(), r.mean(), 1e-9);
}

// Property sweep: quantiles must match a brute-force order statistic.
class SamplesQuantileSweep : public ::testing::TestWithParam<int> {};

TEST_P(SamplesQuantileSweep, MatchesSortedReference) {
  Rng rng(GetParam());
  Samples s;
  std::vector<double> ref;
  const int n = 50 + GetParam() * 37;
  for (int i = 0; i < n; ++i) {
    const double x = rng.uniform(-1000, 1000);
    s.add(x);
    ref.push_back(x);
  }
  std::sort(ref.begin(), ref.end());
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double pos = q * (n - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min<std::size_t>(lo + 1, ref.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    const double expected = ref[lo] * (1 - frac) + ref[hi] * frac;
    EXPECT_NEAR(s.quantile(q), expected, 1e-9) << "q=" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SamplesQuantileSweep, ::testing::Range(1, 9));

// ----------------------------------------------------------- Histogram --

TEST(Histogram, BinningAndFractions) {
  Histogram h(0.0, 10.0, 5);
  for (double x : {0.5, 1.5, 2.5, 2.9, 9.9}) h.add(x);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.count(0), 2u);  // 0.5, 1.5
  EXPECT_EQ(h.count(1), 2u);  // 2.5, 2.9
  EXPECT_EQ(h.count(4), 1u);  // 9.9
  EXPECT_DOUBLE_EQ(h.fraction(0), 0.4);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 4.0);
}

TEST(Histogram, OutOfRangeClampsToEdges) {
  Histogram h(0.0, 10.0, 2);
  h.add(-5.0);
  h.add(15.0);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(1), 1u);
}

TEST(Histogram, InvalidConstructionThrows) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::logic_error);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::logic_error);
}

// ---------------------------------------------------------------- Jain --

TEST(Jain, PerfectFairnessIsOne) {
  EXPECT_DOUBLE_EQ(jain_fairness({5.0, 5.0, 5.0, 5.0}), 1.0);
}

TEST(Jain, KnownValue) {
  // (1+2+3)^2 / (3 * (1+4+9)) = 36/42.
  EXPECT_NEAR(jain_fairness({1.0, 2.0, 3.0}), 36.0 / 42.0, 1e-12);
}

TEST(Jain, DegenerateCases) {
  EXPECT_DOUBLE_EQ(jain_fairness({}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness({0.0, 0.0}), 1.0);
  // One user hogging everything among n: index -> 1/n.
  EXPECT_NEAR(jain_fairness({10.0, 0.0, 0.0, 0.0}), 0.25, 1e-12);
}

// ----------------------------------------------------------------- Rng --

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(a.uniform_int(0, 1'000'000), b.uniform_int(0, 1'000'000));
}

TEST(Rng, UniformIntBoundsInclusive) {
  Rng rng(1);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(5);
  const std::vector<double> w = {0.0, 1.0, 9.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10'000; ++i) ++counts[rng.weighted_index(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / 10'000.0, 0.9, 0.03);
}

TEST(Rng, WeightedIndexAllZeroFallsBackToUniform) {
  Rng rng(5);
  const std::vector<double> w = {0.0, 0.0, 0.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 3000; ++i) ++counts[rng.weighted_index(w)];
  for (int c : counts) EXPECT_GT(c, 500);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(42);
  Rng child = a.fork();
  Rng b(42);
  (void)b.fork();
  // Parent streams stay in sync after forking.
  EXPECT_EQ(a.uniform_int(0, 1 << 30), b.uniform_int(0, 1 << 30));
  // Child differs from a fresh seed-42 generator.
  Rng fresh(42);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i)
    any_diff |= child.uniform_int(0, 1 << 30) != fresh.uniform_int(0, 1 << 30);
  EXPECT_TRUE(any_diff);
}

// The copy constructor is deleted: copying a generator silently shares its
// future draw sequence between two owners, which breaks determinism the
// first time the copies land on different threads (DESIGN.md §10).
static_assert(!std::is_copy_constructible_v<Rng>);
static_assert(!std::is_copy_assignable_v<Rng>);
static_assert(std::is_move_constructible_v<Rng>);
static_assert(std::is_move_assignable_v<Rng>);

TEST(Rng, StreamForkDependsOnlyOnSeedAndStreamId) {
  // fork(stream_id) must be a pure function of (seed, stream id) — the
  // parent's draw position must not leak in, or per-task streams would vary
  // with scheduling.
  Rng fresh(42);
  Rng drained(42);
  for (int i = 0; i < 500; ++i) (void)drained.uniform_int(0, 1 << 20);

  for (std::uint64_t stream : {0ULL, 1ULL, 99ULL}) {
    Rng a = fresh.fork(stream);
    Rng b = drained.fork(stream);
    for (int i = 0; i < 32; ++i)
      ASSERT_EQ(a.uniform_int(0, 1 << 30), b.uniform_int(0, 1 << 30))
          << "stream " << stream;
  }
}

TEST(Rng, StreamForkDoesNotAdvanceParent) {
  Rng a(7), b(7);
  (void)a.fork(3);
  (void)a.fork(4);
  EXPECT_EQ(a.uniform_int(0, 1 << 30), b.uniform_int(0, 1 << 30));
}

TEST(Rng, DistinctStreamForksDiverge) {
  Rng root(11);
  Rng a = root.fork(std::uint64_t{0});
  Rng b = root.fork(std::uint64_t{1});
  bool any_diff = false;
  for (int i = 0; i < 16; ++i)
    any_diff |= a.uniform_int(0, 1 << 30) != b.uniform_int(0, 1 << 30);
  EXPECT_TRUE(any_diff);
}

TEST(Rng, SeedAccessorIsStableAcrossDraws) {
  Rng rng(123);
  for (int i = 0; i < 10; ++i) (void)rng.uniform();
  EXPECT_EQ(rng.seed(), 123u);
}

// The closed-form first output equals a seeded engine's first draw, and
// the one-draw coin equals the forked child's first bernoulli, over 100k
// seeds and streams.
static_assert(rng_detail::mt19937_64_first_output(
                  std::mt19937_64::default_seed) == 14514284786278117030ull);

TEST(Rng, FirstOutputMatchesSeededEngine) {
  std::uint64_t seed = 0;
  for (std::uint64_t k = 0; k < 100'000; ++k) {
    seed = rng_detail::splitmix64(seed + k);
    std::mt19937_64 engine(k % 2 == 0 ? seed : k);
    ASSERT_EQ(rng_detail::mt19937_64_first_output(k % 2 == 0 ? seed : k),
              engine())
        << "k=" << k;
  }
}

TEST(Rng, ForkBernoulliMatchesForkedChild) {
  const Rng root(0xC0FFEEULL);
  const double ps[] = {0.0, 1e-6, 0.01, 0.5, 0.99, 1.0};
  for (std::uint64_t i = 0; i < 100'000; ++i) {
    const double p = ps[i % std::size(ps)];
    ASSERT_EQ(root.fork_bernoulli(i, p), root.fork(i).bernoulli(p))
        << "p=" << p << " stream=" << i;
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

// -------------------------------------------------------- TablePrinter --

TEST(TablePrinter, AlignsAndPrintsRows) {
  TablePrinter t({"name", "value"});
  t.add_row("alpha", 1.5);
  t.add_row("b", std::string("xyz"));
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.500"), std::string::npos);
  EXPECT_NE(out.find("xyz"), std::string::npos);
  EXPECT_NE(out.find("name"), std::string::npos);
}


// --------------------------------------------------------- BoundedRing --

TEST(BoundedRing, KeepsChronologicalOrder) {
  common::BoundedRing<int> ring(8);
  for (int i = 0; i < 5; ++i) ring.push(i);
  ASSERT_EQ(ring.size(), 5u);
  for (std::size_t i = 0; i < ring.size(); ++i)
    EXPECT_EQ(ring[i], static_cast<int>(i));
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(BoundedRing, OverflowEvictsOldest) {
  // Ten pushes into four slots wrap the storage more than once.
  common::BoundedRing<int> ring(4);
  for (int i = 0; i < 10; ++i) ring.push(i);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.dropped(), 6u);
  for (std::size_t i = 0; i < ring.size(); ++i)
    EXPECT_EQ(ring[i], static_cast<int>(i) + 6)
        << "survivors must be the newest, in order";
}

TEST(BoundedRing, ZeroCapacityCountsEverythingAsDropped) {
  common::BoundedRing<int> ring(0);
  for (int i = 0; i < 3; ++i) ring.push(i);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.begin(), ring.end());
  EXPECT_EQ(ring.dropped(), 3u);
}

TEST(BoundedRing, ClearResets) {
  common::BoundedRing<int> ring(4);
  for (int i = 0; i < 10; ++i) ring.push(i);
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  // A cleared ring fills from its first slot again.
  for (int i = 20; i < 23; ++i) ring.push(i);
  EXPECT_EQ(ring[0], 20);
  EXPECT_EQ(ring.back(), 22);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(BoundedRing, TraversalAndBackFollowTheNewestEntry) {
  common::BoundedRing<std::string> ring(3);
  for (int i = 0; i < 7; ++i) {
    ring.push(std::to_string(i));
    EXPECT_EQ(ring.back(), std::to_string(i));
    // Range-for walks the live entries oldest first, like operator[].
    std::size_t k = 0;
    for (const std::string& s : ring) EXPECT_EQ(s, ring[k++]);
    EXPECT_EQ(k, ring.size());
  }
  const std::vector<std::string> copy(ring.begin(), ring.end());
  EXPECT_EQ(copy, (std::vector<std::string>{"4", "5", "6"}));
  EXPECT_EQ(ring.begin()->size(), 1u);
}

// ------------------------------------------------------------ RingFifo --

// Pops the whole ring front-first into a vector.
std::vector<int> drain(common::RingFifo<int>& q) {
  std::vector<int> out;
  while (!q.empty()) {
    out.push_back(q.front());
    q.pop_front();
  }
  return out;
}

TEST(RingFifo, PushFrontAcrossTheWrap) {
  common::RingFifo<int> q;
  q.push_back(0);
  q.push_back(1);  // slots 0 and 1 of the first 4
  q.push_front(-1);  // the front wraps below slot 0 to slot 3
  q.push_front(-2);
  EXPECT_EQ(q.front(), -2);
  EXPECT_EQ(q.back(), 1);
  EXPECT_EQ(q[1], -1);
  q.push_front(-3);  // full: growth keeps the order
  EXPECT_EQ(drain(q), (std::vector<int>{-3, -2, -1, 0, 1}));
}

TEST(RingFifo, GrowsWhileHeadIsNotZero) {
  common::RingFifo<int> q;
  for (int i = 0; i < 4; ++i) q.push_back(i);
  q.pop_front();
  q.pop_front();
  q.push_back(4);
  q.push_back(5);  // ring full: 2 3 | 4 5 wrapped, head at slot 2
  q.push_back(6);  // growth re-lays 2..5 front-first
  q.push_front(1);
  EXPECT_EQ(q.size(), 6u);
  for (std::size_t i = 0; i < q.size(); ++i)
    EXPECT_EQ(q[i], static_cast<int>(i) + 1);
  EXPECT_EQ(drain(q), (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(RingFifo, PopBackTakesTheNewest) {
  common::RingFifo<int> q;
  for (int i = 0; i < 7; ++i) q.push_back(i);
  q.pop_back();
  q.pop_back();
  EXPECT_EQ(q.back(), 4);
  q.push_front(-1);
  q.pop_back();
  EXPECT_EQ(q.size(), 5u);
  EXPECT_EQ(q.front(), -1);
  EXPECT_EQ(q.back(), 3);
}

// The wired link's queue_depth() binary-searches the ring by index.
TEST(RingFifo, PartitionPointOverIndices) {
  common::RingFifo<int> q;
  for (int i = 0; i < 6; ++i) q.push_back(i);
  for (int i = 0; i < 4; ++i) q.pop_front();
  for (int i = 6; i < 12; ++i) q.push_back(i);  // live 4..11, wrapped
  const auto it = std::ranges::partition_point(
      std::views::iota(std::size_t{0}, q.size()), [](int v) { return v < 9; },
      [&q](std::size_t i) { return q[i]; });
  EXPECT_EQ(*it, 5u);
  EXPECT_EQ(q[*it], 9);
  EXPECT_EQ(q[7], 11);
}

TEST(RingFifo, DrainToEmptyAndReuse) {
  common::RingFifo<int> q;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) q.push_back(round * 10 + i);
    std::vector<int> want(10);
    for (int i = 0; i < 10; ++i) want[static_cast<std::size_t>(i)] = round * 10 + i;
    EXPECT_EQ(drain(q), want);
    EXPECT_TRUE(q.empty());
  }
  q.push_front(7);
  EXPECT_EQ(q.front(), 7);
  EXPECT_EQ(q.back(), 7);
  EXPECT_EQ(drain(q), (std::vector<int>{7}));
}

TEST(RingFifo, ReserveRelaysFrontFirst) {
  common::RingFifo<int> q;
  for (int i = 0; i < 4; ++i) q.push_back(i);
  q.pop_front();
  q.push_back(4);  // wrapped: head at slot 1
  q.reserve(3);    // no smaller than now: a no-op
  EXPECT_EQ(q.capacity(), 4u);
  q.reserve(10);
  EXPECT_EQ(q.capacity(), 10u);
  EXPECT_EQ(std::vector<int>(q.begin(), q.end()),
            (std::vector<int>{1, 2, 3, 4}));
  for (int i = 5; i < 11; ++i) q.push_back(i);  // fills without growing
  EXPECT_EQ(q.capacity(), 10u);
  EXPECT_EQ(drain(q), (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
}

// ------------------------------------------------ SeqRing / RangeQueue --
// The sorted flat rings behind the FastACK/Snoop retransmission cache, the
// AP's TCP-latency table and FastACK's q_seq.

struct TestRange {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  friend constexpr auto operator<=>(const TestRange&, const TestRange&) = default;
};

template <typename Ring>
std::vector<std::uint64_t> keys(const Ring& r) {
  std::vector<std::uint64_t> out;
  for (const auto& e : r) out.push_back(e.first);
  return out;
}

TEST(SeqRing, AppendKeepsKeyOrder) {
  SeqRing<int> r;
  EXPECT_TRUE(r.empty());
  for (int i = 0; i < 5; ++i) r.insert_or_assign(10u * static_cast<std::uint64_t>(i), i);
  ASSERT_EQ(r.size(), 5u);
  EXPECT_EQ(keys(r), (std::vector<std::uint64_t>{0, 10, 20, 30, 40}));
  EXPECT_EQ(r.front().first, 0u);
  EXPECT_EQ(r.front().second, 0);
}

TEST(SeqRing, OutOfOrderInsertLandsSorted) {
  SeqRing<int> r;
  for (std::uint64_t k : {50u, 10u, 30u, 40u, 0u, 20u}) {
    r.insert_or_assign(k, static_cast<int>(k));
  }
  EXPECT_EQ(keys(r), (std::vector<std::uint64_t>{0, 10, 20, 30, 40, 50}));
  for (const auto& [k, v] : r) EXPECT_EQ(static_cast<std::uint64_t>(v), k);
}

TEST(SeqRing, EqualKeyOverwritesValue) {
  SeqRing<int> r;
  r.insert_or_assign(10, 1);
  r.insert_or_assign(20, 2);
  r.insert_or_assign(10, 7);  // mid-ring key
  r.insert_or_assign(20, 8);  // tail key: not an append
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r.begin()->second, 7);
  EXPECT_EQ(std::next(r.begin())->second, 8);
}

TEST(RangeQueue, EqualRangeIsASetNoop) {
  RangeQueue<TestRange> q;
  q.insert(TestRange{0, 10});
  q.insert(TestRange{10, 20});
  q.insert(TestRange{0, 10});   // exact duplicate: collapsed
  q.insert(TestRange{10, 20});  // duplicate of the tail: collapsed
  q.insert(TestRange{0, 5});    // same start, different end: kept
  ASSERT_EQ(q.size(), 3u);
  EXPECT_EQ(q.front(), (TestRange{0, 5}));
  q.pop_front();
  EXPECT_EQ(q.front(), (TestRange{0, 10}));
  q.pop_front();
  EXPECT_EQ(q.front(), (TestRange{10, 20}));
  q.pop_front();
  EXPECT_TRUE(q.empty());
}

TEST(SeqRing, PopFrontAcrossCompactionThreshold) {
  // 300 entries popped one by one cross every compaction point a dead-prefix
  // rule may use; the live window must stay exact throughout, and appends
  // interleaved with pops must land behind it.
  SeqRing<int> r;
  for (int i = 0; i < 300; ++i) r.insert_or_assign(static_cast<std::uint64_t>(i), i);
  for (int i = 0; i < 300; ++i) {
    ASSERT_EQ(r.size(), static_cast<std::size_t>(300 - i + (i + 2) / 3));
    ASSERT_EQ(r.front().second, i);
    ASSERT_EQ(r.begin()->first, static_cast<std::uint64_t>(i));
    r.pop_front();
    if (i % 3 == 0) r.insert_or_assign(1000u + static_cast<std::uint64_t>(i), -i);
  }
  ASSERT_EQ(r.size(), 100u);
  EXPECT_EQ(r.front().first, 1000u);
  EXPECT_EQ(std::prev(r.end())->first, 1297u);
}

TEST(RangeQueue, PopFrontAcrossCompactionThreshold) {
  RangeQueue<TestRange> q;
  for (std::uint64_t i = 0; i < 300; ++i) q.insert(TestRange{i, i + 1});
  for (std::uint64_t i = 0; i < 300; ++i) {
    ASSERT_EQ(q.size(), 300 - i);
    ASSERT_EQ(q.front(), (TestRange{i, i + 1}));
    q.pop_front();
    // A late range below the live front still sorts first.
    if (i == 150) q.insert(TestRange{0, 1});
    if (i == 150) {
      ASSERT_EQ(q.front(), (TestRange{0, 1}));
      q.pop_front();
    }
  }
  EXPECT_TRUE(q.empty());
  q.insert(TestRange{5, 6});
  EXPECT_EQ(q.size(), 1u);
  q.clear();
  EXPECT_TRUE(q.empty());
}

TEST(SeqRing, BoundsAfterCompaction) {
  SeqRing<int> r;
  for (int i = 0; i < 200; ++i) r.insert_or_assign(10u * static_cast<std::uint64_t>(i), i);
  for (int i = 0; i < 150; ++i) r.pop_front();  // live: keys 1500..1990
  ASSERT_EQ(r.size(), 50u);
  EXPECT_EQ(r.lower_bound(0), r.begin());
  EXPECT_EQ(r.upper_bound(0), r.begin());
  EXPECT_EQ(r.lower_bound(1500)->first, 1500u);
  EXPECT_EQ(r.upper_bound(1500)->first, 1510u);
  EXPECT_EQ(r.lower_bound(1505)->first, 1510u);
  EXPECT_EQ(r.upper_bound(1505)->first, 1510u);
  EXPECT_EQ(r.lower_bound(1990)->first, 1990u);
  EXPECT_EQ(r.upper_bound(1990), r.end());
  EXPECT_EQ(r.lower_bound(5000), r.end());
  // An insert below the live front after compaction still lands first.
  r.insert_or_assign(5, -1);
  EXPECT_EQ(r.begin()->first, 5u);
  EXPECT_EQ(r.upper_bound(5)->first, 1500u);
  r.clear();
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.lower_bound(0), r.end());
}

}  // namespace
}  // namespace w11
