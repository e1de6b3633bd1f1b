// Unit tests for exec/: the deterministic TaskPool, plus the per-task seed
// derivation (Rng::fork(stream_id)) pool-sharded work relies on.
//
// The load-bearing property is that every pool-based computation is
// bit-for-bit identical to its serial execution at any worker count; these
// tests pin that down for ordered reduction, exception propagation, nesting,
// and seed derivation. The stress cases double as the TSAN workload
// (CI runs this binary under -fsanitize=thread).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "exec/task_pool.hpp"

namespace w11::exec {
namespace {

// ------------------------------------------------------------ coverage --

TEST(TaskPool, ParallelForRunsEveryIndexExactlyOnce) {
  for (int workers : {1, 2, 4, 8}) {
    TaskPool pool(workers);
    constexpr std::size_t kN = 10'000;
    std::vector<std::atomic<int>> hits(kN);
    pool.parallel_for(kN, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i)
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " at " << workers
                                   << " workers";
  }
}

TEST(TaskPool, WorkersReportsLanesIncludingCaller) {
  EXPECT_EQ(TaskPool(1).workers(), 1);
  EXPECT_EQ(TaskPool(4).workers(), 4);
  EXPECT_GE(TaskPool(0).workers(), 1);  // 0 -> default_workers()
}

TEST(TaskPool, LaneArgumentIsInRangeAndLaneZeroIsCaller) {
  const std::thread::id caller = std::this_thread::get_id();

  // The serial pool executes everything on the caller.
  TaskPool serial(1);
  serial.parallel_for(8, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });

  // A 4-lane pool runs bodies on at most 4 threads, the caller among them.
  TaskPool pool(4);
  constexpr std::size_t kN = 5'000;
  std::vector<std::thread::id> thread_of(kN);
  pool.parallel_for(kN, [&](std::size_t i) {
    thread_of[i] = std::this_thread::get_id();
  });
  const std::set<std::thread::id> used(thread_of.begin(), thread_of.end());
  EXPECT_LE(used.size(), static_cast<std::size_t>(pool.workers()));
  EXPECT_EQ(used.count(caller), 1u);
}

TEST(TaskPool, ParallelMapPreservesIndexOrder) {
  TaskPool pool(4);
  constexpr std::size_t kN = 4'096;
  const std::vector<std::uint64_t> out = pool.parallel_map<std::uint64_t>(
      kN, [](std::size_t i) { return static_cast<std::uint64_t>(i) * 3 + 1; });
  ASSERT_EQ(out.size(), kN);
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(out[i], i * 3 + 1);
}

// -------------------------------------------------------- determinism --

// Sums whose value depends on FP accumulation order: if the parallel_map
// result ever landed in completion order, folding it in index order would
// disagree in the low bits across worker counts. Require bitwise equality
// with the serial fold.
TEST(TaskPool, OrderedReductionIsBitIdenticalAcrossWorkerCounts) {
  constexpr std::size_t kN = 20'000;
  auto term = [](std::size_t i) {
    return std::sin(static_cast<double>(i) * 1e-3) /
           (1.0 + static_cast<double>(i % 97));
  };

  double serial = 0.0;
  for (std::size_t i = 0; i < kN; ++i) serial += term(i);

  for (int workers : {1, 2, 4, 8}) {
    TaskPool pool(workers);
    double got = 0.0;
    for (const double v : pool.parallel_map<double>(kN, term)) got += v;
    ASSERT_EQ(serial, got) << "FP sum diverged at " << workers << " workers";
  }
}

TEST(TaskPool, RepeatedRunsOnOnePoolAreIdentical) {
  TaskPool pool(4);
  constexpr std::size_t kN = 2'048;
  auto run = [&] {
    return pool.parallel_map<double>(kN, [](std::size_t i) {
      return std::cos(static_cast<double>(i)) * 1e-6;
    });
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a, b);
}

// --------------------------------------------------------- exceptions --

TEST(TaskPool, PropagatesLowestFailingIndexAndStaysUsable) {
  TaskPool pool(4);
  constexpr std::size_t kN = 3'000;
  for (int round = 0; round < 3; ++round) {
    try {
      pool.parallel_for(kN, [](std::size_t i) {
        if (i % 1000 == 500) {
          throw std::runtime_error("boom at " + std::to_string(i));
        }
      });
      FAIL() << "expected a throw";
    } catch (const std::runtime_error& e) {
      // Failing indices are 500, 1500, 2500; the propagated exception must
      // be the lowest one regardless of which lane hit which chunk.
      EXPECT_STREQ(e.what(), "boom at 500");
    }

    // The pool must be fully reusable after an exceptional batch.
    std::atomic<std::size_t> done{0};
    pool.parallel_for(kN, [&](std::size_t) {
      done.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(done.load(), kN);
  }
}

// ------------------------------------------------------------- nesting --

TEST(TaskPool, NestedParallelForRunsInlineWithoutDeadlock) {
  TaskPool pool(4);
  constexpr std::size_t kOuter = 64;
  constexpr std::size_t kInner = 64;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  pool.parallel_for(kOuter, [&](std::size_t o) {
    EXPECT_TRUE(TaskPool::in_task());
    // Nested call: must execute inline on this lane, not re-enqueue.
    pool.parallel_for(kInner, [&](std::size_t i) {
      hits[o * kInner + i].fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_FALSE(TaskPool::in_task());
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

// -------------------------------------------------------------- stress --

// Many small batches back to back: exercises the publish/claim/wake/join
// paths under contention. Run under TSAN in CI; any unsynchronized access to
// a Batch or the pool's publication state shows up here.
TEST(TaskPoolStress, ManySmallBatchesAreCoherent) {
  TaskPool pool(4);
  for (int round = 0; round < 200; ++round) {
    const std::size_t n = 16 + static_cast<std::size_t>(round % 48);
    std::vector<std::uint32_t> out(n, 0);
    pool.parallel_for(n, [&](std::size_t i) {
      out[i] = static_cast<std::uint32_t>(i * i);
    });
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], i * i);
  }
}

// Two external threads share one pool: their batches are serialized, never
// interleaved into each other's outputs. Mixed sizes cover the one-chunk,
// few-chunk and many-chunk cases; also run under TSAN in CI.
TEST(TaskPool, ExternalCallersSharingOnePoolAreSerialized) {
  TaskPool pool(4);
  auto client = [&pool](std::uint64_t salt, bool* ok) {
    for (int round = 0; round < 200; ++round) {
      const std::size_t n = 1 + static_cast<std::size_t>((round * 37) % 300);
      std::vector<std::uint64_t> want(n);
      for (std::size_t i = 0; i < n; ++i) want[i] = salt * 1'000'003 + i * i;
      const std::vector<std::uint64_t> out = pool.parallel_map<std::uint64_t>(
          n, [salt](std::size_t i) { return salt * 1'000'003 + i * i; });
      if (out != want) *ok = false;
    }
  };
  bool ok_a = true;
  bool ok_b = true;
  std::thread a(client, 1, &ok_a);
  std::thread b(client, 2, &ok_b);
  a.join();
  b.join();
  EXPECT_TRUE(ok_a);
  EXPECT_TRUE(ok_b);
  EXPECT_FALSE(TaskPool::in_task());
}

TEST(TaskPoolStress, LargeBatchReductionMatchesSerial) {
  TaskPool pool(8);
  constexpr std::size_t kN = 200'000;
  std::uint64_t got = 0;
  for (const std::uint64_t v : pool.parallel_map<std::uint64_t>(
           kN, [](std::size_t i) {
             return static_cast<std::uint64_t>(i) ^ (i << 7);
           }))
    got += v;
  std::uint64_t want = 0;
  for (std::size_t i = 0; i < kN; ++i)
    want += static_cast<std::uint64_t>(i) ^ (i << 7);
  EXPECT_EQ(got, want);
}

// ------------------------------------------------- per-task streams --
// Pool-sharded work derives each task's generator with Rng::fork(stream_id)
// from one root; the suite keeps its historical ShardRng name.

TEST(ShardRng, MatchesRngFork) {
  // fork(stream) seeds its child with mix_seed(root seed, stream), whatever
  // the root has drawn.
  const std::uint64_t seed = 0xDEADBEEFCAFEF00DULL;
  Rng root(seed);
  for (std::uint64_t stream : {0ULL, 1ULL, 7ULL, 1'000'000ULL}) {
    Rng a = root.fork(stream);
    Rng b(rng_detail::mix_seed(seed, stream));
    EXPECT_EQ(a.seed(), rng_detail::mix_seed(seed, stream));
    for (int i = 0; i < 16; ++i) ASSERT_EQ(a.engine()(), b.engine()());
    for (int i = 0; i < 100; ++i) root.engine()();
  }
}

TEST(ShardRng, StreamsAreIndependentOfDrawOrder) {
  // Task RNGs must depend only on (root seed, stream id) — never on how
  // many draws other streams made, or results would vary with scheduling.
  const Rng root(42);
  Rng first = root.fork(3);
  Rng burner = root.fork(9);
  for (int i = 0; i < 1'000; ++i) burner.engine()();
  Rng second = root.fork(3);
  for (int i = 0; i < 16; ++i) ASSERT_EQ(first.engine()(), second.engine()());
}

TEST(ShardRng, DistinctStreamsDiverge) {
  const Rng root(7);
  Rng a = root.fork(0);
  Rng b = root.fork(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.engine()() == b.engine()()) ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(ShardRng, TasksDrawingFromOwnStreamsAreDeterministic) {
  // The end-to-end pattern the planner/bench sharding uses: per-task RNG
  // forked by index, results reduced in index order.
  auto run = [](int workers) {
    TaskPool pool(workers);
    const Rng root(123);
    return pool.parallel_map<double>(512, [&](std::size_t i) {
      Rng r = root.fork(i);
      double acc = 0.0;
      for (int d = 0; d < 32; ++d) acc += r.uniform();
      return acc;
    });
  };
  const auto serial = run(1);
  for (int workers : {2, 4, 8}) ASSERT_EQ(serial, run(workers));
}

TEST(ShardRng, BackoffJitterStreamsAreWorkerCountInvariant) {
  // The ctrl::PlanApplier derives retry jitter from a stream keyed by
  // (ap << 32) | attempt — the exact pattern under test here. The full
  // (ap, attempt) grid of draws must come out identical whether the draws
  // happen serially or race across any number of pool workers.
  constexpr std::uint32_t kAps = 64;
  constexpr int kAttempts = 8;
  const Rng root(0xC0FFEE);
  auto stream_of = [](std::uint32_t ap, int attempt) {
    return (static_cast<std::uint64_t>(ap) << 32) |
           static_cast<std::uint64_t>(attempt);
  };
  auto draw = [&](std::uint32_t ap, int attempt) {
    Rng r = root.fork(stream_of(ap, attempt));
    return r.uniform(0.75, 1.25);  // the jitter scale draw
  };
  std::vector<double> serial;
  for (std::uint32_t ap = 0; ap < kAps; ++ap)
    for (int attempt = 2; attempt < 2 + kAttempts; ++attempt)
      serial.push_back(draw(ap, attempt));
  for (int workers : {1, 2, 4, 8}) {
    TaskPool pool(workers);
    const auto parallel = pool.parallel_map<double>(
        kAps * kAttempts, [&](std::size_t i) {
          const auto ap = static_cast<std::uint32_t>(i / kAttempts);
          const int attempt = 2 + static_cast<int>(i % kAttempts);
          return draw(ap, attempt);
        });
    ASSERT_EQ(serial, parallel) << workers << " workers";
  }
}

TEST(ShardRng, BackoffJitterStreamsDoNotCollide) {
  // (ap, attempt) pairs map to distinct streams: neighboring APs at the
  // same attempt, and the same AP at successive attempts, never share a
  // jitter sequence (a collision would synchronize retry thundering herds).
  const Rng root(99);
  auto first_draw = [&](std::uint32_t ap, int attempt) {
    Rng r = root.fork((static_cast<std::uint64_t>(ap) << 32) |
                      static_cast<std::uint64_t>(attempt));
    return r.uniform();
  };
  std::vector<double> seen;
  for (std::uint32_t ap = 0; ap < 32; ++ap)
    for (int attempt = 2; attempt < 10; ++attempt)
      seen.push_back(first_draw(ap, attempt));
  std::sort(seen.begin(), seen.end());
  EXPECT_TRUE(std::adjacent_find(seen.begin(), seen.end()) == seen.end());
  // And the same (root, stream) always replays the same value.
  EXPECT_EQ(first_draw(5, 3), first_draw(5, 3));
}

}  // namespace
}  // namespace w11::exec
