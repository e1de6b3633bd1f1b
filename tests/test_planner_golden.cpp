// Golden determinism: the PlanContext/ScanIndex planner must reproduce the
// oracle's reference (pre-index) evaluator bit-for-bit — identical plans
// from identical seeds across campus sizes and hop limits — and its
// incremental ΔNetP bookkeeping must always agree with a from-scratch
// rescore.

#include <gtest/gtest.h>

#include <vector>

#include "core/turboca/plan_context.hpp"
#include "core/turboca/plan_map.hpp"
#include "core/turboca/turboca.hpp"
#include "exec/task_pool.hpp"
#include "flowsim/scan_index.hpp"
#include "oracle/reference_planner.hpp"
#include "plan_epoch.hpp"
#include "workload/topology.hpp"

namespace w11 {
namespace {

using oracle::ReferenceEvaluator;
using turboca::dense_plan;
using turboca::Params;
using turboca::plan_map;
using turboca::PlanContext;
using turboca::TurboCA;

std::vector<ApScan> campus_scans(int n_aps, std::uint64_t seed) {
  workload::CampusConfig cc;
  cc.n_aps = n_aps;
  cc.buildings = std::max(2, n_aps / 12);
  cc.seed = seed;
  auto net = workload::make_campus(cc);
  // Mixed starting channels so the planner has real work (and real
  // contention structure) instead of an all-on-36 greenfield.
  Rng rng(seed ^ 0x5eedULL);
  workload::randomize_channels(*net, ChannelWidth::MHz40, rng);
  return net->scan();
}

ChannelPlan current_plan(const std::vector<ApScan>& scans) {
  ChannelPlan plan;
  for (const ApScan& s : scans) plan[s.id] = s.current;
  return plan;
}

// Round count tuned per size so the reference path (full rescore per round,
// linear find_scan per neighbor) stays test-suite friendly.
Params golden_params(int n_aps) {
  Params p;
  p.runs_min = 1;
  p.runs_max = n_aps <= 40 ? 3 : (n_aps <= 120 ? 2 : 1);
  return p;
}

void expect_golden(int n_aps, std::uint64_t seed) {
  const std::vector<ApScan> scans = campus_scans(n_aps, seed);
  const ChannelPlan plan = current_plan(scans);
  const Params p = golden_params(n_aps);
  const PlanEpoch epoch(scans, plan, p);

  for (int hop = 0; hop <= 2; ++hop) {
    TurboCA indexed(p, Rng(seed + 100 * hop));
    ReferenceEvaluator reference(p, Rng(seed + 100 * hop));

    const TurboCA::RunResult fast =
        indexed.run(epoch.index, dense_plan(epoch.index, plan), {hop});
    const ReferenceEvaluator::RunResult slow = reference.run(scans, plan, hop);

    EXPECT_TRUE(plan_map(epoch.index, fast.plan) == slow.plan)
        << "plan diverged: n=" << n_aps << " hop=" << hop;
    EXPECT_EQ(fast.improved, slow.improved) << "n=" << n_aps << " hop=" << hop;
    EXPECT_NEAR(fast.netp_log, slow.netp_log, 1e-9)
        << "n=" << n_aps << " hop=" << hop;
  }

  // A daily firing's hop levels {2, 1, 0} share one plan context; the
  // reference chains them level by level through plan maps.
  TurboCA firing(p, Rng(seed + 1000));
  ReferenceEvaluator chained(p, Rng(seed + 1000));
  ChannelPlan want = plan;
  bool improved = false;
  double netp = 0.0;
  for (int hop : {2, 1, 0}) {
    ReferenceEvaluator::RunResult r = chained.run(scans, want, hop);
    want = std::move(r.plan);
    improved = improved || r.improved;
    netp = r.netp_log;
  }
  const TurboCA::RunResult got =
      firing.run(epoch.index, dense_plan(epoch.index, plan), {2, 1, 0});
  EXPECT_TRUE(plan_map(epoch.index, got.plan) == want)
      << "firing plan diverged: n=" << n_aps;
  EXPECT_EQ(got.improved, improved) << "n=" << n_aps;
  EXPECT_NEAR(got.netp_log, netp, 1e-9) << "n=" << n_aps;
}

TEST(PlannerGolden, Campus40MatchesReference) { expect_golden(40, 11); }
TEST(PlannerGolden, Campus120MatchesReference) { expect_golden(120, 23); }
TEST(PlannerGolden, Campus300MatchesReference) { expect_golden(300, 37); }

// Hop-0 firings (the 15-minute i = 0 tier) run many rounds, and most of
// them switch nothing once the plan settles. Eight rounds each, on a
// random start and then on the start a network sits at after applying the
// first firing's plan: every round must draw the reference's RNG sequence
// and reach its plan and NetP bit for bit.
Params hop0_params() {
  Params p;
  p.runs_min = 8;
  p.runs_max = 8;
  return p;
}

// The scans a network reports once it runs `plan`: every AP's current
// channel is its planned one.
std::vector<ApScan> scans_on(std::vector<ApScan> scans,
                             const ChannelPlan& plan) {
  for (ApScan& s : scans) s.current = plan.at(s.id);
  return scans;
}

void expect_hop0_golden(int n_aps, std::uint64_t seed) {
  const Params p = hop0_params();
  std::vector<ApScan> scans = campus_scans(n_aps, seed);
  for (const char* start : {"random", "settled"}) {
    const ChannelPlan plan = current_plan(scans);
    const PlanEpoch epoch(scans, plan, p);
    TurboCA indexed(p, Rng(seed + 7));
    ReferenceEvaluator reference(p, Rng(seed + 7));
    const TurboCA::RunResult fast =
        indexed.run(epoch.index, dense_plan(epoch.index, plan), {0});
    const ReferenceEvaluator::RunResult slow = reference.run(scans, plan, 0);
    EXPECT_TRUE(plan_map(epoch.index, fast.plan) == slow.plan)
        << "plan diverged: n=" << n_aps << " start=" << start;
    EXPECT_EQ(fast.improved, slow.improved)
        << "n=" << n_aps << " start=" << start;
    EXPECT_EQ(fast.netp_log, slow.netp_log)
        << "n=" << n_aps << " start=" << start;
    scans = scans_on(std::move(scans), slow.plan);
  }
}

TEST(PlannerGolden, Hop0EightRoundsCampus40MatchesReference) {
  expect_hop0_golden(40, 19);
}
TEST(PlannerGolden, Hop0EightRoundsCampus120MatchesReference) {
  expect_hop0_golden(120, 29);
}

// On a settled start the hop-0 rounds after the first quiet one skip their
// ACC work; the golden tests above show they still match the reference.
TEST(PlannerGolden, Hop0SettledStartSkipsAccRounds) {
  const Params p = hop0_params();
  std::vector<ApScan> scans = campus_scans(40, 19);
  ReferenceEvaluator reference(p, Rng(26));
  scans = scans_on(std::move(scans),
                   reference.run(scans, current_plan(scans), 0).plan);
  const ChannelPlan plan = current_plan(scans);
  const PlanEpoch epoch(scans, plan, p);
  TurboCA indexed(p, Rng(26));
  const TurboCA::RunResult r =
      indexed.run(epoch.index, dense_plan(epoch.index, plan), {0});
  EXPECT_GT(r.settled_rounds, 0);
  EXPECT_LE(r.settled_rounds, 7);
}

// A medium-tier firing {1, 0} on one context: the hop-0 level starts from
// whatever hop 1 left, and must match the reference chained level by level.
TEST(PlannerGolden, Hop1ThenHop0FiringMatchesReference) {
  const Params p = hop0_params();
  const std::vector<ApScan> scans = campus_scans(40, 31);
  const ChannelPlan plan = current_plan(scans);
  const PlanEpoch epoch(scans, plan, p);

  ReferenceEvaluator chained(p, Rng(53));
  ChannelPlan want = plan;
  bool improved = false;
  double netp = 0.0;
  for (int hop : {1, 0}) {
    ReferenceEvaluator::RunResult r = chained.run(scans, want, hop);
    want = std::move(r.plan);
    improved = improved || r.improved;
    netp = r.netp_log;
  }
  TurboCA firing(p, Rng(53));
  const TurboCA::RunResult got =
      firing.run(epoch.index, dense_plan(epoch.index, plan), {1, 0});
  EXPECT_TRUE(plan_map(epoch.index, got.plan) == want);
  EXPECT_EQ(got.improved, improved);
  EXPECT_EQ(got.netp_log, netp);
}

// A single NBO sweep (not just the improving-rounds envelope) must draw the
// same RNG sequence and emit the same proposal as the reference Algorithm 1.
TEST(PlannerGolden, SingleSweepMatchesReference) {
  const std::vector<ApScan> scans = campus_scans(60, 5);
  const ChannelPlan plan = current_plan(scans);
  const PlanEpoch epoch(scans, plan);
  for (int hop = 0; hop <= 2; ++hop) {
    TurboCA indexed({}, Rng(42 + hop));
    ReferenceEvaluator reference({}, Rng(42 + hop));
    EXPECT_TRUE(plan_map(epoch.index, indexed.nbo(epoch.index,
                                                  dense_plan(epoch.index, plan),
                                                  hop)) ==
                reference.nbo(scans, plan, hop))
        << "hop=" << hop;
  }
}

// Plans built on a pool-filled ScanIndex must be byte-identical at every
// worker count — and all of them must equal the reference evaluator's plan.
// This is the guarantee of DESIGN.md §10: worker count is a throughput
// knob, never a semantics knob.
TEST(PlannerGolden, WorkerCountNeverChangesThePlan) {
  const int n_aps = 150;
  const std::uint64_t seed = 77;
  const std::vector<ApScan> scans = campus_scans(n_aps, seed);
  const ChannelPlan plan = current_plan(scans);
  const Params p = golden_params(n_aps);

  for (int hop = 0; hop <= 2; ++hop) {
    ReferenceEvaluator reference(p, Rng(seed + 100 * hop));
    const ReferenceEvaluator::RunResult want =
        reference.run(scans, plan, hop);

    for (int workers : {1, 2, 4, 8}) {
      exec::TaskPool pool(workers);
      TurboCA indexed(p, Rng(seed + 100 * hop));
      indexed.set_pool(&pool);
      const flowsim::ScanIndex index(scans, p.neighbor_rssi_floor, &pool);
      const TurboCA::RunResult got =
          indexed.run(index, dense_plan(index, plan), {hop});

      EXPECT_TRUE(plan_map(index, got.plan) == want.plan)
          << "plan diverged: workers=" << workers << " hop=" << hop;
      EXPECT_EQ(got.improved, want.improved)
          << "workers=" << workers << " hop=" << hop;
      EXPECT_NEAR(got.netp_log, want.netp_log, 1e-9)
          << "workers=" << workers << " hop=" << hop;
    }
  }
}

// Property: after ANY random single-AP move, the incrementally maintained
// NetP (dirty mover + dependents only) equals a full from-scratch recompute.
TEST(PlannerGolden, DeltaNetPMatchesFullRecompute) {
  const Params p;
  const std::vector<ApScan> scans = campus_scans(60, 3);
  const flowsim::ScanIndex index(scans, p.neighbor_rssi_floor);
  PlanContext ctx(index, p, dense_plan(index, {}));
  Rng rng(99);

  ASSERT_NEAR(ctx.net_p_log(),
              oracle::net_p_log(p, index.scans(), plan_map(index, ctx.plan())),
              1e-9);

  for (int move = 0; move < 120; ++move) {
    const std::size_t i = rng.index(index.size());
    const auto& cands = index.candidates(i);
    ctx.set(i, cands[rng.index(cands.size())]);
    const double incremental = ctx.net_p_log();
    const double full =
        oracle::net_p_log(p, index.scans(), plan_map(index, ctx.plan()));
    ASSERT_NEAR(incremental, full, 1e-9) << "move " << move << " ap " << i;
  }
}

// Rolling back a round restores both the plan and the cached NetP terms.
TEST(PlannerGolden, RollbackRestoresPlanAndNetP) {
  const Params p;
  const std::vector<ApScan> scans = campus_scans(40, 13);
  const flowsim::ScanIndex index(scans, p.neighbor_rssi_floor);
  PlanContext ctx(index, p, dense_plan(index, {}));
  const ChannelPlan before_plan = plan_map(index, ctx.plan());
  const double before_netp = ctx.net_p_log();

  Rng rng(7);
  ctx.begin_round();
  for (int move = 0; move < 25; ++move) {
    const std::size_t i = rng.index(index.size());
    const auto& cands = index.candidates(i);
    ctx.set(i, cands[rng.index(cands.size())]);
  }
  ctx.rollback_round();

  EXPECT_TRUE(plan_map(index, ctx.plan()) == before_plan);
  EXPECT_EQ(ctx.net_p_log(), before_netp);
}

// The oracle's hop-limited BFS, which drives the reference NBO's groups.
TEST(HopNeighborhood, BfsDepthIsRespected) {
  // Chain 0-1-2-3.
  std::vector<ApScan> scans;
  for (std::uint32_t i = 0; i < 4; ++i) {
    ApScan s;
    s.id = ApId{i};
    if (i > 0) s.neighbors.push_back({ApId{i - 1}, -60.0});
    if (i < 3) s.neighbors.push_back({ApId{i + 1}, -60.0});
    scans.push_back(std::move(s));
  }
  EXPECT_EQ(oracle::hop_neighborhood(scans, ApId{0}, 0).size(), 1u);
  EXPECT_EQ(oracle::hop_neighborhood(scans, ApId{0}, 1).size(), 2u);
  EXPECT_EQ(oracle::hop_neighborhood(scans, ApId{0}, 2).size(), 3u);
  EXPECT_EQ(oracle::hop_neighborhood(scans, ApId{0}, 3).size(), 4u);
  EXPECT_EQ(oracle::hop_neighborhood(scans, ApId{1}, 1).size(), 3u);
}

}  // namespace
}  // namespace w11
