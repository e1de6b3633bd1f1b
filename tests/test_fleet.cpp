// Fleet-scale sharded planning pipeline (DESIGN.md §15): campus
// partitioning, the bounded ingest queue, cadence scheduling, and the
// controller's worker-count byte-equivalence contract. Suites are named
// Fleet* so the CI TSAN job picks them up (the pool-sharded planning path
// is the threaded surface).

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include "exec/task_pool.hpp"
#include "fleet/controller.hpp"
#include "fleet/partition.hpp"
#include "fleet/queues.hpp"
#include "fleet/scheduler.hpp"
#include "scenario/fleet_harness.hpp"
#include "telemetry/fleet_ingest.hpp"

using namespace w11;

namespace {

constexpr Dbm kFloor = -85.0;

scenario::FleetPopulationConfig small_population() {
  scenario::FleetPopulationConfig pop;
  pop.campuses = 10;
  pop.aps_min = 5;
  pop.aps_max = 12;
  pop.seed = 42;
  return pop;
}

// Campus membership as comparable value: key -> sorted member ids.
std::map<std::uint32_t, std::vector<std::uint32_t>> campus_sets(
    const fleet::FleetPartition& part) {
  std::map<std::uint32_t, std::vector<std::uint32_t>> out;
  for (const fleet::Campus& c : part.campuses) {
    std::vector<std::uint32_t>& ids = out[c.key];
    for (const ApScan& s : c.scans) ids.push_back(s.id.value());
    std::sort(ids.begin(), ids.end());
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// FleetPartition

TEST(FleetPartitionTest, ChainCampusesPartitionExactly) {
  scenario::FleetPopulationConfig pop = small_population();
  pop.shape = scenario::FleetPopulationConfig::Shape::kChain;
  pop.cross_campus_subfloor = 0.5;  // audible but sub-floor: must not merge
  const std::vector<ApScan> scans = scenario::make_fleet_scans(pop, Time{});

  const fleet::FleetPartition part = fleet::partition_fleet(scans, kFloor);
  EXPECT_EQ(part.campuses.size(), static_cast<std::size_t>(pop.campuses));
  EXPECT_EQ(part.total_aps, scans.size());
  // Keys ascend and are the min member id of each campus.
  for (std::size_t c = 0; c + 1 < part.campuses.size(); ++c)
    EXPECT_LT(part.campuses[c].key, part.campuses[c + 1].key);
  for (const fleet::Campus& campus : part.campuses) {
    std::uint32_t min_id = campus.scans.front().id.value();
    for (const ApScan& s : campus.scans)
      min_id = std::min(min_id, s.id.value());
    EXPECT_EQ(campus.key, min_id);
  }
}

TEST(FleetPartitionTest, ShuffledEpochGivesSameCampuses) {
  const std::vector<ApScan> scans =
      scenario::make_fleet_scans(small_population(), Time{});
  std::vector<ApScan> shuffled = scans;
  std::mt19937 g(7);
  std::shuffle(shuffled.begin(), shuffled.end(), g);

  const auto a = campus_sets(fleet::partition_fleet(scans, kFloor));
  const auto b = campus_sets(fleet::partition_fleet(shuffled, kFloor));
  EXPECT_EQ(a, b);  // same keys, same member sets, independent of scan order
}

TEST(FleetPartitionTest, FloorRuleMatchesScanIndex) {
  // Two APs joined by an edge exactly at the floor: a contender
  // (ScanIndex's rule is !(rssi < floor)); just below: not.
  auto make = [](Dbm rssi) {
    std::vector<ApScan> scans(2);
    scans[0].id = ApId(0);
    scans[1].id = ApId(1);
    scans[0].neighbors.push_back(NeighborReport{ApId(1), rssi});
    return scans;
  };
  EXPECT_EQ(fleet::partition_fleet(make(kFloor), kFloor).campuses.size(), 1u);
  EXPECT_EQ(fleet::partition_fleet(make(kFloor - 0.1), kFloor).campuses.size(),
            2u);
  // Reports of APs absent from the epoch never create edges.
  std::vector<ApScan> ghost(1);
  ghost[0].id = ApId(5);
  ghost[0].neighbors.push_back(NeighborReport{ApId(99), -40.0});
  EXPECT_EQ(fleet::partition_fleet(ghost, kFloor).campuses.size(), 1u);
}

// ---------------------------------------------------------------------------
// FleetQueue

TEST(FleetQueueTest, OverflowRejectsAndCounts) {
  fleet::BoundedFifo<int> q(4);
  for (int i = 0; i < 6; ++i) q.try_push(i);
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.capacity(), 4u);
  const fleet::QueueStats s = q.stats();
  EXPECT_EQ(s.pushed, 4u);
  EXPECT_EQ(s.rejected, 2u);
  EXPECT_EQ(s.high_water, 4u);
  for (int i = 0; i < 4; ++i) {
    const auto v = q.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);  // FIFO
  }
  EXPECT_FALSE(q.try_pop().has_value());
  EXPECT_EQ(q.stats().popped, 4u);
}

TEST(FleetQueueTest, SpscBackpressureRecoversAfterDrain) {
  fleet::BoundedFifo<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
  EXPECT_EQ(q.stats().rejected, 1u);
  EXPECT_EQ(*q.try_pop(), 1);
  EXPECT_TRUE(q.try_push(4));  // freed slot is reusable
  EXPECT_EQ(*q.try_pop(), 2);
  EXPECT_EQ(*q.try_pop(), 4);
  EXPECT_FALSE(q.try_pop().has_value());
  EXPECT_EQ(q.stats().high_water, 2u);
}

TEST(FleetQueueTest, UnevenBurstsWrapInOrder) {
  // One thread interleaves pushes and pops in uneven bursts, so the ring
  // wraps many times: every accepted element arrives exactly once, in
  // order, and the counts add up.
  fleet::BoundedFifo<int> q(5);
  constexpr int kN = 200;
  std::vector<int> got;
  int next = 0;
  std::uint64_t refused = 0;
  for (int burst = 0; next < kN || q.size() > 0; ++burst) {
    for (int k = 0; k < burst % 7 && next < kN; ++k) {
      if (q.try_push(next))
        ++next;
      else
        ++refused;
    }
    for (int k = 0; k < burst % 4; ++k) {
      const auto v = q.try_pop();
      if (!v.has_value()) break;
      got.push_back(*v);
    }
  }
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i) ASSERT_EQ(got[static_cast<std::size_t>(i)], i);
  const fleet::QueueStats s = q.stats();
  EXPECT_EQ(s.pushed, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(s.popped, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(s.rejected, refused);
  EXPECT_GT(refused, 0u);  // the bursts outran the ring
  EXPECT_EQ(s.high_water, 5u);
  EXPECT_EQ(q.size(), 0u);
}

// ---------------------------------------------------------------------------
// FleetScheduler

TEST(FleetSchedulerTest, FirstSightingPlansImmediatelyAtSlowTier) {
  fleet::CadenceScheduler sched({}, 1);
  sched.apply_delta({10, 20, 30}, {}, time::minutes(1));
  const std::vector<fleet::PlanJob> jobs = sched.due(time::minutes(1));
  ASSERT_EQ(jobs.size(), 3u);
  for (const fleet::PlanJob& j : jobs) EXPECT_EQ(j.tier, fleet::Tier::kSlow);
  EXPECT_EQ(jobs[0].campus_key, 10u);  // ascending key order
  EXPECT_EQ(jobs[2].campus_key, 30u);
}

TEST(FleetSchedulerTest, DeferredJobStaysDue) {
  fleet::CadenceScheduler sched({}, 1);
  sched.apply_delta({7}, {}, Time{});
  ASSERT_EQ(sched.due(Time{}).size(), 1u);
  // Not fired (backpressure deferred it): still due, same tier.
  const auto again = sched.due(Time{});
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0].tier, fleet::Tier::kSlow);
  sched.fired(again[0], Time{});
  EXPECT_TRUE(sched.due(Time{}).empty());
}

TEST(FleetSchedulerTest, FastTierRefiresWithinOnePeriodAndStaggers) {
  fleet::CadenceScheduler::Cadence cad;
  fleet::CadenceScheduler sched(cad, 99);
  std::vector<std::uint32_t> keys;
  for (std::uint32_t k = 0; k < 8; ++k) keys.push_back(k * 100);
  sched.apply_delta(keys, {}, Time{});
  for (const fleet::PlanJob& j : sched.due(Time{})) sched.fired(j, Time{});
  EXPECT_TRUE(sched.due(Time{}).empty());

  // Every campus fires again within one fast period (a staggered medium or
  // slow anchor may expire first and absorb the fast pass), but not all on
  // the same minute — the phase grid staggers them.
  std::set<std::int64_t> first_fire_minute;
  std::set<std::uint32_t> fired;
  for (std::int64_t m = 1; m <= 15 && fired.size() < keys.size(); ++m) {
    const Time now = time::minutes(m);
    for (const fleet::PlanJob& j : sched.due(now)) {
      if (fired.insert(j.campus_key).second) first_fire_minute.insert(m);
      EXPECT_NE(j.tier, fleet::Tier::kReplan);
      sched.fired(j, now);
    }
  }
  EXPECT_EQ(fired.size(), keys.size());
  EXPECT_GT(first_fire_minute.size(), 1u) << "no stagger: all fired together";
}

TEST(FleetSchedulerTest, ReplanLeadsTheQueueAndClearsOnFiring) {
  fleet::CadenceScheduler sched({}, 1);
  sched.apply_delta({5, 6, 7}, {}, Time{});
  for (const fleet::PlanJob& j : sched.due(Time{})) sched.fired(j, Time{});
  sched.request_replan(6);
  const auto jobs = sched.due(Time{});
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].campus_key, 6u);
  EXPECT_EQ(jobs[0].tier, fleet::Tier::kReplan);
  // Sticky until fired.
  EXPECT_EQ(sched.due(Time{}).size(), 1u);
  sched.fired(jobs[0], Time{});
  EXPECT_TRUE(sched.due(Time{}).empty());
  EXPECT_EQ(sched.stats().replans_requested, 1u);
}

TEST(FleetSchedulerTest, AbsentCampusIsDropped) {
  fleet::CadenceScheduler sched({}, 1);
  sched.apply_delta({1, 2}, {}, Time{});
  EXPECT_EQ(sched.campus_count(), 2u);
  sched.apply_delta({}, {1}, time::minutes(1));
  EXPECT_EQ(sched.campus_count(), 1u);
  sched.request_replan(1);  // unknown now: ignored
  for (const fleet::PlanJob& j : sched.due(time::minutes(1)))
    EXPECT_EQ(j.campus_key, 2u);
  EXPECT_EQ(sched.stats().campuses_dropped, 1u);
}

// ---------------------------------------------------------------------------
// FleetController / end-to-end pipeline

namespace {

scenario::FleetScenarioConfig small_scenario(exec::TaskPool* pool) {
  scenario::FleetScenarioConfig cfg;
  cfg.population = small_population();
  cfg.controller.seed = 7;
  cfg.controller.pool = pool;
  cfg.polls = 3;
  return cfg;
}

}  // namespace

TEST(FleetControllerTest, EndToEndPipelineDeliversEveryCampus) {
  exec::TaskPool pool(2);
  const scenario::FleetScenarioResult r =
      scenario::run_fleet_scenario(small_scenario(&pool));
  EXPECT_EQ(r.campuses, 10u);
  EXPECT_GT(r.fleet_aps, 0u);
  // First poll plans every campus; later polls at least deliver nothing
  // extra before the fast cadence elapses — but every plan that was
  // delivered went through ctrl fanout and telemetry.
  EXPECT_GE(r.stats.plans_delivered, r.campuses);
  EXPECT_EQ(r.plans_committed, r.stats.plans_delivered);
  EXPECT_EQ(r.ctrl_campuses, r.campuses);
  EXPECT_EQ(r.plan_seconds.size(), r.stats.plans_delivered);
  // Batched ingest: the first full census lands one row per AP; later
  // polls fan out only the campuses the churn touched (O(churn), not
  // O(fleet)) — so strictly between one full poll and all three.
  EXPECT_GE(r.telemetry_rows, r.fleet_aps);
  EXPECT_LT(r.telemetry_rows, r.fleet_aps * static_cast<std::uint64_t>(3));
  // The assignment of record covers the whole fleet.
  EXPECT_EQ(r.final_plan.size(), r.fleet_aps);
  EXPECT_NE(r.digest, 0u);
  EXPECT_EQ(r.stats.jobs_deferred, 0u);
  // Spectrum churn at 25%: the per-campus stats caches hit on the rest.
  EXPECT_GT(r.stats.cache_hits, 0u);
}

TEST(FleetControllerTest, SupersededEpochsAreCountedNotPlanned) {
  fleet::FleetController::Config cfg;
  cfg.seed = 3;
  exec::TaskPool pool(1);
  cfg.pool = &pool;
  fleet::FleetController ctl(cfg);
  scenario::FleetPopulationConfig pop = small_population();
  std::vector<ApScan> scans = scenario::make_fleet_scans(pop, Time{});
  for (int k = 1; k <= 3; ++k) {
    const Time t = time::minutes(k);
    for (ApScan& s : scans) s.taken_at = t;
    ASSERT_TRUE(ctl.offer_epoch(fleet::ScanEpoch{t, scans}));
  }
  ctl.tick(time::minutes(3));
  EXPECT_EQ(ctl.stats().epochs_adopted, 1u);
  EXPECT_EQ(ctl.stats().epochs_superseded, 2u);
  EXPECT_EQ(ctl.campus_count(), static_cast<std::size_t>(pop.campuses));
}

TEST(FleetControllerTest, IngestQueueBoundsAndDropsWhenFull) {
  fleet::FleetController::Config cfg;
  cfg.ingest_capacity = 2;
  exec::TaskPool pool(1);
  cfg.pool = &pool;
  fleet::FleetController ctl(cfg);
  std::vector<ApScan> scans(1);
  scans[0].id = ApId(0);
  EXPECT_TRUE(ctl.offer_epoch(fleet::ScanEpoch{time::minutes(1), scans}));
  EXPECT_TRUE(ctl.offer_epoch(fleet::ScanEpoch{time::minutes(2), scans}));
  EXPECT_FALSE(ctl.offer_epoch(fleet::ScanEpoch{time::minutes(3), scans}));
  EXPECT_EQ(ctl.ingest_stats().rejected, 1u);
  ctl.tick(time::minutes(3));
  EXPECT_TRUE(ctl.offer_epoch(fleet::ScanEpoch{time::minutes(4), scans}));
}

TEST(FleetControllerTest, OutputBackpressureDefersDeterministically) {
  fleet::FleetController::Config cfg;
  cfg.seed = 5;
  cfg.output_capacity = 3;  // 10 campuses due -> 3 jobs per tick
  exec::TaskPool pool(2);
  cfg.pool = &pool;
  fleet::FleetController ctl(cfg);
  std::vector<ApScan> scans =
      scenario::make_fleet_scans(small_population(), time::minutes(1));
  ASSERT_TRUE(ctl.offer_epoch(fleet::ScanEpoch{time::minutes(1), scans}));

  ctl.tick(time::minutes(1));
  EXPECT_EQ(ctl.stats().jobs_run, 3u);
  EXPECT_EQ(ctl.stats().jobs_deferred, 7u);
  EXPECT_EQ(ctl.stats().plans_delivered, 3u);
  // Deferred jobs keep their anchors: repeated ticks drain the backlog.
  ctl.tick(time::minutes(1));
  ctl.tick(time::minutes(1));
  ctl.tick(time::minutes(1));
  EXPECT_EQ(ctl.stats().jobs_run, 10u);
  EXPECT_EQ(ctl.stats().plans_delivered, 10u);
  EXPECT_EQ(ctl.fleet_plan().size(), scans.size());
}

// FleetController counts ingest drops and backpressure deferrals where they
// happen; its health() reads them once, whatever the pipeline polls do.
TEST(FleetControllerTest, PipelineMetricsCountDropsAndDeferralsOnce) {
  telemetry::FleetIngest ingest;
  fleet::FleetController::Config cfg;
  cfg.seed = 5;
  cfg.ingest_capacity = 1;
  cfg.output_capacity = 3;  // 10 campuses due -> 7 deferred on the first tick
  exec::TaskPool pool(2);
  cfg.pool = &pool;
  fleet::FleetController ctl(cfg);
  const std::vector<ApScan> scans =
      scenario::make_fleet_scans(small_population(), time::minutes(1));
  EXPECT_TRUE(ctl.offer_epoch(fleet::ScanEpoch{time::minutes(1), scans}));
  EXPECT_FALSE(ctl.offer_epoch(fleet::ScanEpoch{time::minutes(1), scans}));
  EXPECT_FALSE(ctl.offer_epoch(fleet::ScanEpoch{time::minutes(1), scans}));
  for (int poll = 0; poll < 2; ++poll) {
    ctl.tick(time::minutes(1));
    ingest.ingest_pipeline(ctl.ingest_stats(), ctl.output_stats(),
                           ctl.stats().jobs_deferred);
  }
  EXPECT_EQ(ingest.pipeline_polls(), 2u);
  ASSERT_GT(ctl.stats().jobs_deferred, 0u);
  const fleet::FleetController::Health h = ctl.health();
  EXPECT_EQ(h.epochs_dropped, 2u);
  EXPECT_EQ(h.jobs_deferred, ctl.stats().jobs_deferred);
}

// The controller-level queue counts, pinned across one scripted offer
// history: an overfilled ingest edge, a tick cut to output_capacity, and
// the deferred backlog drained over further ticks. Every health() field
// and both QueueStats snapshots are checked after each step.
TEST(FleetControllerTest, HealthAndQueueStatsFollowOfferHistory) {
  fleet::FleetController::Config cfg;
  cfg.seed = 5;
  cfg.ingest_capacity = 2;
  cfg.output_capacity = 4;  // 10 campuses due -> 4 + 4 + 2 over three ticks
  exec::TaskPool pool(2);
  cfg.pool = &pool;
  fleet::FleetController ctl(cfg);
  const std::vector<ApScan> scans =
      scenario::make_fleet_scans(small_population(), time::minutes(1));
  const auto expect_queue = [](const fleet::QueueStats& q,
                               std::uint64_t pushed, std::uint64_t popped,
                               std::uint64_t rejected,
                               std::uint64_t high_water) {
    EXPECT_EQ(q.pushed, pushed);
    EXPECT_EQ(q.popped, popped);
    EXPECT_EQ(q.rejected, rejected);
    EXPECT_EQ(q.high_water, high_water);
  };

  // Overfill the ingest edge: two fit, the third is dropped.
  EXPECT_TRUE(ctl.offer_epoch(fleet::ScanEpoch{time::minutes(1), scans}));
  EXPECT_TRUE(ctl.offer_epoch(fleet::ScanEpoch{time::minutes(2), scans}));
  EXPECT_FALSE(ctl.offer_epoch(fleet::ScanEpoch{time::minutes(3), scans}));
  expect_queue(ctl.ingest_stats(), 2, 0, 1, 2);
  expect_queue(ctl.output_stats(), 0, 0, 0, 0);
  EXPECT_EQ(ctl.stats().epochs_dropped, 0u);  // synced at tick
  fleet::FleetController::Health h = ctl.health();
  EXPECT_EQ(h.epochs_dropped, 1u);  // read live from the ingest edge
  EXPECT_DOUBLE_EQ(h.epochs_dropped_rate, 1.0 / 3.0);
  EXPECT_EQ(h.jobs_deferred, 0u);
  EXPECT_DOUBLE_EQ(h.jobs_deferred_rate, 0.0);
  EXPECT_DOUBLE_EQ(h.cache_hit_ratio, 0.0);
  EXPECT_EQ(h.ingest_high_water, 2u);
  EXPECT_EQ(h.output_high_water, 0u);
  EXPECT_EQ(h.output_rejected, 0u);
  EXPECT_EQ(h.plans_delivered, 0u);
  EXPECT_EQ(h.campuses, 0u);
  EXPECT_EQ(h.fleet_aps, 0u);

  // First tick: adopt the newer epoch, cut 10 due jobs to the budget of 4.
  ctl.tick(time::minutes(2));
  EXPECT_EQ(ctl.stats().epochs_dropped, 1u);
  EXPECT_EQ(ctl.stats().epochs_adopted, 1u);
  EXPECT_EQ(ctl.stats().epochs_superseded, 1u);
  EXPECT_EQ(ctl.stats().jobs_run, 4u);
  EXPECT_EQ(ctl.stats().jobs_deferred, 6u);
  expect_queue(ctl.ingest_stats(), 2, 2, 1, 2);
  expect_queue(ctl.output_stats(), 4, 4, 0, 4);

  // Drain the backlog: 4 more, then the last 2 (below the high water).
  ctl.tick(time::minutes(2));
  EXPECT_EQ(ctl.stats().jobs_run, 8u);
  EXPECT_EQ(ctl.stats().jobs_deferred, 8u);
  expect_queue(ctl.output_stats(), 8, 8, 0, 4);
  ctl.tick(time::minutes(2));
  EXPECT_EQ(ctl.stats().jobs_run, 10u);
  EXPECT_EQ(ctl.stats().jobs_deferred, 8u);
  expect_queue(ctl.output_stats(), 10, 10, 0, 4);

  // The drained ingest edge accepts again; the drop count does not move.
  EXPECT_TRUE(ctl.offer_epoch(fleet::ScanEpoch{time::minutes(3), scans}));
  ctl.tick(time::minutes(3));
  expect_queue(ctl.ingest_stats(), 3, 3, 1, 2);
  EXPECT_EQ(ctl.stats().epochs_dropped, 1u);
  EXPECT_EQ(ctl.stats().epochs_adopted, 2u);

  const fleet::FleetController::Stats& st = ctl.stats();
  h = ctl.health();
  EXPECT_EQ(h.epochs_dropped, 1u);
  EXPECT_DOUBLE_EQ(h.epochs_dropped_rate, 1.0 / 4.0);
  EXPECT_EQ(h.jobs_deferred, 8u);
  EXPECT_DOUBLE_EQ(h.jobs_deferred_rate,
                   8.0 / static_cast<double>(st.jobs_run + 8));
  ASSERT_GT(st.cache_hits + st.cache_misses, 0u);
  EXPECT_DOUBLE_EQ(h.cache_hit_ratio,
                   static_cast<double>(st.cache_hits) /
                       static_cast<double>(st.cache_hits + st.cache_misses));
  EXPECT_EQ(h.ingest_high_water, 2u);
  EXPECT_EQ(h.output_high_water, 4u);
  EXPECT_EQ(h.output_rejected, 0u);
  EXPECT_EQ(h.plans_delivered, st.plans_delivered);
  EXPECT_EQ(h.plans_delivered, st.jobs_run);
  expect_queue(ctl.output_stats(), st.plans_delivered, st.plans_delivered, 0,
               4);
  EXPECT_EQ(h.campuses, 10u);
  EXPECT_EQ(h.fleet_aps, scans.size());
}

TEST(FleetControllerTest, RequestReplanRunsOutOfBand) {
  fleet::FleetController::Config cfg;
  cfg.seed = 11;
  exec::TaskPool pool(2);
  cfg.pool = &pool;
  fleet::FleetController ctl(cfg);
  const std::vector<ApScan> scans =
      scenario::make_fleet_scans(small_population(), time::minutes(1));
  ASSERT_TRUE(ctl.offer_epoch(fleet::ScanEpoch{time::minutes(1), scans}));
  ctl.tick(time::minutes(1));
  const std::uint64_t first_pass = ctl.stats().jobs_run;

  const std::uint32_t key = scans.front().id.value();  // campus 0's key
  ctl.request_replan(key);
  ctl.tick(time::minutes(2));
  EXPECT_EQ(ctl.stats().replans_run, 1u);
  EXPECT_GE(ctl.stats().jobs_run, first_pass + 1);
}

// ---------------------------------------------------------------------------
// FleetGolden: worker-count byte-equivalence

TEST(FleetGoldenTest, PlanStreamIsByteIdenticalAcrossWorkerCounts) {
  std::vector<scenario::FleetScenarioResult> results;
  for (const int workers : {1, 2, 4, 8}) {
    exec::TaskPool pool(workers);
    results.push_back(scenario::run_fleet_scenario(small_scenario(&pool)));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0].digest, results[i].digest) << "workers diverge";
    EXPECT_EQ(results[0].final_plan, results[i].final_plan);
    EXPECT_EQ(results[0].netp_log_sum, results[i].netp_log_sum);
    EXPECT_EQ(results[0].stats.plans_delivered,
              results[i].stats.plans_delivered);
    EXPECT_EQ(results[0].stats.cache_hits, results[i].stats.cache_hits);
  }
}

TEST(FleetGoldenTest, RerunWithSameSeedIsIdentical) {
  exec::TaskPool pool(4);
  const auto a = scenario::run_fleet_scenario(small_scenario(&pool));
  const auto b = scenario::run_fleet_scenario(small_scenario(&pool));
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.final_plan, b.final_plan);
}

TEST(FleetGoldenTest, DifferentSeedsDiverge) {
  exec::TaskPool pool(2);
  scenario::FleetScenarioConfig cfg = small_scenario(&pool);
  const auto a = scenario::run_fleet_scenario(cfg);
  cfg.controller.seed = 8;
  const auto b = scenario::run_fleet_scenario(cfg);
  EXPECT_NE(a.digest, b.digest);
}
