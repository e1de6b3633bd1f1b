// Delta-epoch ingestion (DESIGN.md §16): the O(churn) fleet planning path.
//
// The load-bearing contract is *byte equivalence*: replaying the same
// census trajectory as full ScanEpochs or as DeltaEpochs must produce an
// identical plan stream — same digest, same assignment of record, at any
// worker count. The structural tests drive a delta-fed controller and a
// full-fed twin through the same trajectory and compare everything
// observable; the golden test does the same through the whole scenario
// harness with member churn on.
//
// Suites are named FleetDelta* so the CI TSAN job picks them up (the
// pool-sharded planning path is the threaded surface).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "exec/task_pool.hpp"
#include "fleet/controller.hpp"
#include "fleet/delta.hpp"
#include "scenario/fleet_harness.hpp"

using namespace w11;

namespace {

constexpr Dbm kFloor = -85.0;

// A minimal scan: id, explicit neighbor reports, and a distinct spectrum
// snapshot so content hashes differ across APs.
ApScan ap(std::uint32_t id,
          std::vector<std::pair<std::uint32_t, Dbm>> nbrs = {},
          double util = 0.1) {
  ApScan s;
  s.id = ApId(id);
  s.band = Band::G5;
  s.current = channels::candidate_set(Band::G5, ChannelWidth::MHz40, false)
                  .front();
  s.max_width = ChannelWidth::MHz40;
  s.dfs_capable = true;
  s.load_by_width[ChannelWidth::MHz20] = 0.2;
  s.external_util[36] = util + static_cast<double>(id) * 1e-3;
  s.quality[36] = 0.9;
  s.utilization_current = util;
  for (const auto& [nid, rssi] : nbrs)
    s.neighbors.push_back(NeighborReport{ApId(nid), rssi});
  return s;
}

fleet::FleetController::Config controller_config(exec::TaskPool* pool) {
  fleet::FleetController::Config cfg;
  cfg.planner.neighbor_rssi_floor = kFloor;
  cfg.seed = 7;
  cfg.pool = pool;
  return cfg;
}

// Drive one controller with full epochs and a twin with (full, then
// deltas) through the same census trajectory, then compare everything the
// pipeline delivers. Scan-level taken_at is deliberately left alone: a
// real producer restamps only the scans it re-took, and restamping the
// whole fleet would turn every delta into an all-updated census.
// Returns the delta-fed controller's stats.
fleet::FleetController::Stats expect_twin_equivalence(
    std::vector<std::vector<ApScan>> censuses, exec::TaskPool* pool,
    Time step = time::minutes(15)) {
  fleet::FleetController full(controller_config(pool));
  fleet::FleetController delta(controller_config(pool));
  Time prev{};
  for (std::size_t p = 0; p < censuses.size(); ++p) {
    const Time t = time::nanos(static_cast<std::int64_t>(p + 1) * step.ns());
    EXPECT_TRUE(full.offer_epoch(fleet::ScanEpoch{t, censuses[p]}));
    if (p == 0) {
      EXPECT_TRUE(delta.offer_epoch(fleet::ScanEpoch{t, censuses[p]}));
    } else {
      EXPECT_TRUE(delta.offer_delta(
          fleet::diff_epochs(censuses[p - 1], censuses[p], prev, t)));
    }
    full.tick(t);
    delta.tick(t);
    prev = t;
  }
  EXPECT_EQ(full.plan_digest(), delta.plan_digest());
  EXPECT_EQ(full.fleet_plan(), delta.fleet_plan());
  EXPECT_EQ(full.campus_count(), delta.campus_count());
  EXPECT_EQ(full.fleet_aps(), delta.fleet_aps());
  for (const ApScan& s : censuses.back()) {
    const auto fk = full.campus_of(s.id);
    const auto dk = delta.campus_of(s.id);
    EXPECT_TRUE(fk.has_value());
    EXPECT_EQ(fk, dk);
  }
  EXPECT_EQ(delta.stats().deltas_adopted, censuses.size() - 1);
  EXPECT_EQ(delta.stats().deltas_rejected, 0u);
  return delta.stats();
}

}  // namespace

// ---------------------------------------------------------------------------
// The differ

TEST(FleetDeltaTest, DiffEpochsClassifiesAddUpdateRemove) {
  std::vector<ApScan> base = {ap(0), ap(1), ap(2)};
  std::vector<ApScan> next = {ap(0), ap(1, {}, 0.4), ap(3)};
  const fleet::DeltaEpoch d =
      fleet::diff_epochs(base, next, time::minutes(1), time::minutes(2));
  ASSERT_EQ(d.added.size(), 1u);
  EXPECT_EQ(d.added[0].id, ApId(3));
  ASSERT_EQ(d.updated.size(), 1u);
  EXPECT_EQ(d.updated[0].id, ApId(1));
  ASSERT_EQ(d.removed.size(), 1u);
  EXPECT_EQ(d.removed[0], ApId(2));
  EXPECT_EQ(d.base_taken_at, time::minutes(1));
  EXPECT_EQ(d.taken_at, time::minutes(2));
  EXPECT_TRUE(fleet::diff_epochs(base, base, Time{}, Time{}).empty());
}

// ---------------------------------------------------------------------------
// Structural delta application, each against a full-fed twin

TEST(FleetDeltaTest, SpectrumUpdateKeepsPartitionAndMatchesFullReplay) {
  exec::TaskPool pool(1);
  std::vector<ApScan> s0 = {ap(0, {{1, -60.0}}), ap(1, {{0, -60.0}}),
                            ap(10, {{11, -62.0}}), ap(11, {{10, -62.0}})};
  std::vector<ApScan> s1 = s0;
  s1[1].external_util[36] = 0.33;  // content change, topology unchanged
  const auto stats = expect_twin_equivalence({s0, s1}, &pool);
  // A spectrum-only update leaves the neighbor graph alone, so the delta
  // path substitutes the scan in place and repartitions nothing: the only
  // counted work is the initial full adoption (2 campuses, 4 APs).
  EXPECT_EQ(stats.campuses_repartitioned, 2u);
  EXPECT_EQ(stats.aps_repartitioned, 4u);
}

TEST(FleetDeltaTest, BridgeAddMergesCampusesLikeFullReplay) {
  exec::TaskPool pool(1);
  std::vector<ApScan> s0 = {ap(0, {{1, -60.0}}), ap(1, {{0, -60.0}}),
                            ap(10, {{11, -62.0}}), ap(11, {{10, -62.0}})};
  std::vector<ApScan> s1 = s0;
  // New AP 20 bridges both campuses one-sidedly: neither resident scan
  // changes, so the dirty closure must come from the added scan alone.
  s1.push_back(ap(20, {{1, -58.0}, {10, -59.0}}));
  expect_twin_equivalence({s0, s1}, &pool);

  fleet::FleetController ctl(controller_config(&pool));
  ctl.offer_epoch(fleet::ScanEpoch{time::minutes(15), s0});
  ctl.tick(time::minutes(15));
  EXPECT_EQ(ctl.campus_count(), 2u);
  ctl.offer_delta(fleet::diff_epochs(s0, s1, time::minutes(15),
                                     time::minutes(30)));
  ctl.tick(time::minutes(30));
  EXPECT_EQ(ctl.campus_count(), 1u);
  EXPECT_EQ(ctl.campus_of(ApId(0)), ctl.campus_of(ApId(11)));
  EXPECT_EQ(ctl.campus_of(ApId(20)), ctl.campus_of(ApId(0)));
}

TEST(FleetDeltaTest, RemovalSplitsCampusLikeFullReplay) {
  exec::TaskPool pool(1);
  // A chain 0-1-2; removing the middle AP splits the campus in two, and
  // the survivors keep their now-dangling reports of AP 1.
  std::vector<ApScan> s0 = {ap(0, {{1, -60.0}}),
                            ap(1, {{0, -60.0}, {2, -61.0}}),
                            ap(2, {{1, -61.0}})};
  std::vector<ApScan> s1 = {s0[0], s0[2]};
  expect_twin_equivalence({s0, s1}, &pool);

  fleet::FleetController ctl(controller_config(&pool));
  ctl.offer_epoch(fleet::ScanEpoch{time::minutes(15), s0});
  ctl.tick(time::minutes(15));
  EXPECT_EQ(ctl.campus_count(), 1u);
  ctl.offer_delta(fleet::diff_epochs(s0, s1, time::minutes(15),
                                     time::minutes(30)));
  ctl.tick(time::minutes(30));
  EXPECT_EQ(ctl.campus_count(), 2u);
  EXPECT_NE(ctl.campus_of(ApId(0)), ctl.campus_of(ApId(2)));
  EXPECT_EQ(ctl.campus_of(ApId(1)), std::nullopt);
  EXPECT_EQ(ctl.fleet_plan().count(ApId(1)), 0u);
}

TEST(FleetDeltaTest, GhostReportActivationMergesOnAdd) {
  exec::TaskPool pool(1);
  // AP 0 has always reported the (absent) id 99 at contender grade. When
  // AP 99 finally appears — attached to the *other* campus — the
  // pre-existing report becomes a live edge and all three must merge. The
  // added scan itself says nothing about campus {0,1}, so only the ghost
  // reverse index can find it.
  std::vector<ApScan> s0 = {ap(0, {{1, -60.0}, {99, -55.0}}),
                            ap(1, {{0, -60.0}}), ap(10, {{11, -62.0}}),
                            ap(11, {{10, -62.0}})};
  std::vector<ApScan> s1 = s0;
  s1.push_back(ap(99, {{10, -58.0}}));
  expect_twin_equivalence({s0, s1}, &pool);

  fleet::FleetController ctl(controller_config(&pool));
  ctl.offer_epoch(fleet::ScanEpoch{time::minutes(15), s0});
  ctl.tick(time::minutes(15));
  EXPECT_EQ(ctl.campus_count(), 2u);
  ctl.offer_delta(fleet::diff_epochs(s0, s1, time::minutes(15),
                                     time::minutes(30)));
  ctl.tick(time::minutes(30));
  EXPECT_EQ(ctl.campus_count(), 1u);
  EXPECT_EQ(ctl.campus_of(ApId(0)), ctl.campus_of(ApId(99)));
  EXPECT_EQ(ctl.campus_of(ApId(11)), ctl.campus_of(ApId(99)));
}

TEST(FleetDeltaTest, MemberChurnTrajectoryMatchesFullReplay) {
  // The harness's own churn generator (spectrum + member churn, including
  // campus-merging bridge adds) over several polls.
  exec::TaskPool pool(2);
  scenario::FleetPopulationConfig pop;
  pop.campuses = 8;
  pop.aps_min = 4;
  pop.aps_max = 10;
  pop.seed = 11;
  std::vector<ApScan> scans = scenario::make_fleet_scans(pop, Time{});
  std::uint32_t next_id = scans.back().id.value() + 1;
  std::vector<std::vector<ApScan>> censuses = {scans};
  Time prev = time::minutes(15);
  for (int p = 1; p < 4; ++p) {
    const Time t = time::nanos((p + 1) * time::minutes(15).ns());
    (void)scenario::evolve_population(scans, pop, 0.3, 0.1,
                                      pop.seed ^ static_cast<std::uint64_t>(p),
                                      next_id, prev, t);
    censuses.push_back(scans);
    prev = t;
  }
  expect_twin_equivalence(std::move(censuses), &pool);
}

TEST(FleetDeltaTest, AssignmentOfRecordFollowsApsAcrossRepartition) {
  // A shadow assignment of record kept from outside the controller: seeded
  // from scan currents, overwritten by every delivered plan, pruned of
  // removed APs. It must equal fleet_plan() after every tick of a delta
  // sequence that merges, splits, removes, adds and updates spectrum, and
  // fleet_plan() must cover exactly the resident census.
  exec::TaskPool pool(2);
  fleet::FleetController::Config cfg = controller_config(&pool);
  cfg.cadence.fast = time::minutes(1);  // every campus fires every tick
  fleet::FleetController ctl(cfg);
  ChannelPlan shadow;
  ctl.set_plan_sink([&shadow](const fleet::CampusPlanOutput& out) {
    for (const auto& [id, ch] : out.plan) shadow[id] = ch;
  });

  std::vector<std::vector<ApScan>> censuses;
  // Campuses {0,1}, {10,11} and the chain 20-21-22.
  std::vector<ApScan> s = {ap(0, {{1, -60.0}}),
                           ap(1, {{0, -60.0}}),
                           ap(10, {{11, -62.0}}),
                           ap(11, {{10, -62.0}}),
                           ap(20, {{21, -61.0}}),
                           ap(21, {{20, -61.0}, {22, -63.0}}),
                           ap(22, {{21, -63.0}})};
  censuses.push_back(s);
  // AP 30 bridges {0,1} and {10,11} (merge); AP 21's spectrum changes.
  s.push_back(ap(30, {{1, -58.0}, {10, -59.0}}));
  s[5].external_util[36] = 0.35;
  censuses.push_back(s);
  // Remove the chain's middle (split), add a loner, touch AP 0's spectrum.
  s.erase(s.begin() + 5);
  s.push_back(ap(40));
  s[0].external_util[36] = 0.27;
  censuses.push_back(s);
  // Remove the bridge (split the merged campus again), add a neighbor of
  // the loner (merge), update AP 11's spectrum.
  s.erase(std::find_if(s.begin(), s.end(),
                       [](const ApScan& a) { return a.id == ApId(30); }));
  s.push_back(ap(41, {{40, -57.0}}));
  s[3].external_util[36] = 0.44;
  censuses.push_back(s);
  // Spectrum-only updates across several campuses.
  for (ApScan& a : s) a.external_util[36] += 0.05;
  censuses.push_back(s);

  const auto expect_record_matches = [&](std::size_t poll) {
    const ChannelPlan record = ctl.fleet_plan();
    EXPECT_EQ(record, shadow) << "poll " << poll;
    std::vector<ApId> census;
    ctl.for_each_campus([&](std::uint32_t, const std::vector<ApScan>& scans) {
      for (const ApScan& a : scans) census.push_back(a.id);
    });
    std::sort(census.begin(), census.end());
    std::vector<ApId> keys;
    for (const auto& [id, ch] : record) keys.push_back(id);
    EXPECT_EQ(keys, census) << "poll " << poll;
  };

  Time prev{};
  for (std::size_t p = 0; p < censuses.size(); ++p) {
    const Time t = time::minutes(static_cast<std::int64_t>(p + 1) * 15);
    // Seed new APs from their scan currents; removed APs drop out.
    ChannelPlan seeded;
    for (const ApScan& a : censuses[p]) {
      const auto it = shadow.find(a.id);
      seeded[a.id] = it != shadow.end() ? it->second : a.current;
    }
    shadow = std::move(seeded);
    if (p == 0) {
      ASSERT_TRUE(ctl.offer_epoch(fleet::ScanEpoch{t, censuses[p]}));
    } else {
      ASSERT_TRUE(ctl.offer_delta(
          fleet::diff_epochs(censuses[p - 1], censuses[p], prev, t)));
    }
    ctl.tick(t);
    prev = t;
    expect_record_matches(p);
  }
  EXPECT_EQ(ctl.stats().deltas_adopted, censuses.size() - 1);
  EXPECT_EQ(ctl.stats().deltas_rejected, 0u);
  EXPECT_GT(ctl.stats().plans_improved, 0u);
}

// ---------------------------------------------------------------------------
// Chain discipline and normalization

TEST(FleetDeltaTest, BaseMismatchRejectsDeltaAndKeepsCensus) {
  exec::TaskPool pool(1);
  fleet::FleetController ctl(controller_config(&pool));
  std::vector<ApScan> s0 = {ap(0), ap(1)};
  ctl.offer_epoch(fleet::ScanEpoch{time::minutes(15), s0});
  ctl.tick(time::minutes(15));
  const std::uint64_t digest = ctl.plan_digest();

  fleet::DeltaEpoch stale;
  stale.base_taken_at = time::minutes(10);  // not the adopted epoch
  stale.taken_at = time::minutes(30);
  stale.removed.push_back(ApId(0));
  ctl.offer_delta(std::move(stale));
  // Re-tick at the same instant: no cadence tier can come due again, so
  // any new plan output could only stem from the (rejected) delta.
  ctl.tick(time::minutes(15));
  EXPECT_EQ(ctl.stats().deltas_rejected, 1u);
  EXPECT_EQ(ctl.stats().deltas_adopted, 0u);
  EXPECT_EQ(ctl.fleet_aps(), 2u);           // census untouched
  EXPECT_EQ(ctl.plan_digest(), digest);     // nothing replanned off it
}

TEST(FleetDeltaTest, ProducerMisclassificationIsNormalized) {
  exec::TaskPool pool(1);
  fleet::FleetController ctl(controller_config(&pool));
  std::vector<ApScan> s0 = {ap(0)};
  ctl.offer_epoch(fleet::ScanEpoch{time::minutes(15), s0});
  ctl.tick(time::minutes(15));

  fleet::DeltaEpoch d;
  d.base_taken_at = time::minutes(15);
  d.taken_at = time::minutes(30);
  d.updated.push_back(ap(7));     // unknown id: really an add
  d.added.push_back(ap(0, {}, 0.4));  // present id: really an update
  d.removed.push_back(ApId(42));  // unknown id: a no-op
  ctl.offer_delta(std::move(d));
  ctl.tick(time::minutes(30));
  EXPECT_EQ(ctl.stats().deltas_adopted, 1u);
  EXPECT_EQ(ctl.stats().deltas_normalized, 3u);
  EXPECT_EQ(ctl.fleet_aps(), 2u);
  EXPECT_TRUE(ctl.campus_of(ApId(7)).has_value());
  const std::vector<ApScan>* slice =
      ctl.campus_scans(*ctl.campus_of(ApId(0)));
  ASSERT_NE(slice, nullptr);
  EXPECT_DOUBLE_EQ(slice->front().utilization_current, 0.4);
}

TEST(FleetDeltaTest, IngestOverflowSurfacesAsEpochsDropped) {
  exec::TaskPool pool(1);
  fleet::FleetController::Config cfg = controller_config(&pool);
  cfg.ingest_capacity = 2;
  fleet::FleetController ctl(cfg);
  std::vector<ApScan> s0 = {ap(0)};
  for (int k = 1; k <= 3; ++k) {
    const bool ok = ctl.offer_epoch(fleet::ScanEpoch{time::minutes(k), s0});
    EXPECT_EQ(ok, k <= 2);
  }
  fleet::DeltaEpoch d;
  d.base_taken_at = time::minutes(2);
  d.taken_at = time::minutes(3);
  EXPECT_FALSE(ctl.offer_delta(std::move(d)));  // queue still full
  EXPECT_EQ(ctl.stats().epochs_dropped, 0u);    // synced at tick, not before
  ctl.tick(time::minutes(3));
  EXPECT_EQ(ctl.stats().epochs_dropped, 2u);
  EXPECT_EQ(ctl.stats().epochs_adopted, 1u);
  EXPECT_EQ(ctl.stats().epochs_superseded, 1u);
}

// ---------------------------------------------------------------------------
// ScanStatsCache across delta epochs

TEST(FleetDeltaCacheTest, UnchangedCampusesHitAcrossDeltaEpochs) {
  exec::TaskPool pool(1);
  fleet::FleetController::Config cfg = controller_config(&pool);
  cfg.cadence.fast = time::minutes(1);  // every campus fires every tick
  fleet::FleetController ctl(cfg);
  std::vector<ApScan> s0 = {ap(0, {{1, -60.0}}), ap(1, {{0, -60.0}}),
                            ap(10, {{11, -62.0}}), ap(11, {{10, -62.0}})};
  ctl.offer_epoch(fleet::ScanEpoch{time::minutes(1), s0});
  ctl.tick(time::minutes(1));
  EXPECT_EQ(ctl.stats().cache_hits, 0u);
  EXPECT_EQ(ctl.stats().cache_misses, 4u);  // every row computed once

  // An empty delta: the whole fleet refires on cadence and every AP's
  // aggregate row is served from its campus cache.
  fleet::DeltaEpoch none;
  none.base_taken_at = time::minutes(1);
  none.taken_at = time::minutes(2);
  ctl.offer_delta(std::move(none));
  ctl.tick(time::minutes(2));
  EXPECT_EQ(ctl.stats().deltas_adopted, 1u);
  EXPECT_EQ(ctl.stats().cache_hits, 4u);
  EXPECT_EQ(ctl.stats().cache_misses, 4u);

  // Change one AP's spectrum: exactly one fresh row, everyone else hits.
  std::vector<ApScan> s1 = s0;
  s1[2].external_util[36] = 0.42;
  ctl.offer_delta(
      fleet::diff_epochs(s0, s1, time::minutes(2), time::minutes(3)));
  ctl.tick(time::minutes(3));
  EXPECT_EQ(ctl.stats().cache_hits, 4u + 3u);
  EXPECT_EQ(ctl.stats().cache_misses, 4u + 1u);
}

TEST(FleetDeltaCacheTest, RemovedCampusReleasesItsCacheEntries) {
  exec::TaskPool pool(1);
  fleet::FleetController::Config cfg = controller_config(&pool);
  cfg.cadence.fast = time::minutes(1);
  fleet::FleetController ctl(cfg);
  std::vector<ApScan> s0 = {ap(0, {{1, -60.0}}), ap(1, {{0, -60.0}}),
                            ap(10, {{11, -62.0}}), ap(11, {{10, -62.0}})};
  ctl.offer_epoch(fleet::ScanEpoch{time::minutes(1), s0});
  ctl.tick(time::minutes(1));
  const std::uint64_t misses_before = ctl.stats().cache_misses;
  EXPECT_EQ(misses_before, 4u);

  // Remove campus {10, 11} entirely: its CampusState — and the stats cache
  // rows inside it — are destroyed, which the rollup makes visible.
  std::vector<ApScan> s1 = {s0[0], s0[1]};
  ctl.offer_delta(
      fleet::diff_epochs(s0, s1, time::minutes(1), time::minutes(2)));
  ctl.tick(time::minutes(2));
  EXPECT_EQ(ctl.campus_count(), 1u);
  EXPECT_EQ(ctl.campus_scans(10), nullptr);
  // The rollup now sees only the surviving campus's cache: its 2 original
  // misses plus 2 fresh hits — the removed campus's counters are gone.
  EXPECT_EQ(ctl.stats().cache_misses, 2u);
  EXPECT_EQ(ctl.stats().cache_hits, 2u);
}

// ---------------------------------------------------------------------------
// Golden equivalence through the whole scenario harness

TEST(FleetDeltaGoldenTest, DeltaReplayMatchesFullReplayAtEveryWorkerCount) {
  scenario::FleetScenarioConfig base;
  base.population.campuses = 12;
  base.population.aps_min = 4;
  base.population.aps_max = 10;
  base.population.seed = 42;
  base.controller.seed = 7;
  base.polls = 4;
  base.churn_fraction = 0.3;
  base.member_churn = 0.08;

  std::vector<scenario::FleetScenarioResult> full;
  std::vector<scenario::FleetScenarioResult> delta;
  for (const int workers : {1, 2, 4, 8}) {
    exec::TaskPool pool(workers);
    scenario::FleetScenarioConfig cfg = base;
    cfg.controller.pool = &pool;
    cfg.use_deltas = false;
    full.push_back(scenario::run_fleet_scenario(cfg));
    cfg.use_deltas = true;
    delta.push_back(scenario::run_fleet_scenario(cfg));
  }
  for (std::size_t i = 0; i < full.size(); ++i) {
    // Byte-identical plan streams: full vs delta replay, at every worker
    // count, including the member-churned trajectory.
    EXPECT_EQ(full[i].digest, full[0].digest);
    EXPECT_EQ(delta[i].digest, full[0].digest);
    EXPECT_EQ(delta[i].final_plan, full[0].final_plan);
    EXPECT_EQ(delta[i].fleet_aps, full[i].fleet_aps);
    EXPECT_EQ(delta[i].campuses, full[i].campuses);
    EXPECT_EQ(delta[i].telemetry_rows, full[i].telemetry_rows);
    EXPECT_EQ(delta[i].stats.deltas_adopted,
              static_cast<std::uint64_t>(base.polls - 1));
    EXPECT_EQ(delta[i].stats.deltas_rejected, 0u);
    // The O(churn) claim, structurally: the delta path partitioned far
    // fewer scans than the full path's poll-by-poll re-partition.
    EXPECT_LT(delta[i].stats.aps_repartitioned,
              full[i].stats.aps_repartitioned);
  }
}
