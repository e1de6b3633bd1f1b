// Unit tests for the LittleTable time-series store and collector.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "flowsim/network.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/fleet_ingest.hpp"
#include "telemetry/littletable.hpp"

namespace w11 {
namespace {

using telemetry::FleetIngest;
using telemetry::LittleTable;

LittleTable two_col() { return LittleTable("t", {"a", "b"}); }

TEST(LittleTable, SchemaEnforced) {
  EXPECT_THROW(LittleTable("bad", {}), std::logic_error);
  auto t = two_col();
  EXPECT_THROW(t.insert(0, Time{0}, {1.0}), std::logic_error);
  EXPECT_THROW(t.insert(0, Time{0}, {1.0, 2.0, 3.0}), std::logic_error);
  EXPECT_NO_THROW(t.insert(0, Time{0}, {1.0, 2.0}));
}

TEST(LittleTable, UnknownColumnThrows) {
  auto t = two_col();
  t.insert(0, Time{0}, {1.0, 2.0});
  EXPECT_THROW((void)t.aggregate_scalar("zzz", LittleTable::Agg::kSum, Time{0}, Time{1}),
               std::logic_error);
}

TEST(LittleTable, RangeQueryInclusive) {
  auto t = two_col();
  for (int i = 0; i < 10; ++i)
    t.insert(0, time::seconds(i), {static_cast<double>(i), 0.0});
  const auto rows = t.query(time::seconds(3), time::seconds(6));
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows.front().values[0], 3.0);
  EXPECT_EQ(rows.back().values[0], 6.0);
}

TEST(LittleTable, EntityFilter) {
  auto t = two_col();
  t.insert(1, time::seconds(1), {10.0, 0.0});
  t.insert(2, time::seconds(1), {20.0, 0.0});
  t.insert(1, time::seconds(2), {30.0, 0.0});
  const auto rows = t.query(Time{0}, time::seconds(10), 1);
  ASSERT_EQ(rows.size(), 2u);
  for (const auto& r : rows) EXPECT_EQ(r.entity, 1u);
}

TEST(LittleTable, OutOfOrderInsertsAreSorted) {
  auto t = two_col();
  t.insert(0, time::seconds(5), {5.0, 0.0});
  t.insert(0, time::seconds(1), {1.0, 0.0});
  t.insert(0, time::seconds(3), {3.0, 0.0});
  const auto rows = t.query(Time{0}, time::seconds(10));
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].values[0], 1.0);
  EXPECT_EQ(rows[1].values[0], 3.0);
  EXPECT_EQ(rows[2].values[0], 5.0);
}

TEST(LittleTable, Aggregations) {
  auto t = two_col();
  for (int i = 1; i <= 4; ++i)
    t.insert(0, time::seconds(i), {static_cast<double>(i), 0.0});
  const Time from = Time{0}, to = time::seconds(10);
  EXPECT_DOUBLE_EQ(t.aggregate_scalar("a", LittleTable::Agg::kSum, from, to), 10.0);
  EXPECT_DOUBLE_EQ(t.aggregate_scalar("a", LittleTable::Agg::kMean, from, to), 2.5);
  EXPECT_DOUBLE_EQ(t.aggregate_scalar("a", LittleTable::Agg::kMin, from, to), 1.0);
  EXPECT_DOUBLE_EQ(t.aggregate_scalar("a", LittleTable::Agg::kMax, from, to), 4.0);
  EXPECT_DOUBLE_EQ(t.aggregate_scalar("a", LittleTable::Agg::kCount, from, to), 4.0);
}

TEST(LittleTable, BucketedAggregation) {
  auto t = two_col();
  // Two samples per 10-second bucket.
  for (int i = 0; i < 6; ++i)
    t.insert(0, time::seconds(i * 5), {1.0, 0.0});
  const auto buckets = t.aggregate("a", LittleTable::Agg::kSum, Time{0},
                                   time::seconds(30), time::seconds(10));
  ASSERT_EQ(buckets.size(), 3u);
  for (const auto& [start, v] : buckets) EXPECT_DOUBLE_EQ(v, 2.0);
  EXPECT_EQ(buckets[1].first, time::seconds(10));
}

TEST(LittleTable, EmptyBucketsAreSkipped) {
  auto t = two_col();
  t.insert(0, time::seconds(0), {1.0, 0.0});
  t.insert(0, time::seconds(25), {1.0, 0.0});
  const auto buckets = t.aggregate("a", LittleTable::Agg::kCount, Time{0},
                                   time::seconds(30), time::seconds(10));
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0].first, Time{0});
  EXPECT_EQ(buckets[1].first, time::seconds(20));
}

TEST(LittleTable, BatchAppendMatchesPerRowInserts) {
  auto a = two_col();
  auto b = two_col();

  std::vector<LittleTable::Row> batch;
  for (int i = 0; i < 50; ++i) {
    const Time at = time::seconds(i / 2);  // duplicates, still monotone
    const std::vector<double> vals = {static_cast<double>(i), i * 0.5};
    a.insert(static_cast<std::uint32_t>(i % 4), at, vals);
    batch.push_back(
        LittleTable::Row{static_cast<std::uint32_t>(i % 4), at, vals});
  }
  b.append(std::move(batch));

  ASSERT_EQ(a.row_count(), b.row_count());
  const auto ra = a.query(Time{0}, time::seconds(100));
  const auto rb = b.query(Time{0}, time::seconds(100));
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].entity, rb[i].entity);
    EXPECT_EQ(ra[i].at, rb[i].at);
    EXPECT_EQ(ra[i].values, rb[i].values);
  }
}

TEST(LittleTable, BatchAppendGrowsCapacityGeometrically) {
  // Per-append cost must not grow with table size: across k batches the
  // row store may reallocate only O(log rows) times, not once per batch.
  auto t = two_col();
  constexpr int kBatches = 1000;
  constexpr int kBatchRows = 64;
  std::vector<LittleTable::Row> batch;
  int capacity_changes = 0;
  std::size_t capacity = t.row_capacity();
  for (int k = 0; k < kBatches; ++k) {
    for (int i = 0; i < kBatchRows; ++i)
      batch.push_back(LittleTable::Row{static_cast<std::uint32_t>(i),
                                       time::seconds(k), {1.0, 2.0}});
    t.append_reusing(batch);
    if (t.row_capacity() != capacity) {
      ++capacity_changes;
      capacity = t.row_capacity();
    }
  }
  ASSERT_EQ(t.row_count(), std::size_t{kBatches * kBatchRows});
  EXPECT_LE(capacity_changes,
            2.0 * std::log2(static_cast<double>(kBatches * kBatchRows)));
}

TEST(LittleTable, BatchAppendDetectsDisorderAcrossSeamAndWithin) {
  // Out-of-order rows arriving via append must still sort lazily, exactly
  // like insert().
  auto t = two_col();
  t.insert(0, time::seconds(5), {5.0, 0.0});
  t.append({LittleTable::Row{0, time::seconds(3), {3.0, 0.0}},
            LittleTable::Row{0, time::seconds(9), {9.0, 0.0}},
            LittleTable::Row{0, time::seconds(1), {1.0, 0.0}}});
  const auto rows = t.query(Time{0}, time::seconds(100));
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].values[0], 1.0);
  EXPECT_EQ(rows[1].values[0], 3.0);
  EXPECT_EQ(rows[2].values[0], 5.0);
  EXPECT_EQ(rows[3].values[0], 9.0);
}

TEST(LittleTable, BatchAppendValidatesSchema) {
  auto t = two_col();
  EXPECT_THROW(t.append({LittleTable::Row{0, Time{0}, {1.0}}}),
               std::logic_error);
  EXPECT_EQ(t.row_count(), 0u);  // a bad batch is rejected atomically
  EXPECT_NO_THROW(t.append({}));
}

TEST(LittleTable, RetentionTrim) {
  auto t = two_col();
  for (int i = 0; i < 10; ++i)
    t.insert(0, time::seconds(i), {static_cast<double>(i), 0.0});
  t.trim_before(time::seconds(7));
  EXPECT_EQ(t.row_count(), 3u);
  const auto rows = t.query(Time{0}, time::seconds(100));
  EXPECT_EQ(rows.front().values[0], 7.0);
}

TEST(LittleTable, AggregateOverEmptyRangeIsZero) {
  auto t = two_col();
  EXPECT_DOUBLE_EQ(
      t.aggregate_scalar("a", LittleTable::Agg::kSum, Time{0}, time::seconds(5)),
      0.0);
}

TEST(LittleTable, QuantileAggregation) {
  auto t = two_col();
  // 1..100 in one bucket: interpolated p50 / p95 match Samples::quantile
  // (pos = q·(n−1) with linear interpolation).
  for (int i = 1; i <= 100; ++i)
    t.insert(0, time::seconds(i), {static_cast<double>(i), 0.0});
  Samples ref;
  for (int i = 1; i <= 100; ++i) ref.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(t.aggregate_scalar("a", LittleTable::Agg::kP50, Time{0},
                                      time::seconds(200)),
                   ref.quantile(0.50));
  EXPECT_DOUBLE_EQ(t.aggregate_scalar("a", LittleTable::Agg::kP95, Time{0},
                                      time::seconds(200)),
                   ref.quantile(0.95));
}

TEST(LittleTable, QuantileBucketsAndSingletons) {
  auto t = two_col();
  // Bucket 1 holds {10, 20, 30}; bucket 2 holds {100} (singleton).
  t.insert(0, time::seconds(1), {10.0, 0.0});
  t.insert(0, time::seconds(2), {20.0, 0.0});
  t.insert(0, time::seconds(3), {30.0, 0.0});
  t.insert(0, time::seconds(11), {100.0, 0.0});
  const auto p50 = t.aggregate("a", LittleTable::Agg::kP50, Time{0},
                               time::seconds(20), time::seconds(10));
  ASSERT_EQ(p50.size(), 2u);
  EXPECT_DOUBLE_EQ(p50[0].second, 20.0);
  EXPECT_DOUBLE_EQ(p50[1].second, 100.0);
  const auto p95 = t.aggregate("a", LittleTable::Agg::kP95, Time{0},
                               time::seconds(20), time::seconds(10));
  // p95 of {10,20,30}: pos = 0.95*2 = 1.9 -> 20*(0.1) + 30*(0.9) = 29.
  EXPECT_DOUBLE_EQ(p95[0].second, 29.0);
}

TEST(LittleTable, QuantileWithOutOfOrderInserts) {
  // The quantile sorts the bucket's values, so insertion order (and the
  // lazy time-sort it triggers) must not matter.
  auto in_order = two_col();
  auto shuffled = two_col();
  const double vals[] = {5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0};
  for (int i = 0; i < 9; ++i)
    in_order.insert(0, time::seconds(i), {static_cast<double>(i + 1), 0.0});
  for (int i = 0; i < 9; ++i) {
    // Timestamps deliberately not monotone.
    shuffled.insert(0, time::seconds(8 - i), {vals[i], 0.0});
  }
  EXPECT_DOUBLE_EQ(shuffled.aggregate_scalar("a", LittleTable::Agg::kP50,
                                             Time{0}, time::seconds(100)),
                   in_order.aggregate_scalar("a", LittleTable::Agg::kP50,
                                             Time{0}, time::seconds(100)));
  EXPECT_DOUBLE_EQ(shuffled.aggregate_scalar("a", LittleTable::Agg::kP95,
                                             Time{0}, time::seconds(100)),
                   in_order.aggregate_scalar("a", LittleTable::Agg::kP95,
                                             Time{0}, time::seconds(100)));
}

TEST(LittleTable, QuantileAfterRetentionTrim) {
  auto t = two_col();
  for (int i = 0; i < 10; ++i)
    t.insert(0, time::seconds(i), {static_cast<double>(i * 10), 0.0});
  t.trim_before(time::seconds(5));  // survivors: 50, 60, 70, 80, 90
  EXPECT_DOUBLE_EQ(t.aggregate_scalar("a", LittleTable::Agg::kP50, Time{0},
                                      time::seconds(100)),
                   70.0);
  // p95 of {50..90}: pos = 0.95*4 = 3.8 -> 80*0.2 + 90*0.8 = 88.
  EXPECT_DOUBLE_EQ(t.aggregate_scalar("a", LittleTable::Agg::kP95, Time{0},
                                      time::seconds(100)),
                   88.0);
}

TEST(LittleTable, RetentionWindowTrimsByAgeAtIngest) {
  auto t = two_col();
  t.set_retention({/*max_age=*/time::seconds(10)});
  for (int i = 0; i <= 60; ++i)
    t.insert(0, time::seconds(i), {static_cast<double>(i), 0.0});
  // Compaction is amortized (slack = max_age/8), so allow the overhang, but
  // the window must be roughly max_age, not the full 61 rows.
  EXPECT_LE(t.row_count(), 13u);  // 11 in-window + slack
  EXPECT_GE(t.row_count(), 11u);
  EXPECT_GT(t.rows_trimmed(), 0u);
  // The newest rows always survive.
  const auto rows = t.query(Time{0}, time::seconds(100));
  EXPECT_EQ(rows.back().values[0], 60.0);
  EXPECT_GE(rows.front().values[0], 60.0 - 13.0);
}

TEST(LittleTable, SetRetentionEnforcesImmediately) {
  auto t = two_col();
  for (int i = 0; i < 100; ++i)
    t.insert(0, time::seconds(i), {static_cast<double>(i), 0.0});
  ASSERT_EQ(t.row_count(), 100u);
  t.set_retention({time::seconds(20)});
  // Only rows at or after 99-20=79s survive, with no slack.
  EXPECT_EQ(t.row_count(), 21u);
  EXPECT_EQ(t.rows_trimmed(), 79u);
  const auto rows = t.query(Time{0}, time::seconds(1000));
  EXPECT_EQ(rows.front().values[0], 79.0);
  EXPECT_EQ(rows.back().values[0], 99.0);
}

TEST(LittleTable, QuantilesOverTrimmedWindowMatchAFreshTable) {
  // Trim correctness for the interpolated aggregates: whatever rows survive
  // retention, kP50/kP95 over them must equal the same query on a table
  // built from only those rows — trimming must not disturb the sort index
  // or leave phantom values behind.
  auto t = two_col();
  t.set_retention({time::seconds(30)});
  Rng rng(7);
  for (int i = 0; i < 500; ++i)
    t.insert(0, time::seconds(i), {rng.uniform(0.0, 100.0), 0.0});
  const auto survivors = t.query(Time{0}, time::seconds(10000));
  ASSERT_FALSE(survivors.empty());
  ASSERT_LT(survivors.size(), 500u);
  auto fresh = two_col();
  for (const auto& r : survivors) fresh.insert(r.entity, r.at, r.values);
  for (const auto agg : {LittleTable::Agg::kP50, LittleTable::Agg::kP95,
                         LittleTable::Agg::kMean, LittleTable::Agg::kSum}) {
    EXPECT_DOUBLE_EQ(
        t.aggregate_scalar("a", agg, Time{0}, time::seconds(10000)),
        fresh.aggregate_scalar("a", agg, Time{0}, time::seconds(10000)));
  }
}

TEST(Collector, RecordsPerApAndNetworkRows) {
  flowsim::Network::Config cfg;
  cfg.prop.shadowing_sigma = 0.0;
  flowsim::Network net(cfg);
  const ApId a =
      net.add_ap({0, 0}, ChannelWidth::MHz80, {Band::G5, 42, ChannelWidth::MHz80});
  net.add_client(a, {3, 0},
                 {WifiStandard::k80211ac, true, ChannelWidth::MHz80, 2, true, true},
                 5.0);
  telemetry::NetworkCollector col;
  const auto ev = net.evaluate();
  col.record(net, ev, time::minutes(1));
  col.record(net, ev, time::minutes(2));
  EXPECT_EQ(col.ap_stats().row_count(), 2u);
  EXPECT_EQ(col.net_stats().row_count(), 2u);
  const double thr = col.ap_stats().aggregate_scalar(
      "throughput_mbps", telemetry::LittleTable::Agg::kMean, Time{0},
      time::hours(1));
  EXPECT_NEAR(thr, 5.0, 0.5);
}

TEST(Collector, DropCountersSurfaceAsColumns) {
  flowsim::Network::Config cfg;
  cfg.prop.shadowing_sigma = 0.0;
  flowsim::Network net(cfg);
  const ApId a =
      net.add_ap({0, 0}, ChannelWidth::MHz80, {Band::G5, 42, ChannelWidth::MHz80});
  net.add_client(a, {3, 0},
                 {WifiStandard::k80211ac, true, ChannelWidth::MHz80, 2, true, true},
                 5.0);
  telemetry::NetworkCollector col;
  const auto ev = net.evaluate();
  col.record(net, ev, time::minutes(1));
  col.drop_next(2);
  col.record(net, ev, time::minutes(2));  // dropped
  col.record(net, ev, time::minutes(3));  // dropped
  col.record(net, ev, time::minutes(4));
  EXPECT_EQ(col.records_written(), 2u);
  EXPECT_EQ(col.records_dropped(), 2u);
  // The dashboard's own query surface sees the same counters.
  const auto rows = col.net_stats().query(Time{0}, time::hours(1));
  ASSERT_EQ(rows.size(), 2u);
  const auto col_of = [&](const char* name) {
    const auto& cols = col.net_stats().columns();
    return static_cast<std::size_t>(
        std::find(cols.begin(), cols.end(), name) - cols.begin());
  };
  EXPECT_EQ(rows[0].values[col_of("records_dropped")], 0.0);
  EXPECT_EQ(rows[0].values[col_of("records_written")], 1.0);
  EXPECT_EQ(rows[1].values[col_of("records_dropped")], 2.0);
  EXPECT_EQ(rows[1].values[col_of("records_written")], 2.0);
}

TEST(LittleTable, RetentionCompactsAcrossOutOfOrderBatchSeams) {
  // Fleet ingest interleaves campus batches: each batch is internally
  // sorted but starts before the previous batch's end. Retention must
  // still notice over-age rows (the probe reads the tracked oldest
  // timestamp, not the sort index) and trim exactly by age.
  LittleTable t("seams", {"v"});
  t.set_retention({.max_age = time::minutes(10)});
  for (int poll = 0; poll < 40; ++poll) {
    const Time at = time::minutes(poll);
    std::vector<LittleTable::Row> campus_a, campus_b;
    for (std::uint32_t e = 0; e < 4; ++e)
      campus_a.push_back({e, at, {1.0}});
    for (std::uint32_t e = 100; e < 104; ++e)
      campus_b.push_back({e, at, {2.0}});
    t.append(std::move(campus_a));
    t.append(std::move(campus_b));  // same timestamps: a seam every poll
  }
  EXPECT_GT(t.rows_trimmed(), 0u) << "age probe never saw the old rows";
  const auto rows = t.query(Time{0}, time::hours(2));
  for (const auto& r : rows)
    EXPECT_GE(r.at,
              time::minutes(39) - time::minutes(10) -
                  time::minutes(10) /
                      static_cast<std::int64_t>(LittleTable::kCompactSlack));
}

TEST(FleetIngestTest, BatchedScanIngestLandsOneRowPerAp) {
  FleetIngest ingest;
  std::vector<ApScan> scans(3);
  for (std::uint32_t i = 0; i < 3; ++i) {
    scans[i].id = ApId(i + 10);
    scans[i].utilization_current = 0.1 * static_cast<double>(i);
  }
  scans[0].neighbors.push_back(NeighborReport{ApId(11), -60.0});
  ingest.ingest_scans(10, scans, time::minutes(1));
  ingest.ingest_scans(10, scans, time::minutes(2));
  EXPECT_EQ(ingest.rows_ingested(), 6u);
  const auto rows = ingest.ap_stats().query(Time{0}, time::hours(1));
  ASSERT_EQ(rows.size(), 6u);
  EXPECT_EQ(rows[0].entity, 10u);
  EXPECT_EQ(rows[0].values[0], 10.0);  // campus column
  EXPECT_EQ(rows[0].values[3], 1.0);   // neighbor count
}

TEST(FleetIngestTest, PlanRowsCarryDeliveryMetadata) {
  FleetIngest ingest;
  ingest.ingest_plan(7, time::minutes(1), 12, -3.5, true, 0.01);
  ingest.ingest_plan(9, time::minutes(2), 8, -1.0, false, 0.02);
  EXPECT_EQ(ingest.plans_ingested(), 2u);
  const auto rows = ingest.plan_stats().query(Time{0}, time::hours(1));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].entity, 7u);
  EXPECT_EQ(rows[0].values[0], 12.0);
  EXPECT_EQ(rows[0].values[2], 1.0);
  EXPECT_EQ(rows[1].values[2], 0.0);
}

}  // namespace
}  // namespace w11
