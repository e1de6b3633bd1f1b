// Fleet health engine (DESIGN.md §17): SLI sliding windows, multi-window
// burn-rate SLO evaluation, and the anomaly flight recorder — up to the
// headline determinism property: a chaos-soak auto-revert produces a
// postmortem bundle that is byte-identical at 1/2/4/8 planner workers and
// correlates the rollout audit, the planner decision audit, and the trace
// stream around the trigger.

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/fnv.hpp"
#include "common/time.hpp"
#include "exec/task_pool.hpp"
#include "fault/fault_plan.hpp"
#include "obs/health/flight_recorder.hpp"
#include "obs/health/health.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/rollout_harness.hpp"

namespace w11 {
namespace {

using obs::FlightRecorder;
using obs::HealthEngine;
using obs::SlidingWindow;
using obs::SloSpec;

std::size_t count_of(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size()))
    ++n;
  return n;
}

// ------------------------------------------------------ sliding windows --

TEST(HealthSlidingWindow, AggregatesPerWindowAndRollsQuietZeros) {
  SlidingWindow sw(time::minutes(1), 4);
  sw.observe(time::seconds(10), 2.0);
  sw.observe(time::seconds(20), 6.0);
  EXPECT_EQ(sw.window(0).count, 2u);
  EXPECT_EQ(sw.window(0).sum, 8.0);
  EXPECT_EQ(sw.window(0).min, 2.0);
  EXPECT_EQ(sw.window(0).max, 6.0);
  sw.observe(time::seconds(70), 1.0);  // next window
  EXPECT_EQ(sw.window(0).count, 1u);
  EXPECT_EQ(sw.window(1).count, 2u);
  // Advancing far past the ring leaves every window a defined zero — a
  // quiet minute is "no bad samples", not "unknown".
  sw.advance(time::minutes(30));
  for (std::size_t k = 0; k < 4; ++k) EXPECT_EQ(sw.window(k).count, 0u);
  EXPECT_EQ(sw.samples(), 3u);
  EXPECT_EQ(sw.dropped_late(), 0u);
}

TEST(HealthSlidingWindow, MergeIsOrderFree) {
  SlidingWindow sw(time::minutes(1), 8);
  const double vals[] = {0.5, 3.0, 17.0, 1.0, 250.0, 9.0};
  for (int i = 0; i < 6; ++i)
    sw.observe(time::minutes(i) + time::seconds(5), vals[i]);
  SlidingWindow::Agg fwd;
  for (std::size_t k = 0; k < 8; ++k) fwd.merge(sw.window(k));
  SlidingWindow::Agg rev;
  for (std::size_t k = 8; k-- > 0;) rev.merge(sw.window(k));
  EXPECT_EQ(fwd.count, rev.count);
  EXPECT_EQ(fwd.sum, rev.sum);
  EXPECT_EQ(fwd.min, rev.min);
  EXPECT_EQ(fwd.max, rev.max);
  EXPECT_EQ(fwd.buckets, rev.buckets);
  EXPECT_EQ(fwd.count, 6u);
}

TEST(HealthSlidingWindow, LateSamplesBeyondTheRingAreDroppedAndCounted) {
  SlidingWindow sw(time::minutes(1), 4);
  sw.advance(time::minutes(10));
  sw.observe(time::minutes(1), 5.0);  // nine windows late, ring holds four
  EXPECT_EQ(sw.dropped_late(), 1u);
  EXPECT_EQ(sw.samples(), 0u);
  sw.observe(time::minutes(10), 5.0);  // current window still lands
  EXPECT_EQ(sw.samples(), 1u);
}

TEST(HealthSlidingWindow, FractionBadIsExactOnBucketBounds) {
  SlidingWindow sw(time::minutes(1), 2, {1.0, 2.0, 4.0});
  sw.observe(time::seconds(1), 1.0);
  sw.observe(time::seconds(2), 2.0);
  sw.observe(time::seconds(3), 4.0);
  const SlidingWindow::Agg m = sw.merged(2);
  // Strictly above 2.0: only the 4.0 sample.
  EXPECT_NEAR(sw.fraction_bad(m, 2.0, /*bad_above=*/true), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(sw.fraction_bad(m, 2.0, /*bad_above=*/false), 2.0 / 3.0, 1e-12);
  EXPECT_EQ(sw.fraction_bad(SlidingWindow::Agg{}, 2.0, true), 0.0);
}

TEST(HealthSlidingWindow, QuantileStaysInsideObservedRange) {
  SlidingWindow sw(time::minutes(1), 4);
  for (int i = 1; i <= 100; ++i)
    sw.observe(time::seconds(i), static_cast<double>(i));
  const SlidingWindow::Agg m = sw.merged(4);
  const double p50 = sw.quantile(m, 0.5);
  const double p95 = sw.quantile(m, 0.95);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, 100.0);
  EXPECT_GE(p95, p50);
  EXPECT_LE(p95, 100.0);
}

// ------------------------------------------------------- health engine --

HealthEngine::Config one_slo_config() {
  HealthEngine::Config hc;
  hc.series.width = time::minutes(1);
  SloSpec s;
  s.name = "reverts";
  s.sli = "reverts";
  s.threshold = 0.0;
  s.objective = 0.99;
  s.fast_windows = 5;
  s.slow_windows = 30;
  s.fast_burn = 2.0;
  s.slow_burn = 1.0;
  hc.slos.push_back(s);
  return hc;
}

TEST(HealthEngine, BreachesOnFastAndSlowBurnThenRecovers) {
  HealthEngine eng(one_slo_config());
  Time t = time::minutes(1);
  for (int i = 0; i < 10; ++i, t += time::minutes(1)) {
    eng.observe("reverts", t, 0.0);
    EXPECT_TRUE(eng.poll(t).empty());
  }
  // One bad poll: the fast window burns its 0.01 budget at >= 20x — breach.
  eng.observe("reverts", t, 1.0);
  const auto ev = eng.poll(t);
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_TRUE(ev[0].breach);
  EXPECT_EQ(ev[0].name, "reverts");
  EXPECT_GE(ev[0].burn_fast, 2.0);
  EXPECT_GE(ev[0].burn_slow, 1.0);
  t += time::minutes(1);
  // Quiet polls: breached until the bad window rolls out of the fast merge,
  // then exactly one recovery event.
  int recoveries = 0;
  for (int i = 0; i < 8; ++i, t += time::minutes(1)) {
    eng.observe("reverts", t, 0.0);
    for (const auto& e : eng.poll(t)) {
      EXPECT_FALSE(e.breach);
      ++recoveries;
    }
  }
  EXPECT_EQ(recoveries, 1);
  EXPECT_EQ(eng.breaches(), 1u);
  EXPECT_EQ(eng.recoveries(), 1u);
  EXPECT_FALSE(eng.slo_state(0).breached);
}

TEST(HealthEngine, CounterDeltasClampNegativeOnReset) {
  HealthEngine eng(one_slo_config());
  eng.observe_counter("c", time::seconds(10), 5.0);
  eng.observe_counter("c", time::seconds(20), 3.0);  // counter reset
  eng.observe_counter("c", time::seconds(30), 4.0);
  const SlidingWindow* sw = eng.find_series("c");
  ASSERT_NE(sw, nullptr);
  EXPECT_EQ(sw->samples(), 3u);
  // 5 (from zero) + 0 (clamped) + 1.
  EXPECT_EQ(sw->merged(1).sum, 6.0);
}

TEST(HealthEngine, UnboundSloPollsAreCountedNotFatal) {
  HealthEngine::Config hc = one_slo_config();
  hc.slos[0].sli = "never-observed";
  HealthEngine eng(hc);
  EXPECT_TRUE(eng.poll(time::minutes(1)).empty());
  EXPECT_TRUE(eng.poll(time::minutes(2)).empty());
  EXPECT_EQ(eng.unbound_slo_polls(), 2u);
  EXPECT_EQ(eng.polls(), 2u);
}

TEST(HealthEngine, EventLogBytesAreReproducible) {
  auto run = [] {
    HealthEngine eng(one_slo_config());
    Time t = time::minutes(1);
    for (int i = 0; i < 12; ++i, t += time::minutes(1)) {
      eng.observe("reverts", t, i == 6 ? 1.0 : 0.0);
      eng.poll(t);
    }
    return eng.events_jsonl();
  };
  const std::string a = run();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, run());
  EXPECT_NE(a.find("\"event\":\"breach\""), std::string::npos);
}

// ------------------------------------------------------ flight recorder --

FlightRecorder::Config small_ring(std::size_t capacity) {
  FlightRecorder::Config fc;
  fc.ring_capacity = capacity;
  fc.window = time::hours(1);
  fc.max_bundles = 2;
  return fc;
}

TEST(FlightRecorder, RingOverflowEvictsOldestWithExactAccounting) {
  FlightRecorder fr(small_ring(4));
  for (int i = 0; i < 10; ++i)
    fr.note(time::seconds(i), "n", static_cast<double>(i));
  EXPECT_EQ(fr.ring_size(), 4u);
  EXPECT_EQ(fr.entries_dropped(), 6u);
  const std::string& b =
      fr.trigger(obs::Trigger::kManual, time::seconds(9), "t");
  EXPECT_EQ(count_of(b, "\"record\":\"note\""), 4u);
  EXPECT_NE(b.find("\"ring_dropped\":6"), std::string::npos);
  EXPECT_NE(b.find("\"value\":6"), std::string::npos);  // oldest survivor
  EXPECT_EQ(b.find("\"value\":5"), std::string::npos);  // newest evictee
}

TEST(FlightRecorder, ZeroCapacityRingDropsEverything) {
  FlightRecorder fr(small_ring(0));
  fr.note(time::seconds(1), "n");
  fr.note(time::seconds(2), "n");
  EXPECT_EQ(fr.ring_size(), 0u);
  EXPECT_EQ(fr.entries_dropped(), 2u);
}

TEST(FlightRecorder, BundleWindowCutsEntriesBeforeLookback) {
  FlightRecorder::Config fc;
  fc.ring_capacity = 16;
  fc.window = time::minutes(1);
  FlightRecorder fr(fc);
  fr.note(time::seconds(10), "old");
  fr.note(time::seconds(100), "fresh");
  const std::string& b =
      fr.trigger(obs::Trigger::kManual, time::seconds(110), "cut");
  EXPECT_EQ(b.find("\"tag\":\"old\""), std::string::npos);
  EXPECT_NE(b.find("\"tag\":\"fresh\""), std::string::npos);
  EXPECT_NE(b.find("\"detail\":\"cut\""), std::string::npos);
}

TEST(FlightRecorder, CatalogFixesSnapshotShapeWithZeroFill) {
  obs::MetricsRegistry reg;
  reg.set("b.hit", 2.0);
  FlightRecorder fr(small_ring(8));
  // "a.absent" is never set: the catalog still emits it, at zero, so
  // bundle bytes never depend on which code paths happened to run first.
  fr.attach_metrics(&reg, {"a.absent", "b.hit"});
  fr.capture(time::seconds(5));
  const std::string& b =
      fr.trigger(obs::Trigger::kManual, time::seconds(6), "m");
  EXPECT_NE(b.find("\"a.absent\":0"), std::string::npos);
  EXPECT_NE(b.find("\"b.hit\":2"), std::string::npos);
}

TEST(FlightRecorder, MaxBundlesEvictsOldestPostmortem) {
  FlightRecorder fr(small_ring(8));  // max_bundles = 2
  fr.trigger(obs::Trigger::kManual, time::seconds(1), "first");
  fr.trigger(obs::Trigger::kManual, time::seconds(2), "second");
  fr.trigger(obs::Trigger::kManual, time::seconds(3), "third");
  EXPECT_EQ(fr.bundles().size(), 2u);
  EXPECT_EQ(fr.bundles_dropped(), 1u);
  EXPECT_EQ(fr.triggers_fired(), 3u);
  EXPECT_NE(fr.bundles()[0].find("\"detail\":\"second\""), std::string::npos);
  EXPECT_NE(fr.bundles()[1].find("\"detail\":\"third\""), std::string::npos);
}

TEST(FlightRecorder, RequiresAtLeastOneRetainedBundle) {
  // trigger() returns a reference to the bundle it just kept, so there must
  // always be room for one.
  FlightRecorder::Config fc = small_ring(8);
  fc.max_bundles = 0;
  EXPECT_THROW(FlightRecorder{fc}, std::logic_error);
}

// -------------------------------------------- chaos-soak scenario rig --

// The chaos shape of tests/test_rollout.cpp's soak, plus a fleet-wide
// control partition that outlasts the watchdog so the first rollout is
// guaranteed to revert — the anomaly the flight recorder exists for.
scenario::RolloutScenarioConfig chaos_health_config(exec::TaskPool* pool) {
  scenario::RolloutScenarioConfig cfg;
  cfg.n_aps = 10;
  cfg.net_seed = 1;
  cfg.ctrl_seed = 41 * 1000 + 1;
  cfg.horizon = time::hours(2);
  cfg.poll = time::minutes(1);
  cfg.channel.loss = 0.10;
  cfg.backoff.ack_timeout = time::millis(500);
  cfg.backoff.initial = time::millis(500);
  cfg.backoff.cap = time::seconds(10);
  cfg.rollout.canary = 2;
  cfg.rollout.validate_window = time::minutes(2);
  cfg.rollout.watchdog = time::minutes(10);
  fault::FaultPlan::RandomConfig rc;
  rc.horizon = cfg.horizon;
  rc.n_aps = cfg.n_aps;
  rc.n_links = cfg.n_aps;
  rc.n_events = 10;
  rc.max_outage = time::minutes(3);
  cfg.faults = fault::FaultPlan::random(41, rc);
  cfg.faults.radar(time::minutes(16), 1);
  for (int ap = 0; ap < cfg.n_aps; ++ap)
    cfg.faults.link_outage(time::minutes(15) + time::seconds(30), ap,
                           time::minutes(11));
  cfg.health = true;
  cfg.pool = pool;
  return cfg;
}

// FNV-1a over each string's bytes, then its length, so moving bytes across
// a string boundary changes the digest.
std::uint64_t digest_of(const std::vector<std::string>& parts) {
  std::uint64_t h = fnv::kOffsetBasis;
  for (const std::string& p : parts) {
    for (const char c : p) fnv::mix_value(h, c);
    fnv::mix_value(h, static_cast<std::uint64_t>(p.size()));
  }
  return h;
}

// The chaos run's postmortems followed by its health event log, at one
// worker. Taken when health runs recorded into process-global state, so a
// match shows the run-owned trace and metrics write the same bytes.
constexpr std::uint64_t kChaosPostmortemDigest = 0xba59d2aa0a1f99fcull;

TEST(FlightRecorderScenario, ChaosRevertPostmortemIsByteIdenticalAcrossWorkers) {
  std::vector<std::string> base_postmortems;
  std::string base_events;
  for (const int workers : {1, 2, 4, 8}) {
    exec::TaskPool pool(workers);
    const auto r =
        scenario::run_rollout_scenario(chaos_health_config(&pool));
    SCOPED_TRACE(workers);
    EXPECT_TRUE(r.converged);
    EXPECT_GT(r.rollout.reverted, 0u);
    EXPECT_GT(r.health_breaches, 0u);
    EXPECT_GT(r.health_rows, 0u);
    ASSERT_FALSE(r.postmortems.empty());
    // Every bundle is self-contained: header, the three correlated
    // streams (flight ring metrics, trace records, audit sections), end.
    for (const std::string& b : r.postmortems) {
      EXPECT_NE(b.find("\"record\":\"postmortem\""), std::string::npos);
      EXPECT_NE(b.find("\"record\":\"metrics\""), std::string::npos);
      EXPECT_NE(b.find("\"record\":\"trace\""), std::string::npos);
      EXPECT_NE(b.find("\"name\":\"rollout_audit\""), std::string::npos);
      EXPECT_NE(b.find("\"name\":\"plan_audit\""), std::string::npos);
      EXPECT_NE(b.find("\"record\":\"end\""), std::string::npos);
    }
    // The revert that triggered the dump shows up in the correlated
    // rollout audit of at least one bundle.
    std::size_t reverts_in_bundles = 0;
    for (const std::string& b : r.postmortems)
      reverts_in_bundles += count_of(b, "\"event\":\"revert\"");
    EXPECT_GT(reverts_in_bundles, 0u);
    if (workers == 1) {
      base_postmortems = r.postmortems;
      base_events = r.health_events_jsonl;
      EXPECT_FALSE(base_events.empty());
      std::vector<std::string> parts = r.postmortems;
      parts.push_back(r.health_events_jsonl);
      EXPECT_EQ(digest_of(parts), kChaosPostmortemDigest)
          << std::hex << digest_of(parts);
    } else {
      EXPECT_EQ(r.postmortems, base_postmortems);
      EXPECT_EQ(r.health_events_jsonl, base_events);
    }
  }
}

// Each health run records into its own trace and metrics, so four of them
// on four threads produce exactly what they produce one after another.
TEST(FlightRecorderScenario, ConcurrentHealthRunsMatchSequentialRuns) {
  struct Artifacts {
    std::vector<std::string> postmortems;
    std::string health_events;
    std::string audit;
  };
  const auto run = [](std::uint64_t ctrl_seed) {
    exec::TaskPool pool(2);
    scenario::RolloutScenarioConfig cfg = chaos_health_config(&pool);
    cfg.ctrl_seed = ctrl_seed;
    const auto r = scenario::run_rollout_scenario(cfg);
    return Artifacts{r.postmortems, r.health_events_jsonl, r.audit_jsonl};
  };
  constexpr std::array<std::uint64_t, 4> kSeeds = {41001, 41002, 41003,
                                                   41004};
  std::array<Artifacts, 4> sequential;
  for (std::size_t i = 0; i < kSeeds.size(); ++i)
    sequential[i] = run(kSeeds[i]);
  std::array<Artifacts, 4> concurrent;
  {
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kSeeds.size(); ++i)
      threads.emplace_back([&, i] { concurrent[i] = run(kSeeds[i]); });
    for (std::thread& t : threads) t.join();
  }
  for (std::size_t i = 0; i < kSeeds.size(); ++i) {
    SCOPED_TRACE(kSeeds[i]);
    EXPECT_FALSE(sequential[i].postmortems.empty());
    EXPECT_EQ(concurrent[i].postmortems, sequential[i].postmortems);
    EXPECT_EQ(concurrent[i].health_events, sequential[i].health_events);
    EXPECT_EQ(concurrent[i].audit, sequential[i].audit);
  }
  // Distinct seeds are distinct runs: the comparison is not vacuous.
  EXPECT_NE(sequential[0].audit, sequential[1].audit);
}

TEST(HealthScenario, QuietRunPagesNothingAndDumpsNothing) {
  exec::TaskPool pool(2);
  scenario::RolloutScenarioConfig cfg;  // no faults at all
  cfg.n_aps = 8;
  cfg.horizon = time::hours(1);
  cfg.poll = time::minutes(1);
  cfg.health = true;
  cfg.pool = &pool;
  const auto r = scenario::run_rollout_scenario(cfg);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.health_breaches, 0u);
  EXPECT_EQ(r.health_rows, 0u);
  EXPECT_TRUE(r.postmortems.empty());
  EXPECT_TRUE(r.health_events_jsonl.empty());
  EXPECT_GE(r.rollout_health.committed, 1u);
  EXPECT_EQ(r.rollout_health.revert_rate, 0.0);
}

TEST(HealthScenario, PostmortemOnFaultDumpsOnInjectedRadar) {
  exec::TaskPool pool(2);
  scenario::RolloutScenarioConfig cfg;
  cfg.n_aps = 8;
  cfg.horizon = time::hours(1);
  cfg.poll = time::minutes(1);
  cfg.faults.radar(time::minutes(20), 3);
  cfg.health = true;
  cfg.postmortem_on_fault = true;
  cfg.pool = &pool;
  const auto r = scenario::run_rollout_scenario(cfg);
  ASSERT_FALSE(r.postmortems.empty());
  bool fault_bundle = false;
  for (const std::string& b : r.postmortems)
    fault_bundle = fault_bundle ||
                   b.find("\"trigger\":\"fault_injection\"") !=
                       std::string::npos;
  EXPECT_TRUE(fault_bundle);
  // The radar note fed the flight ring before the trigger read it.
  EXPECT_NE(r.postmortems.front().find("\"tag\":\"fault.radar\""),
            std::string::npos);
}

}  // namespace
}  // namespace w11
