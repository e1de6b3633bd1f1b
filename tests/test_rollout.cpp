// src/ctrl/ rollout pipeline tests: the versioned plan store and its
// per-campus fanout, the lossy control channel, the retry/backoff applier,
// the staged coordinator with auto-revert, and the end-to-end chaos soak
// whose one invariant is "no AP is ever left half-applied" — plus
// byte-identical rollout audits at any worker count.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <tuple>
#include <vector>

#include "ctrl/applier.hpp"
#include "ctrl/control_channel.hpp"
#include "ctrl/fanout.hpp"
#include "ctrl/plan_store.hpp"
#include "ctrl/rollout.hpp"
#include "exec/task_pool.hpp"
#include "fault/fault_plan.hpp"
#include "obs/trace.hpp"
#include "scenario/rollout_harness.hpp"
#include "sim/simulator.hpp"

namespace w11 {
namespace {

const Channel ch36{Band::G5, 36, ChannelWidth::MHz20};
const Channel ch40{Band::G5, 40, ChannelWidth::MHz20};
const Channel ch44{Band::G5, 44, ChannelWidth::MHz20};
const Channel ch149{Band::G5, 149, ChannelWidth::MHz20};

ChannelPlan plan_all(int n, const Channel& c) {
  ChannelPlan p;
  for (int i = 0; i < n; ++i) p[ApId{static_cast<std::uint32_t>(i)}] = c;
  return p;
}

// ------------------------------------------------------------ PlanStore --

TEST(PlanStore, CommitIsMonotoneAndQueryable) {
  ctrl::PlanStore store;
  EXPECT_EQ(store.last_known_good(), nullptr);
  const auto v1 = store.commit(plan_all(2, ch36), -1.5, time::seconds(1));
  const auto v2 = store.commit(plan_all(2, ch40), -1.2, time::seconds(2));
  EXPECT_EQ(v1, 1u);
  EXPECT_EQ(v2, 2u);
  EXPECT_EQ(store.latest_version(), 2u);
  ASSERT_NE(store.get(v1), nullptr);
  EXPECT_EQ(store.get(v1)->plan.at(ApId{0}), ch36);
  EXPECT_DOUBLE_EQ(store.get(v2)->netp_log, -1.2);
}

TEST(PlanStore, LastKnownGoodSurvivesHistoryChurn) {
  ctrl::PlanStore store(/*max_history=*/4);
  const auto v1 = store.commit(plan_all(1, ch36), 0.0, Time{});
  store.mark_good(v1);
  for (int i = 0; i < 20; ++i)
    store.commit(plan_all(1, ch40), 0.0, Time{});
  // Twenty candidates churned past a window of four; the good version is
  // pinned while everything else rolled over.
  ASSERT_NE(store.last_known_good(), nullptr);
  EXPECT_EQ(store.last_known_good()->version, v1);
  EXPECT_EQ(store.last_known_good()->plan.at(ApId{0}), ch36);
  // The window is exactly the pinned good version plus the three newest,
  // though the evictions that moved the pin ran across the ring's wrap.
  EXPECT_EQ(store.size(), 4u);
  ASSERT_EQ(store.latest_version(), 21u);
  for (const std::uint64_t v : {v1, std::uint64_t{19}, std::uint64_t{20},
                                std::uint64_t{21}}) {
    ASSERT_NE(store.get(v), nullptr) << "version " << v;
    EXPECT_EQ(store.get(v)->version, v);
  }
  EXPECT_EQ(store.get(v1)->plan.at(ApId{0}), ch36);
  EXPECT_EQ(store.get(21)->plan.at(ApId{0}), ch40);
  // The oldest non-good versions are gone.
  EXPECT_EQ(store.get(2), nullptr);
  EXPECT_EQ(store.get(18), nullptr);
}

TEST(PlanStore, MarkGoodMovesThePin) {
  ctrl::PlanStore store(/*max_history=*/4);
  const auto v1 = store.commit(plan_all(1, ch36), 0.0, Time{});
  store.mark_good(v1);
  const auto v2 = store.commit(plan_all(1, ch40), 0.0, Time{});
  store.mark_good(v2);
  EXPECT_EQ(store.last_known_good_version(), v2);
  for (int i = 0; i < 10; ++i) store.commit(plan_all(1, ch44), 0.0, Time{});
  EXPECT_EQ(store.get(v1), nullptr);  // the old good is no longer pinned
  ASSERT_NE(store.last_known_good(), nullptr);
  EXPECT_EQ(store.last_known_good()->version, v2);
}

// ----------------------------------------------------------- PlanFanout --

TEST(PlanFanout, InterleavedCampusesKeepTheirOwnVersions) {
  // Two campuses commit in turn: each gets its own version stream 1..n,
  // its newest plan as last-known-good, and a history window of four.
  ctrl::PlanFanout fanout;
  EXPECT_EQ(fanout.store(7), nullptr);
  const std::vector<Channel> chans = {ch36, ch40, ch44, ch149};
  constexpr std::uint64_t kCommits = 6;
  for (std::uint64_t v = 1; v <= kCommits; ++v) {
    const Time at = time::seconds(static_cast<std::int64_t>(v));
    EXPECT_EQ(fanout.commit(7, plan_all(2, chans[v % 4]), -1.0, at), v);
    EXPECT_EQ(fanout.commit(3, plan_all(3, chans[(v + 1) % 4]), -2.0, at), v);
  }
  for (const auto& [key, n, shift] : {std::tuple{7u, 2, 0u},
                                      std::tuple{3u, 3, 1u}}) {
    const ctrl::PlanStore* store = fanout.store(key);
    ASSERT_NE(store, nullptr) << "campus " << key;
    EXPECT_EQ(store->latest_version(), kCommits) << "campus " << key;
    EXPECT_EQ(store->size(), 4u) << "campus " << key;
    ASSERT_NE(store->last_known_good(), nullptr) << "campus " << key;
    EXPECT_EQ(store->last_known_good()->version, kCommits);
    EXPECT_EQ(store->last_known_good()->plan,
              plan_all(n, chans[(kCommits + shift) % 4]))
        << "campus " << key;
    EXPECT_EQ(store->get(kCommits - 4), nullptr) << "campus " << key;
  }
  EXPECT_EQ(fanout.store(5), nullptr);
  EXPECT_EQ(fanout.stats().plans_committed, 2 * kCommits);
  EXPECT_EQ(fanout.stats().campuses_seen, 2u);
}

// ------------------------------------------------------- ControlChannel --

TEST(ControlChannel, DeliversAfterFixedDelay) {
  Simulator sim;
  ctrl::ControlChannel::Config cc;
  cc.loss = 0.0;
  cc.delay = time::millis(20);
  cc.jitter = Time{0};
  ctrl::ControlChannel chan(sim, cc, /*seed=*/1, /*n_aps=*/2);
  Time delivered_at{-1};
  EXPECT_TRUE(chan.send(0, [&] { delivered_at = sim.now(); }));
  sim.run();
  EXPECT_EQ(delivered_at, time::millis(20));
  EXPECT_EQ(chan.stats().delivered, 1u);
}

TEST(ControlChannel, LossIsDeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    Simulator sim;
    ctrl::ControlChannel::Config cc;
    cc.loss = 0.5;
    ctrl::ControlChannel chan(sim, cc, seed, 4);
    std::vector<bool> fate;
    for (int i = 0; i < 64; ++i)
      fate.push_back(chan.send(static_cast<std::uint32_t>(i % 4), [] {}));
    return fate;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));  // and the draws actually depend on the seed
}

TEST(ControlChannel, OfflineDropsButInFlightStillDelivers) {
  Simulator sim;
  ctrl::ControlChannel::Config cc;
  cc.loss = 0.0;
  cc.delay = time::millis(20);
  cc.jitter = Time{0};
  ctrl::ControlChannel chan(sim, cc, 1, 1);
  int delivered = 0;
  EXPECT_TRUE(chan.send(0, [&] { ++delivered; }));  // on the wire
  chan.set_online(0, false);
  EXPECT_FALSE(chan.send(0, [&] { ++delivered; }));  // dropped at the AP
  sim.run();
  EXPECT_EQ(delivered, 1);  // going offline is not retroactive
  EXPECT_EQ(chan.stats().dropped_offline, 1u);
}

TEST(ControlChannel, ReconnectListenerFiresOnUpTransitionOnly) {
  Simulator sim;
  ctrl::ControlChannel chan(sim, {}, 1, 2);
  std::vector<std::uint32_t> kicks;
  chan.set_reconnect_listener([&](std::uint32_t ap) { kicks.push_back(ap); });
  chan.set_online(1, true);   // already up: no transition
  chan.set_online(1, false);
  chan.set_online(1, false);  // repeated down: no transition
  chan.set_online(1, true);
  EXPECT_EQ(kicks, (std::vector<std::uint32_t>{1}));
}

// -------------------------------------------------------------- backoff --

TEST(Backoff, DelayGrowsGeometricallyAndCaps) {
  ctrl::Backoff b;
  b.initial = time::millis(200);
  b.multiplier = 2.0;
  b.cap = time::seconds(1);
  b.jitter_frac = 0.0;
  const Rng root(1);
  EXPECT_EQ(ctrl::backoff_delay(b, 0, 2, root), time::millis(200));
  EXPECT_EQ(ctrl::backoff_delay(b, 0, 3, root), time::millis(400));
  EXPECT_EQ(ctrl::backoff_delay(b, 0, 4, root), time::millis(800));
  EXPECT_EQ(ctrl::backoff_delay(b, 0, 5, root), time::seconds(1));  // cap
  EXPECT_EQ(ctrl::backoff_delay(b, 0, 20, root), time::seconds(1));
}

TEST(Backoff, JitterStaysInBandAndIsDeterministic) {
  ctrl::Backoff b;
  b.initial = time::millis(100);
  b.jitter_frac = 0.25;
  const Rng root(42);
  for (std::uint32_t ap = 0; ap < 16; ++ap) {
    for (int attempt = 2; attempt < 8; ++attempt) {
      const Time d = ctrl::backoff_delay(b, ap, attempt, root);
      ctrl::Backoff nojit = b;
      nojit.jitter_frac = 0.0;
      const Time base = ctrl::backoff_delay(nojit, ap, attempt, root);
      EXPECT_GE(d.ns(), static_cast<std::int64_t>(0.75 * base.ns()) - 1);
      EXPECT_LE(d.ns(), static_cast<std::int64_t>(1.25 * base.ns()) + 1);
      EXPECT_EQ(d, ctrl::backoff_delay(b, ap, attempt, root));
    }
  }
  // Distinct APs draw from distinct streams.
  EXPECT_NE(ctrl::backoff_delay(b, 1, 2, root),
            ctrl::backoff_delay(b, 2, 2, root));
}

// -------------------------------------------------------------- applier --

struct ApplierRig {
  Simulator sim;
  ctrl::ControlChannel chan;
  std::vector<Channel> current;
  ctrl::PlanApplier applier;
  int done_fired = 0;

  explicit ApplierRig(int n_aps, ctrl::ControlChannel::Config cc = lossless(),
                      ctrl::Backoff b = {})
      : chan(sim, cc, /*seed=*/5, n_aps),
        current(static_cast<std::size_t>(n_aps), ch36),
        applier(sim, chan, b,
                ctrl::PlanApplier::Hooks{[this](std::uint32_t ap,
                                                const Channel& c) {
                  if (current[ap] == c) return false;
                  current[ap] = c;
                  return true;
                }},
                /*seed=*/9) {}

  static ctrl::ControlChannel::Config lossless() {
    ctrl::ControlChannel::Config cc;
    cc.loss = 0.0;
    cc.delay = time::millis(20);
    cc.jitter = Time{0};
    return cc;
  }

  std::vector<ctrl::PlanApplier::Target> targets(const Channel& c) {
    std::vector<ctrl::PlanApplier::Target> t;
    for (std::uint32_t ap = 0; ap < current.size(); ++ap) t.push_back({ap, c});
    return t;
  }
};

TEST(PlanApplier, AppliesWholeWaveAndFiresOnDoneOnce) {
  ApplierRig rig(3);
  rig.applier.begin_wave(rig.targets(ch40), /*version=*/2,
                         [&] { ++rig.done_fired; });
  rig.sim.run();
  EXPECT_EQ(rig.done_fired, 1);
  EXPECT_EQ(rig.applier.wave_applied(), 3);
  EXPECT_FALSE(rig.applier.wave_active());
  for (const Channel& c : rig.current) EXPECT_EQ(c, ch40);
  EXPECT_EQ(rig.applier.applied_aps(),
            (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(rig.applier.stats().retries, 0u);
}

TEST(PlanApplier, RetriesThroughAnOutageAndAppliesOnReconnect) {
  ctrl::Backoff b;
  b.ack_timeout = time::millis(100);
  b.initial = time::millis(100);
  b.cap = time::seconds(60);  // reconnect, not the retry cadence, must win
  ApplierRig rig(1, ApplierRig::lossless(), b);
  rig.chan.set_online(0, false);
  rig.applier.begin_wave(rig.targets(ch40), 2, [&] { ++rig.done_fired; });
  rig.sim.run_until(time::seconds(2));
  EXPECT_EQ(rig.done_fired, 0);
  EXPECT_GE(rig.applier.stats().timeouts, 1u);
  rig.chan.set_online(0, true);  // apply-on-reconnect cuts the backoff short
  rig.sim.run_until(time::seconds(70));
  EXPECT_EQ(rig.done_fired, 1);
  EXPECT_EQ(rig.current[0], ch40);
  EXPECT_GE(rig.applier.stats().reconnect_kicks, 1u);
}

TEST(PlanApplier, CancelledWaveRejectsLateAcksAsStale) {
  ApplierRig rig(1);
  bool applied = false;
  rig.applier.begin_wave({{0, ch40}}, 2, [&] { applied = true; });
  rig.sim.run_until(time::millis(5));  // command in flight (delay is 20 ms)
  rig.applier.cancel_wave();
  rig.sim.run();
  // The delivery arrived after the controller moved on: rejected, the AP
  // keeps its channel, nothing fires.
  EXPECT_FALSE(applied);
  EXPECT_EQ(rig.current[0], ch36);
  EXPECT_EQ(rig.applier.stats().stale_rejected, 1u);
  EXPECT_EQ(rig.applier.stats().applied, 0u);
  EXPECT_FALSE(rig.applier.wave_active());
}

TEST(PlanApplier, BoundedAttemptsExhaust) {
  ctrl::Backoff b;
  b.ack_timeout = time::millis(50);
  b.initial = time::millis(50);
  b.max_attempts = 3;
  ApplierRig rig(2, ApplierRig::lossless(), b);
  rig.chan.set_online(1, false);  // AP 1 never acks
  rig.applier.begin_wave(rig.targets(ch40), 2, [&] { ++rig.done_fired; });
  rig.sim.run_until(time::seconds(10));
  EXPECT_EQ(rig.done_fired, 1);  // the wave still terminates
  EXPECT_EQ(rig.applier.wave_applied(), 1);
  EXPECT_EQ(rig.applier.wave_exhausted(), 1);
  EXPECT_EQ(rig.current[0], ch40);
  EXPECT_EQ(rig.current[1], ch36);
  EXPECT_EQ(rig.applier.stats().exhausted, 1u);
}

// ---------------------------------------------------------- coordinator --

struct CoordRig {
  Simulator sim;
  ctrl::ControlChannel chan;
  std::vector<Channel> current;
  ctrl::PlanApplier applier;
  ctrl::PlanStore store;
  double netp = 0.0;
  double util = 0.1;
  int replans = 0;
  ctrl::RolloutCoordinator coord;

  explicit CoordRig(int n_aps, ctrl::RolloutCoordinator::Config rc = {},
                    ctrl::Backoff b = {})
      : chan(sim, ApplierRig::lossless(), /*seed=*/5, n_aps),
        current(static_cast<std::size_t>(n_aps), ch36),
        applier(sim, chan, b,
                ctrl::PlanApplier::Hooks{[this](std::uint32_t ap,
                                                const Channel& c) {
                  if (current[ap] == c) return false;
                  current[ap] = c;
                  return true;
                }},
                /*seed=*/9),
        coord(sim, applier, store, rc,
              ctrl::RolloutCoordinator::Hooks{
                  [this] { return netp; },
                  [this](Time, Time) { return util; },
                  [this] { ++replans; },
                  [this](std::uint32_t ap) { return current[ap]; }}) {
    // Bootstrap: the as-built plan is the first last-known-good.
    ChannelPlan initial;
    for (std::uint32_t ap = 0; ap < current.size(); ++ap)
      initial[ApId{ap}] = current[ap];
    store.mark_good(store.commit(std::move(initial), 0.0, Time{}));
  }

  std::uint64_t commit(const Channel& c) {
    return store.commit(plan_all(static_cast<int>(current.size()), c), netp,
                        sim.now());
  }
};

TEST(RolloutCoordinator, CanaryThenGrowthWavesThenCommit) {
  ctrl::RolloutCoordinator::Config rc;
  rc.canary = 2;
  rc.validate_window = time::seconds(10);
  CoordRig rig(8, rc);
  const auto v = rig.commit(ch40);
  ASSERT_TRUE(rig.coord.start(v));
  rig.sim.run_until(time::minutes(5));
  EXPECT_EQ(rig.coord.state(), ctrl::RolloutState::kDone);
  EXPECT_EQ(rig.coord.outcome(), ctrl::RolloutOutcome::kCommitted);
  EXPECT_EQ(rig.coord.stats().waves_started, 2u);  // 2 + 6
  EXPECT_EQ(rig.store.last_known_good_version(), v);
  for (const Channel& c : rig.current) EXPECT_EQ(c, ch40);
  // Audit shape: start, wave, wave_done, validate, wave, wave_done,
  // validate, done.
  using Kind = ctrl::RolloutAudit::Record::Kind;
  const auto& recs = rig.coord.audit().records();
  ASSERT_EQ(recs.size(), 8u);
  EXPECT_EQ(recs.front().kind, Kind::kStart);
  EXPECT_EQ(recs[1].n_aps, 2u);  // canary size
  EXPECT_EQ(recs[4].n_aps, 6u);  // growth wave
  EXPECT_EQ(recs.back().kind, Kind::kDone);
  EXPECT_GT(recs.back().convergence_ns, 0);
}

TEST(RolloutCoordinator, StartRefusesWithoutLastKnownGood) {
  Simulator sim;
  ctrl::ControlChannel chan(sim, ApplierRig::lossless(), 5, 2);
  ctrl::PlanApplier applier(
      sim, chan, {},
      ctrl::PlanApplier::Hooks{[](std::uint32_t, const Channel&) {
        return true;
      }},
      9);
  ctrl::PlanStore store;
  ctrl::RolloutCoordinator coord(
      sim, applier, store, {},
      ctrl::RolloutCoordinator::Hooks{
          [] { return 0.0; },
          [](Time, Time) { return 0.0; },
          [] {},
          [](std::uint32_t) { return ch36; }});
  const auto v = store.commit(plan_all(2, ch40), 0.0, Time{});
  EXPECT_FALSE(coord.start(v));  // nothing safe to revert to
  store.mark_good(v);
  const auto v2 = store.commit(plan_all(2, ch44), 0.0, Time{});
  EXPECT_TRUE(coord.start(v2));
}

TEST(RolloutCoordinator, UtilizationRegressionRevertsToLastKnownGood) {
  ctrl::RolloutCoordinator::Config rc;
  rc.canary = 2;
  rc.validate_window = time::seconds(10);
  CoordRig rig(8, rc);
  const auto v = rig.commit(ch40);
  ASSERT_TRUE(rig.coord.start(v));
  // The canary lands, then utilization spikes before validation fires.
  rig.sim.schedule_at(time::seconds(5), [&] { rig.util = 0.5; });
  rig.sim.run_until(time::minutes(10));
  EXPECT_EQ(rig.coord.outcome(), ctrl::RolloutOutcome::kReverted);
  EXPECT_EQ(rig.coord.revert_reason(), ctrl::RevertReason::kTelemetry);
  EXPECT_EQ(rig.store.last_known_good_version(), 1u);  // not promoted
  for (const Channel& c : rig.current) EXPECT_EQ(c, ch36);  // all rolled back
  EXPECT_EQ(rig.replans, 1);  // post-revert replan requested
  EXPECT_EQ(rig.coord.stats().reverts_telemetry, 1u);
  // Only the canary ever switched, so only the canary switched back.
  EXPECT_EQ(rig.applier.stats().applied, 4u);  // 2 out + 2 back
}

// The coordinator and applier record into the recorder attached to their
// Simulator, stamped with sim time, in every build.
TEST(RolloutCoordinator, CtrlEventsRecordIntoTheSimulatorsTracer) {
  obs::TraceRecorder rec;  // outlives the rig, whose ~Simulator unbinds it
  rec.set_enabled(true);
  rec.set_category_mask(obs::category_bit(obs::TraceCategory::kCtrl));
  ctrl::RolloutCoordinator::Config rc;
  rc.canary = 2;
  rc.validate_window = time::seconds(10);
  CoordRig rig(8, rc);
  rig.sim.set_tracer(&rec);
  ASSERT_TRUE(rig.coord.start(rig.commit(ch40)));
  rig.sim.schedule_at(time::seconds(5), [&] { rig.util = 0.5; });
  rig.sim.run_until(time::minutes(10));
  ASSERT_EQ(rig.coord.outcome(), ctrl::RolloutOutcome::kReverted);

  using Kind = ctrl::RolloutAudit::Record::Kind;
  std::int64_t wave_at = -1;
  std::int64_t revert_at = -1;
  for (const auto& r : rig.coord.audit().records()) {
    if (r.kind == Kind::kWave && wave_at < 0) wave_at = r.at_ns;
    if (r.kind == Kind::kRevert) revert_at = r.at_ns;
  }
  ASSERT_GT(revert_at, 0);
  std::uint64_t waves = 0;
  std::uint64_t applies = 0;
  std::uint64_t reverts = 0;
  for (const obs::TraceEvent& e : rec.merged()) {
    switch (e.kind) {
      case obs::TraceKind::kRolloutWave:
        ++waves;
        EXPECT_EQ(e.ts_ns, wave_at);
        EXPECT_EQ(e.a, 2u);  // canary size
        break;
      case obs::TraceKind::kRolloutApply:
        ++applies;
        EXPECT_GT(e.ts_ns, 0);  // an ack lands after the channel delay
        break;
      case obs::TraceKind::kRolloutRevert:
        ++reverts;
        EXPECT_EQ(e.ts_ns, revert_at);
        EXPECT_EQ(e.a, static_cast<std::uint64_t>(
                           ctrl::RevertReason::kTelemetry));
        break;
      default:
        ADD_FAILURE() << obs::to_string(e.kind);
    }
  }
  EXPECT_EQ(waves, 1u);
  EXPECT_EQ(applies, rig.applier.stats().applied);  // 2 out + 2 back
  EXPECT_EQ(reverts, 1u);
}

TEST(RolloutCoordinator, NetPRegressionReverts) {
  ctrl::RolloutCoordinator::Config rc;
  rc.canary = 4;
  rc.validate_window = time::seconds(10);
  CoordRig rig(4, rc);
  rig.netp = -2.0;
  const auto v = rig.commit(ch40);
  ASSERT_TRUE(rig.coord.start(v));
  rig.sim.schedule_at(time::seconds(5), [&] { rig.netp = -4.0; });
  rig.sim.run_until(time::minutes(10));
  EXPECT_EQ(rig.coord.outcome(), ctrl::RolloutOutcome::kReverted);
  EXPECT_EQ(rig.coord.revert_reason(), ctrl::RevertReason::kNetP);
}

TEST(RolloutCoordinator, MissingTelemetrySkipsTheUtilizationGate) {
  ctrl::RolloutCoordinator::Config rc;
  rc.canary = 4;
  rc.validate_window = time::seconds(10);
  CoordRig rig(4, rc);
  rig.util = std::numeric_limits<double>::quiet_NaN();  // collector is down
  const auto v = rig.commit(ch40);
  ASSERT_TRUE(rig.coord.start(v));
  rig.sim.run_until(time::minutes(5));
  // No data is not a regression: the rollout commits on the NetP gate alone.
  EXPECT_EQ(rig.coord.outcome(), ctrl::RolloutOutcome::kCommitted);
  EXPECT_GE(rig.coord.stats().validations_no_data, 1u);
}

TEST(RolloutCoordinator, RadarMidRolloutRevertsAndPinsTheStruckAp) {
  ctrl::RolloutCoordinator::Config rc;
  rc.canary = 2;
  rc.validate_window = time::seconds(30);
  CoordRig rig(6, rc);
  const auto v = rig.commit(ch40);
  ASSERT_TRUE(rig.coord.start(v));
  // Mid-rollout (canary applied, validating) radar lands on AP 1: the
  // harness has already evacuated it to its DFS fallback.
  rig.sim.schedule_at(time::seconds(10), [&] {
    rig.current[1] = ch149;  // the evacuation's fallback channel
    rig.coord.notify_radar(1);
  });
  rig.sim.run_until(time::minutes(10));
  EXPECT_EQ(rig.coord.outcome(), ctrl::RolloutOutcome::kReverted);
  EXPECT_EQ(rig.coord.revert_reason(), ctrl::RevertReason::kRadar);
  EXPECT_TRUE(rig.coord.radar_pinned().contains(1));
  // The struck AP stays on its fallback — the revert never re-targets it.
  EXPECT_EQ(rig.current[1], ch149);
  for (std::uint32_t ap = 0; ap < 6; ++ap) {
    if (ap != 1) {
      EXPECT_EQ(rig.current[ap], ch36) << "ap " << ap;
    }
  }
  EXPECT_EQ(rig.replans, 1);
  // A later rollout covering the AP unpins it.
  const auto v2 = rig.commit(ch44);
  ASSERT_TRUE(rig.coord.start(v2));
  EXPECT_FALSE(rig.coord.radar_pinned().contains(1));
}

TEST(RolloutCoordinator, WatchdogRevertsAStuckRollout) {
  ctrl::RolloutCoordinator::Config rc;
  rc.canary = 2;
  rc.validate_window = time::seconds(30);
  rc.watchdog = time::minutes(2);
  ctrl::Backoff b;
  b.ack_timeout = time::millis(200);
  b.initial = time::millis(200);
  b.cap = time::seconds(5);
  CoordRig rig(4, rc, b);
  rig.chan.set_online(1, false);  // canary member never acks: wave stalls
  const auto v = rig.commit(ch40);
  ASSERT_TRUE(rig.coord.start(v));
  rig.sim.run_until(time::minutes(1));
  EXPECT_EQ(rig.coord.state(), ctrl::RolloutState::kApplying);
  rig.sim.run_until(time::minutes(4));
  // Watchdog expired mid-wave; AP 1 is still partitioned, but everything
  // that applied rolled back and the rollout is terminal — not half-applied.
  EXPECT_EQ(rig.coord.outcome(), ctrl::RolloutOutcome::kReverted);
  EXPECT_EQ(rig.coord.revert_reason(), ctrl::RevertReason::kWatchdog);
  for (const Channel& c : rig.current) EXPECT_EQ(c, ch36);
  EXPECT_EQ(rig.coord.stats().reverts_watchdog, 1u);
}

TEST(RolloutCoordinator, NoopPlanCommitsImmediately) {
  CoordRig rig(4);
  // Re-commit the plan the fleet is already on.
  const auto v = rig.store.commit(plan_all(4, ch36), 0.0, Time{});
  ASSERT_TRUE(rig.coord.start(v));
  rig.sim.run_until(time::seconds(1));
  EXPECT_EQ(rig.coord.outcome(), ctrl::RolloutOutcome::kCommitted);
  EXPECT_EQ(rig.coord.stats().waves_started, 0u);
  EXPECT_EQ(rig.store.last_known_good_version(), v);
}

// ----------------------------------------------------------- chaos soak --

scenario::RolloutScenarioConfig soak_config(std::uint64_t net_seed,
                                            std::uint64_t plan_seed) {
  scenario::RolloutScenarioConfig cfg;
  cfg.n_aps = 10;
  cfg.net_seed = net_seed;
  cfg.ctrl_seed = plan_seed * 1000 + net_seed;
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
  rc.n_links = cfg.n_aps;  // control links, one per AP
  rc.n_events = 10;
  rc.max_outage = time::minutes(3);  // long enough to interrupt waves
  cfg.faults = fault::FaultPlan::random(plan_seed, rc);
  // Pile on deterministic mid-wave chaos no random draw guarantees: a
  // radar strike and a control-partition flap inside the first rollout's
  // window (the first plan lands at the 15-minute planner firing), plus a
  // clock rewind scan.
  cfg.faults.radar(time::minutes(16), static_cast<int>(net_seed % 10))
      .link_flap(time::minutes(16) + time::seconds(30),
                 static_cast<int>((net_seed + 3) % 10), /*flaps=*/3,
                 time::seconds(20))
      .clock_jump(time::minutes(17), time::minutes(30));
  return cfg;
}

TEST(RolloutChaosSoak, EveryApConvergesAcrossSeedAndFaultPlans) {
  int rollouts_total = 0;
  for (std::uint64_t net_seed : {1u, 2u}) {
    for (std::uint64_t plan_seed : {41u, 42u, 43u, 44u, 45u, 46u, 47u, 48u,
                                    49u, 50u}) {
      const auto r =
          scenario::run_rollout_scenario(soak_config(net_seed, plan_seed));
      EXPECT_TRUE(r.converged)
          << "net " << net_seed << " plan " << plan_seed << ": "
          << r.half_applied << " half-applied APs, coordinator state not"
          << " terminal or wave still active";
      EXPECT_EQ(r.half_applied, 0)
          << "net " << net_seed << " plan " << plan_seed;
      rollouts_total += static_cast<int>(r.rollout.rollouts_started);
      // The fault plan fired in full.
      EXPECT_GT(r.fault_stats.fired, 0);
    }
  }
  // The soak exercised real rollouts, not 20 idle networks.
  EXPECT_GT(rollouts_total, 20);
}

TEST(RolloutChaosSoak, ScenarioIsExactlyReproducible) {
  const auto a = scenario::run_rollout_scenario(soak_config(1, 43));
  const auto b = scenario::run_rollout_scenario(soak_config(1, 43));
  EXPECT_EQ(a.audit_jsonl, b.audit_jsonl);
  EXPECT_EQ(a.fault_log, b.fault_log);
  EXPECT_EQ(a.final_plan, b.final_plan);
  EXPECT_EQ(a.convergence_s, b.convergence_s);
  EXPECT_EQ(a.apply.commands_sent, b.apply.commands_sent);
}

TEST(RolloutChaosSoak, AuditIsByteIdenticalAcrossWorkerCounts) {
  // The planner's proposal scoring is the only pool-sharded stage in the
  // loop; the rollout audit (and everything downstream of the plans) must
  // not care how many workers scored them.
  exec::TaskPool one(1);
  exec::TaskPool four(4);
  auto cfg1 = soak_config(2, 47);
  cfg1.pool = &one;
  auto cfg4 = soak_config(2, 47);
  cfg4.pool = &four;
  const auto a = scenario::run_rollout_scenario(cfg1);
  const auto b = scenario::run_rollout_scenario(cfg4);
  EXPECT_EQ(a.audit_jsonl, b.audit_jsonl);
  EXPECT_FALSE(a.audit_jsonl.empty());
  EXPECT_EQ(a.final_plan, b.final_plan);
  EXPECT_EQ(a.fault_log, b.fault_log);
  EXPECT_EQ(a.convergence_s, b.convergence_s);
  EXPECT_EQ(a.last_known_good, b.last_known_good);
}

TEST(RolloutChaosSoak, RevertsActuallyHappenSomewhereInTheGrid) {
  // The invariant tests above would pass trivially if no rollout ever hit
  // trouble; check the grid actually produced reverts and retries. A
  // fleet-wide control partition opens just after the first rollout starts
  // (the 15-minute planner firing) and outlasts the 10-minute watchdog, so
  // any rollout with more than one wave stalls mid-apply and reverts; the
  // revert itself converges once the partition heals.
  std::uint64_t reverted = 0, retries = 0, converged = 0;
  for (std::uint64_t plan_seed : {41u, 43u, 45u, 47u, 49u}) {
    auto cfg = soak_config(1, plan_seed);
    for (int ap = 0; ap < cfg.n_aps; ++ap)
      cfg.faults.link_outage(time::minutes(15) + time::seconds(30), ap,
                             time::minutes(11));
    const auto r = scenario::run_rollout_scenario(cfg);
    reverted += r.rollout.reverted;
    retries += r.apply.retries;
    converged += r.converged ? 1 : 0;
    EXPECT_EQ(r.half_applied, 0) << "plan " << plan_seed;
  }
  EXPECT_GT(retries, 0u);  // loss + partitions forced retries
  EXPECT_GT(reverted, 0u);
  EXPECT_EQ(converged, 5u);  // reverting is not an excuse to not converge
}

}  // namespace
}  // namespace w11
