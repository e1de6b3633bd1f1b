#include "scenario/rollout_harness.hpp"

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "core/turboca/service.hpp"
#include "ctrl/plan_store.hpp"
#include "fault/scan_fault.hpp"
#include "obs/audit.hpp"
#include "obs/health/flight_recorder.hpp"
#include "obs/health/health.hpp"
#include "obs/health/health_bridge.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/littletable.hpp"
#include "workload/topology.hpp"

namespace w11::scenario {

namespace {

// The flight recorder's metric catalog: every snapshot row has this exact
// shape, and each capture sets these totals in this order.
constexpr std::array<const char*, 6> kFlightMetrics = {
    "ctrl.applies",
    "ctrl.commands_sent",
    "ctrl.reverts",
    "ctrl.waves",
    "telemetry.records_dropped",
    "telemetry.records_written"};

// Extra sim time allowed after the horizon for an in-flight rollout to reach
// a terminal state (no new rollouts start past the horizon).
constexpr Time kSettleLimit = time::hours(2);
// DFS non-occupancy epoch: struck channels re-arm this often.
constexpr Time kRadarRearm = time::hours(1);
// AP reboot duration after FaultKind::kApCrash (control link down).
constexpr Time kCrashReboot = time::seconds(30);
// Retention on the collector's ap_stats table (exercises trim under the
// validation reads).
constexpr Time kTelemetryMaxAge = time::hours(1);

}  // namespace

RolloutScenarioResult run_rollout_scenario(const RolloutScenarioConfig& cfg) {
  RolloutScenarioResult out;

  workload::CampusConfig cc;
  cc.n_aps = cfg.n_aps;
  cc.seed = cfg.net_seed;
  auto net = workload::make_campus(cc);

  // The run's own trace, attached to the simulator by health runs. Declared
  // before the Simulator, whose destructor unbinds it.
  obs::TraceRecorder trace;
  Simulator sim;
  ctrl::ControlChannel chan(sim, cfg.channel, cfg.ctrl_seed, cfg.n_aps);
  ctrl::PlanApplier applier(
      sim, chan, cfg.backoff,
      ctrl::PlanApplier::Hooks{[&](std::uint32_t ap, const Channel& c) {
        return net->apply_channel(ApId{ap}, c);
      }},
      cfg.ctrl_seed * 131 + 7);
  ctrl::PlanStore store;
  telemetry::NetworkCollector coll;
  coll.ap_stats().set_retention({kTelemetryMaxAge});

  // --- planner service, its plan output redirected into the store --------
  // The service believes it applied a plan; what actually happened is a
  // version commit. The controller tick below starts the staged rollout,
  // and only the applier's acked commands touch the network.
  std::uint64_t pending_version = 0;
  turboca::NetworkHooks inner;
  inner.scan = [&] { return net->scan(); };
  inner.current_plan = [&] { return net->current_plan(); };
  turboca::TurboCaService::Schedule sched;
  sched.max_scan_age = time::hours(1);
  // Declared before the service so the hook can reference it; filled after
  // the service exists (the commit needs its last_netp_log).
  turboca::TurboCaService* svc_ptr = nullptr;
  inner.apply_plan = [&](const ChannelPlan& p) {
    pending_version =
        store.commit(p, svc_ptr->stats().last_netp_log, sim.now());
  };
  fault::DegradedScanHooks deg(inner, [&] { return sim.now(); },
                               Rng(cfg.net_seed * 31 + 7));
  turboca::TurboCaService svc({}, sched, deg.hooks(), Rng(cfg.net_seed));
  svc_ptr = &svc;
  if (cfg.pool != nullptr) svc.engine().set_pool(cfg.pool);

  // --- rollout coordinator ------------------------------------------------
  ctrl::RolloutCoordinator::Hooks rh;
  rh.netp_log = [&] { return svc.stats().last_netp_log; };
  rh.mean_utilization = [&](Time from, Time to) {
    if (from < Time{0}) from = Time{0};
    const telemetry::LittleTable& t = coll.ap_stats();
    const double n = t.aggregate_scalar(
        "utilization", telemetry::LittleTable::Agg::kCount, from, to);
    if (n <= 0.0) return std::numeric_limits<double>::quiet_NaN();
    return t.aggregate_scalar("utilization",
                              telemetry::LittleTable::Agg::kMean, from, to);
  };
  rh.request_replan = [&] { svc.request_replan(); };
  rh.channel_of = [&](std::uint32_t ap) { return net->aps()[ap].channel; };
  ctrl::RolloutCoordinator coord(sim, applier, store, cfg.rollout,
                                 std::move(rh));

  // Bootstrap: the network's as-built plan is the first last-known-good —
  // there is always something safe to revert to.
  store.mark_good(store.commit(net->current_plan(), 0.0, Time{0}));

  // --- fleet health engine + flight recorder (cfg.health) ------------------
  std::unique_ptr<obs::HealthEngine> health;
  std::unique_ptr<obs::FlightRecorder> recorder;
  obs::MetricsRegistry flight_metrics;  // filled from Stats at each capture
  obs::PlanAudit plan_audit;
  telemetry::LittleTable health_table = obs::make_fleet_health_table();
  std::uint64_t reverts_seen = 0;
  std::uint64_t pins_seen = 0;
  if (cfg.health) {
    // Everything this run observes stays in this run, so health runs can
    // execute concurrently. kSim is masked: one record per dispatched event
    // would flood the bounded ring and evict the rollout and health events
    // the bundles correlate. Planner decisions reach the postmortem through
    // the plan_audit section below.
    trace.set_enabled(true);
    trace.set_category_mask(obs::kAllCategories &
                            ~obs::category_bit(obs::TraceCategory::kSim));
    sim.set_tracer(&trace);
    svc.engine().set_audit(&plan_audit);

    // SLO sheet (DESIGN.md §17). Series width = the poll cadence, so one
    // window aggregates exactly one tick's counter deltas. Any revert
    // inside the fast window pages: one bad poll in 5 is error 0.2 against
    // a 0.01 budget (burn 20 >= 2) and 1-in-30 over the slow window is
    // burn 3.3 >= 1 — and five quiet polls release the breach.
    obs::HealthEngine::Config hc;
    hc.series.width = cfg.poll;
    obs::SloSpec reverts;
    reverts.name = "rollout-reverts";
    reverts.sli = "ctrl.reverts";
    reverts.threshold = 0.0;  // bad poll = any revert observed in it
    reverts.objective = 0.99;
    reverts.fast_windows = 5;
    reverts.slow_windows = 30;
    reverts.fast_burn = 2.0;
    reverts.slow_burn = 1.0;
    reverts.severity = obs::Severity::kPage;
    hc.slos.push_back(reverts);
    obs::SloSpec drops;
    drops.name = "telemetry-drops";
    drops.sli = "telemetry.dropped";
    drops.threshold = 0.0;  // bad poll = any collector row dropped
    drops.objective = 0.95;
    drops.fast_windows = 5;
    drops.slow_windows = 30;
    drops.fast_burn = 2.0;
    drops.slow_burn = 1.0;
    drops.severity = obs::Severity::kTicket;
    hc.slos.push_back(drops);
    obs::SloSpec slow;
    slow.name = "convergence-slow";
    slow.sli = "ctrl.convergence_s";
    // A committed rollout taking more than half the watchdog budget is
    // living dangerously even though it converged.
    slow.threshold = 0.5 * cfg.rollout.watchdog.sec();
    slow.objective = 0.95;
    slow.fast_windows = 5;
    slow.slow_windows = 30;
    slow.fast_burn = 2.0;
    slow.slow_burn = 1.0;
    slow.severity = obs::Severity::kTicket;
    hc.slos.push_back(slow);
    health = std::make_unique<obs::HealthEngine>(std::move(hc));

    recorder =
        std::make_unique<obs::FlightRecorder>(obs::FlightRecorder::Config{});
    recorder->attach_tracer(&trace);
    recorder->attach_metrics(
        &flight_metrics,
        {kFlightMetrics.begin(), kFlightMetrics.end()});
    recorder->attach_source("rollout_audit",
                            [&coord](Time from, Time to, std::ostream& os) {
                              coord.audit().write_jsonl(os, from, to);
                            });
    // Planner picks carry no timestamps; the bounded audit (the last
    // max_picks decisions) dumps whole — that IS the trigger-window cut.
    recorder->attach_source("plan_audit",
                            [&plan_audit](Time, Time, std::ostream& os) {
                              plan_audit.write_jsonl(os);
                            });
  }

  // --- fault wiring --------------------------------------------------------
  fault::FaultHandlers fh;
  fh.radar = [&](int ap) {
    if (ap < 0 || ap >= cfg.n_aps) return;
    const Channel before = net->aps()[static_cast<std::size_t>(ap)].channel;
    net->radar_event(ApId{static_cast<std::uint32_t>(ap)});
    if (net->aps()[static_cast<std::size_t>(ap)].channel != before)
      coord.notify_radar(static_cast<std::uint32_t>(ap));
    if (recorder != nullptr) {
      recorder->note(sim.now(), "fault.radar", ap);
      if (cfg.postmortem_on_fault)
        recorder->trigger(obs::Trigger::kFaultInjection, sim.now(), "radar");
    }
  };
  fh.link_down = [&](int link) {
    if (link >= 0 && link < cfg.n_aps)
      chan.set_online(static_cast<std::uint32_t>(link), false);
  };
  fh.link_up = [&](int link) {
    if (link >= 0 && link < cfg.n_aps)
      chan.set_online(static_cast<std::uint32_t>(link), true);
  };
  fh.ap_crash = [&](int ap) {
    // A rebooting AP is unreachable over the control channel for the
    // reboot window, then reconnects (apply-on-reconnect picks it up).
    if (ap < 0 || ap >= cfg.n_aps) return;
    const auto u = static_cast<std::uint32_t>(ap);
    chan.set_online(u, false);
    sim.schedule_after(kCrashReboot, [&chan, u] {
      chan.set_online(u, true);
    });
  };
  fh.telemetry_drop = [&](int n) {
    coll.drop_next(n);
    if (recorder != nullptr)
      recorder->note(sim.now(), "fault.telemetry_drop", n);
  };
  fh.scan_degrade = [&](fault::ScanFaultMode m, double keep) {
    deg.set_mode(m, keep);
  };
  fh.clock_jump = [&](Time back) {
    // The service observes a rewound clock; advance_to counts and ignores
    // it, so tier anchors (and fire-once semantics) survive.
    svc.advance_to(sim.now() - back);
  };
  fault::FaultInjector inj(cfg.faults, fh);
  inj.arm(sim);

  // --- the polling / controller tick --------------------------------------
  bool accepting = true;       // no new rollouts after the horizon
  std::uint64_t started_version = 0;
  std::uint64_t done_seen = 0;  // committed + reverted already tallied
  auto tick = [&] {
    const auto ev = net->evaluate();
    const bool kept = coll.record(*net, ev, sim.now());
    trace.record_at(sim.now(), obs::TraceKind::kCollectorPoll,
                    static_cast<std::uint64_t>(sim.now().ns()),
                    kept ? ev.per_ap.size() + 1 : 0, coll.records_dropped());
    svc.advance_to(sim.now());
    const std::uint64_t done_now = coord.stats().committed +
                                   coord.stats().reverted;
    if (done_now > done_seen) {
      out.convergence_s.push_back(coord.last_convergence().sec());
      if (health != nullptr)
        health->observe("ctrl.convergence_s", sim.now(),
                        coord.last_convergence().sec());
      done_seen = done_now;
    }
    if (accepting && !coord.active() && pending_version > started_version &&
        pending_version > store.last_known_good_version()) {
      if (coord.start(pending_version)) started_version = pending_version;
    }
    if (health != nullptr) {
      // SLI adoption, flight-ring capture, SLO evaluation, postmortem
      // triggers — all on this serial tick, so every piece is exact.
      const Time now = sim.now();
      const ctrl::RolloutCoordinator::Stats& rs = coord.stats();
      const ctrl::PlanApplier::Stats& as = applier.stats();
      health->observe_counter("ctrl.reverts", now,
                              static_cast<double>(rs.reverted));
      health->observe_counter("telemetry.dropped", now,
                              static_cast<double>(coll.records_dropped()));
      // In kFlightMetrics order. ctrl.reverts counts revert() calls;
      // Stats::reverted only counts a revert once it is done.
      const std::array<std::uint64_t, kFlightMetrics.size()> totals = {
          as.applied,
          as.commands_sent,
          rs.reverts_telemetry + rs.reverts_netp + rs.reverts_radar +
              rs.reverts_watchdog + rs.reverts_exhausted,
          rs.waves_started,
          coll.records_dropped(),
          coll.records_written()};
      for (std::size_t i = 0; i < totals.size(); ++i)
        flight_metrics.set(kFlightMetrics[i],
                           static_cast<double>(totals[i]));
      recorder->capture(now);
      const std::vector<obs::HealthEvent> hev = health->poll(now);
      for (const obs::HealthEvent& e : hev)
        trace.record_at(now,
                        e.breach ? obs::TraceKind::kHealthBreach
                                 : obs::TraceKind::kHealthRecovery,
                        e.slo, static_cast<std::uint64_t>(e.severity),
                        static_cast<std::uint64_t>(
                            std::llround(e.burn_fast * 1e3)));
      obs::append_health_events(hev, health_table);
      for (const obs::HealthEvent& e : hev)
        if (e.breach && e.severity == obs::Severity::kPage)
          recorder->trigger(obs::Trigger::kSloBreach, now, e.name);
      if (rs.reverted > reverts_seen) {
        const bool wd =
            coord.revert_reason() == ctrl::RevertReason::kWatchdog;
        recorder->trigger(
            wd ? obs::Trigger::kWatchdog : obs::Trigger::kAutoRevert, now,
            ctrl::to_string(coord.revert_reason()));
        reverts_seen = rs.reverted;
      }
      if (rs.radar_pins > pins_seen) {
        recorder->trigger(obs::Trigger::kRadarPin, now, "radar-pin");
        pins_seen = rs.radar_pins;
      }
    }
  };
  PeriodicTimer poll(sim, cfg.poll, cfg.poll, tick);

  PeriodicTimer rearm(sim, kRadarRearm, [&] { net->rearm_radar(); });

  sim.run_until(cfg.horizon);
  accepting = false;
  // Settle: let an in-flight rollout reach a terminal state. The poll timer
  // keeps the queue alive forever, so run in bounded chunks.
  const Time deadline = cfg.horizon + kSettleLimit;
  while (coord.active() && sim.now() < deadline)
    sim.run_until(sim.now() + cfg.poll);
  // One more tick's worth so a just-terminal rollout's convergence sample
  // is tallied by the loop above.
  sim.run_until(sim.now() + cfg.poll);

  // --- verdict -------------------------------------------------------------
  const ctrl::PlanVersion* good = store.last_known_good();
  out.half_applied = 0;
  for (const auto& ap : net->aps()) {
    if (coord.radar_pinned().contains(ap.id.value())) continue;
    const auto it = good->plan.find(ap.id);
    if (it == good->plan.end() || ap.channel != it->second) ++out.half_applied;
  }
  out.converged = !coord.active() && !applier.wave_active() &&
                  out.half_applied == 0;
  out.end_time = sim.now();
  out.audit_jsonl = coord.audit().jsonl();
  out.rollout = coord.stats();
  out.apply = applier.stats();
  out.channel = chan.stats();
  out.fault_stats = inj.stats();
  out.fault_log = inj.log();
  out.final_plan = net->current_plan();
  out.last_known_good = store.last_known_good_version();
  out.radar_duplicates = net->radar_duplicates();
  out.telemetry_rows = coll.ap_stats().row_count();
  out.planner_runs = svc.stats().runs;
  out.requested_replans = svc.stats().requested_replans;
  out.rollout_health = coord.health();
  if (health != nullptr) {
    out.postmortems.assign(recorder->bundles().begin(),
                           recorder->bundles().end());
    out.health_events_jsonl = health->events_jsonl();
    out.health_breaches = health->breaches();
    out.health_recoveries = health->recoveries();
    out.health_rows = health_table.row_count();
    out.recorder_dropped = recorder->entries_dropped();
    out.postmortems_dropped = recorder->bundles_dropped();
  }
  return out;
}

}  // namespace w11::scenario
