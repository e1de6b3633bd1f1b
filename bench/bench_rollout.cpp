// Plan-rollout resilience sweep: the controller→AP apply pipeline driven
// through the full scenario harness (campus network, TurboCA, telemetry,
// lossy control channel, staged waves with auto-revert) at increasing fault
// intensity. Reports what the robustness bar demands — every run converges
// with zero half-applied APs — plus the revert-rate-vs-intensity and
// convergence-time curves EXPERIMENTS.md records, and writes them to
// BENCH_rollout.json for the CI artifact.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/json_writer.hpp"
#include "common/stats.hpp"
#include "exec/task_pool.hpp"
#include "fault/fault_plan.hpp"
#include "scenario/rollout_harness.hpp"

using namespace w11;

namespace {

scenario::RolloutScenarioConfig sweep_config(std::uint64_t net_seed,
                                             std::uint64_t plan_seed,
                                             int n_events) {
  scenario::RolloutScenarioConfig cfg;
  cfg.n_aps = 12;
  cfg.net_seed = net_seed;
  cfg.ctrl_seed = plan_seed * 1000 + net_seed;
  cfg.horizon = time::hours(4);
  cfg.poll = time::minutes(1);
  cfg.channel.loss = 0.05;
  cfg.backoff.ack_timeout = time::millis(500);
  cfg.backoff.initial = time::millis(500);
  cfg.backoff.cap = time::seconds(10);
  // Bounded attempts: an AP unreachable through the whole retry budget
  // exhausts its wave and forces a revert — that is the knob that turns
  // fault intensity into a revert rate instead of an ever-longer stall.
  cfg.backoff.max_attempts = 6;
  cfg.rollout.canary = 2;
  cfg.rollout.validate_window = time::minutes(2);
  cfg.rollout.watchdog = time::minutes(10);
  if (n_events > 0) {
    fault::FaultPlan::RandomConfig rc;
    rc.horizon = cfg.horizon;
    rc.n_aps = cfg.n_aps;
    rc.n_links = cfg.n_aps;
    rc.n_events = n_events;
    rc.max_outage = time::minutes(3);
    cfg.faults = fault::FaultPlan::random(plan_seed, rc);
    // Random outages almost never land inside a wave's ~20 s apply window,
    // so the revert axis of the sweep is driven deterministically: one
    // fleet-wide control partition per 8 intensity points, opened just as
    // a growth wave launches (waves go out at validate_window boundaries
    // after the 15-minute planner firings). The partition outlasts the
    // bounded retry budget, the wave exhausts, and the rollout reverts —
    // then heals, replans, and converges.
    for (int j = 0; j < n_events / 8; ++j) {
      const Time at =
          time::minutes(15 * (j + 1) + 2) - time::seconds(10);
      for (int link = 0; link < cfg.n_aps; ++link)
        cfg.faults.link_outage(at, link, time::seconds(70));
    }
  }
  return cfg;
}

struct IntensityRow {
  int n_events = 0;
  int runs = 0;
  int converged = 0;
  int half_applied = 0;
  std::uint64_t rollouts = 0;
  std::uint64_t committed = 0;
  std::uint64_t reverted = 0;
  std::uint64_t retries = 0;
  std::uint64_t exhausted = 0;
  std::uint64_t replans = 0;
  Samples convergence_s;  // per completed rollout, across the cell's runs
};

}  // namespace

int main() {
  print_banner("rollout",
               "Resilient plan rollout: convergence & revert rate vs faults");

  const std::vector<int> intensities = {0, 4, 8, 16, 32};
  const std::vector<std::uint64_t> net_seeds = {1, 2};
  const std::vector<std::uint64_t> plan_seeds = {61, 62, 63};
  const std::size_t cell = net_seeds.size() * plan_seeds.size();

  // Every (intensity, net seed, plan seed) world is independent — shard the
  // whole sweep across the pool and fold results back in index order.
  exec::TaskPool& pool = exec::TaskPool::global();
  const auto results = pool.parallel_map<scenario::RolloutScenarioResult>(
      intensities.size() * cell, [&](std::size_t i) {
        const int n_events = intensities[i / cell];
        const std::uint64_t ns = net_seeds[(i % cell) / plan_seeds.size()];
        const std::uint64_t ps = plan_seeds[i % plan_seeds.size()];
        return scenario::run_rollout_scenario(sweep_config(ns, ps, n_events));
      });

  std::vector<IntensityRow> rows;
  for (std::size_t ii = 0; ii < intensities.size(); ++ii) {
    IntensityRow row;
    row.n_events = intensities[ii];
    for (std::size_t k = 0; k < cell; ++k) {
      const auto& r = results[ii * cell + k];
      ++row.runs;
      row.converged += r.converged ? 1 : 0;
      row.half_applied += r.half_applied;
      row.rollouts += r.rollout.rollouts_started;
      row.committed += r.rollout.committed;
      row.reverted += r.rollout.reverted;
      row.retries += r.apply.retries;
      row.exhausted += r.apply.exhausted;
      row.replans += static_cast<std::uint64_t>(r.requested_replans);
      for (double s : r.convergence_s) row.convergence_s.add(s);
    }
    rows.push_back(std::move(row));
  }

  TablePrinter t({"fault events", "runs", "converged", "half-applied",
                  "rollouts", "committed", "reverted", "revert rate",
                  "conv p50 s", "conv p95 s", "retries", "replans"});
  int all_runs = 0, all_converged = 0, all_half = 0;
  std::uint64_t faulty_retries = 0, total_reverted = 0;
  std::uint64_t quiet_reverted = 0;
  for (const auto& r : rows) {
    const double rate =
        r.rollouts > 0
            ? static_cast<double>(r.reverted) / static_cast<double>(r.rollouts)
            : 0.0;
    t.add_row(r.n_events, r.runs, r.converged, r.half_applied, r.rollouts,
              r.committed, r.reverted, rate, r.convergence_s.quantile(0.50),
              r.convergence_s.quantile(0.95), r.retries, r.replans);
    all_runs += r.runs;
    all_converged += r.converged;
    all_half += r.half_applied;
    total_reverted += r.reverted;
    if (r.n_events == 0) quiet_reverted += r.reverted;
    if (r.n_events > 0) faulty_retries += r.retries;
  }
  t.print();

  bench::paper_note(
      "plans are computed centrally and pushed to APs that may be offline or "
      "mid-evacuation (§4.5); a rollout must end fully applied or fully "
      "reverted — a half-applied fleet is the failure mode");
  bench::shape_check(
      "every run at every fault intensity converges with zero half-applied "
      "APs",
      all_converged == all_runs && all_half == 0);
  bench::shape_check("a fault-free fleet never reverts", quiet_reverted == 0);
  bench::shape_check("faults actually bite: retries observed under fault load",
                     faulty_retries > 0);
  bench::shape_check(
      "fault load produces reverts somewhere in the sweep (the revert path "
      "is exercised, not just compiled)",
      total_reverted > 0);

  // Reproducibility twins on different pool lanes: byte-identical audits.
  const auto twins = pool.parallel_map<scenario::RolloutScenarioResult>(
      2, [&](std::size_t) {
        return scenario::run_rollout_scenario(sweep_config(1, 62, 16));
      });
  const bool twin_ok = twins[0].audit_jsonl == twins[1].audit_jsonl &&
                       twins[0].final_plan == twins[1].final_plan &&
                       twins[0].fault_log == twins[1].fault_log;
  bench::shape_check(
      "a rollout run is byte-identical from its seeds (audit JSONL, final "
      "plan, fault log)",
      twin_ok);

  // --- fleet health engine + flight recorder demo --------------------------
  // The faulty shape above guarantees reverts, so the recorder dumps
  // postmortems — and they must be byte-identical whether the planner
  // scored on 1 worker or 4.
  auto health_cfg = [](exec::TaskPool* p) {
    scenario::RolloutScenarioConfig cfg = sweep_config(1, 62, 16);
    cfg.health = true;
    cfg.pool = p;
    return cfg;
  };
  exec::TaskPool hp1(1);
  exec::TaskPool hp4(4);
  const auto h1 = scenario::run_rollout_scenario(health_cfg(&hp1));
  const auto h4 = scenario::run_rollout_scenario(health_cfg(&hp4));
  const bool postmortems_ok = !h1.postmortems.empty() &&
                              h1.postmortems == h4.postmortems &&
                              h1.health_events_jsonl == h4.health_events_jsonl;
  bench::shape_check(
      "auto-revert chaos dumps postmortem bundles, byte-identical at 1 vs 4 "
      "planner workers",
      postmortems_ok);
  bench::shape_check(
      "SLO burn-rate alerting paged on the reverts and recovered after",
      h1.health_breaches > 0 && h1.health_recoveries > 0);
  std::cout << "  health: " << h1.health_breaches << " breaches, "
            << h1.health_recoveries << " recoveries, "
            << h1.postmortems.size() << " postmortems retained ("
            << h1.rollout_health.reverted << " reverts, revert rate "
            << h1.rollout_health.revert_rate << ")\n";

  // --- JSON artifact -------------------------------------------------------
  {
    std::ofstream os("BENCH_rollout.json");
    json::Writer w(os);
    w.begin_object();
    w.field("bench", "rollout");
    w.field("runs", static_cast<std::int64_t>(all_runs));
    w.field("twin_audit_identical", twin_ok);
    w.key("health").begin_object();
    w.field("breaches", h1.health_breaches);
    w.field("recoveries", h1.health_recoveries);
    w.field("health_rows", h1.health_rows);
    w.field("postmortems", static_cast<std::uint64_t>(h1.postmortems.size()));
    w.field("postmortems_identical_across_workers", postmortems_ok);
    w.field("reverted", h1.rollout_health.reverted);
    w.end_object();
    w.key("intensities").begin_array();
    for (const auto& r : rows) {
      w.begin_object();
      w.field("fault_events", static_cast<std::int64_t>(r.n_events));
      w.field("runs", static_cast<std::int64_t>(r.runs));
      w.field("converged", static_cast<std::int64_t>(r.converged));
      w.field("half_applied", static_cast<std::int64_t>(r.half_applied));
      w.field("rollouts", r.rollouts);
      w.field("committed", r.committed);
      w.field("reverted", r.reverted);
      w.field("revert_rate",
              r.rollouts > 0 ? static_cast<double>(r.reverted) /
                                   static_cast<double>(r.rollouts)
                             : 0.0);
      w.field("convergence_s_p50", r.convergence_s.quantile(0.50));
      w.field("convergence_s_p95", r.convergence_s.quantile(0.95));
      w.field("retries", r.retries);
      w.field("exhausted", r.exhausted);
      w.field("replans", r.replans);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    os << "\n";
    std::cout << "\n  wrote BENCH_rollout.json\n";
  }
  return bench::finish();
}
