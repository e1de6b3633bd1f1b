#pragma once
// End-to-end plan-rollout scenario: a campus flowsim Network, the TurboCA
// service, the telemetry collector, and the src/ctrl/ rollout pipeline —
// all driven by one discrete-event Simulator with a FaultPlan armed on it.
//
// The loop closes exactly as the deployment's does (§2, §4.4.4):
//
//   scan → TurboCA plan → PlanStore.commit → RolloutCoordinator waves
//        → ControlChannel (lossy) → PlanApplier retries → Network switches
//        → collector rows → wave validation reads them back → commit/revert
//
// and the FaultPlan yanks on every joint at exact sim timestamps: control
// links flap mid-wave, radar lands mid-rollout, the collector drops the
// rows validation wants, the service clock rewinds. The chaos soak
// (tests/test_rollout.cpp) asserts the one invariant the subsystem exists
// for: whatever the fault plan did, the fleet converges — every AP ends on
// the rolled-out plan, the last-known-good, or its radar fallback, with the
// rollout audit byte-identical at any worker count.

#include <memory>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "ctrl/applier.hpp"
#include "ctrl/control_channel.hpp"
#include "ctrl/rollout.hpp"
#include "exec/task_pool.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "flowsim/scan.hpp"

namespace w11::scenario {

struct RolloutScenarioConfig {
  int n_aps = 12;
  std::uint64_t net_seed = 1;
  std::uint64_t ctrl_seed = 99;  // control channel + backoff jitter streams
  Time horizon = time::hours(2);
  Time poll = time::minutes(1);  // collector + service + controller tick
  fault::FaultPlan faults;
  ctrl::ControlChannel::Config channel;
  ctrl::Backoff backoff;
  ctrl::RolloutCoordinator::Config rollout;
  exec::TaskPool* pool = nullptr;  // planner scoring pool; nullptr = global

  // --- fleet health engine + flight recorder (DESIGN.md §17) ---------------
  // When true, the run stands up a HealthEngine over the rollout SLIs
  // (revert rate, telemetry drops, convergence), an always-on
  // FlightRecorder fed at every poll, and a planner decision audit — and
  // every auto-revert / watchdog / radar pin / paging SLO breach dumps a
  // postmortem bundle into Result::postmortems. The run's trace and the
  // flight ring's metrics belong to the run, so health runs may execute
  // concurrently on separate threads.
  bool health = false;
  // Also dump a bundle on every injected radar fault (not just ones that
  // land mid-rollout and pin). Off by default to keep bundle volume at one
  // per anomaly, not one per chaos event.
  bool postmortem_on_fault = false;
};

struct RolloutScenarioResult {
  // Convergence invariant: no rollout in flight at the end AND every AP is
  // on the last-known-good plan's channel or radar-pinned on its fallback.
  bool converged = false;
  int half_applied = 0;  // APs violating the invariant
  Time end_time{};
  std::string audit_jsonl;              // deterministic rollout audit
  std::vector<double> convergence_s;    // per completed rollout
  ctrl::RolloutCoordinator::Stats rollout;
  ctrl::PlanApplier::Stats apply;
  ctrl::ControlChannel::Stats channel;
  fault::InjectorStats fault_stats;
  std::vector<fault::FaultEvent> fault_log;  // determinism witness
  ChannelPlan final_plan;
  std::uint64_t last_known_good = 0;
  int radar_duplicates = 0;
  std::uint64_t telemetry_rows = 0;
  int planner_runs = 0;
  int requested_replans = 0;

  // --- health engine output (filled only when cfg.health) -----------------
  std::vector<std::string> postmortems;  // self-contained JSONL bundles
  std::string health_events_jsonl;       // breach/recovery event log
  std::uint64_t health_breaches = 0;
  std::uint64_t health_recoveries = 0;
  std::uint64_t health_rows = 0;         // fleet_health LittleTable rows
  std::uint64_t recorder_dropped = 0;    // flight-ring overflow evictions
  std::uint64_t postmortems_dropped = 0; // bundles past the recorder's cap
  ctrl::RolloutCoordinator::Health rollout_health;
};

[[nodiscard]] RolloutScenarioResult run_rollout_scenario(
    const RolloutScenarioConfig& cfg);

}  // namespace w11::scenario
