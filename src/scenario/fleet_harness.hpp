#pragma once
// Fleet-scale scenario: a synthetic continental AP population driven
// through the full sharded planning pipeline (DESIGN.md §15) —
//
//   make_fleet_scans -> FleetController (partition / cadence / TaskPool
//   shards / bounded queues) -> ctrl::PlanFanout (per-campus PlanStores)
//   + telemetry::FleetIngest (batched per-campus LittleTable appends)
//
// The population generator builds scan epochs directly (no flowsim
// Network): at 100k+ APs what the fleet layer consumes is the census, and
// synthesizing it keeps population setup O(n) and byte-deterministic.
// Campuses are internally connected contender graphs with *no* cross-campus
// contender edges — sub-floor cross-campus neighbor reports can be mixed in
// to exercise the partitioner's RSSI-floor rule — so the generated campus
// count is ground truth for the partition.

#include <cstdint>
#include <vector>

#include "common/time.hpp"
#include "fleet/controller.hpp"
#include "flowsim/scan.hpp"

namespace w11::scenario {

struct FleetPopulationConfig {
  int campuses = 16;
  int aps_min = 8;
  int aps_max = 24;
  Band band = Band::G5;
  // kChain: each campus is one RSSI chain (minimal edges, ground truth for
  // partition tests). kClustered: chain backbone plus random in-campus
  // cross links (denser contention, the bench shape).
  enum class Shape { kChain, kClustered };
  Shape shape = Shape::kClustered;
  // Fraction of APs that also report a neighbor in *another* campus at
  // sub-floor RSSI (must not merge campuses; 0 disables).
  double cross_campus_subfloor = 0.25;
  std::uint64_t seed = 1;
};

// One population census. Byte-deterministic in (cfg, taken_at); ids are
// dense [0, n) in campus order, so campus keys are the id of each campus's
// first AP.
[[nodiscard]] std::vector<ApScan> make_fleet_scans(
    const FleetPopulationConfig& cfg, Time taken_at);

// One poll's worth of deterministic population churn, applied to the
// producer's local census in place and described as a DeltaEpoch against
// it. Three kinds of change, all keyed by (seed, position / ordinal):
//
//   * spectrum churn on ~spectrum_fraction of surviving APs (taken_at
//     restamped to `now` on exactly the touched scans);
//   * removals on ~member_fraction of APs — their neighbors keep their now
//     dangling reports, exercising the controller's ghost bookkeeping;
//   * additions replacing removals 1:1 with fresh monotonically increasing
//     ids (`next_id` threads through polls): a mix of singletons, APs
//     attaching to one surviving AP, and APs bridging two — the latter can
//     merge campuses, so delta replay exercises re-keying.
//
// `scans` stays id-ascending throughout. The same census trajectory can be
// offered as full ScanEpochs or as the returned deltas; the controller
// must produce byte-identical plan streams either way.
[[nodiscard]] fleet::DeltaEpoch evolve_population(
    std::vector<ApScan>& scans, const FleetPopulationConfig& pop,
    double spectrum_fraction, double member_fraction, std::uint64_t seed,
    std::uint32_t& next_id, Time base_at, Time now);

struct FleetScenarioConfig {
  FleetPopulationConfig population;
  fleet::FleetController::Config controller;
  int polls = 3;
  Time poll = time::minutes(15);
  double churn_fraction = 0.25;  // spectrum churn per poll
  double member_churn = 0.0;     // AP add/remove fraction per poll
  // After the first full census, offer DeltaEpochs instead of full
  // ScanEpochs. The census trajectory is identical either way (the same
  // evolve_population stream drives both), so the plan digest must match.
  bool use_deltas = false;
};

struct FleetScenarioResult {
  std::size_t fleet_aps = 0;
  std::size_t campuses = 0;
  std::uint64_t digest = 0;       // worker-count byte-equivalence witness
  ChannelPlan final_plan;
  double netp_log_sum = 0.0;      // folded in delivery order (deterministic)
  fleet::FleetController::Stats stats;
  fleet::FleetController::Health health;  // end-of-run pipeline health
  std::vector<double> plan_seconds;  // per delivered campus plan
  std::uint64_t plans_committed = 0;     // via PlanFanout
  std::uint64_t ctrl_campuses = 0;       // PlanStores created
  std::uint64_t telemetry_rows = 0;      // AP rows bulk-appended
};

[[nodiscard]] FleetScenarioResult run_fleet_scenario(
    const FleetScenarioConfig& cfg);

}  // namespace w11::scenario
