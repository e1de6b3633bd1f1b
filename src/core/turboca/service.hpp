#pragma once
// Channel-assignment services: TurboCA's run-time schedule (§4.4.4) and the
// ReservedCA baseline it replaced (§4.6.1).
//
// Both are driven by a coarse wall-clock tick (the experiment harness calls
// advance_to(t) as its timeline progresses) and consume fresh ApScans at
// each firing. TurboCA fires NBO(i=0) every 15 minutes, NBO(i=1)+NBO(i=0)
// every 3 hours, and NBO(i=2,1,0) daily. ReservedCA re-plans every 5 hours
// by sequentially assigning each AP its isolated best channel at a fixed
// width.

#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "core/turboca/turboca.hpp"
#include "flowsim/scan.hpp"
#include "flowsim/scan_index.hpp"

namespace w11::turboca {

// Supplies scans / current plan and applies accepted plans. Decouples the
// services from flowsim so they can run against recorded data too.
struct NetworkHooks {
  std::function<std::vector<ApScan>()> scan;
  std::function<ChannelPlan()> current_plan;
  std::function<void(const ChannelPlan&)> apply_plan;
};

class TurboCaService {
 public:
  struct Schedule {
    Time fast = time::minutes(15);   // NBO(0)
    Time medium = time::hours(3);    // NBO(1), NBO(0)
    Time slow = time::hours(24);     // NBO(2), NBO(1), NBO(0)
    // Scans older than this (by their taken_at stamp, relative to the
    // advance_to clock) are rejected: re-planning a live network from a
    // wedged collector's cache is worse than skipping the firing. Unstamped
    // scans (taken_at == 0) are always accepted.
    Time max_scan_age = time::kForever;
  };

  struct Stats {
    int runs = 0;
    int plans_applied = 0;
    int channel_switches = 0;
    double last_netp_log = 0.0;
    // Graceful-degradation counters: firings skipped because the scan feed
    // was down (empty) or wedged (stale), and advance_to calls observed
    // with a non-monotonic clock.
    int empty_scan_skips = 0;
    int stale_scan_skips = 0;
    int clock_anomalies = 0;
    int requested_replans = 0;  // request_replan() firings actually run
    // NBO rounds whose ACC work was skipped (TurboCA::RunResult).
    int settled_rounds = 0;
  };

  TurboCaService(Params params, Schedule schedule, NetworkHooks hooks, Rng rng);

  // Advance the service's clock, firing every due schedule tier. Tiers due
  // at the same instant run slowest-first so each run ends with i = 0
  // (§4.4.4: "All schedules end with i = 0"). Time moving backwards is
  // tolerated: the call is counted and ignored, and fire-once semantics
  // hold — a rewound clock never re-fires a tier already run.
  void advance_to(Time now);

  // Run one full pass with hop limits `levels` (e.g. {2,1,0}) immediately.
  // Returns false if the firing was skipped (empty or stale scans).
  bool run_now(const std::vector<int>& levels);

  // Ask for an out-of-band NBO(0) pass at the next advance_to tick,
  // regardless of tier anchors — the rollout coordinator calls this after
  // an auto-revert so the planner reacts to the regression (or the radar
  // strike behind it) now instead of up to 15 minutes later. Sticky until
  // a firing actually runs (degraded scans keep it pending).
  void request_replan() { replan_pending_ = true; }
  [[nodiscard]] bool replan_pending() const { return replan_pending_; }

  [[nodiscard]] const Stats& stats() const { return stats_; }

  // The underlying optimizer — exposed so callers can attach observability
  // sinks (obs::PlanAudit via set_audit) or a TaskPool to the engine the
  // service fires.
  [[nodiscard]] TurboCA& engine() { return engine_; }

  // Cross-epoch spectrum-aggregate reuse: the service owns one cache for
  // its lifetime and threads it through every per-firing ScanIndex build,
  // so APs whose spectrum content is unchanged between firings skip the
  // aggregate recompute. hits/misses live in its Stats.
  [[nodiscard]] const flowsim::ScanStatsCache& scan_stats_cache() const {
    return stats_cache_;
  }

 private:
  TurboCA engine_;
  Schedule schedule_;
  NetworkHooks hooks_;
  flowsim::ScanStatsCache stats_cache_;
  Time last_fast_{};
  Time last_medium_{};
  Time last_slow_{};
  Time now_{};  // clock high-water mark from advance_to
  bool replan_pending_ = false;
  Stats stats_;
};

// ReservedCA (§4.6.1): sequential, per-AP isolated maximization at a fixed
// 40 MHz channel width (20 MHz on 2.4 GHz), every 5 hours. Its key
// limitations — no neighbor-aware NetP, no width adaptation, slow cadence —
// are exactly what TurboCA fixes.
class ReservedCaService {
 public:
  struct Config {
    Time period = time::hours(5);
    Time max_scan_age = time::kForever;  // see TurboCaService::Schedule
  };

  struct Stats {
    int runs = 0;
    int channel_switches = 0;
    int empty_scan_skips = 0;
    int stale_scan_skips = 0;
    int clock_anomalies = 0;
  };

  ReservedCaService(Config cfg, Params params, NetworkHooks hooks, Rng rng);

  // Tolerates a non-monotonic clock like TurboCaService::advance_to.
  void advance_to(Time now);
  // Returns false if the firing was skipped (empty or stale scans).
  bool run_now();

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const flowsim::ScanStatsCache& scan_stats_cache() const {
    return stats_cache_;
  }

 private:
  Config cfg_;
  TurboCA engine_;  // reuses NodeP for the isolated per-AP score
  NetworkHooks hooks_;
  flowsim::ScanStatsCache stats_cache_;
  Time last_run_{};
  Time now_{};
  Stats stats_;
};

}  // namespace w11::turboca
