#pragma once
// RolloutCoordinator: staged canary rollout of a plan version with
// telemetry-gated waves, auto-revert to last-known-good, and a watchdog
// that guarantees convergence (fully applied or fully reverted — never a
// fleet stuck half-and-half).
//
// Rollout state machine (DESIGN.md §13):
//
//            start(v)
//   kIdle ----------> kApplying --wave done--> kValidating
//     ^                  |  ^                     |    |
//     |                  |  +----- next wave -----+    | regression /
//     |        exhausted |                             | radar / watchdog
//     |                  v                             v
//     |             kReverting <-----------------------+
//     |                  |
//     +---- kDone <------+-- revert wave done (outcome kReverted,
//           ^                i=0 replan requested)
//           +--- last wave validated (outcome kCommitted, mark_good)
//
// Wave gating reads utilization back through the telemetry/ LittleTable
// pipeline (hooks.mean_utilization) and the planner's NetP estimate; either
// regressing beyond tolerance reverts the *whole* rollout, in the spirit of
// WACA's (arXiv 2008.11978) warning that plans validated against one
// occupancy epoch can regress on the next. A DFS radar strike mid-rollout
// also reverts: the struck AP is pinned to its §4.5.2 fallback (never
// re-targeted by the revert) and an immediate i=0 replan is requested once
// the revert converges.

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "ctrl/applier.hpp"
#include "ctrl/plan_store.hpp"
#include "sim/simulator.hpp"

namespace w11::json {
class Writer;
}

namespace w11::ctrl {

enum class RolloutState : std::uint8_t {
  kIdle,
  kApplying,
  kValidating,
  kReverting,
  kDone,
};
enum class RolloutOutcome : std::uint8_t { kNone, kCommitted, kReverted };
enum class RevertReason : std::uint8_t {
  kNone,
  kTelemetry,  // utilization regressed vs the pre-rollout baseline
  kNetP,       // planner score regressed
  kRadar,      // DFS radar landed mid-wave
  kWatchdog,   // convergence deadline expired
  kExhausted,  // a wave ran out of apply attempts
};

[[nodiscard]] const char* to_string(RolloutState s);
[[nodiscard]] const char* to_string(RolloutOutcome o);
[[nodiscard]] const char* to_string(RevertReason r);

// Deterministic audit trail of every rollout decision — wave launches,
// validation verdicts (with the numbers they were made on), revert causes,
// terminal outcomes. Sim-time stamped, worker-count invariant, exported as
// JSONL for regression diffing (the chaos soak compares bytes at 1 vs 4
// workers).
class RolloutAudit {
 public:
  struct Record {
    enum class Kind : std::uint8_t {
      kStart, kWave, kWaveDone, kValidate, kRevert, kDone,
    } kind = Kind::kStart;
    std::int64_t at_ns = 0;
    std::uint64_t version = 0;
    std::uint32_t wave = 0;
    std::uint32_t n_aps = 0;       // start: fleet switches; wave: wave size
    std::uint32_t applied = 0;     // wave_done / done
    std::uint32_t exhausted = 0;   // wave_done
    double util_base = 0.0, util_now = 0.0;  // validate
    double netp_base = 0.0, netp_now = 0.0;  // validate
    bool util_checked = false;  // validate: telemetry had data in the window
    bool ok = false;            // validate verdict
    RevertReason reason = RevertReason::kNone;  // revert
    RolloutOutcome outcome = RolloutOutcome::kNone;  // done
    std::int64_t convergence_ns = 0;                 // done
  };

  void add(Record r) { records_.push_back(r); }
  void clear() { records_.clear(); }
  [[nodiscard]] const std::vector<Record>& records() const { return records_; }

  // One JSON object per line; byte-deterministic (common/json_writer rules).
  void write_jsonl(std::ostream& os) const;
  // Records with at_ns in [from, to] only — the flight recorder's
  // postmortem window cut.
  void write_jsonl(std::ostream& os, Time from, Time to) const;
  [[nodiscard]] std::string jsonl() const;

 private:
  std::vector<Record> records_;
};

class RolloutCoordinator {
 public:
  struct Config {
    int canary = 2;  // wave 0 size (clamped to the switch set)
    // Telemetry soak per wave before the regression gate fires.
    Time validate_window = time::seconds(30);
    // Forward-progress deadline: a rollout still applying/validating when
    // this expires is reverted. (A revert in progress is exempt — it always
    // converges once the control channel heals, and aborting it is the one
    // thing that *could* strand the fleet half-applied.)
    Time watchdog = time::minutes(10);
  };

  struct Hooks {
    // Planner score of the *current* network state; worker-count invariant.
    std::function<double()> netp_log;
    // Mean utilization over [from, to] read back through LittleTable;
    // NaN = no rows in the window (telemetry dropped) — the gate is skipped.
    std::function<double(Time from, Time to)> mean_utilization;
    // Fired once per reverted rollout, after the revert wave converged:
    // re-plan now (i = 0) instead of waiting out the 15-min cadence.
    std::function<void()> request_replan;
    // Current channel of an AP (selects the switch set and revert targets).
    std::function<Channel(std::uint32_t ap)> channel_of;
  };

  // Condensed health snapshot for bench mains and the fleet health engine
  // (plain types only — no obs dependency).
  struct Health {
    std::uint64_t rollouts_started = 0;
    std::uint64_t committed = 0;
    std::uint64_t reverted = 0;
    double revert_rate = 0.0;  // reverted / completed rollouts
    std::uint64_t reverts_watchdog = 0;
    std::uint64_t radar_pins = 0;
    double last_convergence_s = 0.0;
    bool active = false;
  };

  struct Stats {
    std::uint64_t rollouts_started = 0;
    std::uint64_t committed = 0;
    std::uint64_t reverted = 0;
    std::uint64_t waves_started = 0;
    std::uint64_t validations = 0;
    std::uint64_t validations_no_data = 0;  // gate skipped: no telemetry rows
    std::uint64_t reverts_telemetry = 0;
    std::uint64_t reverts_netp = 0;
    std::uint64_t reverts_radar = 0;
    std::uint64_t reverts_watchdog = 0;
    std::uint64_t reverts_exhausted = 0;
    std::uint64_t radar_pins = 0;
    std::uint64_t replans_requested = 0;
  };

  RolloutCoordinator(Simulator& sim, PlanApplier& applier, PlanStore& store,
                     Config cfg, Hooks hooks);

  // Roll out `version` (must be in the store) across its plan's APs.
  // Returns false — and does nothing — if a rollout is already active or
  // the store has no last-known-good to revert to.
  bool start(std::uint64_t version);

  // A radar event landed on `ap`. Mid-rollout this reverts; the struck AP
  // is pinned (excluded from revert targeting — it sits on its DFS
  // fallback until the post-revert replan reassigns it).
  void notify_radar(std::uint32_t ap);

  [[nodiscard]] RolloutState state() const { return state_; }
  [[nodiscard]] bool active() const {
    return state_ != RolloutState::kIdle && state_ != RolloutState::kDone;
  }
  [[nodiscard]] RolloutOutcome outcome() const { return outcome_; }
  [[nodiscard]] RevertReason revert_reason() const { return revert_reason_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] Health health() const {
    Health h;
    h.rollouts_started = stats_.rollouts_started;
    h.committed = stats_.committed;
    h.reverted = stats_.reverted;
    const std::uint64_t done = stats_.committed + stats_.reverted;
    h.revert_rate =
        done > 0 ? static_cast<double>(stats_.reverted) / static_cast<double>(done)
                 : 0.0;
    h.reverts_watchdog = stats_.reverts_watchdog;
    h.radar_pins = stats_.radar_pins;
    h.last_convergence_s = last_convergence_.sec();
    h.active = active();
    return h;
  }
  [[nodiscard]] RolloutAudit& audit() { return audit_; }
  [[nodiscard]] const RolloutAudit& audit() const { return audit_; }
  // Sim time from start() to terminal, for the last completed rollout.
  [[nodiscard]] Time last_convergence() const { return last_convergence_; }
  // APs pinned to their DFS fallback by mid-rollout radar (cleared when a
  // later rollout commits a plan covering them).
  [[nodiscard]] const std::set<std::uint32_t>& radar_pinned() const {
    return radar_pinned_;
  }

 private:
  void launch_wave();
  void on_wave_done();
  void validate();
  void revert(RevertReason reason);
  void on_revert_done();
  void done(RolloutOutcome outcome);

  Simulator& sim_;
  PlanApplier& applier_;
  PlanStore& store_;
  Config cfg_;
  Hooks hooks_;

  RolloutState state_ = RolloutState::kIdle;
  RolloutOutcome outcome_ = RolloutOutcome::kNone;
  RevertReason revert_reason_ = RevertReason::kNone;
  std::uint64_t version_ = 0;
  std::uint64_t rollout_ord_ = 0;  // trace ordinal per rollout
  Time started_{};
  Time last_convergence_{};
  double baseline_util_ = 0.0;
  double baseline_netp_ = 0.0;
  std::vector<std::vector<PlanApplier::Target>> waves_;
  std::size_t wave_idx_ = 0;
  static constexpr int kMaxRevertRounds = 8;
  int revert_rounds_ = 0;
  std::vector<std::uint32_t> touched_;  // APs in waves launched so far
  std::set<std::uint32_t> radar_pinned_;
  EventHandle watchdog_;
  EventHandle validate_timer_;
  std::uint64_t epoch_ = 0;  // guards stale watchdog/validate closures
  Stats stats_;
  RolloutAudit audit_;
};

}  // namespace w11::ctrl
