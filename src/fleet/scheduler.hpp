#pragma once
// Fleet cadence scheduler (DESIGN.md §15).
//
// TurboCaService runs one network on the §4.4.4 cadence (NBO(0) every
// 15 min, +NBO(1) every 3 h, +NBO(2) daily). At fleet scale the same
// cadence must hold *per campus*, with two additions:
//
//   * stagger — anchors are phase-shifted per campus by a hash of the
//     campus key, so 100k campuses do not all fire on the same tick; the
//     planning load per tick is flat instead of a 15-minute sawtooth.
//   * priority replans — request_replan(key) marks a campus for an
//     out-of-band NBO(0) pass (the rollout coordinator asks for one after
//     an auto-revert). Replans are sticky until a firing runs and sort
//     ahead of cadence jobs when the output budget forces a cut.
//
// due()/fired() are split so the controller can apply backpressure
// deterministically: due(now) is a pure read (same state, same jobs, in
// priority order); only jobs the controller actually ran are fired(),
// which re-anchors their tiers — a deferred job stays due on the next tick
// without losing its cadence anchor.

#include <cstdint>
#include <map>
#include <vector>

#include "common/time.hpp"

namespace w11::fleet {

enum class Tier : std::uint8_t { kReplan, kSlow, kMedium, kFast };
[[nodiscard]] const char* to_string(Tier t);

// NBO hop limits for a tier's firing, slowest-first (every run ends i = 0).
[[nodiscard]] const std::vector<int>& tier_levels(Tier t);

struct PlanJob {
  std::uint32_t campus_key = 0;
  Tier tier = Tier::kFast;
};

class CadenceScheduler {
 public:
  struct Cadence {
    Time fast = time::minutes(15);
    Time medium = time::hours(3);
    Time slow = time::hours(24);
  };

  struct Stats {
    std::uint64_t campuses_added = 0;
    std::uint64_t campuses_dropped = 0;
    std::uint64_t jobs_fired = 0;
    std::uint64_t replans_requested = 0;
  };

  // `seed` drives the per-campus stagger phases (pure function of
  // (seed, campus key) — worker-count and arrival-order invariant).
  CadenceScheduler(Cadence cadence, std::uint64_t seed);

  // Reconcile the tracked campus set in O(churn): only the keys named are
  // touched. `added` campuses get staggered anchors and are due for a full
  // kSlow pass immediately (first sighting plans now; a re-keyed campus is
  // a first sighting: its identity, RNG streams and anchors all hang off
  // the key); `dropped` campuses lose their pending state. Keys in neither
  // list are untouched.
  void apply_delta(const std::vector<std::uint32_t>& added,
                   const std::vector<std::uint32_t>& dropped, Time now);

  // Out-of-band NBO(0) for one campus; unknown keys are ignored.
  void request_replan(std::uint32_t campus_key);

  // Every campus with a due tier, one job each: replans first, then
  // cadence jobs, each group in ascending key order. A campus's job is its
  // *slowest* due tier (firing it satisfies the faster ones).
  [[nodiscard]] std::vector<PlanJob> due(Time now) const;

  // The controller ran this job: re-anchor the tiers it satisfied and
  // clear a pending replan.
  void fired(const PlanJob& job, Time now);

  [[nodiscard]] std::size_t campus_count() const { return campuses_.size(); }
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct CampusState {
    Time last_fast{};
    Time last_medium{};
    Time last_slow{};
    bool replan_pending = false;
    bool first_run_pending = true;  // plan on first sighting
  };

  void add_campus(std::uint32_t key, Time now);

  Cadence cadence_;
  std::uint64_t seed_;
  std::map<std::uint32_t, CampusState> campuses_;  // key-ordered iteration
  Stats stats_;
};

}  // namespace w11::fleet
