#pragma once
// PlanFanout: fleet-scale plan distribution into per-campus PlanStores.
//
// The PR-6 rollout pipeline (plan_store/applier/rollout) manages *one*
// network's version history. At fleet scale the controller emits a stream
// of per-campus plans; the fanout routes each into its campus's own
// versioned PlanStore — one last-known-good pointer per campus, exactly as
// the backend shards its plan state — so a campus rollout coordinator (or
// a test) can pick up any campus's history independently.
//
// Commits are versioned per campus, and each commit is promoted to
// last-known-good immediately, modelling the fleet store of record.

#include <cstdint>
#include <map>

#include "common/time.hpp"
#include "ctrl/plan_store.hpp"
#include "flowsim/scan.hpp"

namespace w11::ctrl {

class PlanFanout {
 public:
  struct Stats {
    std::uint64_t plans_committed = 0;
    std::uint64_t campuses_seen = 0;
  };

  // Commit one campus plan; returns the campus-local version number.
  std::uint64_t commit(std::uint32_t campus_key, ChannelPlan plan,
                       double netp_log, Time at);

  // nullptr until the campus's first commit.
  [[nodiscard]] const PlanStore* store(std::uint32_t campus_key) const;
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  static constexpr std::size_t kMaxHistory = 4;  // per-campus PlanStore window

  std::map<std::uint32_t, PlanStore> stores_;  // key-ordered
  Stats stats_;
};

}  // namespace w11::ctrl
