#pragma once
// Versioned plan store with a last-known-good pointer.
//
// The paper's TurboCA runs in the cloud (§4.5): plans are computed centrally
// and pushed to APs that may be offline, mid-reboot, or mid-DFS-evacuation
// when the push arrives. That makes "the current plan" a distributed fiction
// — what actually exists is a sequence of *versions*, of which exactly one
// has been fully applied and validated (the last-known-good), and at most
// one is in flight. The store owns that sequence: the planner commits
// candidate versions, the rollout coordinator promotes a version to
// last-known-good only after every wave applied and telemetry validated,
// and auto-revert targets whatever was good before the rollout started.

#include <cstdint>

#include "common/ring.hpp"
#include "common/time.hpp"
#include "flowsim/scan.hpp"

namespace w11::ctrl {

struct PlanVersion {
  std::uint64_t version = 0;  // monotone, 1-based; 0 = "no plan"
  ChannelPlan plan;
  double netp_log = 0.0;  // planner's score at commit time (worker-invariant)
  Time created_at{};
};

class PlanStore {
 public:
  // History is bounded: versions older than the window are dropped, except
  // the last-known-good, which is pinned until superseded.
  explicit PlanStore(std::size_t max_history = 16);

  // Record a new candidate version (does NOT make it good). Returns the
  // assigned version number.
  std::uint64_t commit(ChannelPlan plan, double netp_log, Time at);

  // Promote `version` to last-known-good (rollout fully applied and
  // validated). The version must still be in the history window.
  void mark_good(std::uint64_t version);

  [[nodiscard]] const PlanVersion* get(std::uint64_t version) const;
  // nullptr until the first mark_good().
  [[nodiscard]] const PlanVersion* last_known_good() const;
  [[nodiscard]] std::uint64_t last_known_good_version() const { return good_; }
  [[nodiscard]] std::uint64_t latest_version() const { return next_ - 1; }
  [[nodiscard]] std::size_t size() const { return history_.size(); }

 private:
  void evict();

  std::size_t max_history_;
  std::uint64_t next_ = 1;
  std::uint64_t good_ = 0;  // 0 = none yet
  common::RingFifo<PlanVersion> history_;  // ascending by version
};

}  // namespace w11::ctrl
