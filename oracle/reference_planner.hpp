#pragma once
// ReferenceEvaluator: the pre-ScanIndex planner evaluation path, preserved
// verbatim for equivalence testing.
//
// This is the original TurboCA implementation — linear find_scan per
// neighbor lookup, catalog walks per sub-channel resolution, a full
// ChannelPlan copy per ACC call and a full rescore per NetP — kept as the
// behavioural oracle: the golden-determinism tests assert that the
// PlanContext/ScanIndex engine reproduces it bit-for-bit, and the perf
// benches measure the speedup against it. Test and bench code only:
// nothing under src/ may include this. Do not optimize this file.

#include <set>
#include <vector>

#include "common/rng.hpp"
#include "core/turboca/turboca.hpp"
#include "flowsim/scan.hpp"
#include "phy/channel.hpp"

namespace w11::oracle {

using turboca::Params;

// Free-function forms of the reference metrics (no state beyond Params).
// node_p_log accepts an `a` that is not (or differs from) any scan in
// `scans`.
[[nodiscard]] double node_p_log(const Params& params, const ApScan& a,
                                const Channel& c,
                                const std::vector<ApScan>& scans,
                                const ChannelPlan& plan,
                                const std::set<ApId>& ignore);
[[nodiscard]] double net_p_log(const Params& params,
                               const std::vector<ApScan>& scans,
                               const ChannelPlan& plan);
[[nodiscard]] Channel acc(const Params& params, const ApScan& target,
                          const std::vector<ApScan>& scans,
                          const ChannelPlan& plan, const std::set<ApId>& psi);

// Hop-limited neighborhood over the scan graph: ids within `hops` of `from`
// (BFS on neighbor reports), including `from` itself.
[[nodiscard]] std::set<ApId> hop_neighborhood(const std::vector<ApScan>& scans,
                                              ApId from, int hops);

class ReferenceEvaluator {
 public:
  // The original engine's run result: the plan as an ApId-keyed map.
  struct RunResult {
    ChannelPlan plan;
    double netp_log = 0.0;
    bool improved = false;
  };

  ReferenceEvaluator(Params params, Rng rng)
      : params_(params), rng_(std::move(rng)) {}

  [[nodiscard]] ChannelPlan nbo(const std::vector<ApScan>& scans,
                                const ChannelPlan& current, int hop_limit);

  [[nodiscard]] RunResult run(const std::vector<ApScan>& scans,
                              const ChannelPlan& current, int hop_limit);

 private:
  Params params_;
  Rng rng_;
};

}  // namespace w11::oracle
