#pragma once
// Test helper for the indexed planner API: one scan epoch (a ScanIndex with
// the planner's contender RSSI floor, as the services build it) and one
// PlanContext over it, addressed by ApId.

#include <utility>
#include <vector>

#include "common/check.hpp"
#include "core/turboca/plan_context.hpp"
#include "core/turboca/plan_map.hpp"
#include "core/turboca/turboca.hpp"
#include "flowsim/scan_index.hpp"

namespace w11 {

struct PlanEpoch {
  PlanEpoch(std::vector<ApScan> scans_in, const ChannelPlan& plan,
            const turboca::Params& params = {},
            exec::TaskPool* pool = nullptr)
      : scans(std::move(scans_in)),
        index(scans, params.neighbor_rssi_floor, pool),
        ctx(index, params, turboca::dense_plan(index, plan)) {}
  PlanEpoch(const PlanEpoch&) = delete;
  PlanEpoch& operator=(const PlanEpoch&) = delete;

  [[nodiscard]] std::size_t at(ApId id) const {
    const auto i = index.find(id);
    W11_CHECK(i.has_value());
    return *i;
  }
  [[nodiscard]] double node_p_log(ApId id, const Channel& c) const {
    return ctx.node_p_log(at(id), c);
  }
  // ACC with ψ = `psi` presumed moving for the call; ψ is empty again
  // afterwards.
  [[nodiscard]] Channel acc(const turboca::TurboCA& tca, ApId id,
                            const std::vector<ApId>& psi = {}) {
    for (ApId p : psi) ctx.presume_moving(at(p));
    const Channel pick = tca.acc(ctx, at(id));
    for (ApId p : psi) ctx.settle(at(p));
    return pick;
  }

  std::vector<ApScan> scans;  // the epoch the index borrows
  flowsim::ScanIndex index;
  turboca::PlanContext ctx;
};

}  // namespace w11
