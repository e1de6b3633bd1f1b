#pragma once
// The one boundary between dense plans and ApId-keyed maps.
//
// Inside the planner (TurboCA, PlanContext) and the fleet's campus jobs a
// plan is a std::vector<Channel> indexed by ScanIndex position. A plan
// leaves the planner as a ChannelPlan map: NetworkHooks, ctrl, the audit
// and tests exchange maps. These two helpers are the only conversions.

#include <span>
#include <vector>

#include "flowsim/scan.hpp"
#include "flowsim/scan_index.hpp"
#include "phy/channel.hpp"

namespace w11::turboca {

// Every indexed AP's channel in `plan`, or its scanned current channel
// when `plan` lacks it.
[[nodiscard]] std::vector<Channel> dense_plan(const flowsim::ScanIndex& index,
                                              const ChannelPlan& plan);

// `base` with every indexed AP's entry set to its dense channel: entries
// of APs absent from the index survive unchanged.
[[nodiscard]] ChannelPlan plan_map(const flowsim::ScanIndex& index,
                                   std::span<const Channel> dense,
                                   ChannelPlan base = {});

}  // namespace w11::turboca
