#include "ctrl/fanout.hpp"

#include <utility>

namespace w11::ctrl {

std::uint64_t PlanFanout::commit(std::uint32_t campus_key, ChannelPlan plan,
                                 double netp_log, Time at) {
  auto it = stores_.find(campus_key);
  if (it == stores_.end()) {
    it = stores_.emplace(campus_key, PlanStore(kMaxHistory)).first;
    ++stats_.campuses_seen;
  }
  const std::uint64_t version = it->second.commit(std::move(plan), netp_log, at);
  it->second.mark_good(version);
  ++stats_.plans_committed;
  return version;
}

const PlanStore* PlanFanout::store(std::uint32_t campus_key) const {
  const auto it = stores_.find(campus_key);
  return it == stores_.end() ? nullptr : &it->second;
}

}  // namespace w11::ctrl
