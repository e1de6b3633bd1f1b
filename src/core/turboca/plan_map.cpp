#include "core/turboca/plan_map.hpp"

#include "common/check.hpp"

namespace w11::turboca {

std::vector<Channel> dense_plan(const flowsim::ScanIndex& index,
                                const ChannelPlan& plan) {
  std::vector<Channel> out;
  out.reserve(index.size());
  for (const ApScan& s : index.scans()) {
    const auto it = plan.find(s.id);
    out.push_back(it != plan.end() ? it->second : s.current);
  }
  return out;
}

ChannelPlan plan_map(const flowsim::ScanIndex& index,
                     std::span<const Channel> dense, ChannelPlan base) {
  W11_CHECK(dense.size() == index.size());
  for (std::size_t i = 0; i < dense.size(); ++i)
    base[index.scan(i).id] = dense[i];
  return base;
}

}  // namespace w11::turboca
