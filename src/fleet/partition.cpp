#include "fleet/partition.hpp"

#include <algorithm>

namespace w11::fleet {

FleetPartition partition_fleet(const std::vector<ApScan>& scans,
                               Dbm contender_rssi_floor,
                               PartitionScratch* scratch) {
  FleetPartition out;
  out.total_aps = scans.size();
  if (scans.empty()) return out;

  PartitionScratch local;
  PartitionScratch& s = scratch ? *scratch : local;
  flowsim::contender_components(scans, contender_rssi_floor, s.components,
                                &s.uf);
  const flowsim::ContentionComponents& cc = s.components;

  out.campuses.resize(cc.count);
  for (std::size_t c = 0; c < cc.count; ++c) {
    Campus& campus = out.campuses[c];
    const std::vector<std::uint32_t>& members = cc.members[c];
    campus.scans.reserve(members.size());
    for (const std::uint32_t pos : members) campus.scans.push_back(scans[pos]);
    // Canonical slice order: ascending ApId, whatever order the input had.
    std::sort(campus.scans.begin(), campus.scans.end(),
              [](const ApScan& a, const ApScan& b) { return a.id < b.id; });
    campus.key = campus.scans.front().id.value();
    out.largest_campus = std::max(out.largest_campus, members.size());
  }
  std::sort(out.campuses.begin(), out.campuses.end(),
            [](const Campus& a, const Campus& b) { return a.key < b.key; });
  return out;
}

}  // namespace w11::fleet
