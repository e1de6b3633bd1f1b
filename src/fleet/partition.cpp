#include "fleet/partition.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

namespace w11::fleet {

namespace {

// Path-halving find: every probe also shortens the chain it walked.
std::uint32_t find_root(std::vector<std::uint32_t>& parent, std::uint32_t x) {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];
    x = parent[x];
  }
  return x;
}

// Connected components of the contender graph into s.members, labelled by
// first appearance in scan order, so equal inputs give byte-equal
// labellings (the union-find is serial; there is nothing to shard). Returns
// the component count.
std::size_t contender_components(const std::vector<ApScan>& scans,
                                 Dbm contender_rssi_floor,
                                 PartitionScratch& s) {
  const std::size_t n = scans.size();
  s.by_id.clear();
  s.by_id.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    s.by_id.emplace(scans[i].id, static_cast<std::uint32_t>(i));

  // Union by size keeps find() near-O(1); the tie-break (smaller root index
  // wins on equal size) is irrelevant to the output — labels are re-derived
  // from first-appearance order below — but keeps the walk deterministic.
  std::vector<std::uint32_t>& parent = s.parent;
  std::vector<std::uint32_t>& size = s.size;
  parent.resize(n);
  std::iota(parent.begin(), parent.end(), 0u);
  size.assign(n, 1);
  auto unite = [&](std::uint32_t a, std::uint32_t b) {
    a = find_root(parent, a);
    b = find_root(parent, b);
    if (a == b) return;
    if (size[a] < size[b] || (size[a] == size[b] && b < a)) std::swap(a, b);
    parent[b] = a;
    size[a] += size[b];
  };

  for (std::size_t i = 0; i < n; ++i) {
    for (const NeighborReport& nb : scans[i].neighbors) {
      const auto it = s.by_id.find(nb.id);
      if (it == s.by_id.end()) continue;              // absent from the epoch
      if (nb.rssi < contender_rssi_floor) continue;   // ScanIndex's edge rule
      unite(static_cast<std::uint32_t>(i), it->second);
    }
  }

  // Dense labels in first-appearance order. Member lists are cleared, not
  // freed, so their capacity survives to the next call.
  for (std::vector<std::uint32_t>& m : s.members) m.clear();
  std::size_t count = 0;
  s.label_of_root.clear();
  s.label_of_root.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t root = find_root(parent, static_cast<std::uint32_t>(i));
    const auto [it, inserted] =
        s.label_of_root.emplace(root, static_cast<std::uint32_t>(count));
    if (inserted && ++count > s.members.size()) s.members.emplace_back();
    s.members[it->second].push_back(static_cast<std::uint32_t>(i));
  }
  return count;
}

}  // namespace

FleetPartition partition_fleet(std::vector<ApScan> scans,
                               Dbm contender_rssi_floor,
                               PartitionScratch* scratch) {
  FleetPartition out;
  out.total_aps = scans.size();
  if (scans.empty()) return out;

  PartitionScratch local;
  PartitionScratch& s = scratch ? *scratch : local;
  const std::size_t count = contender_components(scans, contender_rssi_floor, s);

  out.campuses.resize(count);
  for (std::size_t c = 0; c < count; ++c) {
    Campus& campus = out.campuses[c];
    const std::vector<std::uint32_t>& members = s.members[c];
    campus.scans.reserve(members.size());
    for (const std::uint32_t pos : members)
      campus.scans.push_back(std::move(scans[pos]));
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
