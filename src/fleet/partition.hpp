#pragma once
// Campus partitioner: interference-isolated planning units (DESIGN.md §15).
//
// A continental fleet is not one planning problem. The isolation argument
// rests on the planner's coupling structure: every NodeP term of AP a reads
// only a's own spectrum aggregates plus the planned channels of a's
// *contender* neighbors (rssi >= the contender floor — sub-floor neighbors
// never enter a contention count, see PlanContext). So two APs in different
// connected components of the symmetrized contender graph cannot influence
// each other's scores: no NodeP term crosses a component boundary, and
// planning each component with its own RNG stream produces exactly the plan
// a fleet-wide run restricted to that component would produce.
//
// Edges here must match ScanIndex adjacency bit-for-bit: a directed
// contender edge a->b exists when b appears in a's neighbor reports, b is
// present in the epoch, and !(rssi < floor). Components are taken over the
// undirected closure (if either side hears the other, their plans couple
// through that listener's airtime term).
//
// This module turns one population-wide scan epoch into those units:
//
//   * campus key — the minimum ApId value among members. Stable across
//     epochs as long as that AP stays present, independent of scan order
//     and of how many other campuses exist; it is the identity the cadence
//     scheduler and RNG stream derivation hang off.
//   * members — per-campus scan vectors in *canonical* (ascending ApId)
//     order, independent of the input's scan order. Canonical order is what
//     makes the delta-epoch path (DESIGN.md §16) byte-equivalent to full
//     re-partitioning: a dirty-component re-extraction feeds partition_fleet
//     a concatenation of cached slices plus added scans, which generally is
//     NOT the original epoch order — sorting each campus by id erases that
//     difference, so a campus's planning input depends only on its member
//     *set* and their scan contents.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "flowsim/scan.hpp"

namespace w11::fleet {

struct Campus {
  std::uint32_t key = 0;             // min ApId value among members
  std::vector<ApScan> scans;         // members, ascending ApId order
};

struct FleetPartition {
  // Campuses in ascending key order (deterministic iteration order for
  // scheduling, digesting and reporting).
  std::vector<Campus> campuses;
  std::size_t total_aps = 0;
  std::size_t largest_campus = 0;
};

// Reusable extraction buffers. The delta path runs one extraction per dirty
// component pool per adopted delta, so the union-find arrays, the id lookup,
// the root-label map and the per-component member lists are recycled
// across calls instead of reallocated. A default-constructed scratch is
// always valid; contents between calls are meaningless to the caller.
struct PartitionScratch {
  std::vector<std::uint32_t> parent;
  std::vector<std::uint32_t> size;
  std::unordered_map<ApId, std::uint32_t> by_id;
  std::unordered_map<std::uint32_t, std::uint32_t> label_of_root;
  // members[c] = scan positions of component c, ascending; component
  // ordinals are dense and assigned by first appearance in scan order.
  std::vector<std::vector<std::uint32_t>> members;
};

// Partition one scan epoch with the same contender floor the planner will
// use. Equal member sets with equal scan contents give byte-equal partitions
// at any worker count and for ANY input order (the component pass is serial;
// extraction emits canonical id-ascending slices). The scans are moved into
// their campuses; a caller that keeps its census passes a copy. `scratch`
// may be nullptr.
[[nodiscard]] FleetPartition partition_fleet(std::vector<ApScan> scans,
                                             Dbm contender_rssi_floor,
                                             PartitionScratch* scratch = nullptr);

}  // namespace w11::fleet
