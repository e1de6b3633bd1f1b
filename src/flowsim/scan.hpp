#pragma once
// Scan snapshot: what the Meraki back-end collects from each AP (§4.4).
//
// This is the input format for channel-assignment algorithms (TurboCA,
// ReservedCA). flowsim::Network produces it from its topology; tests can
// construct it by hand. The fields mirror the paper: neighbor reports from
// the dedicated scanning radio, per-channel utilization from non-network
// sources, client load bucketed by supported channel width, and channel
// quality (non-WiFi interference).

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "phy/channel.hpp"

namespace w11 {

// A spectrum field of a scan: (key, value) pairs kept sorted by key in one
// vector. It offers the std::map subset the fields' users call, with the
// same key-ordered iteration, so every sum and digest over a field folds
// the same values in the same order a map would. A scan carries a few
// entries per field (at most one per 20 MHz channel), where a vector costs
// one allocation and a map one node per entry.
//
// Keys must not be changed through iteration; values may.
template <class Key>
class SpectrumMap {
 public:
  using value_type = std::pair<Key, double>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  // The value stored under `key`, inserted as 0.0 if absent.
  double& operator[](Key key) {
    const auto it =
        std::ranges::lower_bound(items_, key, {}, &value_type::first);
    if (it != items_.end() && it->first == key) return it->second;
    return items_.insert(it, value_type{key, 0.0})->second;
  }
  [[nodiscard]] const_iterator find(Key key) const {
    const auto it =
        std::ranges::lower_bound(items_, key, {}, &value_type::first);
    return it != items_.end() && it->first == key ? it : items_.end();
  }
  [[nodiscard]] const double& at(Key key) const {
    const auto it = find(key);
    if (it == items_.end()) throw std::out_of_range("SpectrumMap::at");
    return it->second;
  }
  [[nodiscard]] bool contains(Key key) const { return find(key) != end(); }
  void clear() { items_.clear(); }
  void reserve(std::size_t n) { items_.reserve(n); }
  [[nodiscard]] std::size_t size() const { return items_.size(); }

  [[nodiscard]] iterator begin() { return items_.begin(); }
  [[nodiscard]] iterator end() { return items_.end(); }
  [[nodiscard]] const_iterator begin() const { return items_.begin(); }
  [[nodiscard]] const_iterator end() const { return items_.end(); }

  // Equal keys with equal values: an absent key differs from a stored 0.0.
  friend bool operator==(const SpectrumMap&, const SpectrumMap&) = default;

 private:
  std::vector<value_type> items_;
};

struct NeighborReport {
  ApId id;
  Dbm rssi = -100.0;

  friend bool operator==(const NeighborReport&,
                         const NeighborReport&) = default;
};

struct ApScan {
  ApId id;
  Band band = Band::G5;
  Channel current{Band::G5, 36, ChannelWidth::MHz20};
  ChannelWidth max_width = ChannelWidth::MHz80;
  bool has_clients = false;
  bool dfs_capable = true;

  // load(b) of the NodeP formula: weight per channel-width class, driven by
  // the number of associated clients whose maximum width is b and their
  // usage (§4.4.1).
  SpectrumMap<ChannelWidth> load_by_width;

  // Same-network APs within carrier-sense range (any channel — the
  // scanning radio dwells on every channel).
  std::vector<NeighborReport> neighbors;

  // Utilization from non-network sources per 20 MHz component channel
  // number (external APs, non-WiFi interferers).
  SpectrumMap<int> external_util;

  // Channel quality per 20 MHz component in (0, 1]; 1 = clean.
  SpectrumMap<int> quality;

  // Measured utilization on the current channel (drives the §4.5.1
  // high-utilization switch-penalty rule).
  double utilization_current = 0.0;

  // When this snapshot was collected (harness clock). Time{0} means
  // "unstamped" and is always treated as fresh, so hand-built test scans
  // and recorded data keep working without a clock.
  Time taken_at{};

  [[nodiscard]] double total_load() const {
    double sum = 0.0;
    for (const auto& [w, l] : load_by_width) sum += l;
    return sum;
  }

  // Field-wise equality — what the delta-epoch differ (fleet/delta.hpp)
  // uses to decide whether a scan changed between censuses.
  friend bool operator==(const ApScan&, const ApScan&) = default;
};

// A channel plan: assignment for every AP in the network.
using ChannelPlan = std::map<ApId, Channel>;

}  // namespace w11
