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
#include <initializer_list>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "phy/channel.hpp"

namespace w11 {

// (key, value) pairs kept sorted by key in one vector: the std::map subset
// its users call, with the same key-ordered iteration, so every sum and
// digest over it folds what a map would, at one allocation where a map
// takes one node per entry. An insert out of key order shifts the tail, so
// build a large map in key order or from pairs. Keys must not be changed
// through iteration; values may.
template <class Key, class Value>
class SortedMap {
 public:
  using value_type = std::pair<Key, Value>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  SortedMap() = default;
  // From pairs in any order; of equal keys the first wins, as in std::map.
  explicit SortedMap(std::vector<value_type> items) : items_(std::move(items)) {
    std::ranges::stable_sort(items_, {}, &value_type::first);
    const auto dups = std::ranges::unique(items_, {}, &value_type::first);
    items_.erase(dups.begin(), dups.end());
  }
  SortedMap(std::initializer_list<value_type> l) : SortedMap(std::vector(l)) {}

  // The value stored under `key`, inserted as Value{} if absent.
  Value& operator[](Key key) {
    const auto it =
        std::ranges::lower_bound(items_, key, {}, &value_type::first);
    if (it != items_.end() && it->first == key) return it->second;
    return items_.insert(it, value_type{key, Value{}})->second;
  }
  [[nodiscard]] const_iterator find(Key key) const {
    const auto it =
        std::ranges::lower_bound(items_, key, {}, &value_type::first);
    return it != items_.end() && it->first == key ? it : items_.end();
  }
  [[nodiscard]] const Value& at(Key key) const {
    const auto it = find(key);
    if (it == items_.end()) throw std::out_of_range("SortedMap::at");
    return it->second;
  }
  [[nodiscard]] bool contains(Key key) const { return find(key) != end(); }
  [[nodiscard]] std::size_t count(Key key) const { return contains(key); }
  void clear() { items_.clear(); }
  void reserve(std::size_t n) { items_.reserve(n); }
  [[nodiscard]] std::size_t size() const { return items_.size(); }

  [[nodiscard]] iterator begin() { return items_.begin(); }
  [[nodiscard]] iterator end() { return items_.end(); }
  [[nodiscard]] const_iterator begin() const { return items_.begin(); }
  [[nodiscard]] const_iterator end() const { return items_.end(); }

  // Equal keys with equal values: an absent key differs from a stored Value{}.
  friend bool operator==(const SortedMap&, const SortedMap&) = default;

 private:
  std::vector<value_type> items_;
};

// A spectrum field of a scan: a few entries, at most one per 20 MHz channel.
template <class Key>
using SpectrumMap = SortedMap<Key, double>;

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

// A channel plan: assignment for every AP in the network, id-ascending.
using ChannelPlan = SortedMap<ApId, Channel>;

}  // namespace w11
