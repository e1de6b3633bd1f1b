#pragma once
// Flow-level model of a large multi-AP wireless network.
//
// Packet-level simulation of a 600-AP campus is not feasible (nor was it
// for the authors — §4.7); what channel assignment actually changes is
// (a) which APs contend with which, (b) the airtime share each AP obtains,
// and (c) the SINR — hence PHY rate — each client sees. This module models
// exactly those three effects:
//
//   * contention graph: APs within carrier-sense range on overlapping
//     channels share airtime; external interferers consume duty cycle;
//   * airtime shares solved by damped iterative water-filling over
//     carrier-sense neighborhoods;
//   * client SINR from the propagation model plus co-channel interference
//     from out-of-CS-range transmitters, mapped through the VHT MCS table.
//
// Outcome metrics (usage, AP-side TCP latency, bit-rate efficiency, RSSI)
// are derived from these results — *not* from TurboCA's NodeP — so channel
// plans are evaluated by an independent model, avoiding circularity.

#include <array>
#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "flowsim/scan.hpp"
#include "phy/channel.hpp"
#include "phy/propagation.hpp"
#include "wlan/capability.hpp"

namespace w11::flowsim {

struct ExternalInterferer {
  Position pos;
  Channel channel;
  double duty_cycle = 0.2;  // fraction of airtime it occupies
  Dbm tx_power = 20.0;
};

struct ClientNode {
  StationId id;
  Position pos;
  ClientCapability cap;
  double offered_mbps = 1.0;       // current downlink demand
  double base_offered_mbps = 1.0;  // demand at load factor 1.0
};

struct ApNode {
  ApId id;
  Position pos;
  ChannelWidth max_width = ChannelWidth::MHz80;
  Channel channel{Band::G5, 36, ChannelWidth::MHz20};
  std::optional<Channel> dfs_fallback;  // §4.5.2
  bool dfs_capable = true;
  std::vector<ClientNode> clients;
};

struct ApMetrics {
  ApId id;
  double demand_airtime = 0.0;   // airtime fraction needed for offered load
  double airtime_share = 0.0;    // airtime fraction obtained
  double utilization = 0.0;      // medium busy fraction seen at this AP
  double throughput_mbps = 0.0;  // achieved downlink goodput
  double offered_mbps = 0.0;
  double mean_phy_rate_mbps = 0.0;
  double mean_bitrate_efficiency = 0.0;  // mean over clients (§4.6.2)
  std::vector<double> client_efficiency; // per-client rate / max-rate
  int cochannel_interferers = 0;         // same-channel APs in CS range
};

struct Evaluation {
  std::vector<ApMetrics> per_ap;
  double total_throughput_mbps = 0.0;
  double total_offered_mbps = 0.0;
  [[nodiscard]] const ApMetrics& of(ApId id) const;
};

// Single-threaded: scan() draws measurement noise from the network's own
// Rng, and the first measurement after a mutation refills the memos the
// mutation dropped, so const calls on one Network must not run
// concurrently.
class Network {
 public:
  struct Config {
    Band band = Band::G5;
    PropagationModel prop;
    RateMbps uplink_capacity{0.0};     // WAN uplink; 0 = unconstrained
    // The dedicated scanning radio (§2.1) dwells 150 ms per channel, so its
    // utilization estimates are samples, not truth; this sigma adds
    // deterministic-seeded measurement noise to every scan() (0 = oracle).
    double scan_noise_sigma = 0.0;
    std::uint64_t seed = 1;
  };

  explicit Network(Config cfg);

  // --- topology ----------------------------------------------------------
  // Positions never move once added. Each mutator below (and
  // apply_plan/apply_channel when a channel changes, radar_event) drops the
  // memos that depend on what it changed; see Memo.
  ApId add_ap(Position pos, ChannelWidth max_width, Channel initial,
              bool dfs_capable = true);
  StationId add_client(ApId ap, Position pos, ClientCapability cap,
                       double offered_mbps);
  void add_interferer(ExternalInterferer intf);
  void scale_offered_load(double factor);  // compounding multiplier
  // Non-compounding: offered = base * factor (diurnal profiles).
  void set_load_factor(double factor);
  void set_client_load(ApId ap, double per_client_mbps);
  // RF churn: re-roll every external interferer's channel and duty cycle
  // (neighbouring deployments change, microwaves come and go).
  void mutate_interferers(Rng& rng);

  [[nodiscard]] const std::vector<ApNode>& aps() const { return aps_; }
  [[nodiscard]] std::size_t ap_count() const { return aps_.size(); }
  [[nodiscard]] const Config& config() const { return cfg_; }

  // --- channel plans -----------------------------------------------------
  // Returns the number of APs whose channel actually changed.
  //
  // Every switch disrupts that AP's *active* clients (§4.3.1): clients that
  // honour the Channel Switch Announcement follow seamlessly; clients that
  // don't support CSA — or miss the announcement beacons — must detect the
  // loss, rescan and re-associate (~5 s laptops, ~8 s mobiles). The
  // cumulative client-seconds of disruption are tracked so stability can be
  // weighed against plan quality.
  int apply_plan(const ChannelPlan& plan);
  // Single-AP switch (the rollout pipeline applies plans one command at a
  // time). Same disruption accounting and fallback upkeep as apply_plan;
  // returns whether the channel actually changed.
  bool apply_channel(ApId ap, const Channel& to);
  [[nodiscard]] ChannelPlan current_plan() const;
  [[nodiscard]] int total_switches() const { return total_switches_; }
  [[nodiscard]] double disruption_client_seconds() const {
    return disruption_client_seconds_;
  }

  // Radar event on a DFS channel: the AP vacates to its fallback (§4.5.2)
  // and the fallback is recomputed afterwards, so repeated strikes walk the
  // AP down a chain that always terminates on a non-DFS channel — an AP is
  // never stranded on a channel it must leave. No-op off DFS channels.
  void radar_event(ApId ap);
  [[nodiscard]] int radar_evacuations() const { return radar_evacuations_; }
  // Non-occupancy memory: a channel struck this epoch stays on the list
  // until rearm_radar() (called at epoch boundaries, when regulation would
  // allow re-occupancy). A repeat strike on a listed channel — the planner
  // moved an AP back onto it within the epoch — still vacates the AP but
  // does NOT re-count evacuation/disruption degradation; it is the same
  // regulatory event, not new damage.
  void rearm_radar() { radar_struck_.clear(); }
  [[nodiscard]] bool radar_struck(const Channel& c) const {
    return radar_struck_.contains(c);
  }
  [[nodiscard]] int radar_duplicates() const { return radar_duplicates_; }

  // --- measurement -------------------------------------------------------
  // Scan snapshots for the channel-assignment service.
  [[nodiscard]] std::vector<ApScan> scan() const;

  // Solve airtime shares for the current plan and report per-AP outcomes.
  // The solution is memoised until the next state mutation: scan() and
  // evaluate() on one state share a single solve.
  [[nodiscard]] Evaluation evaluate() const;

  // Sample distributions derived from an evaluation (outcome metrics).
  // TCP latency in ms: medium-access queueing driven by utilization and
  // contender count; `slow_client_fraction` injects the ≥400 ms tail the
  // paper attributes to unresponsive clients (Fig. 8).
  [[nodiscard]] Samples sample_tcp_latency(const Evaluation& ev,
                                           int samples_per_ap,
                                           double slow_client_fraction = 0.02);
  [[nodiscard]] Samples sample_bitrate_efficiency(const Evaluation& ev) const;
  [[nodiscard]] Samples sample_client_rssi() const;
  // Utilization seen by each AP (Fig. 2-style CDF input).
  [[nodiscard]] Samples sample_utilization(const Evaluation& ev) const;
  // Same-channel interferer count per AP (Fig. 3).
  [[nodiscard]] Samples sample_cochannel_interferers() const;

 private:
  [[nodiscard]] const ApNode& ap_of(ApId id) const;
  [[nodiscard]] ApNode& ap_of_mut(ApId id);
  // Keep a non-DFS fallback whenever `ap` sits on a DFS channel; clear it
  // otherwise. Shared by apply_plan and radar_event.
  void refresh_dfs_fallback(ApNode& ap);
  // §4.3.1 disruption accounting for one AP's active clients after a switch.
  void account_switch_disruption(const ApNode& ap);

  // Inputs to solve() memoised at the level where they change (DESIGN.md
  // §9). Each level depends on every level before it, so a mutation drops
  // its own level and all later ones; the next measurement refills them in
  // order. Every cached value is the expression the solver would evaluate
  // afresh, so a refill changes no output bit.
  enum class Memo : std::uint8_t {
    kNone,
    kTopology,     // LinkBudget: add_* drops it
    kPlan,         // PlanCache: a channel change, radar_event
    kInterferers,  // InterfererCache: mutate_interferers
    kEvaluation,   // eval_: any load change
  };
  void drop(Memo level);

  // Per topology: positions, transmit powers and client capabilities.
  struct ClientLink {
    Db loss = 0.0;    // AP <-> client path loss
    int mcs_cap = 0;  // the client's highest MCS
    // mcs::max_rate of the association at each AP operating width, indexed
    // by ChannelWidth (the §4.6.2 efficiency denominator).
    std::array<double, 4> max_rate{};
  };
  struct CsNeighbor {
    std::uint32_t index;  // an AP this AP carrier-senses
    Dbm rssi;             // kApTxPowerDbm - path loss, as scans report it
  };
  struct LinkBudget {
    // n x n, row-major, symmetric: dbm_to_mw(kApTxPowerDbm - path loss).
    std::vector<double> rx_mw;
    std::vector<std::vector<CsNeighbor>> cs_aps;  // ascending index
    std::vector<std::vector<ClientLink>> clients;  // [ap][client]
    // AP i's clients own [client_begin[i], client_begin[i + 1]) of the
    // flat per-client arrays (PlanCache::rate0 and solve()'s).
    std::vector<std::uint32_t> client_begin;
    std::vector<Db> intf_ap;  // [ap * interferers + k], path loss
    // Interferers each AP carrier-senses, ascending index.
    std::vector<std::vector<std::size_t>> cs_interferers;
    // Thermal noise per ChannelWidth in mW, and that power back in dBm.
    std::array<double, 4> noise_mw{};
    std::array<double, 4> noise_dbm{};
  };
  // Per plan: co-channel APs (ascending index) — CS neighbours share
  // airtime, hidden ones (out of CS range) interfere at the clients — each
  // AP's channel ordinal (-1 outside the catalog), and the client rates of
  // the solver's first pass, which sees no interference.
  struct PlanCache {
    std::vector<std::vector<std::uint32_t>> cs;
    std::vector<std::vector<std::uint32_t>> hidden;
    std::vector<int> ord;
    std::vector<double> rate0;  // flat, by LinkBudget::client_begin
  };
  // Per interferer state and plan: each AP's external duty on its own
  // channel, and the interference terms of the overlapping interferers it
  // cannot carrier-sense, in ascending interferer order.
  struct InterfererCache {
    std::vector<double> ext;
    std::vector<std::vector<double>> terms;
  };

  [[nodiscard]] const LinkBudget& budget() const;
  [[nodiscard]] const PlanCache& plan_cache() const;
  [[nodiscard]] const InterfererCache& interferer_cache() const;
  // What scan() reports before noise: each AP's nonzero external duty on
  // the 20 MHz catalog channels, as (catalog position, duty) entries in
  // ascending position, AP i's being [begin[i], begin[i + 1]). It depends
  // on the topology and the interferers but not on the plan, so it sits
  // beside the memo levels: add_* and mutate_interferers drop it, a channel
  // change does not. Sparse because few channels carry a sensed
  // interferer.
  struct ScanDuty {
    std::vector<std::uint32_t> begin;
    std::vector<std::pair<std::uint32_t, double>> duty;
    bool valid = false;
  };
  [[nodiscard]] const ScanDuty& scan_duty() const;
  [[nodiscard]] const Evaluation& evaluation() const;
  [[nodiscard]] Evaluation solve() const;
  [[nodiscard]] double external_duty_at(const LinkBudget& b, std::size_t i,
                                        const Channel& on) const;
  // Client PHY rate at SINR `rssi - noise_intf_dbm` on `width`.
  [[nodiscard]] double client_phy_rate(const ClientNode& cl,
                                       const ClientLink& link,
                                       ChannelWidth width,
                                       Dbm noise_intf_dbm,
                                       int cochannel_contenders) const;

  Config cfg_;
  mutable Rng rng_;
  mutable Memo memo_ = Memo::kNone;  // the deepest level that is valid
  mutable LinkBudget budget_;
  mutable PlanCache plan_;
  mutable InterfererCache intf_;
  mutable ScanDuty scan_duty_;
  mutable Evaluation eval_;
  std::vector<ApNode> aps_;
  std::vector<ExternalInterferer> interferers_;
  int total_switches_ = 0;
  int radar_evacuations_ = 0;
  int radar_duplicates_ = 0;
  std::set<Channel> radar_struck_;  // struck this epoch (cleared by rearm)
  double disruption_client_seconds_ = 0.0;
  std::uint32_t next_station_ = 0;
};

}  // namespace w11::flowsim
