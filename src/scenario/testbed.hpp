#pragma once
// The paper's performance testbed (Fig. 13) as a reusable scenario.
//
// N APs share one collision domain (same channel); each AP serves M clients
// spread around it. Each client terminates one downlink TCP flow from a
// wired sender behind a gigabit link, mirroring the ixChariot setup of
// §5.6.1. FastACK can be enabled per AP, which is how the multi-AP
// experiments (Fig. 18) toggle (i)/(ii)/(iii).

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/fastack/agent.hpp"
#include "core/snoop/snoop_agent.hpp"
#include "mac/medium.hpp"
#include "net/tcp_sender.hpp"
#include "net/wired_link.hpp"
#include "sim/simulator.hpp"
#include "wlan/access_point.hpp"
#include "wlan/client.hpp"

namespace w11::scenario {

enum class TrafficType { kTcpDownlink, kUdpDownlink };

// Per-AP TCP acceleration: none (host TCP only), TCP-Snoop (local loss
// hiding), or FastACK (the paper's contribution).
enum class TcpAccel { kNone, kSnoop, kFastAck };

struct TestbedConfig {
  int n_aps = 1;
  int n_clients_per_ap = 10;
  // FastACK per AP; empty = all baseline, single entry = applies to all.
  // (Shorthand for `accel`; ignored when `accel` is set.)
  std::vector<bool> fastack;
  // Full acceleration selection; empty = derive from `fastack`.
  std::vector<TcpAccel> accel;
  fastack::FastAckAgent::Config agent;

  std::uint64_t seed = 1;
  Time duration = time::seconds(10);
  // Measurement starts after warmup (slow start, queue fill).
  Time warmup = time::seconds(2);

  TrafficType traffic = TrafficType::kTcpDownlink;
  TcpSender::Config sender;
  TcpReceiver::Config receiver;
  WiredLink::Config wire;

  Channel channel{Band::G5, 42, ChannelWidth::MHz80};
  PropagationModel prop;
  mac::MediumConfig medium;
  RateController::Config rate_control;
  double bad_hint_rate = 0.0;
  int amsdu_max_msdus = 1;  // A-MSDU bundling at the APs

  // Clients are placed uniformly between these distances from their AP.
  double client_min_dist_m = 2.0;
  double client_max_dist_m = 25.0;
  // Give every AP an identical (mirrored) client layout — the multi-AP
  // comparisons of Fig. 18 assume comparable cells.
  bool symmetric_cells = false;

  // DSCP mark per client index (drives the EDCA access category, Fig. 4).
  int (*dscp_of)(int client_idx) = nullptr;
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig cfg);
  ~Testbed();
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  // Run warmup + measurement; safe to call exactly once.
  void run();

  // Roam a client — identified by its *original* (ap, client) indices — to
  // `to_ap_idx`, from wherever it currently is (§5.5.4): disassociates,
  // re-associates, reroutes its wired path and transfers FastACK flow state
  // when both APs run the agent. Call from a scheduled simulator event to
  // roam mid-run. No-op if already there.
  void roam(int orig_ap_idx, int client_idx, int to_ap_idx);

  // --- fault-injection surface ------------------------------------------
  // AP crash/reboot: every queued downlink frame is lost, clients
  // re-associate, and the FastACK agent's flow table is gone (the paper's
  // §5.5.4 state-loss corner case). Senders recover end to end. Call from a
  // scheduled simulator event to crash mid-run.
  void crash_ap(int ap_idx);
  // Wired links (per AP) for outage/flap injection, and mutable agent
  // access for anomaly injection.
  [[nodiscard]] WiredLink& down_link(int ap_idx) { return *down_links_.at(static_cast<std::size_t>(ap_idx)); }
  [[nodiscard]] WiredLink& up_link(int ap_idx) { return *up_links_.at(static_cast<std::size_t>(ap_idx)); }
  [[nodiscard]] fastack::FastAckAgent* agent_mut(int idx) {
    return agents_.at(static_cast<std::size_t>(idx)).get();
  }

  // --- results (valid after run()) --------------------------------------
  // Goodput summed over every client of every AP, measured post-warmup.
  [[nodiscard]] double aggregate_throughput_mbps() const;
  [[nodiscard]] double ap_throughput_mbps(int ap_idx) const;
  [[nodiscard]] std::vector<double> per_client_throughput_mbps() const;

  // Mean A-MPDU size per client of one AP (Fig. 15).
  [[nodiscard]] std::vector<double> mean_ampdu_per_client(int ap_idx) const;

  // Condensed run health for bench mains and the fleet health engine
  // (plain types only; the trace fields read the recorder attached to the
  // simulator and are zero when none is).
  struct Health {
    int aps = 0;
    int clients = 0;
    double aggregate_mbps = 0.0;
    double client_min_mbps = 0.0;
    double client_max_mbps = 0.0;
    std::uint64_t trace_events = 0;   // recorded this run
    std::uint64_t trace_dropped = 0;  // lost to ring overflow
  };
  [[nodiscard]] Health health() const;

  [[nodiscard]] const AccessPoint& ap(int idx) const { return *aps_.at(idx); }
  [[nodiscard]] const fastack::FastAckAgent* agent(int idx) const {
    return agents_.at(idx).get();
  }
  [[nodiscard]] const snoop::SnoopAgent* snoop_agent(int idx) const {
    return snoop_agents_.at(idx).get();
  }
  [[nodiscard]] const TcpSender& sender(int ap_idx, int client_idx) const;
  [[nodiscard]] TcpSender& sender(int ap_idx, int client_idx);
  [[nodiscard]] const ClientStation& client(int ap_idx, int client_idx) const;
  [[nodiscard]] Simulator& simulator() { return sim_; }
  [[nodiscard]] const mac::Medium& medium() const { return *medium_; }
  [[nodiscard]] const TestbedConfig& config() const { return cfg_; }

 private:
  struct FlowCtx {
    FlowId flow;
    int ap_idx;  // current serving AP (changes on roam)
    int client_idx;
    std::unique_ptr<TcpSender> sender;
    std::uint64_t bytes_at_warmup = 0;  // receiver-side snapshot
  };

  [[nodiscard]] std::size_t flow_index(int ap_idx, int client_idx) const;

  TestbedConfig cfg_;
  // The W11_TRACE run's recorder. Declared before sim_, whose destructor
  // unbinds it.
  obs::TraceRecorder trace_;
  Simulator sim_;
  Rng rng_;
  std::unique_ptr<mac::Medium> medium_;
  std::vector<std::unique_ptr<AccessPoint>> aps_;
  std::vector<std::unique_ptr<fastack::FastAckAgent>> agents_;
  std::vector<std::unique_ptr<snoop::SnoopAgent>> snoop_agents_;
  std::vector<std::unique_ptr<ClientStation>> clients_;  // ap-major order
  std::vector<std::unique_ptr<WiredLink>> down_links_;   // per AP
  std::vector<std::unique_ptr<WiredLink>> up_links_;     // per AP
  std::vector<FlowCtx> flows_;                           // ap-major order
  std::vector<std::uint64_t> udp_bytes_at_warmup_;       // per client
  bool ran_ = false;
};

}  // namespace w11::scenario
