#pragma once
// Topology generators: build flowsim Networks shaped like the paper's
// deployments — UNet (≈600-AP university campus), MNet (≈300-AP museum),
// the Meraki HQ dense office (§3.2.2), and generic enterprise networks for
// the fleet-level figures.

#include <memory>

#include "common/rng.hpp"
#include "flowsim/network.hpp"
#include "workload/device_population.hpp"

namespace w11::workload {

struct CampusConfig {
  int n_aps = 100;
  // APs cluster into buildings laid out on a grid.
  int buildings = 8;
  double building_size_m = 60.0;
  double campus_size_m = 500.0;
  double clients_per_ap_mean = 8.0;
  double offered_per_client_mbps = 1.5;
  Era era = Era::k2017;
  Band band = Band::G5;
  // Initial channels: all on the same default (a fresh, unplanned network).
  Channel initial{Band::G5, 36, ChannelWidth::MHz20};
  // External interference: density per building.
  double interferers_per_building = 1.0;
  RateMbps uplink_capacity{0.0};
  std::uint64_t seed = 1;
};

// A clustered multi-building campus network.
[[nodiscard]] std::unique_ptr<flowsim::Network> make_campus(const CampusConfig& cfg);

struct OfficeConfig {
  int n_aps = 33;           // Meraki HQ floor: 31-35 APs
  int n_clients = 350;      // 300-400 clients
  double offered_per_client_mbps = 1.2;
  Band band = Band::G5;
  Era era = Era::k2017;
  Channel initial{Band::G5, 36, ChannelWidth::MHz20};
  std::uint64_t seed = 7;
};

// A single dense office floor (the high-utilization HQ comparison, Fig. 2).
[[nodiscard]] std::unique_ptr<flowsim::Network> make_office(const OfficeConfig& cfg);

// Assign initial channels randomly from the non-DFS catalog (what a naive /
// fresh deployment looks like before any CA service runs).
void randomize_channels(flowsim::Network& net, ChannelWidth width, Rng& rng);

}  // namespace w11::workload
