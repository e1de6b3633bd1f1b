#pragma once
// Fleet builder for the §3 population-level figures: a collection of
// enterprise networks (>=10 APs each) modelled per band, with device mixes,
// offered loads and external interference shaped like the field.
//
// Density calibration: the paper's Fig. 3 (median 7 same-channel
// interferers at 2.4 GHz over 3 channels, 5 at 5 GHz over the ~4 commonly
// used non-DFS 40 MHz bonds) implies a typical AP hears ~20 same-network
// APs. Buildings are therefore packed so carrier-sense neighborhoods are
// that large, while offered loads stay light (Fig. 2's 3 % median 5 GHz
// utilization).

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "flowsim/network.hpp"
#include "flowsim/scan_index.hpp"
#include "workload/topology.hpp"

namespace w11::bench {

struct FleetConfig {
  int networks = 30;
  Band band = Band::G5;
  std::uint64_t seed = 1;
};

inline std::vector<std::unique_ptr<flowsim::Network>> make_fleet(
    const FleetConfig& cfg) {
  Rng rng(cfg.seed);
  std::vector<std::unique_ptr<flowsim::Network>> fleet;
  const bool g24 = cfg.band == Band::G2_4;
  for (int n = 0; n < cfg.networks; ++n) {
    workload::CampusConfig cc;
    cc.band = cfg.band;
    cc.n_aps = static_cast<int>(rng.uniform_int(12, 60));
    cc.buildings = std::max(2, cc.n_aps / 16);
    cc.building_size_m = 60.0;
    // Tight building grid: most of a building's APs carrier-sense each
    // other and part of the next building over. 2.4 GHz propagates further,
    // so those deployments are spaced a touch wider to match Fig. 3.
    cc.campus_size_m = (g24 ? 115.0 : 90.0) *
                       std::ceil(std::sqrt(static_cast<double>(cc.buildings)));
    // 2.4-only devices are ~40 % of the population but generate less
    // traffic (phones, IoT); 5 GHz carries the heavy flows — yet both
    // bands run light most of the day (Fig. 2).
    cc.clients_per_ap_mean = g24 ? 3.0 : 5.0;
    cc.offered_per_client_mbps = g24 ? 0.12 : 0.08;
    // Non-WiFi + neighbour interference is far denser at 2.4 GHz.
    cc.interferers_per_building = g24 ? 1.5 : 0.3;
    cc.seed = rng.engine()();
    auto net = workload::make_campus(cc);
    Rng crng(rng.engine()());
    // 2.4 GHz: the three non-overlapping channels. 5 GHz: 40 MHz bonds —
    // the most common production choice (Table 1 40/80 mix, DFS avoided).
    workload::randomize_channels(
        *net, g24 ? ChannelWidth::MHz20 : ChannelWidth::MHz40, crng);
    fleet.push_back(std::move(net));
  }
  return fleet;
}

}  // namespace w11::bench
