#include "workload/topology.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace w11::workload {

namespace {

// Office floor plan (make_office), in metres.
constexpr double kFloorWM = 120.0;
constexpr double kFloorHM = 60.0;

// Clamp a client's capability to the band the network models. 2.4-only
// clients never appear on a 5 GHz radio's association list.
bool usable_on_band(const ClientCapability& cap, Band band) {
  return band == Band::G2_4 || cap.supports_5ghz;
}

Channel band_default(Band band) {
  return band == Band::G2_4 ? Channel{Band::G2_4, 1, ChannelWidth::MHz20}
                            : Channel{Band::G5, 36, ChannelWidth::MHz20};
}

void place_clients(flowsim::Network& net, ApId ap, Position ap_pos, int count,
                   double offered_mbps, Era era, Band band, Rng& rng) {
  int placed = 0;
  int guard = 0;
  while (placed < count && guard < count * 20) {
    ++guard;
    ClientCapability cap = sample_client(era, rng);
    if (!usable_on_band(cap, band)) continue;
    const double angle = rng.uniform(0.0, 2.0 * 3.14159265358979323846);
    const double dist = std::sqrt(rng.uniform(1.0, 20.0 * 20.0));
    const Position pos{ap_pos.x + dist * std::cos(angle),
                       ap_pos.y + dist * std::sin(angle)};
    const double load = offered_mbps * rng.lognormal(0.0, 0.6);
    net.add_client(ap, pos, cap, load);
    ++placed;
  }
}

}  // namespace

std::unique_ptr<flowsim::Network> make_campus(const CampusConfig& cfg) {
  W11_CHECK(cfg.n_aps > 0);
  Rng rng(cfg.seed);

  flowsim::Network::Config ncfg;
  ncfg.band = cfg.band;
  ncfg.uplink_capacity = cfg.uplink_capacity;
  ncfg.seed = rng.engine()();
  auto net = std::make_unique<flowsim::Network>(ncfg);

  // Buildings on a grid; APs uniform within their building.
  const int grid = std::max(1, static_cast<int>(std::ceil(std::sqrt(
                                   static_cast<double>(cfg.buildings)))));
  const double pitch = cfg.campus_size_m / grid;

  const Channel initial =
      cfg.band == cfg.initial.band ? cfg.initial : band_default(cfg.band);

  for (int i = 0; i < cfg.n_aps; ++i) {
    const int b = static_cast<int>(rng.index(static_cast<std::size_t>(cfg.buildings)));
    const double bx = (b % grid) * pitch + pitch / 2.0;
    const double by = (b / grid) * pitch + pitch / 2.0;
    const Position pos{bx + rng.uniform(-cfg.building_size_m / 2, cfg.building_size_m / 2),
                       by + rng.uniform(-cfg.building_size_m / 2, cfg.building_size_m / 2)};
    const ApId ap = net->add_ap(pos, ChannelWidth::MHz80, initial);

    const int n_clients = std::max(
        0, static_cast<int>(rng.normal(cfg.clients_per_ap_mean,
                                       cfg.clients_per_ap_mean / 2.5)));
    place_clients(*net, ap, pos, n_clients, cfg.offered_per_client_mbps,
                  cfg.era, cfg.band, rng);
  }

  // External interferers (neighbouring businesses, hotspots): parked on
  // random catalog channels near buildings.
  const auto catalog = channels::us_catalog(cfg.band, ChannelWidth::MHz20);
  const int n_intf = static_cast<int>(cfg.interferers_per_building *
                                      static_cast<double>(cfg.buildings));
  for (int k = 0; k < n_intf; ++k) {
    flowsim::ExternalInterferer intf;
    const int b = static_cast<int>(rng.index(static_cast<std::size_t>(cfg.buildings)));
    intf.pos = Position{(b % grid) * pitch + rng.uniform(0.0, pitch),
                        (b / grid) * pitch + rng.uniform(0.0, pitch)};
    intf.channel = catalog[rng.index(catalog.size())];
    intf.duty_cycle = rng.uniform(0.05, 0.5);
    net->add_interferer(intf);
  }
  return net;
}

std::unique_ptr<flowsim::Network> make_office(const OfficeConfig& cfg) {
  Rng rng(cfg.seed);

  flowsim::Network::Config ncfg;
  ncfg.band = cfg.band;
  ncfg.seed = rng.engine()();
  auto net = std::make_unique<flowsim::Network>(ncfg);

  // APs on a regular grid over the floor — dense: every AP hears many
  // others, which is what drives the HQ utilization numbers in Fig. 2.
  const int cols = std::max(1, static_cast<int>(std::ceil(
                                   std::sqrt(cfg.n_aps * kFloorWM / kFloorHM))));
  const int rows = (cfg.n_aps + cols - 1) / cols;
  const Channel initial =
      cfg.band == cfg.initial.band ? cfg.initial : band_default(cfg.band);

  std::vector<ApId> aps;
  std::vector<Position> ap_pos;
  for (int i = 0; i < cfg.n_aps; ++i) {
    const Position pos{(i % cols + 0.5) * kFloorWM / cols,
                       (i / cols % std::max(rows, 1) + 0.5) * kFloorHM /
                           std::max(rows, 1)};
    aps.push_back(net->add_ap(pos, ChannelWidth::MHz80, initial));
    ap_pos.push_back(pos);
  }

  // Clients spread over the whole floor, attached to the nearest AP.
  int placed = 0;
  int guard = 0;
  while (placed < cfg.n_clients && guard < cfg.n_clients * 20) {
    ++guard;
    ClientCapability cap = sample_client(cfg.era, rng);
    if (!usable_on_band(cap, cfg.band)) continue;
    const Position pos{rng.uniform(0.0, kFloorWM),
                       rng.uniform(0.0, kFloorHM)};
    std::size_t best = 0;
    double best_d = 1e18;
    for (std::size_t a = 0; a < ap_pos.size(); ++a) {
      const double d = distance_m(pos, ap_pos[a]);
      if (d < best_d) {
        best_d = d;
        best = a;
      }
    }
    net->add_client(aps[best], pos, cap,
                    cfg.offered_per_client_mbps * rng.lognormal(0.0, 0.5));
    ++placed;
  }
  return net;
}

void randomize_channels(flowsim::Network& net, ChannelWidth width, Rng& rng) {
  auto cands =
      channels::candidate_set(net.config().band, width, /*allow_dfs=*/false);
  // candidate_set returns every width up to `width`; keep the exact width
  // when it exists without DFS (160 MHz does not — fall back to widest).
  auto exact = cands;
  std::erase_if(exact, [&](const Channel& c) { return c.width != width; });
  if (!exact.empty()) cands = std::move(exact);
  W11_CHECK(!cands.empty());
  ChannelPlan plan;
  for (const auto& ap : net.aps()) plan[ap.id] = cands[rng.index(cands.size())];
  net.apply_plan(plan);
}

}  // namespace w11::workload
