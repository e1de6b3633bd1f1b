// Unit tests for the flow-level network model.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/fnv.hpp"
#include "core/turboca/service.hpp"
#include "fleet/delta.hpp"
#include "flowsim/network.hpp"
#include "flowsim/scan_index.hpp"
#include "workload/topology.hpp"
#include "workload/traffic.hpp"

namespace w11 {
namespace {

using flowsim::Network;

constexpr Channel ch36{Band::G5, 36, ChannelWidth::MHz20};
constexpr Channel ch149{Band::G5, 149, ChannelWidth::MHz20};
constexpr Channel ch42_80{Band::G5, 42, ChannelWidth::MHz80};
constexpr Channel ch52{Band::G5, 52, ChannelWidth::MHz20};  // DFS

Network::Config quiet_config() {
  Network::Config cfg;
  cfg.prop.shadowing_sigma = 0.0;
  return cfg;
}

ClientCapability ac2ss() {
  return ClientCapability{WifiStandard::k80211ac, true, ChannelWidth::MHz80, 2,
                          true, true};
}

TEST(Flowsim, LoneApMeetsModestDemand) {
  Network net(quiet_config());
  const ApId ap = net.add_ap({0, 0}, ChannelWidth::MHz80, ch42_80);
  for (int i = 0; i < 5; ++i)
    net.add_client(ap, {5.0 + i, 0}, ac2ss(), 10.0);
  const auto ev = net.evaluate();
  EXPECT_NEAR(ev.total_offered_mbps, 50.0, 1e-6);
  EXPECT_NEAR(ev.total_throughput_mbps, 50.0, 1.0);
  EXPECT_LT(ev.per_ap[0].utilization, 0.5);
  EXPECT_GT(ev.per_ap[0].mean_phy_rate_mbps, 400.0);
}

TEST(Flowsim, CochannelNeighborsShareAirtime) {
  Network net(quiet_config());
  const ApId a = net.add_ap({0, 0}, ChannelWidth::MHz20, ch36);
  const ApId b = net.add_ap({20, 0}, ChannelWidth::MHz20, ch36);
  // Both demand more than half the medium.
  for (int i = 0; i < 4; ++i) {
    net.add_client(a, {2.0 + i, 0}, ac2ss(), 30.0);
    net.add_client(b, {22.0 + i, 0}, ac2ss(), 30.0);
  }
  const auto ev = net.evaluate();
  // Each is throttled below demand...
  EXPECT_LT(ev.of(a).throughput_mbps, ev.of(a).offered_mbps);
  // ...roughly fairly (§5.6.3).
  EXPECT_NEAR(ev.of(a).airtime_share, ev.of(b).airtime_share, 0.15);
  EXPECT_EQ(ev.of(a).cochannel_interferers, 1);
  // Separating the channels releases the pressure.
  net.apply_plan({{b, ch149}});
  const auto ev2 = net.evaluate();
  EXPECT_GT(ev2.total_throughput_mbps, ev.total_throughput_mbps * 1.2);
  EXPECT_EQ(ev2.of(a).cochannel_interferers, 0);
}

TEST(Flowsim, ExternalInterfererStealsAirtime) {
  Network net(quiet_config());
  const ApId a = net.add_ap({0, 0}, ChannelWidth::MHz20, ch36);
  for (int i = 0; i < 4; ++i) net.add_client(a, {3.0 + i, 0}, ac2ss(), 40.0);
  const double clean = net.evaluate().of(a).throughput_mbps;
  flowsim::ExternalInterferer intf;
  intf.pos = {5, 5};
  intf.channel = ch36;
  intf.duty_cycle = 0.6;
  net.add_interferer(intf);
  const double dirty = net.evaluate().of(a).throughput_mbps;
  EXPECT_LT(dirty, clean);
}

TEST(Flowsim, UplinkCapScalesThroughputDown) {
  auto cfg = quiet_config();
  cfg.uplink_capacity = RateMbps{30.0};
  Network net(cfg);
  const ApId a = net.add_ap({0, 0}, ChannelWidth::MHz80, ch42_80);
  for (int i = 0; i < 5; ++i) net.add_client(a, {4.0 + i, 0}, ac2ss(), 20.0);
  const auto ev = net.evaluate();
  EXPECT_NEAR(ev.total_throughput_mbps, 30.0, 1e-6);
}

TEST(Flowsim, UtilizationBounded) {
  Network net(quiet_config());
  const ApId a = net.add_ap({0, 0}, ChannelWidth::MHz20, ch36);
  const ApId b = net.add_ap({10, 0}, ChannelWidth::MHz20, ch36);
  for (int i = 0; i < 10; ++i) {
    net.add_client(a, {1.0 + i, 0}, ac2ss(), 100.0);
    net.add_client(b, {11.0 + i, 0}, ac2ss(), 100.0);
  }
  for (const auto& m : net.evaluate().per_ap) {
    EXPECT_GE(m.utilization, 0.0);
    EXPECT_LE(m.utilization, 1.0);
    EXPECT_GE(m.airtime_share, 0.0);
    EXPECT_LE(m.airtime_share, 1.0);
  }
}

TEST(Flowsim, EfficiencyWithinUnitInterval) {
  Network net(quiet_config());
  const ApId a = net.add_ap({0, 0}, ChannelWidth::MHz80, ch42_80);
  net.add_client(a, {3, 0}, ac2ss(), 5.0);
  net.add_client(a, {60, 0}, ac2ss(), 5.0);
  const auto ev = net.evaluate();
  for (double e : ev.of(a).client_efficiency) {
    EXPECT_GE(e, 0.0);
    EXPECT_LE(e, 1.0);
  }
  // The distant client is less efficient.
  EXPECT_LT(ev.of(a).client_efficiency[1], ev.of(a).client_efficiency[0]);
}

TEST(Flowsim, EfficiencyIsWidthNeutralButInterferenceSensitive) {
  // The §4.6.2 metric normalizes by the association's max rate at the
  // *operating* width, so re-planning to a narrow channel does not by
  // itself tank efficiency — but external interference on the channel does
  // (lower SINR -> lower MCS at the same width).
  Network net(quiet_config());
  const ApId a = net.add_ap({0, 0}, ChannelWidth::MHz80, ch42_80);
  net.add_client(a, {20, 0}, ac2ss(), 5.0);
  const double wide = net.evaluate().of(a).mean_bitrate_efficiency;
  net.apply_plan({{a, ch36}});
  const double narrow = net.evaluate().of(a).mean_bitrate_efficiency;
  // Same ballpark — no 4x capability cliff. (Narrow runs a little closer
  // to its ceiling: lower noise floor at the same distance.)
  EXPECT_NEAR(wide, narrow, 0.45);

  // Park a strong interferer out of CS range but near the client's channel:
  // efficiency drops at unchanged width.
  flowsim::ExternalInterferer intf;
  intf.pos = {120, 0};
  intf.channel = ch36;
  intf.duty_cycle = 0.9;
  net.add_interferer(intf);
  const double interfered = net.evaluate().of(a).mean_bitrate_efficiency;
  EXPECT_LT(interfered, narrow);
}

TEST(Flowsim, ApplyPlanCountsSwitches) {
  Network net(quiet_config());
  const ApId a = net.add_ap({0, 0}, ChannelWidth::MHz80, ch36);
  const ApId b = net.add_ap({50, 0}, ChannelWidth::MHz80, ch36);
  EXPECT_EQ(net.apply_plan({{a, ch149}, {b, ch36}}), 1);  // b unchanged
  EXPECT_EQ(net.total_switches(), 1);
  EXPECT_EQ(net.current_plan().at(a), ch149);
}

TEST(Flowsim, RadarEventVacatesDfsChannel) {
  Network net(quiet_config());
  const ApId a = net.add_ap({0, 0}, ChannelWidth::MHz80, ch36);
  net.apply_plan({{a, ch52}});
  EXPECT_TRUE(net.aps()[0].channel.is_dfs());
  net.radar_event(a);
  EXPECT_FALSE(net.aps()[0].channel.is_dfs());
  // Radar on a non-DFS channel is a no-op.
  const Channel before = net.aps()[0].channel;
  net.radar_event(a);
  EXPECT_EQ(net.aps()[0].channel, before);
}

TEST(Flowsim, ScanReportsNeighborsAndLoads) {
  Network net(quiet_config());
  const ApId a = net.add_ap({0, 0}, ChannelWidth::MHz80, ch36);
  const ApId b = net.add_ap({15, 0}, ChannelWidth::MHz80, ch149);
  const ApId far = net.add_ap({5000, 0}, ChannelWidth::MHz80, ch36);
  ClientCapability narrow = ac2ss();
  narrow.max_width = ChannelWidth::MHz40;
  net.add_client(a, {2, 0}, ac2ss(), 4.0);
  net.add_client(a, {3, 0}, narrow, 2.0);

  const auto scans = net.scan();
  ASSERT_EQ(scans.size(), 3u);
  const ApScan& sa = scans[0];
  EXPECT_EQ(sa.id, a);
  ASSERT_EQ(sa.neighbors.size(), 1u);  // only b is in range
  EXPECT_EQ(sa.neighbors[0].id, b);
  EXPECT_TRUE(sa.has_clients);
  EXPECT_GT(sa.load_by_width.at(ChannelWidth::MHz80), 0.0);
  EXPECT_GT(sa.load_by_width.at(ChannelWidth::MHz40), 0.0);
  EXPECT_FALSE(scans[2].has_clients);
  (void)far;
}

TEST(Flowsim, ScanSeesExternalUtilization) {
  Network net(quiet_config());
  net.add_ap({0, 0}, ChannelWidth::MHz80, ch36);
  flowsim::ExternalInterferer intf;
  intf.pos = {3, 0};
  intf.channel = ch149;
  intf.duty_cycle = 0.4;
  net.add_interferer(intf);
  const auto scans = net.scan();
  ASSERT_EQ(scans.size(), 1u);
  EXPECT_NEAR(scans[0].external_util.at(149), 0.4, 1e-9);
  EXPECT_LT(scans[0].quality.at(149), 1.0);
  EXPECT_FALSE(scans[0].external_util.contains(36));
}

TEST(Flowsim, IdleClientsDontCountForDfsRule) {
  Network net(quiet_config());
  const ApId a = net.add_ap({0, 0}, ChannelWidth::MHz80, ch36);
  net.add_client(a, {2, 0}, ac2ss(), 3.0);
  EXPECT_TRUE(net.scan()[0].has_clients);
  net.set_client_load(a, 0.0);  // overnight
  EXPECT_FALSE(net.scan()[0].has_clients);
}

TEST(Flowsim, LatencySamplesGrowWithContention) {
  auto median_latency = [](int n_aps) {
    Network net(Network::Config{});
    for (int i = 0; i < n_aps; ++i) {
      const ApId a = net.add_ap({static_cast<double>(5 * i), 0},
                                ChannelWidth::MHz20, ch36);
      for (int c = 0; c < 5; ++c)
        net.add_client(a, {5.0 * i + 1 + c, 0}, ac2ss(), 8.0);
    }
    Network::Config cfg;
    auto ev = net.evaluate();
    auto s = net.sample_tcp_latency(ev, 200, 0.0);
    return s.median();
  };
  EXPECT_GT(median_latency(8), median_latency(1) * 1.5);
}

TEST(Flowsim, SlowClientTailInjection) {
  Network net(quiet_config());
  const ApId a = net.add_ap({0, 0}, ChannelWidth::MHz80, ch42_80);
  net.add_client(a, {3, 0}, ac2ss(), 5.0);
  auto ev = net.evaluate();
  auto s = net.sample_tcp_latency(ev, 5000, 0.05);
  // ~5 % of samples land in the >=400 ms unresponsive-client tail.
  EXPECT_NEAR(1.0 - s.cdf_at(399.9), 0.05, 0.02);
}

TEST(Flowsim, RssiSamplesLookSane) {
  Network net(quiet_config());
  const ApId a = net.add_ap({0, 0}, ChannelWidth::MHz80, ch42_80);
  for (int i = 0; i < 20; ++i)
    net.add_client(a, {2.0 + i * 2, 0}, ac2ss(), 1.0);
  const auto rssi = net.sample_client_rssi();
  EXPECT_EQ(rssi.count(), 20u);
  EXPECT_LT(rssi.max(), -20.0);
  EXPECT_GT(rssi.min(), -100.0);
}

TEST(Flowsim, ScaleOfferedLoadMultiplies) {
  Network net(quiet_config());
  const ApId a = net.add_ap({0, 0}, ChannelWidth::MHz80, ch42_80);
  net.add_client(a, {3, 0}, ac2ss(), 10.0);
  net.scale_offered_load(0.5);
  EXPECT_NEAR(net.evaluate().total_offered_mbps, 5.0, 1e-9);
}

TEST(Flowsim, EvaluationIsDeterministic) {
  auto run = [] {
    Network net(quiet_config());
    const ApId a = net.add_ap({0, 0}, ChannelWidth::MHz80, ch42_80);
    for (int i = 0; i < 6; ++i)
      net.add_client(a, {3.0 + i, 0}, ac2ss(), 7.0);
    return net.evaluate().total_throughput_mbps;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(Flowsim, HiddenInterferenceDegradesRate) {
  // A co-channel AP out of CS range doesn't serialize, it interferes: the
  // victim's clients see lower SINR and thus lower PHY rates.
  auto mean_rate = [](double dist) {
    Network net(quiet_config());
    const ApId a = net.add_ap({0, 0}, ChannelWidth::MHz20, ch36);
    // Clients at 25 m: SNR in the MCS-sensitive region, not saturated.
    for (int c = 0; c < 3; ++c) net.add_client(a, {25.0 + c, 0}, ac2ss(), 20.0);
    const ApId b = net.add_ap({dist, 0}, ChannelWidth::MHz20, ch36);
    for (int c = 0; c < 3; ++c)
      net.add_client(b, {dist + 2.0 + c, 0}, ac2ss(), 20.0);
    return net.evaluate().of(a).mean_phy_rate_mbps;
  };
  // 80 m: just outside CS range (~71 m at the default model) but radiating
  // strongly, vs 10 km: negligible.
  EXPECT_LT(mean_rate(80.0), mean_rate(10'000.0));
}

}  // namespace
}  // namespace w11

namespace w11 {
namespace {

TEST(Flowsim, ScanNoisePerturbsUtilizationEstimates) {
  flowsim::Network::Config cfg;
  cfg.prop.shadowing_sigma = 0.0;
  cfg.scan_noise_sigma = 0.1;
  flowsim::Network net(cfg);
  const ApId a = net.add_ap({0, 0}, ChannelWidth::MHz80,
                            {Band::G5, 36, ChannelWidth::MHz20});
  flowsim::ExternalInterferer intf;
  intf.pos = {3, 0};
  intf.channel = {Band::G5, 149, ChannelWidth::MHz20};
  intf.duty_cycle = 0.4;
  net.add_interferer(intf);
  (void)a;

  // Two consecutive scans disagree (independent samples) but stay bounded.
  const double u1 = net.scan()[0].external_util.at(149);
  const double u2 = net.scan()[0].external_util.at(149);
  EXPECT_NE(u1, u2);
  for (double u : {u1, u2}) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
    EXPECT_NEAR(u, 0.4, 0.4);  // centred on the true duty
  }
}

TEST(Flowsim, TurboCaRobustToModerateScanNoise) {
  // Plans built from noisy scans must still clearly beat the unplanned
  // network — the algorithm degrades gracefully, it does not flip.
  auto throughput_after_planning = [](double noise) {
    workload::CampusConfig cc;
    cc.n_aps = 30;
    cc.seed = 91;
    auto net = workload::make_campus(cc);
    // (make_campus leaves everyone on ch36/20MHz)
    const double before = net->evaluate().total_throughput_mbps;
    flowsim::Network::Config patched = net->config();
    (void)patched;  // scan noise is set at construction; emulate by
                    // re-planning through noisy hooks below
    turboca::NetworkHooks h;
    h.scan = [&net, noise] {
      auto scans = net->scan();
      Rng jitter(17);
      if (noise > 0.0) {
        for (auto& s : scans)
          for (auto& [comp, u] : s.external_util)
            u = std::clamp(u + jitter.normal(0.0, noise), 0.0, 1.0);
      }
      return scans;
    };
    h.current_plan = [&net] { return net->current_plan(); };
    h.apply_plan = [&net](const ChannelPlan& p) { net->apply_plan(p); };
    turboca::TurboCaService svc({}, {}, h, Rng(5));
    svc.run_now({1, 0});
    const double after = net->evaluate().total_throughput_mbps;
    return after / before;
  };
  EXPECT_GT(throughput_after_planning(0.0), 1.5);
  EXPECT_GT(throughput_after_planning(0.15), 1.5);
}

}  // namespace
}  // namespace w11

namespace w11 {
namespace {

// Digests fold the bit patterns of everything flowsim reports (FNV-1a).
void mix_evaluation(std::uint64_t& h, const flowsim::Evaluation& ev) {
  for (const flowsim::ApMetrics& m : ev.per_ap) {
    fnv::mix_value(h, std::uint64_t{m.id.value()});
    for (double v : {m.demand_airtime, m.airtime_share, m.utilization,
                     m.throughput_mbps, m.offered_mbps, m.mean_phy_rate_mbps,
                     m.mean_bitrate_efficiency})
      fnv::mix_value(h, v);
    for (double e : m.client_efficiency) fnv::mix_value(h, e);
    fnv::mix_value(h, static_cast<std::uint64_t>(m.cochannel_interferers));
  }
  fnv::mix_value(h, ev.total_throughput_mbps);
  fnv::mix_value(h, ev.total_offered_mbps);
}

void mix_scans(std::uint64_t& h, const std::vector<ApScan>& scans) {
  for (const ApScan& s : scans) {
    fnv::mix_value(h, std::uint64_t{s.id.value()});
    fnv::mix_value(h, s.utilization_current);
    fnv::mix_value(h, static_cast<std::uint64_t>(s.has_clients));
    for (const auto& [w, load] : s.load_by_width) {
      fnv::mix_value(h, static_cast<std::uint64_t>(w));
      fnv::mix_value(h, load);
    }
    for (const NeighborReport& nr : s.neighbors) {
      fnv::mix_value(h, std::uint64_t{nr.id.value()});
      fnv::mix_value(h, nr.rssi);
    }
    for (const auto& [comp, u] : s.external_util) {
      fnv::mix_value(h, static_cast<std::uint64_t>(comp));
      fnv::mix_value(h, u);
    }
    for (const auto& [comp, q] : s.quality) {
      fnv::mix_value(h, static_cast<std::uint64_t>(comp));
      fnv::mix_value(h, q);
    }
  }
}

void mix_samples(std::uint64_t& h, const Samples& samples) {
  fnv::mix_value(h, static_cast<std::uint64_t>(samples.count()));
  for (double v : samples.sorted()) fnv::mix_value(h, v);
}

// A fixed copy of the Tbl. 2 deployments in bench/deployment.hpp, so that
// retuning the bench does not move the digest below.
std::unique_ptr<Network> tbl2_deployment(bool unet) {
  workload::CampusConfig cc;
  if (unet) {
    cc.n_aps = 120;
    cc.buildings = 14;
    cc.campus_size_m = 700.0;
    cc.clients_per_ap_mean = 8.0;
    cc.offered_per_client_mbps = 1.2;
    cc.interferers_per_building = 1.0;
    cc.uplink_capacity = RateMbps{400.0};
    cc.seed = 601;
  } else {
    cc.n_aps = 60;
    cc.buildings = 4;
    cc.campus_size_m = 220.0;
    cc.building_size_m = 80.0;
    cc.clients_per_ap_mean = 10.0;
    cc.offered_per_client_mbps = 3.0;
    cc.interferers_per_building = 3.0;
    cc.seed = 301;
  }
  return workload::make_campus(cc);
}

// Two Tbl. 2 days of UNet and MNet under TurboCA, stepped as the bench
// steps them (diurnal load, RF churn every 2 h, a radar strike at 11:00),
// digesting every scan the service takes, every evaluate() and the RSSI and
// co-channel samplers. Pins flowsim's outputs bit for bit, so caching or
// reordering inside Network cannot drift them. If this fails after an
// INTENTIONAL model change, regenerate the constant by running the test and
// copying the printed actual digest. Depends on the host libm's log/log10
// rounding; the CI toolchain pins one implementation.
TEST(FlowsimGolden, Tbl2DaysDigest) {
  std::uint64_t h = fnv::kOffsetBasis;
  for (const bool unet : {true, false}) {
    auto net = tbl2_deployment(unet);
    turboca::NetworkHooks hooks;
    hooks.scan = [&net, &h] {
      auto scans = net->scan();
      mix_scans(h, scans);
      return scans;
    };
    hooks.current_plan = [&net] { return net->current_plan(); };
    hooks.apply_plan = [&net](const ChannelPlan& p) { net->apply_plan(p); };
    turboca::TurboCaService turbo(turboca::Params{},
                                  turboca::TurboCaService::Schedule{}, hooks,
                                  Rng(97));
    Rng churn(98);
    for (int day = 0; day < 2; ++day) {
      for (int step = 0; step < 96; ++step) {
        const double hour = step * 0.25;
        net->set_load_factor(workload::diurnal_factor(hour));
        if (step % 8 == 0) net->mutate_interferers(churn);
        if (step == 44) {
          for (const auto& ap : net->aps()) {
            if (ap.channel.is_dfs()) {
              net->radar_event(ap.id);
              break;
            }
          }
        }
        turbo.advance_to(time::hours(24 * day) + time::minutes(15 * step));
        mix_evaluation(h, net->evaluate());
        if (step % 16 == 0) {
          mix_samples(h, net->sample_client_rssi());
          mix_samples(h, net->sample_cochannel_interferers());
        }
      }
    }
  }
  constexpr std::uint64_t kGoldenDigest = 0x844ab528f592c425ULL;
  EXPECT_EQ(h, kGoldenDigest)
      << "flowsim output bits changed: actual digest 0x" << std::hex << h;
}

// Everything a measurement reports, for a bitwise comparison.
std::uint64_t measurement_digest(const Network& net) {
  std::uint64_t h = fnv::kOffsetBasis;
  mix_evaluation(h, net.evaluate());
  mix_scans(h, net.scan());
  mix_samples(h, net.sample_client_rssi());
  mix_samples(h, net.sample_cochannel_interferers());
  return h;
}

TEST(Flowsim, LinkBudgetFollowsTopologyChanges) {
  // A network measured, then grown, must report what a network built fresh
  // with the final topology reports: every add_* invalidates the cached
  // link budget, and interferer churn (channel and duty only) need not.
  struct Client {
    std::size_t ap;
    Position pos;
  };
  std::vector<std::pair<Position, Channel>> aps = {
      {{0, 0}, ch36}, {{30, 5}, ch36}, {{65, 0}, ch42_80}};
  std::vector<Client> clients = {{0, {4, 1}}, {1, {33, 9}}, {2, {70, 2}}};
  std::vector<flowsim::ExternalInterferer> intfs = {
      {{15, 10}, ch36, 0.3, 20.0}};
  const auto add_client = [](Network& net, const Client& c) {
    net.add_client(ApId{static_cast<std::uint32_t>(c.ap)}, c.pos, ac2ss(),
                   6.0);
  };
  const auto fresh = [&](int churn) {
    Network net(Network::Config{});
    for (const auto& [pos, ch] : aps)
      net.add_ap(pos, ChannelWidth::MHz80, ch);
    for (const Client& c : clients) add_client(net, c);
    for (const auto& intf : intfs) net.add_interferer(intf);
    Rng rng(3);
    for (int k = 0; k < churn; ++k) net.mutate_interferers(rng);
    return measurement_digest(net);
  };

  Network grown(Network::Config{});
  for (const auto& [pos, ch] : aps) grown.add_ap(pos, ChannelWidth::MHz80, ch);
  for (const Client& c : clients) add_client(grown, c);
  for (const auto& intf : intfs) grown.add_interferer(intf);
  EXPECT_EQ(measurement_digest(grown), fresh(0));

  clients.push_back({0, {-20, 3}});
  add_client(grown, clients.back());
  EXPECT_EQ(measurement_digest(grown), fresh(0)) << "after add_client";

  intfs.push_back({{40, -8}, ch42_80, 0.5, 23.0});
  grown.add_interferer(intfs.back());
  EXPECT_EQ(measurement_digest(grown), fresh(0)) << "after add_interferer";

  aps.emplace_back(Position{45, 20}, ch36);
  grown.add_ap(aps.back().first, ChannelWidth::MHz80, aps.back().second);
  clients.push_back({3, {47, 26}});
  add_client(grown, clients.back());
  EXPECT_EQ(measurement_digest(grown), fresh(0)) << "after add_ap";

  Rng rng(3);
  grown.mutate_interferers(rng);
  EXPECT_EQ(measurement_digest(grown), fresh(1)) << "after mutate_interferers";
}

TEST(Flowsim, EvaluationFollowsEveryMutator) {
  // Twins built alike; one has its evaluation memoised before the mutation,
  // the other does not. After the same mutation both must report the same
  // bits, so every mutator must drop the memo. Each mutation also has to
  // move the measurement, or a missing invalidation could not show.
  const auto build = [] {
    Network net(Network::Config{});
    const ApId a = net.add_ap({0, 0}, ChannelWidth::MHz80, ch36);
    const ApId b = net.add_ap({30, 5}, ChannelWidth::MHz80, ch36);
    const ApId c = net.add_ap({65, 0}, ChannelWidth::MHz80, ch42_80);
    net.add_client(a, {4, 1}, ac2ss(), 6.0);
    net.add_client(b, {33, 9}, ac2ss(), 6.0);
    net.add_client(c, {70, 2}, ac2ss(), 6.0);
    net.add_interferer({{15, 10}, ch36, 0.3, 20.0});
    net.add_interferer({{60, -5}, ch42_80, 0.4, 20.0});
    (void)net.apply_channel(c, ch52);  // a DFS channel for radar_event
    return net;
  };
  const ApId b{1};
  const ApId c{2};
  const std::vector<std::pair<const char*, std::function<void(Network&)>>>
      mutators = {
          {"add_ap",
           [](Network& n) { n.add_ap({20, 20}, ChannelWidth::MHz80, ch36); }},
          {"add_client",
           [b](Network& n) { n.add_client(b, {28, 2}, ac2ss(), 40.0); }},
          {"add_interferer",
           [](Network& n) { n.add_interferer({{2, 2}, ch36, 0.6, 20.0}); }},
          {"scale_offered_load",
           [](Network& n) { n.scale_offered_load(3.0); }},
          {"set_load_factor", [](Network& n) { n.set_load_factor(4.0); }},
          {"set_client_load", [b](Network& n) { n.set_client_load(b, 60.0); }},
          {"mutate_interferers",
           [](Network& n) {
             Rng rng(5);
             n.mutate_interferers(rng);
           }},
          {"apply_plan",
           [b](Network& n) { (void)n.apply_plan({{b, ch149}}); }},
          {"apply_channel",
           [b](Network& n) { (void)n.apply_channel(b, ch42_80); }},
          {"radar_event", [c](Network& n) { n.radar_event(c); }},
      };
  const std::uint64_t unmutated = measurement_digest(build());
  for (const auto& [name, mutate] : mutators) {
    Network memoised = build();
    Network cold = build();
    (void)memoised.evaluate();
    mutate(memoised);
    mutate(cold);
    EXPECT_NE(measurement_digest(cold), unmutated)
        << name << " does not move the measurement";
    EXPECT_EQ(measurement_digest(memoised), measurement_digest(cold)) << name;
  }

  // Every ordered pair, measured between the two mutations: a cache that
  // the first mutator refills must still be dropped by the second.
  for (const auto& [first_name, first] : mutators) {
    for (const auto& [second_name, second] : mutators) {
      Network measured = build();
      Network cold = build();
      first(measured);
      (void)measurement_digest(measured);
      second(measured);
      first(cold);
      second(cold);
      EXPECT_EQ(measurement_digest(measured), measurement_digest(cold))
          << first_name << " then " << second_name;
    }
  }

  // A plan that switches nothing keeps every cache and every output bit.
  Network net = build();
  const std::uint64_t before = measurement_digest(net);
  EXPECT_EQ(net.apply_plan(net.current_plan()), 0);
  EXPECT_EQ(net.apply_plan({{b, ch36}}), 0);
  EXPECT_EQ(measurement_digest(net), before);
}

TEST(ScanStatsCache, ContentHashIsPinned) {
  // The cache key folds each spectrum field's size, then its (channel,
  // value) pairs in ascending channel order, so insertion order and the
  // container behind the fields cannot move it.
  ApScan scan;
  scan.external_util[149] = 0.25;
  scan.external_util[52] = 0.5;
  scan.external_util[36] = 0.125;
  const auto catalog = channels::us_catalog(Band::G5, ChannelWidth::MHz20);
  ASSERT_EQ(catalog.size(), 25u);
  for (std::size_t k = 0; k < catalog.size(); ++k) {
    const Channel& c = catalog[(k * 7) % catalog.size()];  // out of order
    scan.quality[c.number] = 1.0 - 0.003 * c.number;
  }
  EXPECT_EQ(flowsim::ScanStatsCache::content_hash(scan),
            0x736065fac2aacd5cULL);
  EXPECT_EQ(flowsim::ScanStatsCache::content_hash(ApScan{}),
            0xa31e272015f12c43ULL);
}

TEST(SpectrumMap, IteratesInAscendingKeyOrder) {
  SpectrumMap<int> util;
  for (const int ch : {149, 36, 100, 52, 36, 165, 40}) util[ch] += 0.25;
  const std::vector<std::pair<int, double>> want = {
      {36, 0.5}, {40, 0.25}, {52, 0.25}, {100, 0.25}, {149, 0.25}, {165, 0.25}};
  const std::vector<std::pair<int, double>> got(util.begin(), util.end());
  EXPECT_EQ(got, want);

  SpectrumMap<ChannelWidth> load;
  load[ChannelWidth::MHz80] = 3.0;
  load[ChannelWidth::MHz20] = 1.0;
  load[ChannelWidth::MHz40] = 2.0;
  double expect = 1.0;
  for (const auto& [w, l] : load) {
    EXPECT_EQ(l, expect) << to_string(w);
    expect += 1.0;
  }

  // A plan inserted out of id order iterates id-ascending, as a map would.
  const Channel c36{Band::G5, 36, ChannelWidth::MHz20};
  const Channel c149{Band::G5, 149, ChannelWidth::MHz20};
  ChannelPlan plan;
  for (const std::uint32_t id : {7u, 2u, 11u, 0u}) plan[ApId{id}] = c36;
  plan[ApId{2}] = c149;
  const std::vector<std::pair<ApId, Channel>> want_plan = {
      {ApId{0}, c36}, {ApId{2}, c149}, {ApId{7}, c36}, {ApId{11}, c36}};
  EXPECT_EQ(std::vector(plan.begin(), plan.end()), want_plan);
  // From pairs in any order: of two equal ids the first wins, as in a
  // std::map built from the same list.
  const ChannelPlan built(std::vector<std::pair<ApId, Channel>>{
      {ApId{11}, c36}, {ApId{2}, c149}, {ApId{7}, c36}, {ApId{0}, c36},
      {ApId{2}, c36}});
  EXPECT_EQ(built, plan);
  const ChannelPlan listed = {{ApId{7}, c36}, {ApId{2}, c149}, {ApId{0}, c36},
                              {ApId{2}, c36}, {ApId{11}, c36}};
  EXPECT_EQ(listed, plan);
}

TEST(SpectrumMap, LookupsOfAbsentKeysFindNothing) {
  SpectrumMap<int> util;
  EXPECT_EQ(util.find(36), util.end());
  EXPECT_FALSE(util.contains(36));
  EXPECT_THROW((void)util.at(36), std::out_of_range);

  util[52] = 0.5;
  util[100] = 0.75;
  for (const int absent : {36, 60, 165}) {  // before, between, after
    EXPECT_EQ(util.find(absent), util.end()) << absent;
    EXPECT_FALSE(util.contains(absent)) << absent;
    EXPECT_THROW((void)util.at(absent), std::out_of_range) << absent;
  }
  EXPECT_EQ(util.size(), 2u) << "a lookup must not insert";
  EXPECT_EQ(util.find(100)->second, 0.75);
  EXPECT_EQ(util.at(52), 0.5);
  EXPECT_TRUE(util.contains(52));
  util.clear();
  EXPECT_EQ(util.size(), 0u);
  EXPECT_FALSE(util.contains(52));

  ChannelPlan plan;
  EXPECT_EQ(plan.count(ApId{3}), 0u);
  plan[ApId{3}] = Channel{};
  plan[ApId{9}] = Channel{};
  for (const std::uint32_t absent : {0u, 5u, 12u}) {  // before, between, after
    EXPECT_EQ(plan.count(ApId{absent}), 0u) << absent;
    EXPECT_THROW((void)plan.at(ApId{absent}), std::out_of_range) << absent;
  }
  EXPECT_EQ(plan.count(ApId{9}), 1u);
  EXPECT_EQ(plan.size(), 2u) << "a lookup must not insert";
}

TEST(SpectrumMap, EqualityTellsAnAbsentKeyFromAStoredZero) {
  SpectrumMap<int> a;
  SpectrumMap<int> b;
  a[36] = 0.1;
  b[36] = 0.1;
  EXPECT_EQ(a, b);
  b[40] = 0.0;
  EXPECT_NE(a, b);
  (void)a[40];  // inserts 0.0
  EXPECT_EQ(a, b);

  // Likewise an absent AP differs from one stored as Channel{}.
  ChannelPlan p = {{ApId{1}, Channel{Band::G5, 149, ChannelWidth::MHz80}}};
  ChannelPlan q = p;
  q[ApId{4}] = Channel{};
  EXPECT_NE(p, q);
  (void)p[ApId{4}];  // inserts Channel{}
  EXPECT_EQ(p, q);

  // The delta differ relies on it: a scan that gains a 0.0 entry changed.
  ApScan base;
  base.id = ApId{7};
  base.external_util[36] = 0.2;
  ApScan next = base;
  next.external_util[44] = 0.0;
  const fleet::DeltaEpoch d =
      fleet::diff_epochs({base}, {next}, Time{1}, Time{2});
  ASSERT_EQ(d.updated.size(), 1u);
  EXPECT_EQ(d.updated[0].external_util, next.external_util);
  EXPECT_TRUE(fleet::diff_epochs({base}, {base}, Time{1}, Time{2}).empty());
}

}  // namespace
}  // namespace w11
