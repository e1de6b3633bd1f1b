// Unit tests for workload/: population samplers, topologies, traffic shapes.

#include <gtest/gtest.h>

#include "mac/edca.hpp"
#include "workload/device_population.hpp"
#include "workload/topology.hpp"
#include "workload/traffic.hpp"

namespace w11 {
namespace {

using workload::Era;

std::vector<ClientCapability> population(Era era, int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ClientCapability> pop;
  pop.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) pop.push_back(workload::sample_client(era, rng));
  return pop;
}

// Fig. 1 marginals, within sampling tolerance.
TEST(DevicePopulation, Shares2017MatchPaper) {
  const auto shares = workload::summarize(population(Era::k2017, 40'000, 1));
  EXPECT_NEAR(shares.ac, 0.46, 0.03);
  EXPECT_NEAR(shares.band24_only, 0.40, 0.03);
  EXPECT_NEAR(shares.two_stream, 0.37, 0.03);
}

TEST(DevicePopulation, Shares2015MatchPaper) {
  const auto shares = workload::summarize(population(Era::k2015, 40'000, 2));
  EXPECT_NEAR(shares.ac, 0.18, 0.03);
  EXPECT_NEAR(shares.band24_only, 0.40, 0.03);
  EXPECT_NEAR(shares.two_stream, 0.19, 0.03);
}

TEST(DevicePopulation, GrowthDirectionsMatchPaper) {
  const auto s15 = workload::summarize(population(Era::k2015, 30'000, 3));
  const auto s17 = workload::summarize(population(Era::k2017, 30'000, 4));
  EXPECT_GT(s17.ac, s15.ac * 2.0);          // 18 % -> 46 %
  EXPECT_GT(s17.two_stream, s15.two_stream);  // 19 % -> 37 %
  EXPECT_GT(s17.width80, s15.width80);
  EXPECT_NEAR(s17.band24_only, s15.band24_only, 0.03);  // steady ~40 %
}

TEST(DevicePopulation, ConsistencyInvariants) {
  for (const auto& c : population(Era::k2017, 5'000, 5)) {
    if (c.standard == WifiStandard::k80211ac) {
      EXPECT_TRUE(c.supports_5ghz);
    }
    if (c.standard == WifiStandard::k80211g) {
      EXPECT_EQ(c.max_width, ChannelWidth::MHz20);
    }
    if (c.standard == WifiStandard::k80211n) {
      EXPECT_LE(c.max_width, ChannelWidth::MHz40);
    }
    EXPECT_GE(c.max_nss, 1);
    EXPECT_LE(c.max_nss, 3);
  }
}

TEST(DevicePopulation, ApProfileSharesMatchPaper) {
  Rng rng(6);
  int ac = 0, two_chain = 0, indoor = 0;
  const int n = 30'000;
  for (int i = 0; i < n; ++i) {
    const auto ap = workload::sample_ap(rng);
    ac += ap.standard == WifiStandard::k80211ac;
    two_chain += ap.antenna_chains == 2;
    indoor += ap.indoor;
  }
  EXPECT_NEAR(ac / double(n), 0.52, 0.02);
  EXPECT_NEAR(two_chain / double(n), 0.73, 0.02);
  EXPECT_NEAR(indoor / double(n), 0.93, 0.02);
}

// Table 1 shares.
TEST(DevicePopulation, ConfiguredWidthMatchesTable1) {
  Rng rng(7);
  const int n = 30'000;
  int w20 = 0, w40 = 0, w80 = 0;
  for (int i = 0; i < n; ++i) {
    switch (workload::sample_configured_width(/*large_network=*/false, rng)) {
      case ChannelWidth::MHz20: ++w20; break;
      case ChannelWidth::MHz40: ++w40; break;
      default: ++w80; break;
    }
  }
  EXPECT_NEAR(w20 / double(n), 0.149, 0.01);
  EXPECT_NEAR(w40 / double(n), 0.191, 0.01);
  EXPECT_NEAR(w80 / double(n), 0.660, 0.01);
}

// §3.2.3 density buckets.
TEST(DevicePopulation, ClientDensityBuckets) {
  Rng rng(8);
  const int n = 40'000;
  int b1 = 0, b2 = 0, b3 = 0, b4 = 0, max_seen = 0;
  for (int i = 0; i < n; ++i) {
    const int d = workload::sample_client_density(rng);
    EXPECT_GE(d, 1);
    EXPECT_LE(d, 338);
    max_seen = std::max(max_seen, d);
    if (d <= 5) ++b1;
    else if (d <= 10) ++b2;
    else if (d <= 20) ++b3;
    else ++b4;
  }
  EXPECT_NEAR(b1 / double(n), 0.33, 0.02);
  EXPECT_NEAR(b2 / double(n), 0.22, 0.02);
  EXPECT_NEAR(b3 / double(n), 0.20, 0.02);
  EXPECT_NEAR(b4 / double(n), 0.25, 0.02);
  EXPECT_GT(max_seen, 100);
}

// ------------------------------------------------------------- traffic --

TEST(Traffic, DiurnalShape) {
  // Overnight light, afternoon peak.
  EXPECT_LT(workload::diurnal_factor(3.0), 0.15);
  EXPECT_GT(workload::diurnal_factor(15.0), 0.9);
  EXPECT_GT(workload::diurnal_factor(10.0), workload::diurnal_factor(7.0));
  for (double h = 0; h < 24.0; h += 0.25) {
    const double f = workload::diurnal_factor(h);
    EXPECT_GT(f, 0.0);
    EXPECT_LE(f, 1.0);
  }
  // Periodic wrap.
  EXPECT_DOUBLE_EQ(workload::diurnal_factor(25.0), workload::diurnal_factor(1.0));
}

TEST(Traffic, BurstWindow) {
  workload::BurstEvent b;  // 14:00 for 30 min, x3
  EXPECT_DOUBLE_EQ(workload::burst_factor(b, 13.9), 1.0);
  EXPECT_DOUBLE_EQ(workload::burst_factor(b, 14.2), 3.0);
  EXPECT_DOUBLE_EQ(workload::burst_factor(b, 14.6), 1.0);
}

TEST(Traffic, FieldAcMixMatchesPaper) {
  Rng rng(9);
  const int n = 40'000;
  int bk = 0, be = 0;
  for (int i = 0; i < n; ++i) {
    const auto ac = workload::sample_field_ac(rng);
    bk += ac == AccessCategory::BK;
    be += ac == AccessCategory::BE;
  }
  EXPECT_NEAR(bk / double(n), 0.14, 0.01);
  EXPECT_NEAR(be / double(n), 0.855, 0.01);
}

TEST(Traffic, OfficeAcMixMatchesPaper) {
  Rng rng(10);
  const int n = 40'000;
  int vo = 0;
  for (int i = 0; i < n; ++i)
    vo += workload::sample_office_ac(rng) == AccessCategory::VO;
  EXPECT_NEAR(vo / double(n), 0.10, 0.01);
}

TEST(Traffic, DscpRoundTripsThroughWmmMapping) {
  for (AccessCategory ac : kAllAccessCategories)
    EXPECT_EQ(dscp_to_ac(workload::dscp_for(ac)), ac);
}

// ------------------------------------------------------------ topology --

TEST(Topology, CampusHasRequestedShape) {
  workload::CampusConfig cfg;
  cfg.n_aps = 40;
  cfg.seed = 11;
  auto net = workload::make_campus(cfg);
  EXPECT_EQ(net->ap_count(), 40u);
  std::size_t clients = 0;
  for (const auto& ap : net->aps()) {
    clients += ap.clients.size();
    EXPECT_EQ(ap.channel.band, Band::G5);
    // 5 GHz network: every placed client must support the band.
    for (const auto& cl : ap.clients) EXPECT_TRUE(cl.cap.supports_5ghz);
  }
  EXPECT_GT(clients, 100u);
}

TEST(Topology, CampusIsDeterministicPerSeed) {
  workload::CampusConfig cfg;
  cfg.n_aps = 15;
  cfg.seed = 12;
  auto a = workload::make_campus(cfg);
  auto b = workload::make_campus(cfg);
  ASSERT_EQ(a->ap_count(), b->ap_count());
  for (std::size_t i = 0; i < a->ap_count(); ++i) {
    EXPECT_EQ(a->aps()[i].pos, b->aps()[i].pos);
    EXPECT_EQ(a->aps()[i].clients.size(), b->aps()[i].clients.size());
  }
}

TEST(Topology, OfficeIsDenseAndConnected) {
  workload::OfficeConfig cfg;
  cfg.n_aps = 33;
  cfg.n_clients = 350;
  auto net = workload::make_office(cfg);
  EXPECT_EQ(net->ap_count(), 33u);
  std::size_t clients = 0;
  for (const auto& ap : net->aps()) clients += ap.clients.size();
  EXPECT_EQ(clients, 350u);
  // Dense floor: with everyone on the same channel every AP has many
  // carrier-sense neighbors.
  const auto scans = net->scan();
  double mean_nbrs = 0;
  for (const auto& s : scans) mean_nbrs += static_cast<double>(s.neighbors.size());
  mean_nbrs /= static_cast<double>(scans.size());
  EXPECT_GT(mean_nbrs, 10.0);
}

TEST(Topology, RandomizeChannelsRespectsWidth) {
  workload::CampusConfig cfg;
  cfg.n_aps = 20;
  cfg.seed = 13;
  auto net = workload::make_campus(cfg);
  Rng rng(14);
  workload::randomize_channels(*net, ChannelWidth::MHz40, rng);
  bool multiple = false;
  const Channel first = net->aps()[0].channel;
  for (const auto& ap : net->aps()) {
    EXPECT_EQ(ap.channel.width, ChannelWidth::MHz40);
    EXPECT_FALSE(ap.channel.is_dfs());
    multiple |= ap.channel != first;
  }
  EXPECT_TRUE(multiple);
}

TEST(Topology, ClientsAttachToNearestOfficeAp) {
  workload::OfficeConfig cfg;
  cfg.n_aps = 9;
  cfg.n_clients = 100;
  cfg.seed = 15;
  auto net = workload::make_office(cfg);
  for (const auto& ap : net->aps()) {
    for (const auto& cl : ap.clients) {
      const double own = distance_m(cl.pos, ap.pos);
      for (const auto& other : net->aps())
        EXPECT_LE(own, distance_m(cl.pos, other.pos) + 1e-9);
    }
  }
}

}  // namespace
}  // namespace w11
