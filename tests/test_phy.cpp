// Unit tests for phy/: channelization, VHT MCS table, propagation.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "phy/channel.hpp"
#include "phy/mcs.hpp"
#include "phy/propagation.hpp"

namespace w11 {
namespace {

// ----------------------------------------------------------- Channels --
// The paper (§4.1.1) cites the FCC allocation: twenty-five 20 MHz, twelve
// 40 MHz, six 80 MHz and two 160 MHz channels at 5 GHz; three
// non-overlapping at 2.4 GHz.

TEST(Channels, UsCatalogSizesMatchFccAllocation) {
  EXPECT_EQ(channels::us_catalog(Band::G5, ChannelWidth::MHz20).size(), 25u);
  EXPECT_EQ(channels::us_catalog(Band::G5, ChannelWidth::MHz40).size(), 12u);
  EXPECT_EQ(channels::us_catalog(Band::G5, ChannelWidth::MHz80).size(), 6u);
  EXPECT_EQ(channels::us_catalog(Band::G5, ChannelWidth::MHz160).size(), 2u);
  EXPECT_EQ(channels::us_catalog(Band::G2_4, ChannelWidth::MHz20).size(), 3u);
  // No bonded channels at 2.4 GHz in this catalog.
  EXPECT_TRUE(channels::us_catalog(Band::G2_4, ChannelWidth::MHz40).empty());
}

// §4.5.2: without DFS certification only nine 20 MHz, four 40 MHz, two
// 80 MHz and zero 160 MHz channels remain.
TEST(Channels, NonDfsCountsMatchPaper) {
  auto count_non_dfs = [](ChannelWidth w) {
    int n = 0;
    for (const Channel& c : channels::us_catalog(Band::G5, w))
      if (!c.is_dfs()) ++n;
    return n;
  };
  EXPECT_EQ(count_non_dfs(ChannelWidth::MHz20), 9);
  EXPECT_EQ(count_non_dfs(ChannelWidth::MHz40), 4);
  EXPECT_EQ(count_non_dfs(ChannelWidth::MHz80), 2);
  EXPECT_EQ(count_non_dfs(ChannelWidth::MHz160), 0);
}

TEST(Channels, ComponentsOfBondedChannels) {
  EXPECT_EQ((Channel{Band::G5, 38, ChannelWidth::MHz40}.components()),
            (std::vector<int>{36, 40}));
  EXPECT_EQ((Channel{Band::G5, 42, ChannelWidth::MHz80}.components()),
            (std::vector<int>{36, 40, 44, 48}));
  EXPECT_EQ((Channel{Band::G5, 50, ChannelWidth::MHz160}.components()),
            (std::vector<int>{36, 40, 44, 48, 52, 56, 60, 64}));
  EXPECT_EQ((Channel{Band::G5, 36, ChannelWidth::MHz20}.components()),
            (std::vector<int>{36}));
}

TEST(Channels, CenterFrequencies) {
  EXPECT_DOUBLE_EQ((Channel{Band::G5, 36, ChannelWidth::MHz20}.center_mhz()), 5180.0);
  EXPECT_DOUBLE_EQ((Channel{Band::G5, 42, ChannelWidth::MHz80}.center_mhz()), 5210.0);
  EXPECT_DOUBLE_EQ((Channel{Band::G2_4, 1, ChannelWidth::MHz20}.center_mhz()), 2412.0);
  EXPECT_DOUBLE_EQ((Channel{Band::G2_4, 6, ChannelWidth::MHz20}.center_mhz()), 2437.0);
}

TEST(Channels, OverlapRules5GHz) {
  const Channel c36_20{Band::G5, 36, ChannelWidth::MHz20};
  const Channel c40_20{Band::G5, 40, ChannelWidth::MHz20};
  const Channel c42_80{Band::G5, 42, ChannelWidth::MHz80};
  const Channel c149_20{Band::G5, 149, ChannelWidth::MHz20};
  const Channel c155_80{Band::G5, 155, ChannelWidth::MHz80};

  EXPECT_FALSE(c36_20.overlaps(c40_20));  // adjacent 20s don't overlap
  EXPECT_TRUE(c42_80.overlaps(c36_20));   // bonded contains its components
  EXPECT_TRUE(c42_80.overlaps(c40_20));
  EXPECT_FALSE(c42_80.overlaps(c149_20));
  EXPECT_TRUE(c155_80.overlaps(c149_20));
  EXPECT_TRUE(c36_20.overlaps(c36_20));  // self
}

TEST(Channels, OverlapRules24GHz) {
  const Channel c1{Band::G2_4, 1, ChannelWidth::MHz20};
  const Channel c4{Band::G2_4, 4, ChannelWidth::MHz20};
  const Channel c6{Band::G2_4, 6, ChannelWidth::MHz20};
  EXPECT_TRUE(c1.overlaps(c4));   // 15 MHz apart, 20 MHz wide
  EXPECT_FALSE(c1.overlaps(c6));  // 25 MHz apart — the classic 1/6/11 split
}

TEST(Channels, NoCrossBandOverlap) {
  EXPECT_FALSE((Channel{Band::G2_4, 1, ChannelWidth::MHz20}.overlaps(
      Channel{Band::G5, 36, ChannelWidth::MHz20})));
}

TEST(Channels, DfsClassification) {
  EXPECT_FALSE((Channel{Band::G5, 36, ChannelWidth::MHz20}.is_dfs()));
  EXPECT_TRUE((Channel{Band::G5, 52, ChannelWidth::MHz20}.is_dfs()));
  EXPECT_TRUE((Channel{Band::G5, 100, ChannelWidth::MHz20}.is_dfs()));
  EXPECT_FALSE((Channel{Band::G5, 149, ChannelWidth::MHz20}.is_dfs()));
  // 160 MHz ch 50 spans 36-64, which includes DFS 52-64.
  EXPECT_TRUE((Channel{Band::G5, 50, ChannelWidth::MHz160}.is_dfs()));
  EXPECT_FALSE((Channel{Band::G2_4, 6, ChannelWidth::MHz20}.is_dfs()));
}

TEST(Channels, Primary20IsLowestComponent) {
  const Channel c{Band::G5, 42, ChannelWidth::MHz80};
  EXPECT_EQ(c.primary20(), (Channel{Band::G5, 36, ChannelWidth::MHz20}));
}

TEST(Channels, CandidateSetFiltersDfsAndWidth) {
  const auto no_dfs =
      channels::candidate_set(Band::G5, ChannelWidth::MHz80, false);
  for (const Channel& c : no_dfs) {
    EXPECT_FALSE(c.is_dfs());
    EXPECT_LE(c.width, ChannelWidth::MHz80);
  }
  EXPECT_EQ(no_dfs.size(), 9u + 4u + 2u);

  const auto with_dfs =
      channels::candidate_set(Band::G5, ChannelWidth::MHz40, true);
  EXPECT_EQ(with_dfs.size(), 25u + 12u);

  const auto g24 = channels::candidate_set(Band::G2_4, ChannelWidth::MHz80, true);
  EXPECT_EQ(g24.size(), 3u);
}

// Every interned table is its generator's output, in the generator's order
// (the planner's candidate order decides ACC's tie-breaks), with matching
// ordinals and membership mask; its fixed-width run is the fixed-width
// planners' old rule (exact width, DFS-filtered, else the whole set).
TEST(Channels, InternedCandidateTablesMatchTheGenerator) {
  int tables = 0;
  for (Band band : {Band::G2_4, Band::G5})
    for (ChannelWidth w : {ChannelWidth::MHz20, ChannelWidth::MHz40,
                           ChannelWidth::MHz80, ChannelWidth::MHz160})
      for (bool dfs : {false, true}) {
        SCOPED_TRACE(testing::Message() << to_string(band) << " "
                                        << to_string(w) << " dfs=" << dfs);
        ++tables;
        const channels::CandidateTable& t =
            channels::candidate_table(band, w, dfs);
        const std::vector<Channel> want = channels::candidate_set(band, w, dfs);
        EXPECT_EQ(t.channels, want);
        ASSERT_EQ(t.ordinals.size(), want.size());
        std::uint64_t mask = 0;
        for (std::size_t k = 0; k < want.size(); ++k) {
          EXPECT_EQ(t.ordinals[k], channels::ordinal(want[k]));
          mask |= std::uint64_t{1} << t.ordinals[k];
        }
        EXPECT_EQ(t.mask, mask);
        EXPECT_FALSE(t.contains(-1));
        // Same key, same table: interned, not rebuilt.
        EXPECT_EQ(&channels::candidate_table(band, w, dfs), &t);

        std::vector<Channel> fixed;
        for (const Channel& c : channels::us_catalog(band, w))
          if (dfs || !c.is_dfs()) fixed.push_back(c);
        if (fixed.empty()) fixed = want;
        const std::span<const Channel> got = t.at_width_or_all(w);
        EXPECT_EQ(std::vector<Channel>(got.begin(), got.end()), fixed);
      }
  EXPECT_EQ(tables, 16);
}

TEST(Channels, WidthsUpTo) {
  EXPECT_EQ(widths_up_to(ChannelWidth::MHz20).size(), 1u);
  EXPECT_EQ(widths_up_to(ChannelWidth::MHz160).size(), 4u);
  EXPECT_EQ(widths_up_to(ChannelWidth::MHz80).back(), ChannelWidth::MHz80);
}

// The planner's live contender counts spread a mover's plan through its own
// mask row (bit s: plan overlaps s), while the ACC kernel probes the
// sub-channel's row (bit plan: s overlaps plan); the two agree only because
// the relation is symmetric.
TEST(Channel, OverlapMasksAreSymmetric) {
  const int n = static_cast<int>(channels::catalog_size());
  ASSERT_LE(channels::catalog_size(), channels::kMaxCatalogOrdinals);
  for (int a = 0; a < n; ++a) {
    EXPECT_EQ(channels::overlap_masks()[a], channels::overlap_mask(a));
    EXPECT_TRUE((channels::overlap_mask(a) >> a) & 1u) << "ordinal " << a;
    for (int b = 0; b < n; ++b) {
      const bool ab = (channels::overlap_mask(a) >> b) & 1u;
      const bool ba = (channels::overlap_mask(b) >> a) & 1u;
      EXPECT_EQ(ab, ba) << channels::by_ordinal(a) << " vs "
                        << channels::by_ordinal(b);
      EXPECT_EQ(ab, channels::by_ordinal(a).overlaps(channels::by_ordinal(b)));
    }
  }
}

TEST(Channel, SubOverlapPatternsMatchGeometry) {
  const int n = static_cast<int>(channels::catalog_size());
  for (int a = 0; a < n; ++a) {
    const int cw = static_cast<int>(channels::by_ordinal(a).width);
    for (int c = 0; c < n; ++c) {
      unsigned want = 0;
      for (int b = 0; b <= cw; ++b) {
        const int sub =
            channels::sub_channel_ordinal(a, static_cast<ChannelWidth>(b));
        if (channels::overlaps_ordinal(sub, c)) want |= 1u << b;
      }
      EXPECT_EQ(channels::sub_overlap_patterns()[a * n + c], want)
          << channels::by_ordinal(a) << " vs " << channels::by_ordinal(c);
    }
  }
}

// ---------------------------------------------------------------- MCS --

TEST(Mcs, KnownRatesMatchStandardTable) {
  // Spot values from the 802.11ac MCS tables.
  EXPECT_NEAR(mcs::rate({0, 1}, ChannelWidth::MHz20, false)->mbps(), 6.5, 0.05);
  EXPECT_NEAR(mcs::rate({0, 1}, ChannelWidth::MHz20, true)->mbps(), 7.2, 0.05);
  EXPECT_NEAR(mcs::rate({7, 1}, ChannelWidth::MHz40, false)->mbps(), 135.0, 0.5);
  EXPECT_NEAR(mcs::rate({9, 1}, ChannelWidth::MHz80, true)->mbps(), 433.3, 0.5);
  EXPECT_NEAR(mcs::rate({9, 2}, ChannelWidth::MHz80, true)->mbps(), 866.7, 0.5);
  EXPECT_NEAR(mcs::rate({9, 3}, ChannelWidth::MHz80, true)->mbps(), 1300.0, 0.5);
  EXPECT_NEAR(mcs::rate({9, 2}, ChannelWidth::MHz160, true)->mbps(), 1733.3, 0.7);
}

TEST(Mcs, StandardExclusions) {
  EXPECT_FALSE(mcs::valid({9, 1}, ChannelWidth::MHz20));
  EXPECT_FALSE(mcs::valid({9, 2}, ChannelWidth::MHz20));
  EXPECT_TRUE(mcs::valid({9, 3}, ChannelWidth::MHz20));  // the exception
  EXPECT_FALSE(mcs::valid({6, 3}, ChannelWidth::MHz80));
  EXPECT_FALSE(mcs::valid({9, 3}, ChannelWidth::MHz160));
  EXPECT_TRUE(mcs::valid({9, 3}, ChannelWidth::MHz80));
}

TEST(Mcs, InvalidIndicesRejected) {
  EXPECT_FALSE(mcs::valid({-1, 1}, ChannelWidth::MHz20));
  EXPECT_FALSE(mcs::valid({10, 1}, ChannelWidth::MHz20));
  EXPECT_FALSE(mcs::valid({0, 0}, ChannelWidth::MHz20));
  EXPECT_FALSE(mcs::valid({0, 5}, ChannelWidth::MHz20));
  EXPECT_EQ(mcs::rate({10, 1}, ChannelWidth::MHz20, true), std::nullopt);
}

TEST(Mcs, MinSnrMonotoneInMcsAndNss) {
  for (int m = 1; m <= 9; ++m)
    EXPECT_GT(mcs::min_snr({m, 1}), mcs::min_snr({m - 1, 1}));
  EXPECT_GT(mcs::min_snr({0, 2}), mcs::min_snr({0, 1}));
}

class McsSelectSweep : public ::testing::TestWithParam<ChannelWidth> {};

TEST_P(McsSelectSweep, SelectedRateMonotoneInSnr) {
  const ChannelWidth w = GetParam();
  double prev = 0.0;
  for (Db snr = 0.0; snr <= 45.0; snr += 1.0) {
    const auto pick = mcs::select(snr, w, 3);
    if (!pick) {
      EXPECT_DOUBLE_EQ(prev, 0.0) << "selection vanished after appearing";
      continue;
    }
    const double r = mcs::rate(*pick, w, true)->mbps();
    EXPECT_GE(r, prev) << "at snr=" << snr;
    prev = r;
  }
  EXPECT_GT(prev, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllWidths, McsSelectSweep,
                         ::testing::Values(ChannelWidth::MHz20,
                                           ChannelWidth::MHz40,
                                           ChannelWidth::MHz80,
                                           ChannelWidth::MHz160));

// The exhaustive search mcs::select replaced with a threshold staircase:
// the highest-rate valid MCS whose min_snr `snr` meets.
std::optional<McsIndex> select_by_search(Db snr, ChannelWidth width,
                                         int max_nss) {
  std::optional<McsIndex> best;
  RateMbps best_rate{0.0};
  const int nss_cap = std::clamp(max_nss, 1, mcs::kMaxNss);
  for (int nss = 1; nss <= nss_cap; ++nss) {
    for (int m = 0; m <= mcs::kMaxMcs; ++m) {
      const McsIndex idx{m, nss};
      if (!mcs::valid(idx, width)) continue;
      if (snr < mcs::min_snr(idx)) continue;
      const auto r = mcs::rate(idx, width, /*short_gi=*/true);
      if (r && *r > best_rate) {
        best_rate = *r;
        best = idx;
      }
    }
  }
  return best;
}

TEST(McsSelect, StaircaseMatchesExhaustiveSearch) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<Db> snrs = {-kInf, kInf, std::numeric_limits<double>::quiet_NaN(),
                          0.0, -0.0};
  for (int nss = 1; nss <= mcs::kMaxNss; ++nss) {
    for (int m = 0; m <= mcs::kMaxMcs; ++m) {
      const Db th = mcs::min_snr({m, nss});
      snrs.insert(snrs.end(), {std::nextafter(th, -kInf), th,
                               std::nextafter(th, kInf)});
    }
  }
  for (Db snr = -20.0; snr <= 60.0; snr += 0.05) snrs.push_back(snr);
  for (const ChannelWidth w : widths_up_to(ChannelWidth::MHz160)) {
    for (int max_nss = -1; max_nss <= 6; ++max_nss) {
      for (const Db snr : snrs) {
        EXPECT_EQ(mcs::select(snr, w, max_nss), select_by_search(snr, w, max_nss))
            << "snr=" << snr << " width=" << to_string(w)
            << " max_nss=" << max_nss;
      }
    }
  }
}

TEST(Mcs, SelectRespectsNssCap) {
  const auto pick = mcs::select(50.0, ChannelWidth::MHz80, 1);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->nss, 1);
}

TEST(Mcs, SelectBelowFloorReturnsNothing) {
  EXPECT_EQ(mcs::select(-10.0, ChannelWidth::MHz80, 3), std::nullopt);
}

TEST(Mcs, PerDecreasesWithSnr) {
  const McsIndex idx{5, 2};
  double prev = 1.0;
  for (Db snr = mcs::min_snr(idx) - 6; snr < mcs::min_snr(idx) + 10; snr += 1.0) {
    const double per = mcs::packet_error_rate(idx, snr, 1500);
    EXPECT_LE(per, prev + 1e-12);
    EXPECT_GE(per, 0.0);
    EXPECT_LE(per, 1.0);
    prev = per;
  }
  EXPECT_LT(prev, 0.01);  // plenty of margin -> tiny PER
}

TEST(Mcs, PerGrowsWithFrameLength) {
  const McsIndex idx{4, 1};
  const Db snr = mcs::min_snr(idx) + 1.0;
  EXPECT_LT(mcs::packet_error_rate(idx, snr, 100),
            mcs::packet_error_rate(idx, snr, 3000));
}

// packet_error_rate as one expression, verbatim from before it was split
// into PerCurve's SNR step and length step.
double per_one_expression(McsIndex idx, Db snr, int mpdu_bytes) {
  const double margin = snr - (mcs::min_snr(idx) - 1.0);
  const double per_1500 = 1.0 / (1.0 + std::exp(1.35 * margin));
  const double scale = std::max(1, mpdu_bytes) / 1500.0;
  const double per = 1.0 - std::pow(1.0 - std::min(per_1500, 0.999), scale);
  return std::clamp(per, 0.0, 1.0);
}

TEST(Mcs, PerSplitMatchesPacketErrorRate) {
  std::vector<Db> snrs;
  for (int q = -40; q <= 240; ++q) snrs.push_back(q * 0.25);  // -10..60 dB
  snrs.push_back(std::numeric_limits<double>::infinity());
  snrs.push_back(-std::numeric_limits<double>::infinity());
  snrs.push_back(std::numeric_limits<double>::quiet_NaN());
  // Repeats and returns exercise the last-length memo.
  const int lengths[] = {-1, 0, 1, 40, 52, 1554, 3000, 3000, 40, 52, 52, 0};
  for (int m = 0; m <= mcs::kMaxMcs; ++m) {
    for (int nss = 1; nss <= mcs::kMaxNss; ++nss) {
      const McsIndex idx{m, nss};
      for (const Db snr : snrs) {
        mcs::PerCurve curve(idx, snr);  // one per TXOP, as the datapath uses it
        for (const int bytes : lengths) {
          const auto want = std::bit_cast<std::uint64_t>(per_one_expression(idx, snr, bytes));
          ASSERT_EQ(std::bit_cast<std::uint64_t>(curve.at(bytes)), want)
              << "mcs " << m << " nss " << nss << " snr " << snr << " bytes " << bytes;
          ASSERT_EQ(std::bit_cast<std::uint64_t>(mcs::packet_error_rate(idx, snr, bytes)),
                    want);
        }
      }
    }
  }
}

TEST(Mcs, MaxRateTakesPairwiseMinimum) {
  mcs::Capability ap{ChannelWidth::MHz80, 3, 9, true};
  mcs::Capability phone{ChannelWidth::MHz80, 1, 9, true};
  mcs::Capability laptop{ChannelWidth::MHz40, 2, 9, true};
  EXPECT_NEAR(mcs::max_rate(ap, phone).mbps(), 433.3, 0.5);
  EXPECT_NEAR(mcs::max_rate(ap, laptop).mbps(), 400.0, 0.5);
  // 11n-style cap: max_mcs 7 at 40 MHz, 2 streams -> 300 Mbps.
  mcs::Capability n_client{ChannelWidth::MHz40, 2, 7, true};
  EXPECT_NEAR(mcs::max_rate(ap, n_client).mbps(), 300.0, 0.5);
}

// --------------------------------------------------------- Propagation --

TEST(Propagation, PathLossGrowsWithDistance) {
  const PropagationModel prop;
  const Position a{0, 0};
  double prev = 0.0;
  for (double d : {1.0, 5.0, 20.0, 80.0}) {
    // Disable shadowing for a clean monotonicity check.
    PropagationModel p = prop;
    p.shadowing_sigma = 0.0;
    const double loss = p.path_loss(a, Position{d, 0}, Band::G5);
    EXPECT_GT(loss, prev);
    prev = loss;
  }
}

TEST(Propagation, FiveGhzLossExceeds24Ghz) {
  PropagationModel p;
  p.shadowing_sigma = 0.0;
  const Position a{0, 0}, b{30, 0};
  EXPECT_GT(p.path_loss(a, b, Band::G5), p.path_loss(a, b, Band::G2_4));
}

TEST(Propagation, NoiseFloorWidensWithChannel) {
  const PropagationModel p;
  EXPECT_DOUBLE_EQ(p.noise_floor(ChannelWidth::MHz20), -95.0);
  EXPECT_NEAR(p.noise_floor(ChannelWidth::MHz40), -92.0, 0.02);
  EXPECT_NEAR(p.noise_floor(ChannelWidth::MHz80), -89.0, 0.03);
  EXPECT_NEAR(p.noise_floor(ChannelWidth::MHz160), -86.0, 0.04);
}

TEST(Propagation, SnrIsRssiMinusNoise) {
  PropagationModel p;
  p.shadowing_sigma = 0.0;
  const Position a{0, 0}, b{10, 0};
  const double rssi = p.rssi(20.0, a, b, Band::G5);
  EXPECT_NEAR(p.snr(20.0, a, b, Band::G5, ChannelWidth::MHz20), rssi + 95.0,
              1e-9);
}

TEST(Propagation, ShadowingIsDeterministicAndSymmetric) {
  const PropagationModel p;
  const Position a{3.5, 7.25}, b{40.0, 12.0};
  EXPECT_DOUBLE_EQ(p.path_loss(a, b, Band::G5), p.path_loss(a, b, Band::G5));
  EXPECT_DOUBLE_EQ(p.path_loss(a, b, Band::G5), p.path_loss(b, a, Band::G5));
}

TEST(Propagation, ShadowingVariesAcrossLinks) {
  PropagationModel p;
  const Position a{0, 0};
  // Two links of identical distance should (almost surely) differ by the
  // shadowing term.
  const double l1 = p.path_loss(a, Position{30, 0}, Band::G5);
  const double l2 = p.path_loss(a, Position{0, 30}, Band::G5);
  EXPECT_NE(l1, l2);
}

TEST(Propagation, LossNeverBelowReference) {
  PropagationModel p;
  const Position a{0, 0}, b{0.01, 0};  // sub-metre clamps to 1 m
  EXPECT_GE(p.path_loss(a, b, Band::G5), p.ref_loss_5g);
}

TEST(Propagation, DistanceHelper) {
  EXPECT_DOUBLE_EQ(distance_m({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance_m({1, 1}, {1, 1}), 0.0);
}

}  // namespace
}  // namespace w11
