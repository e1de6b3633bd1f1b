// Unit tests for mac/: EDCA, timing, aggregation, BlockAck, medium.

#include <gtest/gtest.h>

#include "mac/aggregation.hpp"
#include "mac/blockack.hpp"
#include "mac/edca.hpp"
#include "mac/medium.hpp"
#include "mac/timing.hpp"

namespace w11 {
namespace {

using mac::AmpduLimits;
using mac::BlockAckBitmap;
using mac::Contender;
using mac::Medium;
using mac::MediumConfig;
using mac::TxDescriptor;

// ---------------------------------------------------------------- EDCA --

TEST(Edca, AggressivenessOrdering) {
  // More aggressive ACs have smaller AIFSN and CWmin.
  EXPECT_GT(edca_params(AccessCategory::BK).aifsn,
            edca_params(AccessCategory::BE).aifsn);
  EXPECT_GT(edca_params(AccessCategory::BE).aifsn,
            edca_params(AccessCategory::VI).aifsn);
  EXPECT_GE(edca_params(AccessCategory::VI).aifsn,
            edca_params(AccessCategory::VO).aifsn);
  EXPECT_GT(edca_params(AccessCategory::BE).cw_min,
            edca_params(AccessCategory::VI).cw_min);
  EXPECT_GT(edca_params(AccessCategory::VI).cw_min,
            edca_params(AccessCategory::VO).cw_min);
}

TEST(Edca, AggressiveAcsExhaustRetriesSooner) {
  // §3.2.4: "frames in a more aggressive AC ... exhaust retry attempts more
  // quickly".
  EXPECT_LT(edca_params(AccessCategory::VO).retry_limit,
            edca_params(AccessCategory::BE).retry_limit);
}

TEST(Edca, DscpMapping) {
  EXPECT_EQ(dscp_to_ac(0), AccessCategory::BE);    // CS0
  EXPECT_EQ(dscp_to_ac(8), AccessCategory::BK);    // CS1
  EXPECT_EQ(dscp_to_ac(16), AccessCategory::BK);   // CS2
  EXPECT_EQ(dscp_to_ac(24), AccessCategory::VI);   // CS3
  EXPECT_EQ(dscp_to_ac(32), AccessCategory::VI);   // CS4
  EXPECT_EQ(dscp_to_ac(46), AccessCategory::VO);   // EF
  EXPECT_EQ(dscp_to_ac(56), AccessCategory::VO);   // CS7
}

TEST(Edca, AifsComputation) {
  // AIFS = SIFS + AIFSN * slot.
  EXPECT_EQ(mac::aifs(AccessCategory::BE),
            time::micros(16) + 3 * time::micros(9));
  EXPECT_EQ(mac::aifs(AccessCategory::VO),
            time::micros(16) + 2 * time::micros(9));
}

TEST(Edca, ToString) {
  EXPECT_STREQ(to_string(AccessCategory::BK), "BK");
  EXPECT_STREQ(to_string(AccessCategory::VO), "VO");
}

// --------------------------------------------------------- Aggregation --

TEST(Aggregation, AirtimeGrowsWithMpdus) {
  const RateMbps rate{866.7};
  const Time one = mac::ampdu_airtime(1, Bytes{1500}, rate);
  const Time many = mac::ampdu_airtime(64, Bytes{1500}, rate);
  EXPECT_GT(many, one);
  // Preamble amortization: 64 MPDUs cost far less than 64 single frames.
  EXPECT_LT(many.ns(), 64 * one.ns());
}

TEST(Aggregation, MaxAggregateRespectsMpduCap) {
  // At a high rate the 64-MPDU limit binds before the airtime limit.
  EXPECT_EQ(mac::max_aggregate_size(1000, Bytes{1500}, RateMbps{866.7}), 64);
  EXPECT_EQ(mac::max_aggregate_size(10, Bytes{1500}, RateMbps{866.7}), 10);
  EXPECT_EQ(mac::max_aggregate_size(0, Bytes{1500}, RateMbps{866.7}), 0);
}

TEST(Aggregation, AirtimeLimitBindsAtLowRates) {
  // At 26 Mbps, 5.3 ms fits ~17 kB: far fewer than 64 MPDUs.
  const int n = mac::max_aggregate_size(1000, Bytes{1500}, RateMbps{26.0});
  EXPECT_LT(n, 64);
  EXPECT_GE(n, 1);
  EXPECT_LE(mac::ampdu_airtime(n, Bytes{1500}, RateMbps{26.0}),
            mac::kMaxAmpduAirtime);
}

TEST(Aggregation, AtLeastOneMpduEvenIfOversized) {
  // A single MPDU is sent even when it alone exceeds the airtime budget.
  EXPECT_EQ(mac::max_aggregate_size(5, Bytes{1500}, RateMbps{1.0}), 1);
}

TEST(Aggregation, TxopDurationIncludesRtsCtsWhenProtected) {
  const Time bare = mac::txop_duration(16, Bytes{1500}, RateMbps{433.3}, false);
  const Time prot = mac::txop_duration(16, Bytes{1500}, RateMbps{433.3}, true);
  const Time overhead = mac::control_frame_airtime(mac::kRtsBytes) + mac::kSifs +
                        mac::control_frame_airtime(mac::kCtsBytes) + mac::kSifs;
  EXPECT_EQ(prot - bare, overhead);
}

TEST(Aggregation, CustomLimits) {
  AmpduLimits limits;
  limits.max_mpdus = 8;
  EXPECT_EQ(mac::max_aggregate_size(100, Bytes{1500}, RateMbps{866.7}, limits), 8);
}

// ------------------------------------------------------------ BlockAck --

TEST(BlockAck, RecordAndQuery) {
  BlockAckBitmap bm(100);
  bm.record(100, true);
  bm.record(101, false);
  bm.record(103, true);
  EXPECT_TRUE(bm.delivered(100));
  EXPECT_FALSE(bm.delivered(101));
  EXPECT_FALSE(bm.delivered(102));  // never recorded
  EXPECT_TRUE(bm.delivered(103));
  EXPECT_EQ(bm.delivered_count(), 2);
  EXPECT_EQ(bm.window_size(), 4u);
  EXPECT_EQ(bm.delivered_seqs(), (std::vector<std::uint64_t>{100, 103}));
}

TEST(BlockAck, BelowWindowIsNotDelivered) {
  BlockAckBitmap bm(50);
  EXPECT_FALSE(bm.delivered(49));
  EXPECT_THROW(bm.record(49, true), std::logic_error);
}

// -------------------------------------------------------------- Medium --

// A scripted contender: transmits fixed-duration frames while it has
// credit; counts grants and collisions.
class FakeContender : public Contender {
 public:
  FakeContender(Medium& medium, AccessCategory ac, Time frame)
      : medium_(medium), ac_(ac), frame_(frame) {}

  void give_frames(int n) {
    credit_ += n;
    medium_.set_backlogged(this, credit_ > 0);
  }

  TxDescriptor begin_txop() override {
    ++grants;
    return TxDescriptor{frame_, 1};
  }
  void end_txop(bool collided) override {
    if (collided) {
      ++collisions;
    } else {
      --credit_;
      ++successes;
    }
    medium_.set_backlogged(this, credit_ > 0);
  }
  [[nodiscard]] AccessCategory access_category() const override { return ac_; }

  int grants = 0;
  int successes = 0;
  int collisions = 0;

 private:
  Medium& medium_;
  AccessCategory ac_;
  Time frame_;
  int credit_ = 0;
};

TEST(Medium, SingleContenderGetsServed) {
  Simulator sim;
  Medium medium(sim, MediumConfig{}, Rng(1));
  FakeContender c(medium, AccessCategory::BE, time::millis(1));
  medium.attach(&c);
  c.give_frames(5);
  sim.run_until(time::seconds(1));
  EXPECT_EQ(c.successes, 5);
  EXPECT_EQ(c.collisions, 0);
  EXPECT_EQ(medium.txop_count(), 5u);
  EXPECT_EQ(medium.total_busy_time(), 5 * time::millis(1));
}

TEST(Medium, TwoContendersBothDrainAndShareAirtime) {
  Simulator sim;
  Medium medium(sim, MediumConfig{}, Rng(2));
  FakeContender a(medium, AccessCategory::BE, time::millis(1));
  FakeContender b(medium, AccessCategory::BE, time::millis(1));
  medium.attach(&a);
  medium.attach(&b);
  a.give_frames(50);
  b.give_frames(50);
  sim.run_until(time::seconds(5));
  EXPECT_EQ(a.successes, 50);
  EXPECT_EQ(b.successes, 50);
  // §5.6.3: co-channel peers get roughly fair airtime.
  const double ratio = static_cast<double>(medium.airtime_of(&a).ns()) /
                       static_cast<double>(medium.airtime_of(&b).ns());
  EXPECT_GT(ratio, 0.6);
  EXPECT_LT(ratio, 1.7);
}

TEST(Medium, CollisionsHappenAndAreCounted) {
  Simulator sim;
  Medium medium(sim, MediumConfig{}, Rng(3));
  std::vector<std::unique_ptr<FakeContender>> cs;
  for (int i = 0; i < 12; ++i) {
    cs.push_back(std::make_unique<FakeContender>(medium, AccessCategory::BE,
                                                 time::micros(500)));
    medium.attach(cs.back().get());
  }
  for (auto& c : cs) c->give_frames(50);
  sim.run_until(time::seconds(10));
  EXPECT_GT(medium.collision_count(), 0u);
  for (auto& c : cs) EXPECT_EQ(c->successes, 50);  // all drain eventually
}

TEST(Medium, RtsCtsLimitsCollisionCost) {
  // With RTS/CTS a collision only burns the RTS airtime, so total busy time
  // is lower than without protection under identical contention.
  auto total_busy = [](bool rts) {
    Simulator sim;
    MediumConfig cfg;
    cfg.rts_cts = rts;
    Medium medium(sim, cfg, Rng(4));
    std::vector<std::unique_ptr<FakeContender>> cs;
    std::uint64_t collisions = 0;
    for (int i = 0; i < 10; ++i) {
      cs.push_back(std::make_unique<FakeContender>(medium, AccessCategory::BE,
                                                   time::millis(3)));
      medium.attach(cs.back().get());
    }
    for (auto& c : cs) c->give_frames(30);
    sim.run_until(time::seconds(60));
    for (auto& c : cs) EXPECT_EQ(c->successes, 30);
    collisions = medium.collision_count();
    EXPECT_GT(collisions, 0u);
    // Useful airtime is identical (300 frames x 3 ms); the difference is
    // pure collision cost.
    return medium.total_busy_time() - 300 * time::millis(3);
  };
  EXPECT_LT(total_busy(true), total_busy(false));
}

TEST(Medium, VoiceBeatsBackgroundUnderContention) {
  Simulator sim;
  Medium medium(sim, MediumConfig{}, Rng(5));
  FakeContender vo(medium, AccessCategory::VO, time::micros(300));
  FakeContender bk(medium, AccessCategory::BK, time::micros(300));
  medium.attach(&vo);
  medium.attach(&bk);
  // Saturated: both always backlogged for the whole run.
  vo.give_frames(100000);
  bk.give_frames(100000);
  sim.run_until(time::seconds(2));
  // VO's shorter AIFS and tiny CW must win far more TXOPs.
  EXPECT_GT(vo.successes, bk.successes * 2);
}

TEST(Medium, DetachStopsService) {
  Simulator sim;
  Medium medium(sim, MediumConfig{}, Rng(6));
  FakeContender c(medium, AccessCategory::BE, time::millis(1));
  medium.attach(&c);
  c.give_frames(1000);
  sim.run_until(time::millis(20));
  const int before = c.successes;
  EXPECT_GT(before, 0);
  medium.detach(&c);
  sim.run_until(time::millis(200));
  EXPECT_EQ(c.successes, before);
}

TEST(Medium, SetBackloggedFindsContenderAfterDetach) {
  Simulator sim;
  Medium medium(sim, MediumConfig{}, Rng(9));
  FakeContender a(medium, AccessCategory::BE, time::millis(1));
  FakeContender b(medium, AccessCategory::BE, time::millis(1));
  FakeContender c(medium, AccessCategory::BE, time::millis(1));
  medium.attach(&a);
  medium.attach(&b);
  medium.attach(&c);
  medium.detach(&b);  // c moves into b's slot
  c.give_frames(3);
  a.give_frames(2);
  sim.run_until(time::seconds(1));
  EXPECT_EQ(c.successes, 3);
  EXPECT_EQ(a.successes, 2);
  EXPECT_EQ(b.grants, 0);
  EXPECT_GT(medium.airtime_of(&c), Time{0});
  EXPECT_EQ(medium.airtime_of(&b), Time{0});
  EXPECT_THROW(b.give_frames(1), std::logic_error);  // no longer attached
}

TEST(Medium, DetachBetweenDrawAndGrantServesOnlyTheDrawnContender) {
  Simulator sim;
  Medium medium(sim, MediumConfig{}, Rng(10));
  FakeContender a(medium, AccessCategory::BE, time::millis(1));
  FakeContender b(medium, AccessCategory::BE, time::millis(1));
  FakeContender c(medium, AccessCategory::BE, time::millis(1));
  medium.attach(&a);
  medium.attach(&b);
  medium.attach(&c);
  b.give_frames(1);  // b draws alone; the round is now pending
  medium.detach(&a);  // shifts b and c down one slot
  c.give_frames(1);  // backlogged, but it never drew
  // The round fires within AIFS + 15 slots; b's 1 ms exchange is still on
  // the air at 500 us.
  sim.run_until(time::micros(500));
  EXPECT_EQ(b.grants, 1);
  EXPECT_EQ(c.grants, 0);
  sim.run_until(time::seconds(1));
  EXPECT_EQ(b.successes, 1);
  EXPECT_EQ(c.successes, 1);
  EXPECT_EQ(a.grants, 0);
}

TEST(Medium, AttachRejectsDuplicatesAndNull) {
  Simulator sim;
  Medium medium(sim, MediumConfig{}, Rng(7));
  FakeContender c(medium, AccessCategory::BE, time::millis(1));
  medium.attach(&c);
  EXPECT_THROW(medium.attach(&c), std::logic_error);
  EXPECT_THROW(medium.attach(nullptr), std::logic_error);
}

TEST(Medium, UtilizationAccounting) {
  Simulator sim;
  Medium medium(sim, MediumConfig{}, Rng(8));
  FakeContender c(medium, AccessCategory::BE, time::millis(10));
  medium.attach(&c);
  const Time t0 = sim.now();
  const Time busy0 = medium.total_busy_time();
  c.give_frames(5);
  sim.run_until(time::millis(200));
  const double util = medium.utilization(t0, busy0);
  // 5 frames x 10 ms = 50 ms busy out of 200 ms = 25 %.
  EXPECT_NEAR(util, 0.25, 0.01);
}

TEST(Medium, ContentionLatencyGrowsWithContenders) {
  // The root cause behind Fig. 10: more contenders -> longer mean access
  // delay. Measure mean time between give_frames and success for one probe.
  auto mean_drain_time = [](int n_others) {
    Simulator sim;
    Medium medium(sim, MediumConfig{}, Rng(9));
    std::vector<std::unique_ptr<FakeContender>> others;
    for (int i = 0; i < n_others; ++i) {
      others.push_back(std::make_unique<FakeContender>(
          medium, AccessCategory::BE, time::millis(2)));
      medium.attach(others.back().get());
    }
    FakeContender probe(medium, AccessCategory::BE, time::micros(100));
    medium.attach(&probe);
    for (auto& o : others) o->give_frames(1'000'000);
    probe.give_frames(200);
    sim.run_until(time::seconds(4));
    return static_cast<double>(probe.successes);
  };
  // More contenders -> fewer probe completions in the same wall-clock.
  const double alone = mean_drain_time(0);
  const double crowded = mean_drain_time(15);
  EXPECT_GT(alone, crowded * 1.5);
}

}  // namespace
}  // namespace w11
