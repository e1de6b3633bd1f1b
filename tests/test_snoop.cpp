// Unit and integration tests for the TCP-Snoop baseline agent (§5.3).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/snoop/snoop_agent.hpp"
#include "scenario/testbed.hpp"

namespace w11 {
namespace {

using snoop::SnoopAgent;

class SnoopRig : public ::testing::Test {
 protected:
  void SetUp() override {
    medium_ = std::make_unique<mac::Medium>(sim_, mac::MediumConfig{}, Rng(1));
    AccessPoint::Config acfg;
    acfg.id = ApId{0};
    ap_ = std::make_unique<AccessPoint>(sim_, *medium_, acfg, Rng(2));
    ClientStation::Config ccfg;
    ccfg.id = StationId{3};
    ccfg.pos = Position{4, 0};
    client_ = std::make_unique<ClientStation>(sim_, *medium_, ccfg, Rng(3));
    ap_->associate(client_.get());
    agent_ = std::make_unique<SnoopAgent>(sim_, *ap_);
    ap_->set_interceptor(agent_.get());
    ap_->set_wire_out([this](TcpSegment s) { wire_.push_back(std::move(s)); });
  }

  static TcpSegment data(std::uint64_t seq, std::uint32_t len = 1460) {
    TcpSegment seg;
    seg.flow = FlowId{1};
    seg.dst_station = StationId{3};
    seg.seq = seq;
    seg.payload = len;
    return seg;
  }

  static TcpSegment ack(std::uint64_t ackno) {
    TcpSegment a;
    a.flow = FlowId{1};
    a.is_ack = true;
    a.ack = ackno;
    a.rwnd = 1 << 20;
    return a;
  }

  Simulator sim_;
  std::unique_ptr<mac::Medium> medium_;
  std::unique_ptr<AccessPoint> ap_;
  std::unique_ptr<ClientStation> client_;
  std::unique_ptr<SnoopAgent> agent_;
  std::vector<TcpSegment> wire_;
};

TEST_F(SnoopRig, CachesForwardedData) {
  for (int i = 0; i < 4; ++i) {
    TcpSegment seg = data(1460u * static_cast<std::uint64_t>(i));
    EXPECT_EQ(agent_->on_downlink_data(seg), TcpInterceptor::DataAction::kForward);
  }
  const auto* f = agent_->flow(FlowId{1});
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->cache.size(), 4u);
  EXPECT_EQ(f->seq_exp, 4u * 1460u);
}

TEST_F(SnoopRig, SenderRetransmissionsArePrioritized) {
  TcpSegment a = data(0), b = data(1460);
  agent_->on_downlink_data(a);
  agent_->on_downlink_data(b);
  TcpSegment retx = data(0);
  EXPECT_EQ(agent_->on_downlink_data(retx),
            TcpInterceptor::DataAction::kForwardPriority);
}

TEST_F(SnoopRig, NewAcksPassThroughAndEvict) {
  TcpSegment a = data(0), b = data(1460);
  agent_->on_downlink_data(a);
  agent_->on_downlink_data(b);
  EXPECT_FALSE(agent_->on_uplink_ack(ack(1460)));  // not suppressed
  const auto* f = agent_->flow(FlowId{1});
  EXPECT_EQ(f->cache.size(), 1u);  // segment 0 evicted
  EXPECT_EQ(f->last_ack, 1460u);
  EXPECT_EQ(agent_->stats().acks_passed, 1u);
}

TEST_F(SnoopRig, DupAcksSuppressedAndServedLocally) {
  for (int i = 0; i < 3; ++i) {
    TcpSegment seg = data(1460u * static_cast<std::uint64_t>(i));
    agent_->on_downlink_data(seg);
  }
  (void)agent_->on_uplink_ack(ack(1460));
  const std::size_t depth_before = ap_->queue_depth(StationId{3});
  // Client missing segment at 1460: duplicate ACK must be suppressed and
  // the cached copies re-injected.
  EXPECT_TRUE(agent_->on_uplink_ack(ack(1460)));
  EXPECT_GT(agent_->stats().local_retransmits, 0u);
  EXPECT_EQ(agent_->stats().dupacks_suppressed, 1u);
  EXPECT_GT(ap_->queue_depth(StationId{3}), depth_before);
}

TEST_F(SnoopRig, DupAckForUncachedDataPassesThrough) {
  TcpSegment seg = data(1460);  // flow starts at 1460; nothing cached at 0
  agent_->on_downlink_data(seg);
  // Force last_ack to 1460 then dupack below the cache window... a dupack
  // at the flow's initial point with an empty cache entry must reach the
  // sender (Snoop cannot help).
  const auto* f = agent_->flow(FlowId{1});
  ASSERT_NE(f, nullptr);
  (void)agent_->on_uplink_ack(ack(2920));  // evicts everything
  EXPECT_FALSE(agent_->on_uplink_ack(ack(2920)));  // dup, but cache empty
}

TEST_F(SnoopRig, UnknownFlowNeverTouched) {
  TcpSegment a = ack(500);
  a.flow = FlowId{9};
  EXPECT_FALSE(agent_->on_uplink_ack(a));
}

TEST_F(SnoopRig, RetransmissionRateLimited) {
  for (int i = 0; i < 3; ++i) {
    TcpSegment seg = data(1460u * static_cast<std::uint64_t>(i));
    agent_->on_downlink_data(seg);
  }
  (void)agent_->on_uplink_ack(ack(1460));
  (void)agent_->on_uplink_ack(ack(1460));  // dup -> burst
  const auto first = agent_->stats().local_retransmits;
  EXPECT_GT(first, 0u);
  (void)agent_->on_uplink_ack(ack(1460));  // within holdoff -> no repeat
  EXPECT_EQ(agent_->stats().local_retransmits, first);
}

TEST_F(SnoopRig, RepeatDupAckReplaysOnceHoldoffPasses) {
  for (int i = 0; i < 3; ++i) {
    TcpSegment seg = data(1460u * static_cast<std::uint64_t>(i));
    agent_->on_downlink_data(seg);
  }
  (void)agent_->on_uplink_ack(ack(1460));
  const Time burst_at = sim_.now();
  EXPECT_TRUE(agent_->on_uplink_ack(ack(1460)));  // dup -> burst of 2
  const auto first = agent_->stats().local_retransmits;
  EXPECT_EQ(first, 2u);
  // Still inside the 100 ms holdoff: suppressed, but no second copy.
  sim_.run_until(burst_at + time::millis(99));
  EXPECT_TRUE(agent_->on_uplink_ack(ack(1460)));
  EXPECT_EQ(agent_->stats().local_retransmits, first);
  // 100 ms after the burst the same dup-ACK replays the cache once more...
  sim_.run_until(burst_at + time::millis(100));
  EXPECT_TRUE(agent_->on_uplink_ack(ack(1460)));
  EXPECT_EQ(agent_->stats().local_retransmits, 2 * first);
  // ...and the replay restarts the holdoff.
  EXPECT_TRUE(agent_->on_uplink_ack(ack(1460)));
  EXPECT_EQ(agent_->stats().local_retransmits, 2 * first);
  EXPECT_EQ(agent_->stats().dupacks_suppressed, 4u);
}

// ------------------------------------------------------------ scenario --

TEST(SnoopIntegration, HidesLossFromSenderOnLossyCell) {
  auto loss_events = [](scenario::TcpAccel accel) {
    scenario::TestbedConfig cfg;
    cfg.n_clients_per_ap = 6;
    cfg.duration = time::seconds(4);
    cfg.accel = {accel};
    cfg.client_min_dist_m = 20.0;
    cfg.client_max_dist_m = 40.0;
    cfg.rate_control.fading_sigma = 3.0;
    cfg.bad_hint_rate = 0.01;
    cfg.seed = 19;
    scenario::Testbed tb(cfg);
    tb.run();
    std::uint64_t events = 0;
    for (int c = 0; c < 6; ++c) {
      const auto& s = tb.sender(0, c).stats();
      events += s.fast_retransmits + s.rto_events;
    }
    return events;
  };
  EXPECT_LT(loss_events(scenario::TcpAccel::kSnoop),
            loss_events(scenario::TcpAccel::kNone));
}

TEST(SnoopIntegration, FastAckStillBeatsSnoopOnThroughput) {
  auto thr = [](scenario::TcpAccel accel) {
    scenario::TestbedConfig cfg;
    cfg.n_clients_per_ap = 10;
    cfg.duration = time::seconds(4);
    cfg.accel = {accel};
    cfg.seed = 19;
    scenario::Testbed tb(cfg);
    tb.run();
    return tb.aggregate_throughput_mbps();
  };
  EXPECT_GT(thr(scenario::TcpAccel::kFastAck),
            thr(scenario::TcpAccel::kSnoop) * 1.05);
}

TEST(SnoopIntegration, DataIntegrityPreserved) {
  scenario::TestbedConfig cfg;
  cfg.n_clients_per_ap = 4;
  cfg.duration = time::seconds(4);
  cfg.accel = {scenario::TcpAccel::kSnoop};
  cfg.bad_hint_rate = 0.02;
  cfg.seed = 23;
  scenario::Testbed tb(cfg);
  tb.run();
  for (int c = 0; c < 4; ++c) {
    const auto* rx = tb.client(0, c).receiver(FlowId{static_cast<std::uint32_t>(c)});
    ASSERT_NE(rx, nullptr);
    EXPECT_GT(rx->bytes_delivered(), 500'000u);
    EXPECT_EQ(rx->stats().window_overflow_drops, 0u);
  }
}

}  // namespace
}  // namespace w11
