// Unit and integration tests for the FastACK agent (§5.4-§5.5, Table 3).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/fastack/agent.hpp"
#include "obs/trace.hpp"
#include "scenario/testbed.hpp"

namespace w11 {
namespace {

using fastack::FastAckAgent;
using fastack::FlowState;

// A minimal AP rig: one AP, one (idle) client, agent installed, with the
// upstream wire captured. Segments are driven by hand so every Table-3
// transition is directly observable.
class FastAckRig : public ::testing::Test {
 protected:
  void SetUp() override { init({}); }

  void init(FastAckAgent::Config cfg) {
    // Tear down in dependency order before rebuilding (re-init support).
    agent_.reset();
    client_.reset();
    ap_.reset();
    medium_.reset();
    wire_.clear();
    medium_ = std::make_unique<mac::Medium>(sim_, mac::MediumConfig{}, Rng(1));
    AccessPoint::Config acfg;
    acfg.id = ApId{0};
    ap_ = std::make_unique<AccessPoint>(sim_, *medium_, acfg, Rng(2));
    ClientStation::Config ccfg;
    ccfg.id = StationId{7};
    ccfg.pos = Position{5, 0};
    client_ = std::make_unique<ClientStation>(sim_, *medium_, ccfg, Rng(3));
    ap_->associate(client_.get());
    agent_ = std::make_unique<FastAckAgent>(sim_, *ap_, cfg);
    ap_->set_interceptor(agent_.get());
    ap_->set_wire_out([this](TcpSegment seg) { wire_.push_back(std::move(seg)); });
  }

  static TcpSegment data(std::uint64_t seq, std::uint32_t len = 1460) {
    TcpSegment seg;
    seg.flow = FlowId{1};
    seg.dst_station = StationId{7};
    seg.seq = seq;
    seg.payload = len;
    return seg;
  }

  static TcpSegment client_ack(std::uint64_t ackno, std::uint64_t rwnd = 1'048'576) {
    TcpSegment a;
    a.flow = FlowId{1};
    a.is_ack = true;
    a.ack = ackno;
    a.rwnd = rwnd;
    return a;
  }

  // Shorthand for driving the interceptor directly (what the AP's BlockAck
  // path does).
  void air_ack(std::uint64_t seq, std::uint32_t len = 1460) {
    agent_->on_80211_delivered(data(seq, len));
  }

  const FlowState& state() {
    const FlowState* s = agent_->flow_state(FlowId{1});
    EXPECT_NE(s, nullptr);
    return *s;
  }

  Simulator sim_;
  std::unique_ptr<mac::Medium> medium_;
  std::unique_ptr<AccessPoint> ap_;
  std::unique_ptr<ClientStation> client_;
  std::unique_ptr<FastAckAgent> agent_;
  std::vector<TcpSegment> wire_;
};

// ------------------------------------------------------- data-path cases --

TEST_F(FastAckRig, InitializesStateOnFirstSegment) {
  TcpSegment seg = data(1000);
  EXPECT_EQ(agent_->on_downlink_data(seg), TcpInterceptor::DataAction::kForward);
  const FlowState& s = state();
  EXPECT_EQ(s.seq_exp, 2460u);
  EXPECT_EQ(s.seq_fack, 1000u);
  EXPECT_EQ(s.seq_tcp, 1000u);
  EXPECT_EQ(s.seq_high, 2460u);
  EXPECT_EQ(s.retx_cache.size(), 1u);
  EXPECT_EQ(agent_->tracked_flows(), 1u);
}

TEST_F(FastAckRig, CaseIIISequentialDataAdvancesSeqExp) {
  for (int i = 0; i < 5; ++i) {
    TcpSegment seg = data(1460u * static_cast<std::uint64_t>(i));
    EXPECT_EQ(agent_->on_downlink_data(seg), TcpInterceptor::DataAction::kForward);
  }
  EXPECT_EQ(state().seq_exp, 7300u);
  EXPECT_EQ(state().retx_cache.size(), 5u);
  EXPECT_TRUE(state().holes_vec.empty());
}

TEST_F(FastAckRig, CaseISpuriousRetransmissionDropped) {
  TcpSegment seg = data(0);
  agent_->on_downlink_data(seg);
  air_ack(0);  // fast-acks through 1460
  EXPECT_EQ(state().seq_fack, 1460u);
  TcpSegment dup = data(0);
  EXPECT_EQ(agent_->on_downlink_data(dup), TcpInterceptor::DataAction::kDrop);
  EXPECT_EQ(agent_->stats().spurious_retx_dropped, 1u);
}

TEST_F(FastAckRig, CaseIIEndToEndRetransmissionPrioritized) {
  TcpSegment a = data(0), b = data(1460);
  agent_->on_downlink_data(a);
  agent_->on_downlink_data(b);
  // Sender retransmits the un-fast-acked first segment.
  TcpSegment retx = data(0);
  EXPECT_EQ(agent_->on_downlink_data(retx),
            TcpInterceptor::DataAction::kForwardPriority);
  EXPECT_EQ(agent_->stats().e2e_retx_prioritized, 1u);
}

TEST_F(FastAckRig, CaseIVHoleDetectedAndDupAcksEmitted) {
  TcpSegment a = data(0);
  agent_->on_downlink_data(a);
  air_ack(0);
  wire_.clear();
  // Upstream dropped [1460, 2920): next arrival jumps ahead.
  TcpSegment c = data(2920);
  EXPECT_EQ(agent_->on_downlink_data(c), TcpInterceptor::DataAction::kForward);
  ASSERT_EQ(state().holes_vec.size(), 1u);
  EXPECT_EQ(state().holes_vec[0].start, 1460u);
  EXPECT_EQ(state().holes_vec[0].end, 2920u);
  EXPECT_EQ(state().seq_exp, 4380u);
  // Three emulated dup ACKs at the fast-ACK point carrying SACK info.
  ASSERT_EQ(wire_.size(), 3u);
  for (const auto& dup : wire_) {
    EXPECT_TRUE(dup.is_ack);
    EXPECT_EQ(dup.ack, 1460u);
    ASSERT_EQ(dup.sacks.size(), 1u);
    EXPECT_EQ(dup.sacks[0].start, 2920u);
  }
  EXPECT_EQ(agent_->stats().holes_detected, 1u);
  EXPECT_EQ(agent_->stats().hole_dupacks_sent, 3u);
}

TEST_F(FastAckRig, HoleClearedByEndToEndRetransmission) {
  TcpSegment a = data(0);
  agent_->on_downlink_data(a);
  TcpSegment c = data(2920);
  agent_->on_downlink_data(c);
  ASSERT_EQ(state().holes_vec.size(), 1u);
  TcpSegment fill = data(1460);
  EXPECT_EQ(agent_->on_downlink_data(fill),
            TcpInterceptor::DataAction::kForwardPriority);
  EXPECT_TRUE(state().holes_vec.empty());
}

// --------------------------------------------------------- 802.11 ACKs --

TEST_F(FastAckRig, ContiguousAirAcksEmitCumulativeFastAcks) {
  for (int i = 0; i < 3; ++i) {
    TcpSegment seg = data(1460u * static_cast<std::uint64_t>(i));
    agent_->on_downlink_data(seg);
  }
  wire_.clear();
  air_ack(0);
  ASSERT_EQ(wire_.size(), 1u);
  EXPECT_EQ(wire_[0].ack, 1460u);
  air_ack(1460);
  air_ack(2920);
  EXPECT_EQ(state().seq_fack, 4380u);
  EXPECT_EQ(wire_.back().ack, 4380u);
  EXPECT_EQ(agent_->stats().fast_acks_sent, 3u);
}

TEST_F(FastAckRig, NonContiguousAirAcksWaitForGap) {
  for (int i = 0; i < 3; ++i) {
    TcpSegment seg = data(1460u * static_cast<std::uint64_t>(i));
    agent_->on_downlink_data(seg);
  }
  wire_.clear();
  // MPDU #1 lost on air: BlockAck covers #0 and #2 only.
  air_ack(0);
  air_ack(2920);
  EXPECT_EQ(state().seq_fack, 1460u);  // stalls at the gap
  EXPECT_EQ(state().q_seq.size(), 1u);
  ASSERT_EQ(wire_.size(), 1u);
  EXPECT_EQ(wire_[0].ack, 1460u);
  // Retry succeeds: the gap closes and the fast ACK jumps to the end.
  air_ack(1460);
  EXPECT_EQ(state().seq_fack, 4380u);
  EXPECT_EQ(wire_.back().ack, 4380u);
  EXPECT_TRUE(state().q_seq.empty());
}

TEST_F(FastAckRig, NaiveModeAcksPastGaps) {
  FastAckAgent::Config cfg;
  cfg.require_contiguity = false;  // ablation D4
  init(cfg);
  TcpSegment a = data(0), b = data(1460), c = data(2920);
  agent_->on_downlink_data(a);
  agent_->on_downlink_data(b);
  agent_->on_downlink_data(c);
  wire_.clear();
  air_ack(2920);  // out of order
  EXPECT_EQ(state().seq_fack, 4380u);  // naively jumped the gap
  ASSERT_EQ(wire_.size(), 1u);
  EXPECT_EQ(wire_[0].ack, 4380u);
}

TEST_F(FastAckRig, UnknownFlowAirAckIgnored) {
  TcpSegment other = data(0);
  other.flow = FlowId{99};
  agent_->on_80211_delivered(other);  // never seen on the data path
  EXPECT_EQ(agent_->stats().fast_acks_sent, 0u);
  EXPECT_EQ(agent_->tracked_flows(), 0u);
}

// -------------------------------------------------------- rwnd rewrite --

TEST_F(FastAckRig, FastAckRewritesReceiveWindow) {
  TcpSegment a = data(0);
  agent_->on_downlink_data(a);
  // Client told us rwnd = 100 kB on an earlier ACK.
  (void)agent_->on_uplink_ack(client_ack(0, 100'000));
  // Push seq_high ahead: 10 more segments the client hasn't acked.
  for (int i = 1; i <= 10; ++i) {
    TcpSegment seg = data(1460u * static_cast<std::uint64_t>(i));
    agent_->on_downlink_data(seg);
  }
  wire_.clear();
  air_ack(0);
  ASSERT_EQ(wire_.size(), 1u);
  // rx'win = rxwin - outbytes = 100000 - (11*1460 - 0).
  EXPECT_EQ(wire_[0].rwnd, 100'000u - 11u * 1460u);
}

TEST_F(FastAckRig, RwndRewriteDisabledPassesClientWindow) {
  FastAckAgent::Config cfg;
  cfg.rewrite_rwnd = false;  // ablation D5
  init(cfg);
  TcpSegment a = data(0);
  agent_->on_downlink_data(a);
  (void)agent_->on_uplink_ack(client_ack(0, 100'000));
  wire_.clear();
  air_ack(0);
  ASSERT_EQ(wire_.size(), 1u);
  EXPECT_EQ(wire_[0].rwnd, 100'000u);
}

TEST_F(FastAckRig, RwndNeverUnderflows) {
  TcpSegment a = data(0);
  agent_->on_downlink_data(a);
  (void)agent_->on_uplink_ack(client_ack(0, 1000));  // tiny client window
  for (int i = 1; i <= 10; ++i) {
    TcpSegment seg = data(1460u * static_cast<std::uint64_t>(i));
    agent_->on_downlink_data(seg);
  }
  wire_.clear();
  air_ack(0);
  ASSERT_EQ(wire_.size(), 1u);
  EXPECT_EQ(wire_[0].rwnd, 0u);  // clamped, not wrapped
}

// ---------------------------------------------------- client TCP ACKs --

TEST_F(FastAckRig, ClientAcksSuppressedAndStateUpdated) {
  TcpSegment a = data(0);
  agent_->on_downlink_data(a);
  air_ack(0);
  EXPECT_TRUE(agent_->on_uplink_ack(client_ack(1460)));
  EXPECT_EQ(state().seq_tcp, 1460u);
  EXPECT_EQ(agent_->stats().client_acks_suppressed, 1u);
  // Cache evicted once the client's own TCP confirmed receipt.
  EXPECT_TRUE(state().retx_cache.empty());
}

TEST_F(FastAckRig, SuppressionDisabledForwardsClientAcks) {
  FastAckAgent::Config cfg;
  cfg.suppress_client_acks = false;  // ablation D6
  init(cfg);
  TcpSegment a = data(0);
  agent_->on_downlink_data(a);
  EXPECT_FALSE(agent_->on_uplink_ack(client_ack(1460)));
}

TEST_F(FastAckRig, UnknownFlowAcksNeverSuppressed) {
  TcpSegment ack = client_ack(500);
  ack.flow = FlowId{55};
  EXPECT_FALSE(agent_->on_uplink_ack(ack));
}

TEST_F(FastAckRig, DuplicateClientAcksTriggerLocalRetransmit) {
  for (int i = 0; i < 4; ++i) {
    TcpSegment seg = data(1460u * static_cast<std::uint64_t>(i));
    agent_->on_downlink_data(seg);
    air_ack(1460u * static_cast<std::uint64_t>(i));
  }
  // Client acked through 1460 then went silent on 1460 (missing data after
  // a bad hint): duplicate ACKs arrive.
  (void)agent_->on_uplink_ack(client_ack(1460));
  const std::size_t depth_before = ap_->queue_depth(StationId{7});
  (void)agent_->on_uplink_ack(client_ack(1460));  // first dupack triggers
  // The cached gap [1460, seq_fack) = 3 segments was re-injected.
  EXPECT_EQ(agent_->stats().local_retransmits, 3u);
  EXPECT_EQ(ap_->queue_depth(StationId{7}), depth_before + 3);
  // Further dupacks within the holdoff window are rate-limited: no storm.
  (void)agent_->on_uplink_ack(client_ack(1460));
  (void)agent_->on_uplink_ack(client_ack(1460));
  EXPECT_EQ(agent_->stats().local_retransmits, 3u);
  EXPECT_EQ(ap_->queue_depth(StationId{7}), depth_before + 3);
}

TEST_F(FastAckRig, LocalRetransmitServedFromCacheNotSender) {
  TcpSegment a = data(0);
  agent_->on_downlink_data(a);
  air_ack(0);
  wire_.clear();
  (void)agent_->on_uplink_ack(client_ack(0));
  (void)agent_->on_uplink_ack(client_ack(0));
  (void)agent_->on_uplink_ack(client_ack(0));
  // Nothing extra was sent upstream: recovery is local.
  for (const auto& seg : wire_) EXPECT_TRUE(seg.is_ack);
  EXPECT_EQ(agent_->stats().local_retransmits, 1u);
}

TEST_F(FastAckRig, WindowUpdateEmittedWhenWindowReopens) {
  TcpSegment a = data(0);
  agent_->on_downlink_data(a);
  // Client advertises a window smaller than outstanding -> rx'win pins at 0.
  (void)agent_->on_uplink_ack(client_ack(0, 1000));
  for (int i = 1; i <= 5; ++i) {
    TcpSegment seg = data(1460u * static_cast<std::uint64_t>(i));
    agent_->on_downlink_data(seg);
  }
  wire_.clear();
  air_ack(0);  // fast ack advertises 0
  ASSERT_FALSE(wire_.empty());
  EXPECT_EQ(wire_.back().rwnd, 0u);
  wire_.clear();
  // Client now acks everything with a big window: a pure window update must
  // go upstream even though the client's ACK itself is suppressed.
  EXPECT_TRUE(agent_->on_uplink_ack(client_ack(6u * 1460u, 1'000'000)));
  ASSERT_EQ(wire_.size(), 1u);
  EXPECT_GT(wire_[0].rwnd, 0u);
  EXPECT_EQ(agent_->stats().window_updates_sent, 1u);
}

// ----------------------------------------------- flat retx-cache paths --
// The retransmission cache is a sorted flat ring (SeqRing); these pin the
// eviction, overflow and dup-ACK/SACK service semantics the node-based map
// used to provide.

TEST_F(FastAckRig, PartialAckEvictsOnlyCoveredPrefix) {
  for (int i = 0; i < 6; ++i) {
    TcpSegment seg = data(1460u * static_cast<std::uint64_t>(i));
    agent_->on_downlink_data(seg);
    air_ack(1460u * static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(state().retx_cache.size(), 6u);
  // Client acks through 3 segments: exactly that prefix is evicted; the
  // un-acked tail must stay cached (it may still need local service).
  (void)agent_->on_uplink_ack(client_ack(3u * 1460u));
  EXPECT_EQ(agent_->stats().cache_evictions, 3u);
  ASSERT_EQ(state().retx_cache.size(), 3u);
  EXPECT_EQ(state().retx_cache.begin()->first, 3u * 1460u);
  EXPECT_GE(state().retx_cache.begin()->second.seq_end(), state().seq_tcp);
  // Acking the rest drains the cache entirely.
  (void)agent_->on_uplink_ack(client_ack(6u * 1460u));
  EXPECT_TRUE(state().retx_cache.empty());
  EXPECT_EQ(agent_->stats().cache_evictions, 6u);
}

TEST_F(FastAckRig, CacheOverflowCountsAndSkipsCaching) {
  FastAckAgent::Config cfg;
  cfg.retx_cache_segments = 4;
  init(cfg);
  for (int i = 0; i < 6; ++i) {
    TcpSegment seg = data(1460u * static_cast<std::uint64_t>(i));
    agent_->on_downlink_data(seg);
  }
  // Only the first 4 made it into the cache; the remainder counted overflow.
  EXPECT_EQ(state().retx_cache.size(), 4u);
  EXPECT_EQ(agent_->stats().cache_overflow, 2u);
  // An e2e retransmission of an uncached segment at capacity must not grow
  // or refresh the cache (at-capacity refresh is skipped by design).
  TcpSegment retx = data(4u * 1460u);
  EXPECT_EQ(agent_->on_downlink_data(retx),
            TcpInterceptor::DataAction::kForwardPriority);
  EXPECT_EQ(state().retx_cache.size(), 4u);
}

TEST_F(FastAckRig, DupAckServiceFindsCoveringSegmentMidCache) {
  // Fill the cache, fast-ack everything, then have the client stall at a
  // byte in the *middle* of a cached segment: the covering-segment lookup
  // (upper_bound + one-back) must find it and replay from there.
  for (int i = 0; i < 5; ++i) {
    TcpSegment seg = data(1460u * static_cast<std::uint64_t>(i));
    agent_->on_downlink_data(seg);
    air_ack(1460u * static_cast<std::uint64_t>(i));
  }
  const std::uint64_t mid = 2u * 1460u + 700u;  // inside segment #2
  (void)agent_->on_uplink_ack(client_ack(mid));
  const std::size_t depth_before = ap_->queue_depth(StationId{7});
  (void)agent_->on_uplink_ack(client_ack(mid));  // dupack
  // Segments #2, #3, #4 are at-or-after the stall point and below seq_fack.
  EXPECT_EQ(agent_->stats().local_retransmits, 3u);
  EXPECT_EQ(ap_->queue_depth(StationId{7}), depth_before + 3);
}

TEST_F(FastAckRig, DupAckBelowEvictedPrefixIsCacheMiss) {
  for (int i = 0; i < 4; ++i) {
    TcpSegment seg = data(1460u * static_cast<std::uint64_t>(i));
    agent_->on_downlink_data(seg);
    air_ack(1460u * static_cast<std::uint64_t>(i));
  }
  (void)agent_->on_uplink_ack(client_ack(4u * 1460u));  // evicts everything
  EXPECT_TRUE(state().retx_cache.empty());
  // A dup-ACK at the (fully evicted) ack point must be a clean cache miss —
  // no crash, no bogus injection; the sender's own machinery recovers.
  (void)agent_->on_uplink_ack(client_ack(4u * 1460u));  // dupack, cache empty
  EXPECT_EQ(agent_->stats().local_retransmits, 0u);
}

TEST_F(FastAckRig, HoleDupAcksCarrySackOfArrivedRange) {
  // SACK generation rides the flat path end to end: the emulated dup ACKs
  // for an upstream hole must carry the arrived (out-of-order) range.
  TcpSegment a = data(0);
  agent_->on_downlink_data(a);
  wire_.clear();
  TcpSegment jump = data(4380, 2920);  // skipped [1460, 4380)
  agent_->on_downlink_data(jump);
  ASSERT_EQ(wire_.size(), 3u);
  for (const auto& dup : wire_) {
    ASSERT_EQ(dup.sacks.size(), 1u);
    EXPECT_EQ(dup.sacks[0].start, 4380u);
    EXPECT_EQ(dup.sacks[0].end, 7300u);
    EXPECT_EQ(dup.wire_size(), Bytes{52});  // SACK option space counted
  }
}

TEST_F(FastAckRig, EndToEndRetransmitRefreshesCachedCopy) {
  TcpSegment a = data(0), b = data(1460);
  agent_->on_downlink_data(a);
  agent_->on_downlink_data(b);
  // The sender's retransmission of segment 0 carries a different DSCP; the
  // cached copy must be replaced in place (same key, updated value).
  TcpSegment retx = data(0);
  retx.dscp = 46;
  agent_->on_downlink_data(retx);
  EXPECT_EQ(state().retx_cache.size(), 2u);
  EXPECT_EQ(state().retx_cache.begin()->second.dscp, 46);
}

// ------------------------------------------------- bounded-table GC (PR 1) --

TEST_F(FastAckRig, CapacityEvictionKeepsTableBounded) {
  FastAckAgent::Config cfg;
  cfg.max_flows = 3;
  cfg.flow_idle_timeout = time::seconds(3600);  // idle GC out of the picture
  init(cfg);
  for (std::uint32_t f = 1; f <= 5; ++f) {
    TcpSegment seg = data(0);
    seg.flow = FlowId{f};
    agent_->on_downlink_data(seg);
    EXPECT_LE(agent_->tracked_flows(), 3u);
  }
  EXPECT_EQ(agent_->tracked_flows(), 3u);
  EXPECT_EQ(agent_->stats().flows_evicted_capacity, 2u);
  EXPECT_EQ(agent_->stats().flows_evicted_idle, 0u);
}

TEST_F(FastAckRig, IdleFlowsCollectedBeforeCapacityEviction) {
  FastAckAgent::Config cfg;
  cfg.max_flows = 2;
  cfg.flow_idle_timeout = time::millis(10);
  init(cfg);
  TcpSegment s1 = data(0);
  s1.flow = FlowId{1};
  agent_->on_downlink_data(s1);
  TcpSegment s2 = data(0);
  s2.flow = FlowId{2};
  agent_->on_downlink_data(s2);
  // Both flows go idle past the timeout; a new flow's arrival must GC them
  // instead of evicting an active flow by recency.
  sim_.schedule_at(time::millis(50), [] {});
  sim_.run();
  TcpSegment s3 = data(0);
  s3.flow = FlowId{3};
  agent_->on_downlink_data(s3);
  EXPECT_EQ(agent_->stats().flows_evicted_idle, 2u);
  EXPECT_EQ(agent_->stats().flows_evicted_capacity, 0u);
  EXPECT_EQ(agent_->tracked_flows(), 1u);
  EXPECT_NE(agent_->flow_state(FlowId{3}), nullptr);
}

// ----------------------------------------------------------- invariants --

// A capacity-0 recorder attached for tracing keeps no record but counts
// every event it would have kept.
TEST_F(FastAckRig, ZeroTraceCapacityCountsEveryEventAsDropped) {
  obs::TraceRecorder rec(/*per_lane_capacity=*/0);
  rec.set_enabled(true);
  sim_.set_tracer(&rec);
  for (int i = 0; i < 3; ++i) {
    TcpSegment seg = data(1460u * static_cast<std::uint64_t>(i));
    agent_->on_downlink_data(seg);
  }
  air_ack(0);
  sim_.set_tracer(nullptr);  // rec dies before the rig's simulator
  EXPECT_EQ(rec.total_events(), 0u);
  EXPECT_GT(rec.total_dropped(), 0u);
}

TEST_F(FastAckRig, InvariantSeqFackNeverExceedsSeqExp) {
  Rng rng(99);
  std::uint64_t next = 0;
  std::vector<std::uint64_t> sent;
  for (int step = 0; step < 2000; ++step) {
    const double r = rng.uniform();
    if (r < 0.45) {
      // New data, sometimes skipping ahead (upstream hole).
      if (rng.bernoulli(0.05)) next += 1460;
      TcpSegment seg = data(next);
      agent_->on_downlink_data(seg);
      sent.push_back(next);
      next += 1460;
    } else if (r < 0.8 && !sent.empty()) {
      air_ack(sent[rng.index(sent.size())]);
    } else if (!sent.empty()) {
      (void)agent_->on_uplink_ack(
          client_ack(sent[rng.index(sent.size())] + 1460));
    }
    if (agent_->flow_state(FlowId{1}) != nullptr) {
      const FlowState& s = state();
      EXPECT_LE(s.seq_fack, s.seq_exp);
      EXPECT_LE(s.seq_exp, s.seq_high);
      EXPECT_LE(s.seq_tcp, s.seq_fack);
    }
  }
}

// --------------------------------------------------------- integration --

TEST(FastAckIntegration, ThroughputBeatsBaselineUnderContention) {
  auto run = [](bool fa) {
    scenario::TestbedConfig cfg;
    cfg.n_clients_per_ap = 15;
    cfg.duration = time::seconds(4);
    cfg.fastack = {fa};
    scenario::Testbed tb(cfg);
    tb.run();
    return tb.aggregate_throughput_mbps();
  };
  EXPECT_GT(run(true), run(false) * 1.1);
}

TEST(FastAckIntegration, AggregationImproves) {
  auto mean_ampdu = [](bool fa) {
    scenario::TestbedConfig cfg;
    cfg.n_clients_per_ap = 12;
    cfg.duration = time::seconds(4);
    cfg.fastack = {fa};
    scenario::Testbed tb(cfg);
    tb.run();
    double sum = 0.0;
    const auto v = tb.mean_ampdu_per_client(0);
    for (double a : v) sum += a;
    return sum / static_cast<double>(v.size());
  };
  EXPECT_GT(mean_ampdu(true), mean_ampdu(false) * 1.3);
}

TEST(FastAckIntegration, SurvivesBadHints) {
  // 3 % bad hints (double the paper's ~1.5 %): data must still flow,
  // local retransmissions must fire, and every flow must keep advancing
  // (no wedged connections).
  scenario::TestbedConfig cfg;
  cfg.n_clients_per_ap = 4;
  cfg.duration = time::seconds(4);
  cfg.fastack = {true};
  cfg.bad_hint_rate = 0.03;
  scenario::Testbed tb(cfg);
  tb.run();
  EXPECT_GT(tb.aggregate_throughput_mbps(), 20.0);
  ASSERT_NE(tb.agent(0), nullptr);
  EXPECT_GT(tb.agent(0)->stats().local_retransmits, 0u);
  for (int c = 0; c < 4; ++c) {
    const auto* rx = tb.client(0, c).receiver(FlowId{static_cast<std::uint32_t>(c)});
    ASSERT_NE(rx, nullptr);
    EXPECT_GT(rx->bytes_delivered(), 1'000'000u) << "flow " << c << " wedged";
  }
}

TEST(FastAckIntegration, SurvivesUpstreamDrops) {
  // A shallow wired queue forces upstream holes (§5.5.3).
  scenario::TestbedConfig cfg;
  cfg.n_clients_per_ap = 6;
  cfg.duration = time::seconds(4);
  cfg.fastack = {true};
  cfg.wire.queue_packets = 64;
  scenario::Testbed tb(cfg);
  tb.run();
  EXPECT_GT(tb.aggregate_throughput_mbps(), 20.0);
  ASSERT_NE(tb.agent(0), nullptr);
  EXPECT_GT(tb.agent(0)->stats().holes_detected, 0u);
}

TEST(FastAckIntegration, CwndOpensToCap) {
  scenario::TestbedConfig cfg;
  cfg.n_clients_per_ap = 10;
  cfg.duration = time::seconds(4);
  cfg.fastack = {true};
  scenario::Testbed tb(cfg);
  tb.run();
  // With fast ACKs the windows open wide (Fig. 14's headline).
  double max_cwnd = 0.0;
  for (int c = 0; c < 10; ++c)
    max_cwnd = std::max(max_cwnd, tb.sender(0, c).cwnd_segments());
  EXPECT_GT(max_cwnd, 400.0);
}

TEST(FastAckIntegration, RuntimeToggleMatchesConstruction) {
  // FastACK "can be toggled at run-time" (§5.6.3): enabling the agent on a
  // running AP must not disturb existing flows' correctness.
  scenario::TestbedConfig cfg;
  cfg.n_clients_per_ap = 3;
  cfg.duration = time::seconds(2);
  scenario::Testbed tb(cfg);
  tb.run();
  const double base = tb.aggregate_throughput_mbps();
  EXPECT_GT(base, 0.0);
}

}  // namespace
}  // namespace w11
