// Unit tests for net/: wired links and the TCP implementation.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "net/tcp_receiver.hpp"
#include "net/tcp_segment.hpp"
#include "net/tcp_sender.hpp"
#include "net/wired_link.hpp"
#include "sim/simulator.hpp"

namespace w11 {
namespace {

// ----------------------------------------------------------- WiredLink --

TEST(WiredLink, DeliversWithSerializationAndPropagation) {
  Simulator sim;
  std::vector<Time> arrivals;
  WiredLink::Config cfg;
  cfg.rate = RateMbps{100.0};
  cfg.propagation = time::micros(50);
  WiredLink link(sim, cfg, [&](TcpSegment) { arrivals.push_back(sim.now()); });

  TcpSegment seg;
  seg.payload = 1210;  // 1250 B wire size = 10 kbit -> 100 us at 100 Mbps
  link.send(seg);
  sim.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], time::micros(150));
  EXPECT_EQ(link.delivered_count(), 1u);
}

TEST(WiredLink, PreservesFifoOrder) {
  Simulator sim;
  std::vector<std::uint64_t> seqs;
  WiredLink link(sim, {}, [&](TcpSegment s) { seqs.push_back(s.seq); });
  for (std::uint64_t i = 0; i < 10; ++i) {
    TcpSegment seg;
    seg.seq = i;
    seg.payload = 1460;
    link.send(seg);
  }
  sim.run();
  ASSERT_EQ(seqs.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(seqs[i], i);
}

TEST(WiredLink, DropsWhenQueueFull) {
  Simulator sim;
  WiredLink::Config cfg;
  cfg.queue_packets = 4;
  cfg.rate = RateMbps{1.0};  // slow, so the queue backs up
  int delivered = 0;
  WiredLink link(sim, cfg, [&](TcpSegment) { ++delivered; });
  for (int i = 0; i < 20; ++i) {
    TcpSegment seg;
    seg.payload = 1460;
    link.send(seg);
  }
  sim.run();
  EXPECT_GT(link.dropped_count(), 0u);
  EXPECT_EQ(link.delivered_count() + link.dropped_count(), 20u);
  EXPECT_EQ(delivered, static_cast<int>(link.delivered_count()));
}

TEST(WiredLink, PipelinesSerialization) {
  // Second packet starts serializing when the first leaves the NIC, not
  // after its propagation completes.
  Simulator sim;
  std::vector<Time> arrivals;
  WiredLink::Config cfg;
  cfg.rate = RateMbps{100.0};
  cfg.propagation = time::millis(10);
  WiredLink link(sim, cfg, [&](TcpSegment) { arrivals.push_back(sim.now()); });
  TcpSegment seg;
  seg.payload = 1210;  // 100 us serialization
  link.send(seg);
  link.send(seg);
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ((arrivals[1] - arrivals[0]), time::micros(100));
}

// 100 Mb/s with 1250 B on the wire: 100 us of serialization, then 50 us of
// propagation.
WiredLink::Config slow_link() {
  WiredLink::Config cfg;
  cfg.rate = RateMbps{100.0};
  cfg.propagation = time::micros(50);
  return cfg;
}

void send_burst(WiredLink& link, std::uint64_t first_seq, int n) {
  for (int i = 0; i < n; ++i) {
    TcpSegment seg;
    seg.seq = first_seq + static_cast<std::uint64_t>(i);
    seg.payload = 1210;
    link.send(seg);
  }
}

TEST(WiredLink, OutageMidBurstDeliversInFlightAndDropsWaiting) {
  Simulator sim;
  std::vector<std::pair<std::uint64_t, Time>> arrivals;
  WiredLink link(sim, slow_link(),
                 [&](TcpSegment s) { arrivals.emplace_back(s.seq, sim.now()); });
  send_burst(link, 0, 5);
  // At 130 us segment 0 is propagating and segment 1 is serializing; 2-4
  // still wait in the NIC.
  sim.schedule_at(time::micros(130), [&] { link.set_up(false); });
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], std::make_pair(std::uint64_t{0}, time::micros(150)));
  EXPECT_EQ(arrivals[1], std::make_pair(std::uint64_t{1}, time::micros(250)));
  EXPECT_EQ(link.outage_drops(), 3u);
  EXPECT_EQ(link.dropped_count(), 3u);
  EXPECT_EQ(link.delivered_count(), 2u);
}

TEST(WiredLink, SerializationResumesAfterInFlightWhenBackUp) {
  Simulator sim;
  std::vector<std::pair<std::uint64_t, Time>> arrivals;
  WiredLink link(sim, slow_link(),
                 [&](TcpSegment s) { arrivals.emplace_back(s.seq, sim.now()); });
  send_burst(link, 0, 5);
  sim.schedule_at(time::micros(130), [&] { link.set_up(false); });
  // Back up while segment 1 still occupies the NIC: the next segment waits
  // for it to finish at 200 us.
  sim.schedule_at(time::micros(140), [&] {
    link.set_up(true);
    send_burst(link, 10, 1);
  });
  // Back up on an idle NIC: serialization starts at once.
  sim.schedule_at(time::micros(400), [&] { link.set_up(false); });
  sim.schedule_at(time::micros(500), [&] {
    link.set_up(true);
    send_burst(link, 20, 1);
  });
  sim.run();
  ASSERT_EQ(arrivals.size(), 4u);
  EXPECT_EQ(arrivals[2], std::make_pair(std::uint64_t{10}, time::micros(350)));
  EXPECT_EQ(arrivals[3], std::make_pair(std::uint64_t{20}, time::micros(650)));
  EXPECT_EQ(link.outage_drops(), 3u);
}

TEST(WiredLink, QueueDepthExcludesSegmentOnWire) {
  Simulator sim;
  WiredLink link(sim, slow_link(), [](TcpSegment) {});
  send_burst(link, 0, 3);
  EXPECT_EQ(link.queue_depth(), 2u);
  sim.run_until(time::micros(50));
  EXPECT_EQ(link.queue_depth(), 2u);
  sim.run_until(time::micros(100));  // segment 1 starts serializing
  EXPECT_EQ(link.queue_depth(), 1u);
  sim.run_until(time::micros(200));
  EXPECT_EQ(link.queue_depth(), 0u);
}

TEST(WiredLink, BackToBackSendsLeaveOneEventQueued) {
  Simulator sim;
  int delivered = 0;
  WiredLink link(sim, slow_link(), [&](TcpSegment) { ++delivered; });
  send_burst(link, 0, 10);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(delivered, 10);
  EXPECT_EQ(sim.processed_events(), 10u);
}

// -------------------------------------------------- TCP loopback rig ----

// Connects a TcpSender and TcpReceiver through configurable delay and a
// per-segment drop predicate, so loss/reorder scenarios are scriptable.
class TcpRig {
 public:
  struct Options {
    TcpSender::Config sender;
    TcpReceiver::Config receiver;
    Time one_way = time::millis(5);
    // Return true to drop this data segment (by transmission index).
    std::function<bool(std::uint64_t tx_index, const TcpSegment&)> drop_data;
  };

  explicit TcpRig(Options opt) : opt_(std::move(opt)) {
    receiver_ = std::make_unique<TcpReceiver>(
        sim_, FlowId{1}, opt_.receiver, [this](TcpSegment ack) {
          sim_.schedule_after(opt_.one_way, [this, ack = std::move(ack)] {
            sender_->on_ack(ack);
          });
        });
    sender_ = std::make_unique<TcpSender>(
        sim_, FlowId{1}, StationId{1}, opt_.sender, [this](TcpSegment seg) {
          const std::uint64_t idx = tx_index_++;
          if (opt_.drop_data && opt_.drop_data(idx, seg)) {
            ++dropped_;
            return;
          }
          sim_.schedule_after(opt_.one_way, [this, seg = std::move(seg)] {
            receiver_->on_data(seg);
          });
        });
  }

  Simulator sim_;
  Options opt_;
  std::unique_ptr<TcpReceiver> receiver_;
  std::unique_ptr<TcpSender> sender_;
  std::uint64_t tx_index_ = 0;
  std::uint64_t dropped_ = 0;
};

// ------------------------------------------------------------ TcpBasic --

TEST(Tcp, TransfersExactByteCountLossless) {
  TcpRig rig({});
  rig.sender_->start(units::kilobytes(500));
  rig.sim_.run_until(time::seconds(30));
  EXPECT_TRUE(rig.sender_->finished());
  EXPECT_EQ(rig.receiver_->bytes_delivered(), 500'000u);
  EXPECT_EQ(rig.sender_->stats().rto_events, 0u);
  EXPECT_EQ(rig.sender_->stats().fast_retransmits, 0u);
}

TEST(Tcp, SlowStartDoublesPerRtt) {
  TcpRig rig({});
  rig.sender_->enable_cwnd_trace();
  rig.sender_->start();  // unlimited
  rig.sim_.run_until(time::millis(100));  // ~10 RTTs
  // cwnd must have grown well beyond the initial 10 segments.
  EXPECT_GT(rig.sender_->cwnd_segments(), 100.0);
  // Trace is monotone during pure slow start (no loss).
  const auto& trace = rig.sender_->cwnd_trace();
  ASSERT_GT(trace.size(), 2u);
  for (std::size_t i = 1; i < trace.size(); ++i)
    EXPECT_GE(trace[i].second, trace[i - 1].second);
}

TEST(Tcp, CwndCappedAtConfiguredMax) {
  TcpRig::Options opt;
  opt.sender.max_cwnd_segments = 770;  // the paper's OS default
  TcpRig rig(opt);
  rig.sender_->start();
  rig.sim_.run_until(time::seconds(10));
  EXPECT_LE(rig.sender_->cwnd_segments(), 770.0 + 1e-6);
  EXPECT_GT(rig.sender_->cwnd_segments(), 700.0);
}

TEST(Tcp, RespectsPeerReceiveWindow) {
  TcpRig::Options opt;
  opt.receiver.buffer = units::kilobytes(64);  // small rwnd
  TcpRig rig(opt);
  rig.sender_->start();
  rig.sim_.run_until(time::millis(200));
  // In-flight bytes can never exceed the advertised window.
  EXPECT_LE(rig.sender_->snd_nxt() - rig.sender_->snd_una(), 64'000u);
}

TEST(Tcp, FastRetransmitOnTripleDupack) {
  TcpRig::Options opt;
  opt.drop_data = [](std::uint64_t idx, const TcpSegment&) {
    return idx == 20;  // drop exactly one mid-stream segment
  };
  TcpRig rig(opt);
  rig.sender_->start(units::kilobytes(300));
  rig.sim_.run_until(time::seconds(30));
  EXPECT_TRUE(rig.sender_->finished());
  EXPECT_EQ(rig.receiver_->bytes_delivered(), 300'000u);
  EXPECT_GE(rig.sender_->stats().fast_retransmits, 1u);
  EXPECT_EQ(rig.sender_->stats().rto_events, 0u);  // recovered without RTO
}

TEST(Tcp, RecoversFromBurstLossViaSack) {
  TcpRig::Options opt;
  opt.drop_data = [](std::uint64_t idx, const TcpSegment&) {
    return idx >= 30 && idx < 36;  // drop a burst of six
  };
  TcpRig rig(opt);
  rig.sender_->start(units::kilobytes(400));
  rig.sim_.run_until(time::seconds(60));
  EXPECT_TRUE(rig.sender_->finished());
  EXPECT_EQ(rig.receiver_->bytes_delivered(), 400'000u);
}

TEST(Tcp, RtoRecoversFromTotalBlackout) {
  // Drop everything for a window, forcing a retransmission timeout.
  TcpRig::Options opt;
  bool blackout = true;
  opt.drop_data = [&blackout](std::uint64_t, const TcpSegment&) {
    return blackout;
  };
  TcpRig rig(opt);
  rig.sender_->start(units::kilobytes(50));
  rig.sim_.run_until(time::seconds(2));
  EXPECT_GE(rig.sender_->stats().rto_events, 1u);
  blackout = false;
  rig.sim_.run_until(time::seconds(120));
  EXPECT_TRUE(rig.sender_->finished());
  EXPECT_EQ(rig.receiver_->bytes_delivered(), 50'000u);
}

TEST(Tcp, CwndCollapsesOnRto) {
  TcpRig::Options opt;
  bool blackout = false;
  opt.drop_data = [&blackout](std::uint64_t, const TcpSegment&) {
    return blackout;
  };
  TcpRig rig(opt);
  rig.sender_->start();
  rig.sim_.run_until(time::millis(300));
  EXPECT_GT(rig.sender_->cwnd_segments(), 50.0);
  blackout = true;
  rig.sim_.run_until(time::seconds(3));
  EXPECT_LE(rig.sender_->cwnd_segments(), 2.0);  // collapsed to ~1 MSS
}

TEST(Tcp, RttEstimateTracksPathDelay) {
  TcpRig::Options opt;
  opt.one_way = time::millis(25);
  TcpRig rig(opt);
  rig.sender_->start();
  rig.sim_.run_until(time::seconds(3));
  // SRTT should be near 50 ms RTT (delayed-ACK adds a little).
  EXPECT_GT(rig.sender_->smoothed_rtt(), time::millis(45));
  EXPECT_LT(rig.sender_->smoothed_rtt(), time::millis(120));
  EXPECT_GE(rig.sender_->current_rto(), time::millis(200));  // floor
}

TEST(Tcp, CubicAlsoCompletesAndGrows) {
  TcpRig::Options opt;
  opt.sender.algo = TcpSender::CcAlgo::kCubic;
  opt.drop_data = [](std::uint64_t idx, const TcpSegment&) {
    return idx == 50;
  };
  TcpRig rig(opt);
  rig.sender_->start(units::kilobytes(800));
  rig.sim_.run_until(time::seconds(60));
  EXPECT_TRUE(rig.sender_->finished());
  EXPECT_EQ(rig.receiver_->bytes_delivered(), 800'000u);
}

TEST(Tcp, LateAckAfterRtoRewindDoesNotCorruptState) {
  // Regression: an ACK covering data sent before an RTO rewound snd_nxt
  // must not leave snd_una > snd_nxt (in-flight accounting would underflow
  // and cwnd/ssthresh explode).
  Simulator sim;
  std::vector<TcpSegment> sent;
  TcpSender snd(sim, FlowId{1}, StationId{1}, {},
                [&](TcpSegment s) { sent.push_back(std::move(s)); });
  snd.start();
  sim.run_until(time::millis(1));
  ASSERT_GE(sent.size(), 10u);  // initial window went out

  // Total silence forces an RTO; snd_nxt rewinds and slow start re-sends
  // one segment.
  sim.run_until(time::seconds(2));
  EXPECT_GE(snd.stats().rto_events, 1u);
  EXPECT_EQ(snd.snd_nxt(), snd.snd_una() + 1460);

  // Now the "lost" ACK for the entire initial flight arrives late.
  TcpSegment ack;
  ack.flow = FlowId{1};
  ack.is_ack = true;
  ack.ack = 10 * 1460;
  ack.rwnd = 1 << 20;
  snd.on_ack(ack);
  EXPECT_EQ(snd.snd_una(), 10u * 1460u);
  EXPECT_GE(snd.snd_nxt(), snd.snd_una());
  EXPECT_LT(snd.cwnd_segments(), 1000.0);  // sane, not exploded

  // Dup-ack storm right after must not underflow ssthresh either.
  for (int i = 0; i < 4; ++i) snd.on_ack(ack);
  EXPECT_LT(snd.cwnd_segments(), 1000.0);
}

TEST(Tcp, SenderStartTwiceRejected) {
  TcpRig rig({});
  rig.sender_->start(units::kilobytes(1));
  EXPECT_THROW(rig.sender_->start(units::kilobytes(1)), std::logic_error);
}

// --------------------------------------------------------- TcpReceiver --

TEST(TcpReceiver, DelayedAckEveryTwoSegments) {
  Simulator sim;
  std::vector<TcpSegment> acks;
  TcpReceiver rx(sim, FlowId{1}, {}, [&](TcpSegment a) { acks.push_back(a); });
  for (int i = 0; i < 6; ++i) {
    TcpSegment seg;
    seg.flow = FlowId{1};
    seg.seq = static_cast<std::uint64_t>(i) * 1460;
    seg.payload = 1460;
    rx.on_data(seg);
  }
  sim.run_until(time::millis(1));
  EXPECT_EQ(acks.size(), 3u);  // one per two segments
  EXPECT_EQ(acks.back().ack, 6u * 1460u);
}

TEST(TcpReceiver, DelayedAckTimerFiresForOddSegment) {
  Simulator sim;
  std::vector<TcpSegment> acks;
  TcpReceiver::Config cfg;
  cfg.delayed_ack = time::millis(40);
  TcpReceiver rx(sim, FlowId{1}, cfg, [&](TcpSegment a) { acks.push_back(a); });
  TcpSegment seg;
  seg.payload = 1460;
  rx.on_data(seg);
  sim.run_until(time::millis(39));
  EXPECT_TRUE(acks.empty());
  sim.run_until(time::millis(41));
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].ack, 1460u);
}

TEST(TcpReceiver, OutOfOrderTriggersImmediateDupAckWithSack) {
  Simulator sim;
  std::vector<TcpSegment> acks;
  TcpReceiver rx(sim, FlowId{1}, {}, [&](TcpSegment a) { acks.push_back(a); });
  TcpSegment seg;
  seg.payload = 1460;
  seg.seq = 2920;  // skip the first two segments
  rx.on_data(seg);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].ack, 0u);
  ASSERT_EQ(acks[0].sacks.size(), 1u);
  EXPECT_EQ(acks[0].sacks[0].start, 2920u);
  EXPECT_EQ(acks[0].sacks[0].end, 4380u);
  EXPECT_EQ(rx.stats().dup_acks_sent, 1u);
}

TEST(TcpReceiver, ReassemblesAfterHoleFilled) {
  Simulator sim;
  std::vector<TcpSegment> acks;
  TcpReceiver rx(sim, FlowId{1}, {}, [&](TcpSegment a) { acks.push_back(a); });
  TcpSegment s1, s2, s0;
  s0.payload = s1.payload = s2.payload = 1460;
  s1.seq = 1460;
  s2.seq = 2920;
  rx.on_data(s1);
  rx.on_data(s2);
  EXPECT_EQ(rx.rcv_nxt(), 0u);
  rx.on_data(s0);  // fills the hole
  EXPECT_EQ(rx.rcv_nxt(), 4380u);
  EXPECT_EQ(rx.bytes_delivered(), 4380u);
}

TEST(TcpReceiver, DuplicateOldSegmentReAcked) {
  Simulator sim;
  std::vector<TcpSegment> acks;
  TcpReceiver rx(sim, FlowId{1}, {}, [&](TcpSegment a) { acks.push_back(a); });
  TcpSegment s;
  s.payload = 1460;
  rx.on_data(s);
  rx.on_data(s);  // exact duplicate
  EXPECT_EQ(rx.stats().duplicate_segments, 1u);
  EXPECT_FALSE(acks.empty());
  EXPECT_EQ(acks.back().ack, 1460u);
}

TEST(TcpReceiver, WindowOverflowDropsBeyondBuffer) {
  Simulator sim;
  TcpReceiver::Config cfg;
  cfg.buffer = Bytes{4380};  // 3 segments
  TcpReceiver rx(sim, FlowId{1}, cfg, [](TcpSegment) {});
  TcpSegment far;
  far.payload = 1460;
  far.seq = 100'000;  // way past rcv_nxt + buffer
  rx.on_data(far);
  EXPECT_EQ(rx.stats().window_overflow_drops, 1u);
}

TEST(TcpReceiver, AdvertisedWindowShrinksWithHeldOoo) {
  Simulator sim;
  TcpReceiver::Config cfg;
  cfg.buffer = units::kilobytes(100);
  TcpReceiver rx(sim, FlowId{1}, cfg, [](TcpSegment) {});
  EXPECT_EQ(rx.advertised_window(), 100'000u);
  TcpSegment ooo;
  ooo.payload = 1460;
  ooo.seq = 1460;
  rx.on_data(ooo);
  EXPECT_EQ(rx.advertised_window(), 100'000u - 1460u);
}

TEST(TcpReceiver, SackBlocksLimitedToThree) {
  Simulator sim;
  std::vector<TcpSegment> acks;
  TcpReceiver rx(sim, FlowId{1}, {}, [&](TcpSegment a) { acks.push_back(a); });
  // Create 5 disjoint out-of-order islands.
  for (int i = 0; i < 5; ++i) {
    TcpSegment s;
    s.payload = 1460;
    s.seq = 2920u * static_cast<std::uint64_t>(i + 1);
    rx.on_data(s);
  }
  ASSERT_FALSE(acks.empty());
  EXPECT_LE(acks.back().sacks.size(), 3u);
}

TEST(TcpReceiver, MergesAdjacentOooRanges) {
  Simulator sim;
  TcpReceiver rx(sim, FlowId{1}, {}, [](TcpSegment) {});
  TcpSegment a, b;
  a.payload = b.payload = 1460;
  a.seq = 1460;
  b.seq = 2920;  // adjacent to a
  rx.on_data(a);
  rx.on_data(b);
  // One merged hole-island: advertised window reflects 2 segments held.
  EXPECT_EQ(rx.advertised_window(),
            static_cast<std::uint64_t>(TcpReceiver::Config{}.buffer.count()) -
                2920u);
}

}  // namespace
}  // namespace w11
