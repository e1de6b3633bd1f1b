#include "net/tcp_receiver.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace w11 {

namespace {
// Immediate ACK after this many unacked in-order segments (delayed ACK).
constexpr int kAckEvery = 2;
}  // namespace

TcpReceiver::TcpReceiver(Simulator& sim, FlowId flow, Config cfg, SegmentSink send_ack)
    : sim_(sim),
      flow_(flow),
      cfg_(cfg),
      send_ack_(std::move(send_ack)),
      delack_timer_(sim, [this] {
        if (unacked_segments_ > 0) emit_ack(/*duplicate=*/false);
      }) {
  W11_CHECK(send_ack_ != nullptr);
  W11_CHECK(cfg_.buffer > Bytes{0});
}

std::uint64_t TcpReceiver::advertised_window() const {
  const std::uint64_t held = ooo_.held_bytes();
  const auto buf = static_cast<std::uint64_t>(cfg_.buffer.count());
  return held >= buf ? 0 : buf - held;
}

void TcpReceiver::on_data(const TcpSegment& seg) {
  if (!seg.has_payload()) return;
  ++stats_.segments_received;

  const std::uint64_t end = seg.seq_end();
  if (end <= rcv_nxt_) {
    // Entirely old data — a retransmission we already have. Re-ACK so the
    // sender can make progress.
    ++stats_.duplicate_segments;
    emit_ack(/*duplicate=*/true);
    return;
  }

  if (seg.seq > rcv_nxt_) {
    // Out of order: hole ahead of us. Buffer if it fits in the window.
    const auto buf = static_cast<std::uint64_t>(cfg_.buffer.count());
    if (end > rcv_nxt_ + buf) {
      // Sender overran our advertised window; drop (§5.5.2's failure mode).
      ++stats_.window_overflow_drops;
      return;
    }
    // Merge [seg.seq, end) into the out-of-order interval set.
    ooo_.insert(seg.seq, end);
    // Out-of-order arrival triggers an immediate duplicate ACK (with SACK).
    emit_ack(/*duplicate=*/true);
    return;
  }

  // In-order (possibly overlapping) data: advance rcv_nxt, absorbing any
  // now-contiguous buffered ranges.
  rcv_nxt_ = ooo_.absorb(end);

  if (!ooo_.empty()) {
    // Still holes above us — keep the sender informed immediately.
    emit_ack(/*duplicate=*/false);
    return;
  }

  if (++unacked_segments_ >= kAckEvery) {
    emit_ack(/*duplicate=*/false);
  } else if (!delack_timer_.armed()) {
    delack_timer_.arm_after(cfg_.delayed_ack);
  }
}

void TcpReceiver::emit_ack(bool duplicate) {
  unacked_segments_ = 0;
  delack_timer_.disarm();
  TcpSegment ack;
  ack.flow = flow_;
  ack.is_ack = true;
  ack.ack = rcv_nxt_;
  ack.rwnd = advertised_window();
  ack.sent_at = sim_.now();
  // SackList caps itself at the 3-block option space limit.
  for (const auto& iv : ooo_) ack.sacks.push_back({iv.start, iv.end});
  ++stats_.acks_sent;
  if (duplicate) ++stats_.dup_acks_sent;
  send_ack_(std::move(ack));
}

}  // namespace w11
