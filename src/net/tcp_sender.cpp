#include "net/tcp_sender.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace w11 {

namespace {
// CUBIC constants (RFC 8312): multiplicative decrease and growth scale.
constexpr double kCubicBeta = 0.7;
constexpr double kCubicC = 0.4;
// Initial congestion window, in segments (RFC 6928).
constexpr std::uint64_t kInitialCwndSegments = 10;
}  // namespace

TcpSender::TcpSender(Simulator& sim, FlowId flow, StationId dst, Config cfg,
                     SegmentSink send)
    : sim_(sim),
      flow_(flow),
      dst_(dst),
      cfg_(cfg),
      send_(std::move(send)),
      rto_(cfg.initial_rto),
      rto_timer_(sim, [this] { on_rto(); }) {
  W11_CHECK(send_ != nullptr);
  W11_CHECK(cfg_.mss > Bytes{0});
  cwnd_ = static_cast<double>(kInitialCwndSegments * cfg_.mss.count());
  ssthresh_ = static_cast<double>(cfg_.max_cwnd_segments * cfg_.mss.count());
  // Until the first ACK reveals the peer's window, assume it is open.
  peer_rwnd_ = cfg_.max_cwnd_segments * static_cast<std::uint64_t>(cfg_.mss.count());
}

void TcpSender::start(Bytes total) {
  W11_CHECK_MSG(!started_, "sender already started");
  started_ = true;
  total_ = total;
  note_cwnd();
  try_send();
}

std::uint64_t TcpSender::data_limit() const {
  if (total_ <= Bytes{0}) return UINT64_MAX;
  return static_cast<std::uint64_t>(total_.count());
}

void TcpSender::try_send() {
  if (!started_) return;
  const auto mss = static_cast<std::uint64_t>(cfg_.mss.count());
  while (true) {
    const auto window = static_cast<std::uint64_t>(
        std::min(cwnd_, static_cast<double>(peer_rwnd_)));
    if (inflight() + mss > window) break;        // window full
    if (snd_nxt_ >= data_limit()) break;         // app out of data
    const std::uint32_t len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(mss, data_limit() - snd_nxt_));
    send_segment(snd_nxt_, len, /*is_retransmit=*/false);
    snd_nxt_ += len;
  }
  if (inflight() > 0 && !rto_timer_.armed()) arm_rto();

  // Zero-window deadlock guard: data waits, nothing is in flight, and the
  // peer window is closed — probe until an ACK reopens it (RFC 9293 §3.8.6).
  if (inflight() == 0 && snd_nxt_ < data_limit() && peer_rwnd_ < mss) {
    if (!persist_timer_.pending()) {
      if (persist_interval_ == Time{}) persist_interval_ = cfg_.min_rto;
      persist_timer_ =
          sim_.schedule_after(persist_interval_, [this] { on_persist_probe(); });
    }
  } else {
    persist_timer_.cancel();
    persist_interval_ = Time{};
  }
}

void TcpSender::on_persist_probe() {
  const auto mss = static_cast<std::uint64_t>(cfg_.mss.count());
  if (inflight() != 0 || snd_nxt_ >= data_limit() || peer_rwnd_ >= mss) {
    persist_interval_ = Time{};
    return;  // window reopened meanwhile
  }
  // Probe with one byte of new data; the ACK it elicits carries the
  // current window.
  ++stats_.zero_window_probes;
  send_segment(snd_nxt_, 1, /*is_retransmit=*/false);
  snd_nxt_ += 1;
  persist_interval_ = std::min(persist_interval_ * 2, time::seconds(60));
  persist_timer_ =
      sim_.schedule_after(persist_interval_, [this] { on_persist_probe(); });
  if (!rto_timer_.armed()) arm_rto();
}

void TcpSender::send_segment(std::uint64_t seq, std::uint32_t len,
                             bool is_retransmit) {
  TcpSegment seg;
  seg.flow = flow_;
  seg.dst_station = dst_;
  seg.seq = seq;
  seg.payload = len;
  seg.dscp = cfg_.dscp;
  seg.sent_at = sim_.now();
  ++stats_.segments_sent;
  // Karn's rule: only time segments that are not retransmissions (including
  // go-back-N resends below the pre-RTO high-water mark).
  if (!is_retransmit && seq >= retx_until_ && !timed_segment_) {
    timed_segment_ = {seq + len, sim_.now()};
  }
  send_(std::move(seg));
}

void TcpSender::on_ack(const TcpSegment& ack) {
  if (!ack.is_ack) return;
  peer_rwnd_ = ack.rwnd;

  // Merge SACK information.
  bool sack_changed = false;
  for (const SackBlock& b : ack.sacks) {
    if (b.end <= snd_una_) continue;
    if (sack_scoreboard_.insert(b).second) sack_changed = true;
  }

  if (ack.ack > snd_una_) {
    const std::uint64_t acked = ack.ack - snd_una_;
    snd_una_ = ack.ack;
    // A late ACK can cover data sent before an RTO rewound snd_nxt; the
    // send cursor must never trail the acknowledged point or in-flight
    // accounting underflows.
    snd_nxt_ = std::max(snd_nxt_, snd_una_);
    dupack_count_ = 0;
    // Drop scoreboard entries below the new left edge.
    std::erase_if(sack_scoreboard_,
                  [this](const SackBlock& b) { return b.end <= snd_una_; });

    // RTT sample (Karn-compliant).
    if (timed_segment_ && snd_una_ >= timed_segment_->first) {
      update_rtt(sim_.now() - timed_segment_->second);
      timed_segment_.reset();
    }

    if (in_recovery_) {
      if (snd_una_ >= recover_) {
        // Full recovery: deflate to ssthresh and resume normal growth.
        in_recovery_ = false;
        cwnd_ = ssthresh_;
        clamp_cwnd();
        note_cwnd();
      } else {
        // Partial ACK: the next hole is also lost — retransmit it at once
        // (NewReno) and stay in recovery.
        const auto mss = static_cast<std::uint64_t>(cfg_.mss.count());
        const std::uint32_t len = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(mss, data_limit() - snd_una_));
        if (len > 0 && snd_una_ > retransmitted_up_to_) {
          send_segment(snd_una_, len, /*is_retransmit=*/true);
          retransmitted_up_to_ = snd_una_ + len;
          ++stats_.fast_retransmits;
        }
      }
    } else {
      on_new_ack(acked);
    }

    // Fresh data acknowledged: restart the RTO for the remaining flight.
    rto_timer_.disarm();
    if (inflight() > 0) arm_rto();
  } else if (ack.ack == snd_una_ && !ack.has_payload() && inflight() > 0) {
    // Duplicate ACK.
    ++stats_.dup_acks_seen;
    ++dupack_count_;
    if (!in_recovery_ && (dupack_count_ >= 3 ||
                          (sack_changed && dupack_count_ >= 1 &&
                           sack_scoreboard_.size() >= 3))) {
      enter_recovery();
    } else if (in_recovery_) {
      // Window inflation per extra dupack keeps the pipe full.
      cwnd_ += static_cast<double>(cfg_.mss.count());
      clamp_cwnd();
      note_cwnd();
      if (sack_changed) {
        if (auto hole = next_sack_hole()) {
          const auto mss = static_cast<std::uint64_t>(cfg_.mss.count());
          const std::uint32_t len = static_cast<std::uint32_t>(
              std::min<std::uint64_t>(mss, data_limit() - *hole));
          if (len > 0) {
            send_segment(*hole, len, /*is_retransmit=*/true);
            retransmitted_up_to_ = std::max(retransmitted_up_to_, *hole + len);
            ++stats_.sack_retransmits;
          }
        }
      }
    }
  }

  try_send();
}

void TcpSender::on_new_ack(std::uint64_t acked_bytes) {
  const double mss = static_cast<double>(cfg_.mss.count());
  if (cwnd_ < ssthresh_) {
    // Slow start: one MSS per ACKed MSS.
    cwnd_ += std::min(static_cast<double>(acked_bytes), mss);
  } else if (cfg_.algo == CcAlgo::kReno) {
    cwnd_ += mss * mss / cwnd_;
  } else {
    cubic_on_ack(acked_bytes);
  }
  clamp_cwnd();
  note_cwnd();
}

std::optional<std::uint64_t> TcpSender::next_sack_hole() {
  // First unsacked, un-retransmitted byte range start at/above snd_una and
  // below the highest sacked byte.
  if (sack_scoreboard_.empty()) return std::nullopt;
  std::uint64_t cursor = std::max(snd_una_, retransmitted_up_to_);
  std::uint64_t highest = 0;
  for (const SackBlock& b : sack_scoreboard_) highest = std::max(highest, b.end);
  while (cursor < highest) {
    bool covered = false;
    for (const SackBlock& b : sack_scoreboard_) {
      if (b.start <= cursor && cursor < b.end) {
        cursor = b.end;
        covered = true;
        break;
      }
    }
    if (!covered) return cursor;
  }
  return std::nullopt;
}

void TcpSender::enter_recovery() {
  in_recovery_ = true;
  recover_ = snd_nxt_;
  const double mss = static_cast<double>(cfg_.mss.count());
  ssthresh_ = std::max(static_cast<double>(inflight()) / 2.0, 2.0 * mss);
  if (cfg_.algo == CcAlgo::kCubic) cubic_on_loss();
  cwnd_ = ssthresh_ + 3.0 * mss;
  clamp_cwnd();
  note_cwnd();
  // Retransmit the first hole immediately.
  const auto mss_u = static_cast<std::uint64_t>(cfg_.mss.count());
  const std::uint32_t len = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(mss_u, data_limit() - snd_una_));
  if (len > 0) {
    send_segment(snd_una_, len, /*is_retransmit=*/true);
    retransmitted_up_to_ = snd_una_ + len;
    ++stats_.fast_retransmits;
  }
}

void TcpSender::on_rto() {
  if (inflight() == 0) return;
  ++stats_.rto_events;
  const double mss = static_cast<double>(cfg_.mss.count());
  ssthresh_ = std::max(static_cast<double>(inflight()) / 2.0, 2.0 * mss);
  if (cfg_.algo == CcAlgo::kCubic) cubic_on_loss();
  cwnd_ = mss;  // collapse to one segment and rebuild via slow start
  in_recovery_ = false;
  dupack_count_ = 0;
  sack_scoreboard_.clear();
  retransmitted_up_to_ = snd_una_;
  timed_segment_.reset();  // Karn: no timing across a timeout
  // Go-back-N: everything in flight is presumed lost; rewind the send
  // cursor so slow start re-drives the stream from snd_una.
  retx_until_ = std::max(retx_until_, snd_nxt_);
  snd_nxt_ = snd_una_;
  note_cwnd();

  ++stats_.rto_retransmits;
  rto_ = std::min(rto_ * 2, time::seconds(60));  // exponential backoff
  arm_rto();
  try_send();
}

void TcpSender::arm_rto() { rto_timer_.arm_after(rto_); }

void TcpSender::update_rtt(Time sample) {
  if (!rtt_valid_) {
    srtt_ = sample;
    rttvar_ = sample / 2;
    rtt_valid_ = true;
  } else {
    const Time err{std::abs((srtt_ - sample).ns())};
    rttvar_ = Time{(3 * rttvar_.ns() + err.ns()) / 4};
    srtt_ = Time{(7 * srtt_.ns() + sample.ns()) / 8};
  }
  rto_ = std::max(srtt_ + 4 * rttvar_, cfg_.min_rto);
}

void TcpSender::clamp_cwnd() {
  const double mss = static_cast<double>(cfg_.mss.count());
  const double cap = static_cast<double>(cfg_.max_cwnd_segments) * mss;
  cwnd_ = std::clamp(cwnd_, mss, cap);
}

void TcpSender::note_cwnd() {
  if (cwnd_trace_on_) cwnd_trace_.emplace_back(sim_.now(), cwnd_segments());
}

void TcpSender::cubic_on_loss() {
  cubic_wmax_ = cwnd_;
  ssthresh_ = std::max(cwnd_ * kCubicBeta,
                       2.0 * static_cast<double>(cfg_.mss.count()));
  cubic_epoch_valid_ = false;
}

void TcpSender::cubic_on_ack(std::uint64_t /*acked_bytes*/) {
  const double mss = static_cast<double>(cfg_.mss.count());
  if (!cubic_epoch_valid_) {
    cubic_epoch_ = sim_.now();
    cubic_epoch_valid_ = true;
  }
  const double t = (sim_.now() - cubic_epoch_).sec();
  const double wmax_seg = cubic_wmax_ / mss;
  const double k = std::cbrt(wmax_seg * (1.0 - kCubicBeta) / kCubicC);
  const double target_seg = kCubicC * std::pow(t - k, 3.0) + wmax_seg;
  const double target = target_seg * mss;
  if (target > cwnd_) {
    // Approach the cubic target over roughly one RTT of ACKs.
    cwnd_ += std::max((target - cwnd_) / std::max(cwnd_ / mss, 1.0), 0.01 * mss);
  } else {
    // TCP-friendly region: at least Reno's growth.
    cwnd_ += mss * mss / cwnd_;
  }
}

}  // namespace w11
