#pragma once
// TCP sender endpoint.
//
// Implements the sender-side machinery the paper's analysis depends on
// (§5.1): self-clocking on ACK arrival, slow start / congestion avoidance
// (NewReno or CUBIC), fast retransmit & recovery on duplicate ACKs, SACK-
// driven hole filling, RFC 6298 retransmission timeout with exponential
// backoff, and receive-window flow control. Payload bytes are virtual —
// only lengths and sequence numbers are simulated.

#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "net/tcp_segment.hpp"
#include "sim/simulator.hpp"

namespace w11 {

class TcpSender {
 public:
  enum class CcAlgo { kReno, kCubic };

  struct Config {
    Bytes mss{1460};
    // OS cap on the congestion window, in segments; the paper's hosts
    // default to 770 (§5.6.2, fn. 13).
    std::uint64_t max_cwnd_segments = 770;
    CcAlgo algo = CcAlgo::kReno;
    Time min_rto = time::millis(200);
    Time initial_rto = time::seconds(1);
    int dscp = 0;
  };

  struct Stats {
    std::uint64_t segments_sent = 0;
    std::uint64_t fast_retransmits = 0;
    std::uint64_t sack_retransmits = 0;
    std::uint64_t rto_retransmits = 0;
    std::uint64_t rto_events = 0;
    std::uint64_t dup_acks_seen = 0;
    std::uint64_t zero_window_probes = 0;
  };

  TcpSender(Simulator& sim, FlowId flow, StationId dst, Config cfg, SegmentSink send);
  TcpSender(const TcpSender&) = delete;
  TcpSender& operator=(const TcpSender&) = delete;

  // Begin transmitting. Bytes{0} means an unlimited (saturating) source.
  void start(Bytes total = Bytes{0});

  // Deliver an (possibly duplicate / SACK-bearing) acknowledgment.
  void on_ack(const TcpSegment& ack);

  // --- observability ------------------------------------------------------
  [[nodiscard]] double cwnd_segments() const {
    return cwnd_ / static_cast<double>(cfg_.mss.count());
  }
  [[nodiscard]] std::uint64_t snd_una() const { return snd_una_; }
  [[nodiscard]] std::uint64_t snd_nxt() const { return snd_nxt_; }
  [[nodiscard]] std::uint64_t peer_rwnd() const { return peer_rwnd_; }
  [[nodiscard]] Time smoothed_rtt() const { return srtt_; }
  [[nodiscard]] Time current_rto() const { return rto_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] bool finished() const {
    return total_ > Bytes{0} &&
           snd_una_ >= static_cast<std::uint64_t>(total_.count());
  }

  // tcp_probe-style cwnd trace (Fig. 14): (time, cwnd in segments) recorded
  // at every cwnd change once enabled.
  void enable_cwnd_trace() { cwnd_trace_on_ = true; }
  [[nodiscard]] const std::vector<std::pair<Time, double>>& cwnd_trace() const {
    return cwnd_trace_;
  }

 private:
  void try_send();
  void send_segment(std::uint64_t seq, std::uint32_t len, bool is_retransmit);
  void on_new_ack(std::uint64_t acked_bytes);
  void enter_recovery();
  void on_rto();
  void arm_rto();
  void on_persist_probe();
  void update_rtt(Time sample);
  void note_cwnd();
  void clamp_cwnd();
  [[nodiscard]] std::uint64_t inflight() const { return snd_nxt_ - snd_una_; }
  [[nodiscard]] std::uint64_t data_limit() const;  // total bytes to send
  [[nodiscard]] std::optional<std::uint64_t> next_sack_hole();
  void cubic_on_loss();
  void cubic_on_ack(std::uint64_t acked_bytes);

  Simulator& sim_;
  FlowId flow_;
  StationId dst_;
  Config cfg_;
  SegmentSink send_;

  Bytes total_{};        // 0 = unlimited
  bool started_ = false;

  std::uint64_t snd_una_ = 0;
  std::uint64_t snd_nxt_ = 0;
  double cwnd_ = 0.0;      // bytes
  double ssthresh_ = 0.0;  // bytes
  std::uint64_t peer_rwnd_ = 0;

  // Recovery state.
  int dupack_count_ = 0;
  bool in_recovery_ = false;
  std::uint64_t recover_ = 0;            // NewReno recovery point
  std::set<SackBlock> sack_scoreboard_;  // sacked ranges above snd_una
  std::uint64_t retransmitted_up_to_ = 0;  // highest hole retransmitted this episode
  std::uint64_t retx_until_ = 0;  // below this, sends are go-back-N resends

  // RTT / RTO.
  Time srtt_{};
  Time rttvar_{};
  Time rto_;
  bool rtt_valid_ = false;
  std::optional<std::pair<std::uint64_t, Time>> timed_segment_;  // (seq_end, sent)
  DeadlineTimer rto_timer_;
  // Zero-window persist machinery: without probes a closed peer window
  // with an empty flight would deadlock the connection.
  EventHandle persist_timer_;
  Time persist_interval_{};

  // CUBIC state.
  double cubic_wmax_ = 0.0;
  Time cubic_epoch_{};
  bool cubic_epoch_valid_ = false;

  bool cwnd_trace_on_ = false;
  std::vector<std::pair<Time, double>> cwnd_trace_;

  Stats stats_;
};

}  // namespace w11
