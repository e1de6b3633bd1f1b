#pragma once
// TCP receiver endpoint.
//
// Reassembles in-order data, generates cumulative ACKs with optional SACK
// blocks, applies the delayed-ACK rule (ACK every second segment or after a
// timeout), and advertises a receive window bounded by a finite buffer.
// The application consumes in-order data immediately, so only out-of-order
// bytes occupy the buffer — matching a saturating download client.

#include <cstdint>

#include "common/ids.hpp"
#include "common/seq_containers.hpp"
#include "common/units.hpp"
#include "net/tcp_segment.hpp"
#include "sim/simulator.hpp"

namespace w11 {

class TcpReceiver {
 public:
  struct Config {
    Bytes buffer{1'048'576};  // 1 MiB receive buffer
    Time delayed_ack = time::millis(40);
  };

  struct Stats {
    std::uint64_t segments_received = 0;
    std::uint64_t duplicate_segments = 0;
    std::uint64_t window_overflow_drops = 0;
    std::uint64_t acks_sent = 0;
    std::uint64_t dup_acks_sent = 0;
  };

  TcpReceiver(Simulator& sim, FlowId flow, Config cfg, SegmentSink send_ack);
  TcpReceiver(const TcpReceiver&) = delete;
  TcpReceiver& operator=(const TcpReceiver&) = delete;

  void on_data(const TcpSegment& seg);

  [[nodiscard]] std::uint64_t rcv_nxt() const { return rcv_nxt_; }
  [[nodiscard]] std::uint64_t bytes_delivered() const { return rcv_nxt_; }
  [[nodiscard]] std::uint64_t advertised_window() const;
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  void emit_ack(bool duplicate);

  Simulator& sim_;
  FlowId flow_;
  Config cfg_;
  SegmentSink send_ack_;

  std::uint64_t rcv_nxt_ = 0;
  // Out-of-order byte ranges held in the buffer, as merged disjoint
  // intervals in a flat sorted vector.
  IntervalVec ooo_;
  int unacked_segments_ = 0;
  DeadlineTimer delack_timer_;
  Stats stats_;
};

}  // namespace w11
