#pragma once
// Point-to-point wired link with a finite FIFO queue.
//
// Models the path between the TCP sender and the AP (switch + Ethernet).
// A finite queue lets benches reproduce "TCP holes": drops upstream of the
// AP that FastACK must paper over (§5.5.3).
//
// The FIFO runs in virtual time: `send` stamps each segment with the
// interval it will occupy the NIC, back to back after the segment ahead of
// it, and only the front segment has an event queued — its delivery at the
// end of serialization + propagation (DESIGN.md §11).

#include "common/check.hpp"
#include "common/ring.hpp"
#include "common/units.hpp"
#include "net/tcp_segment.hpp"
#include "sim/simulator.hpp"

namespace w11 {

class WiredLink {
 public:
  struct Config {
    RateMbps rate{1000.0};           // 1 GbE by default
    Time propagation = time::micros(100);
    std::size_t queue_packets = 2048; // FIFO capacity; 0 = unlimited
  };

  WiredLink(Simulator& sim, Config cfg, SegmentSink deliver)
      : sim_(sim), cfg_(cfg), deliver_(std::move(deliver)) {
    W11_CHECK(deliver_ != nullptr);
  }
  WiredLink(const WiredLink&) = delete;
  WiredLink& operator=(const WiredLink&) = delete;

  // Enqueue a segment; silently dropped if the queue is full (IP semantics)
  // or the link is administratively/physically down.
  void send(TcpSegment seg);

  // Outage control (fault injection): a down link drops everything offered
  // to it — queued segments are lost too, like an unplugged cable. Packets
  // that started serializing onto the wire still arrive (they left the
  // NIC's queue).
  void set_up(bool up);
  [[nodiscard]] bool is_up() const { return up_; }

  // Segments waiting to start serializing; the one on the wire is not
  // counted. The `queue_packets` limit applies to this depth.
  [[nodiscard]] std::size_t queue_depth() const;
  [[nodiscard]] std::uint64_t delivered_count() const { return delivered_; }
  [[nodiscard]] std::uint64_t dropped_count() const { return dropped_; }
  [[nodiscard]] std::uint64_t outage_drops() const { return outage_drops_; }

 private:
  // A segment occupies the NIC over [start, done) and arrives at
  // done + propagation.
  struct Slot {
    Time start;
    Time done;
    TcpSegment seg;
  };

  void schedule_front();
  void deliver_front();

  Simulator& sim_;
  Config cfg_;
  SegmentSink deliver_;
  common::RingFifo<Slot> fifo_;  // ascending start; the front has always started
  Time free_at_{};         // when the NIC finishes the last segment
  bool up_ = true;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t outage_drops_ = 0;
};

}  // namespace w11
