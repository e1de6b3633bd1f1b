#pragma once
// TCP segment model.
//
// Segments carry the header fields the reproduction needs: byte sequence /
// acknowledgment numbers, payload length, advertised receive window, SACK
// blocks and a DSCP mark (mapped to an 802.11e access category at the AP).
// Sequence numbers are absolute 64-bit byte offsets — wrap-around handling
// is orthogonal to everything the paper studies and is deliberately
// excluded from the model.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "common/units.hpp"

namespace w11 {

struct SackBlock {
  std::uint64_t start = 0;  // first sacked byte
  std::uint64_t end = 0;    // one past last sacked byte
  friend constexpr auto operator<=>(const SackBlock&, const SackBlock&) = default;
};

// Fixed-capacity SACK block list. Real TCP fits at most 3 SACK blocks next
// to a timestamp option, so the former std::vector only ever held 0–3
// entries — at the cost of making every segment copy an allocation. Storing
// them inline keeps TcpSegment trivially copyable, which is what lets event
// queues and retransmit caches treat segments as relocatable raw bytes.
class SackList {
 public:
  static constexpr std::size_t kMax = 3;

  [[nodiscard]] constexpr std::size_t size() const { return n_; }
  [[nodiscard]] constexpr bool empty() const { return n_ == 0; }
  constexpr void clear() { n_ = 0; }

  // Appends, silently dropping blocks past capacity (the option-space rule
  // the receiver previously enforced with an explicit break).
  constexpr void push_back(SackBlock b) {
    if (n_ < kMax) blocks_[n_++] = b;
  }

  [[nodiscard]] constexpr const SackBlock& operator[](std::size_t i) const {
    return blocks_[i];
  }
  [[nodiscard]] constexpr const SackBlock* begin() const { return blocks_; }
  [[nodiscard]] constexpr const SackBlock* end() const { return blocks_ + n_; }

 private:
  SackBlock blocks_[kMax] = {};
  std::uint8_t n_ = 0;
};

struct TcpSegment {
  FlowId flow;                 // stands in for the 5-tuple
  StationId dst_station;       // wireless destination for downlink routing

  std::uint64_t seq = 0;       // first payload byte (data segments)
  std::uint64_t ack = 0;       // cumulative ack: next byte expected
  std::uint32_t payload = 0;   // payload bytes (0 for pure ACKs)
  std::uint64_t rwnd = 0;      // advertised receive window (bytes)
  bool is_ack = false;         // carries acknowledgment information
  bool udp = false;            // connection-less traffic (Fig. 15 upper bound)
  int dscp = 0;                // IP DSCP mark

  SackList sacks;

  // Measurement metadata (not protocol state): segment creation time and
  // the time the AP accepted it from the wire, for latency accounting.
  Time sent_at{};
  Time ap_rx_at{};

  [[nodiscard]] std::uint64_t seq_end() const { return seq + payload; }
  [[nodiscard]] bool has_payload() const { return payload > 0; }

  // On-the-wire size: payload plus IP+TCP headers (40 B, +12 B when options
  // such as SACK ride along).
  [[nodiscard]] Bytes wire_size() const {
    const std::int64_t hdr = sacks.empty() ? 40 : 52;
    return Bytes{hdr + payload};
  }
};

// Segments are moved through event captures, retransmit caches and A-MPDU
// queues by the million; trivial copyability is what makes those moves
// memcpy-class and lets the flat containers relocate entries freely.
static_assert(std::is_trivially_copyable_v<TcpSegment>);

// Where a segment is handed on: a wire, an AP's uplink or a TCP endpoint.
using SegmentSink = std::function<void(TcpSegment)>;

}  // namespace w11
