#pragma once
// FastACK event tracing — the "debug switches" of the paper's fn. 9.
//
// A bounded ring of typed datapath events per agent. Cheap enough to leave
// compiled in (an enum + three integers per event), enabled per agent at
// runtime; tests assert on event sequences and operators debug live flows
// by dumping the ring.

#include <cstdint>
#include <ostream>
#include <string>

#include "common/bounded_ring.hpp"
#include "common/ids.hpp"
#include "common/time.hpp"

namespace w11::fastack {

enum class TraceEvent : std::uint8_t {
  kFlowCreated,
  kDataInOrder,       // case (iii)
  kDataRetransmit,    // case (ii)
  kDataSpurious,      // case (i) dropped
  kHoleDetected,      // case (iv)
  kHoleDupAck,
  kAirAck,            // 802.11 ack absorbed into q_seq
  kFastAck,
  kWindowUpdate,
  kClientAckSuppressed,
  kClientAckPassed,
  kClientDupAck,
  kLocalRetransmit,
  kMpduDropped,
  kBypassActivated,   // invariant anomaly -> plain forwarding
  kFlowEvicted,       // idle-timeout or capacity GC
};

[[nodiscard]] constexpr const char* to_string(TraceEvent e) {
  switch (e) {
    case TraceEvent::kFlowCreated: return "flow-created";
    case TraceEvent::kDataInOrder: return "data-in-order";
    case TraceEvent::kDataRetransmit: return "data-e2e-retx";
    case TraceEvent::kDataSpurious: return "data-spurious-dropped";
    case TraceEvent::kHoleDetected: return "hole-detected";
    case TraceEvent::kHoleDupAck: return "hole-dupack";
    case TraceEvent::kAirAck: return "80211-ack";
    case TraceEvent::kFastAck: return "fast-ack";
    case TraceEvent::kWindowUpdate: return "window-update";
    case TraceEvent::kClientAckSuppressed: return "client-ack-suppressed";
    case TraceEvent::kClientAckPassed: return "client-ack-passed";
    case TraceEvent::kClientDupAck: return "client-dupack";
    case TraceEvent::kLocalRetransmit: return "local-retx";
    case TraceEvent::kMpduDropped: return "mpdu-dropped";
    case TraceEvent::kBypassActivated: return "bypass-activated";
    case TraceEvent::kFlowEvicted: return "flow-evicted";
  }
  return "?";
}

struct TraceRecord {
  Time at{};
  FlowId flow;
  TraceEvent event{};
  std::uint64_t seq = 0;    // event-specific sequence / ack number
  std::uint64_t extra = 0;  // event-specific (length, window, count)

  [[nodiscard]] std::string to_string() const;
};

// Bounded per-agent ring of trace records (common::BoundedRing): oldest
// entries are evicted once capacity is reached; `dropped()` reports how many.
using TraceRing = common::BoundedRing<TraceRecord>;

// Records oldest first, then a line counting evictions if there were any.
void dump(const TraceRing& ring, std::ostream& os);

}  // namespace w11::fastack
