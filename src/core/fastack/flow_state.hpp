#pragma once
// Per-flow FastACK state, Table 3 of the paper.
//
//   holes_vec — TCP holes (upstream losses) observed at the AP
//   seq_high  — highest TCP data sequence seen from the sender
//   seq_exp   — next expected TCP data sequence from the sender
//   seq_fack  — cumulative fast-ACK point (last byte fast-acked + 1)
//   seq_tcp   — cumulative ACK point confirmed by the client's own TCP
//   q_seq     — 802.11-acked segment ranges awaiting contiguous fast-ACK
//
// Invariant maintained throughout: seq_fack <= seq_exp (the AP can never
// fast-ack bytes the sender has not yet delivered to it), and
// seq_tcp <= seq_fack whenever the client is behind the fast-ACK point.

#include <cstdint>
#include <vector>

#include "common/ids.hpp"
#include "common/seq_containers.hpp"
#include "common/time.hpp"
#include "net/tcp_segment.hpp"
#include "wlan/retx_cache.hpp"

namespace w11::fastack {

struct Hole {
  std::uint64_t start = 0;
  std::uint64_t end = 0;  // exclusive
  friend constexpr auto operator<=>(const Hole&, const Hole&) = default;
};

// A segment range acknowledged at the 802.11 layer, pending fast-ACK.
struct AckedRange {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  friend constexpr auto operator<=>(const AckedRange&, const AckedRange&) = default;
};

struct FlowState {
  StationId client;
  bool initialized = false;

  // Safe-disable bypass (§5.5.4 spirit): when an invariant anomaly is
  // detected — corrupt imported state after a roam/crash, or internal
  // bookkeeping gone wrong — the flow stops being accelerated and every
  // packet passes through untouched. The sender's normal TCP recovery takes
  // over; correctness is preserved at the cost of acceleration.
  bool bypassed = false;

  // Last datapath event touching this flow (drives idle-flow eviction).
  Time last_activity{};

  std::vector<Hole> holes_vec;
  std::uint64_t seq_high = 0;
  std::uint64_t seq_exp = 0;
  std::uint64_t seq_fack = 0;
  std::uint64_t seq_tcp = 0;
  // Ordered unique ranges consumed from the front as contiguity resolves;
  // flat storage since ranges arrive almost sorted and leave strictly
  // front-first.
  RangeQueue<AckedRange> q_seq;

  // Retransmission cache (wlan/retx_cache.hpp), with its replay limiter.
  // Entries are evicted front-first when the client's real TCP ACK
  // (seq_tcp) passes them.
  RetxCache retx_cache;

  // Client-side flow-control bookkeeping (§5.5.2).
  std::uint64_t client_rwnd = 0;
  std::uint64_t last_advertised_rwnd = 0;

  // Duplicate-ACK tracking for local retransmissions.
  std::uint64_t last_client_ack = 0;
  int client_dupacks = 0;

  [[nodiscard]] std::uint64_t outstanding_bytes() const {
    return seq_high > seq_tcp ? seq_high - seq_tcp : 0;
  }
};

struct FlowStats {
  std::uint64_t fast_acks_sent = 0;
  std::uint64_t window_updates_sent = 0;
  std::uint64_t local_retransmits = 0;
  std::uint64_t holes_detected = 0;
  std::uint64_t hole_dupacks_sent = 0;
  std::uint64_t spurious_retx_dropped = 0;
  std::uint64_t e2e_retx_prioritized = 0;
  std::uint64_t client_acks_suppressed = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_overflow = 0;
  // Graceful-degradation counters.
  std::uint64_t bypass_activations = 0;    // flows dropped to plain forwarding
  std::uint64_t bypassed_segments = 0;     // data segments passed through
  std::uint64_t flows_evicted_idle = 0;    // idle-timeout GC
  std::uint64_t flows_evicted_capacity = 0;  // table hit max_flows
  std::uint64_t flows_lost_to_crash = 0;   // crash_reset() state loss
};

}  // namespace w11::fastack
