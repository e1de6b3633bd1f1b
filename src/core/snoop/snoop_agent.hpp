#pragma once
// TCP-Snoop baseline (Balakrishnan et al., 1995) — the closest prior work
// the paper compares FastACK against (§5.3).
//
// Snoop also caches downlink TCP data at the AP and performs local
// retransmissions over the wireless link, but its goal is narrower: hide
// wireless losses from the sender's congestion control. It does NOT
// generate early acknowledgments — the sender still waits for the client's
// real TCP ACKs, so it gains none of FastACK's aggregation benefits. The
// mechanical differences:
//
//   * duplicate ACKs from the client for data in the cache are *suppressed*
//     and answered by a local retransmission (sender never sees them);
//   * non-duplicate client ACKs pass through unchanged;
//   * no fast ACKs, no rwnd rewriting, no hole dup-ACK emulation.
//
// Implemented against the same TcpInterceptor interface so benches can
// swap baseline / Snoop / FastACK on an identical AP, and on the same
// retransmission cache and replay limiter as FastACK (wlan/retx_cache.hpp).

#include <unordered_map>

#include "common/ids.hpp"
#include "net/tcp_segment.hpp"
#include "sim/simulator.hpp"
#include "wlan/access_point.hpp"
#include "wlan/interceptor.hpp"
#include "wlan/retx_cache.hpp"

namespace w11::snoop {

struct SnoopFlow {
  bool initialized = false;
  StationId client;
  std::uint64_t seq_exp = 0;   // next expected from the sender
  std::uint64_t last_ack = 0;  // client's cumulative ACK point
  RetxCache cache;             // un-ACKed segments
};

struct SnoopStats {
  std::uint64_t local_retransmits = 0;
  std::uint64_t dupacks_suppressed = 0;
  std::uint64_t acks_passed = 0;
  std::uint64_t cache_evictions = 0;
};

class SnoopAgent : public TcpInterceptor {
 public:
  SnoopAgent(Simulator& sim, AccessPoint& ap);

  DataAction on_downlink_data(TcpSegment& seg) override;
  bool on_uplink_ack(const TcpSegment& ack) override;
  void on_80211_delivered(const TcpSegment& seg) override;
  void on_mpdu_dropped(const TcpSegment& seg) override;

  [[nodiscard]] const SnoopStats& stats() const { return stats_; }
  [[nodiscard]] const SnoopFlow* flow(FlowId id) const;

 private:
  Simulator& sim_;
  AccessPoint& ap_;
  std::unordered_map<FlowId, SnoopFlow> flows_;
  SnoopStats stats_;
};

}  // namespace w11::snoop
