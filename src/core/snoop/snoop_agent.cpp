#include "core/snoop/snoop_agent.hpp"

#include <algorithm>

namespace w11::snoop {

SnoopAgent::SnoopAgent(Simulator& sim, AccessPoint& ap) : sim_(sim), ap_(ap) {}

TcpInterceptor::DataAction SnoopAgent::on_downlink_data(TcpSegment& seg) {
  SnoopFlow& f = flows_[seg.flow];
  if (!f.initialized) {
    f.initialized = true;
    f.client = seg.dst_station;
    f.seq_exp = seg.seq;
    f.last_ack = seg.seq;
  }
  // Cache every (re)transmission not yet acknowledged by the client.
  f.cache.store(seg, RetxCache::kCapacity);
  const bool retransmission = seg.seq < f.seq_exp;
  f.seq_exp = std::max(f.seq_exp, seg.seq_end());
  // Sender retransmissions jump the queue, same as FastACK's case (ii).
  return retransmission ? DataAction::kForwardPriority : DataAction::kForward;
}

bool SnoopAgent::on_uplink_ack(const TcpSegment& ack) {
  const auto it = flows_.find(ack.flow);
  if (it == flows_.end()) return false;
  SnoopFlow& f = it->second;

  if (ack.ack > f.last_ack) {
    // New ACK: evict covered segments, pass it to the sender untouched.
    f.last_ack = ack.ack;
    stats_.cache_evictions += f.cache.evict_acked(ack.ack);
    ++stats_.acks_passed;
    return false;
  }

  if (ack.ack == f.last_ack && !ack.has_payload()) {
    // Duplicate ACK for a segment we hold (one that starts at the ACK
    // point): retransmit locally and SUPPRESS it so the sender's congestion
    // window never learns about the wireless loss — Snoop's whole trick.
    // Snoop retransmits on the first dup-ACK, from there to the cache end.
    const auto hit = f.cache.covering(ack.ack);
    if (hit != f.cache.end() && hit->first == ack.ack) {
      f.cache.replay(hit, ack.ack, UINT64_MAX, sim_.now(),
                     [&](TcpSegment copy) {
                       copy.dst_station = f.client;
                       ++stats_.local_retransmits;
                       ap_.inject_downlink(std::move(copy), /*priority=*/true);
                     });
      ++stats_.dupacks_suppressed;
      return true;
    }
    // Dup-ACK for data we no longer hold: the sender must handle it.
  }
  ++stats_.acks_passed;
  return false;
}

void SnoopAgent::on_80211_delivered(const TcpSegment& seg) {
  // Snoop keys its cache on client TCP ACKs, not link-layer ACKs.
  (void)seg;
}

void SnoopAgent::on_mpdu_dropped(const TcpSegment& seg) {
  // Retry exhaustion: the client will dup-ACK when later data lands, and
  // the cache will serve it; nothing to do eagerly.
  (void)seg;
}

const SnoopFlow* SnoopAgent::flow(FlowId id) const {
  const auto it = flows_.find(id);
  return it == flows_.end() ? nullptr : &it->second;
}

}  // namespace w11::snoop
