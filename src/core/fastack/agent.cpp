#include "core/fastack/agent.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace w11::fastack {

namespace {
// Client receive window assumed until the first client ACK reveals the real
// one (a deployed agent learns it from the SYN handshake, which this model
// does not carry).
constexpr std::uint64_t kInitialClientRwnd = 1 << 20;
// Stall-heal trigger: a client ACK that advances while still behind the
// fast-ACK point, with the rewritten (sender-visible) window collapsed below
// this, is wedged on bytes only the cache still has — the sender believes
// them delivered and its window is shut, so the dup-ACK path will starve (no
// new arrivals means no new client ACKs). Each such ACK pulls the next
// cached burst, making recovery self-clocking (§5.5.1).
constexpr std::uint64_t kStallRwndBytes = 3 * 1460;
}  // namespace

FastAckAgent::FastAckAgent(Simulator& sim, AccessPoint& ap, Config cfg)
    : sim_(sim), ap_(ap), cfg_(cfg) {}

FlowState& FastAckAgent::state_for(const TcpSegment& seg) {
  auto it = flows_.find(seg.flow);
  if (it == flows_.end()) {
    if (flows_.size() >= cfg_.max_flows) {
      gc_idle_flows();
      if (flows_.size() >= cfg_.max_flows) evict_for_capacity();
    }
    it = flows_.try_emplace(seg.flow).first;
  }
  FlowState& s = it->second;
  if (!s.initialized) {
    s.initialized = true;
    s.client = seg.dst_station;
    s.seq_exp = s.seq_fack = s.seq_tcp = s.last_client_ack = seg.seq;
    s.seq_high = seg.seq;
    s.client_rwnd = kInitialClientRwnd;
    trace(obs::TraceKind::kFastAckFlowCreated, seg.flow, seg.seq);
  }
  s.last_activity = sim_.now();
  return s;
}

void FastAckAgent::activate_bypass(FlowId flow, FlowState& s) {
  if (s.bypassed) return;
  s.bypassed = true;
  // Free the heavy per-flow state: a bypassed flow needs none of it, and a
  // soak under repeated faults must stay memory-bounded.
  s.retx_cache.clear();
  s.q_seq.clear();
  s.holes_vec.clear();
  ++stats_.bypass_activations;
  trace(obs::TraceKind::kFastAckBypass, flow, s.seq_fack, s.seq_exp);
}

bool FastAckAgent::validate(FlowId flow, FlowState& s) {
  if (s.bypassed) return false;
  // The structural invariants of Table 3: the AP can never have fast-acked
  // bytes the sender has not delivered to it, nor expect a sequence beyond
  // the highest it has seen.
  const bool ok = s.seq_fack <= s.seq_exp && s.seq_exp <= s.seq_high;
  if (ok) return true;
  if (!cfg_.bypass_on_anomaly) {
    W11_CHECK_MSG(false, "FastACK invariant violated on flow "
                             << flow.value() << ": fack=" << s.seq_fack
                             << " exp=" << s.seq_exp
                             << " high=" << s.seq_high);
  }
  activate_bypass(flow, s);
  return false;
}

TcpInterceptor::DataAction FastAckAgent::on_downlink_data(TcpSegment& seg) {
  FlowState& s = state_for(seg);
  if (!validate(seg.flow, s)) {
    // Bypass: plain forwarding, no caching, no synthesized ACKs. The
    // sender's own machinery provides all recovery.
    ++stats_.bypassed_segments;
    return DataAction::kForward;
  }
  const std::uint64_t seq_in = seg.seq;
  const std::uint64_t end = seg.seq_end();

  // Case (i): entirely below the fast-ACK point — the sender retransmitted
  // data we already acknowledged on its behalf. Spurious; drop.
  if (end <= s.seq_fack) {
    ++stats_.spurious_retx_dropped;
    trace(obs::TraceKind::kFastAckDataSpurious, seg.flow, seq_in, seg.payload);
    return DataAction::kDrop;
  }

  // Case (ii): below the expected sequence — an end-to-end retransmission.
  // Refresh the cache, clear any hole it fills, and forward with priority so
  // it jumps the queue (§5.4 case ii).
  if (seq_in < s.seq_exp) {
    s.retx_cache.store(seg, cfg_.retx_cache_segments);
    std::erase_if(s.holes_vec,
                  [&](const Hole& h) { return h.start >= seq_in && h.end <= end; });
    ++stats_.e2e_retx_prioritized;
    trace(obs::TraceKind::kFastAckDataRetransmit, seg.flow, seq_in,
          seg.payload);
    // An end-to-end retransmission means the sender timed out — its clock
    // stopped because the client fell behind the fast-ACK point (bytes the
    // cache alone can supply, §5.5.1). Heal from the client's real ACK
    // point, not just the sender's view.
    if (s.seq_tcp < s.seq_fack) local_retransmit(seg.flow, s, s.seq_tcp);
    return DataAction::kForwardPriority;
  }

  // Case (iv): beyond the expected sequence — something upstream dropped
  // [seq_exp, seq_in). Record the hole and emulate the client's duplicate
  // ACKs so the sender fast-retransmits instead of waiting for an RTO
  // (§5.5.3). Then fall through to case (iii) handling.
  if (seq_in > s.seq_exp) {
    s.holes_vec.push_back(Hole{s.seq_exp, seq_in});
    ++stats_.holes_detected;
    trace(obs::TraceKind::kFastAckHoleDetected, seg.flow, s.seq_exp,
          seq_in - s.seq_exp);
    for (int i = 0; i < 3; ++i) {
      TcpSegment dup;
      dup.flow = seg.flow;
      dup.dst_station = s.client;
      dup.is_ack = true;
      dup.ack = s.seq_fack;
      dup.rwnd = advertised_window(s);
      dup.sacks.push_back(SackBlock{seq_in, end});
      dup.sent_at = sim_.now();
      ++stats_.hole_dupacks_sent;
      trace(obs::TraceKind::kFastAckHoleDupAck, seg.flow, dup.ack, dup.rwnd);
      ap_.send_to_wire(std::move(dup));
    }
  }

  // Case (iii): in-order (or first-past-a-hole) data: cache and forward.
  if (!s.retx_cache.store(seg, cfg_.retx_cache_segments))
    ++stats_.cache_overflow;
  s.seq_exp = end;
  s.seq_high = std::max(s.seq_high, end);
  trace(obs::TraceKind::kFastAckDataInOrder, seg.flow, seq_in, seg.payload);
  return DataAction::kForward;
}

void FastAckAgent::on_80211_delivered(const TcpSegment& seg) {
  const auto it = flows_.find(seg.flow);
  if (it == flows_.end()) return;
  FlowState& s = it->second;
  s.last_activity = sim_.now();
  if (!validate(seg.flow, s)) return;

  if (!cfg_.require_contiguity) {
    // Naive mode (ablation D4): acknowledge whatever the air delivered,
    // even past missing MPDUs.
    if (seg.seq_end() > s.seq_fack) {
      s.seq_fack = seg.seq_end();
      emit_fast_ack(seg.flow, s, /*window_update_only=*/false);
    }
    return;
  }

  s.q_seq.insert(AckedRange{seg.seq, seg.seq_end()});
  trace(obs::TraceKind::kFastAckAirAck, seg.flow, seg.seq, seg.payload);
  drain_q_seq(seg.flow, s);
}

void FastAckAgent::drain_q_seq(FlowId flow, FlowState& s) {
  // Fast-ack the contiguous prefix of 802.11-acked ranges (§5.4): ranges
  // whose start is at or below seq_fack extend it; a gap stops the drain
  // until the missing 802.11 ACK arrives.
  bool advanced = false;
  while (!s.q_seq.empty()) {
    const AckedRange r = s.q_seq.front();
    if (r.end <= s.seq_fack) {
      s.q_seq.pop_front();  // stale duplicate (e.g. local retransmission)
      continue;
    }
    if (r.start <= s.seq_fack) {
      s.seq_fack = r.end;
      s.q_seq.pop_front();
      advanced = true;
      continue;
    }
    break;  // contiguity broken
  }
  if (advanced) emit_fast_ack(flow, s, /*window_update_only=*/false);
}

bool FastAckAgent::on_uplink_ack(const TcpSegment& ack) {
  const auto it = flows_.find(ack.flow);
  if (it == flows_.end()) return false;  // not a fast-acked flow
  FlowState& s = it->second;
  s.last_activity = sim_.now();
  if (!validate(ack.flow, s)) return false;  // bypass: ACK passes upstream
  s.client_rwnd = ack.rwnd;

  if (ack.ack > s.seq_tcp) {
    s.seq_tcp = ack.ack;
    s.last_client_ack = ack.ack;
    s.client_dupacks = 0;
    stats_.cache_evictions += s.retx_cache.evict_acked(s.seq_tcp);
    // A suppressed client ACK may carry the window update that un-sticks a
    // stalled sender; re-advertise if the window meaningfully reopened.
    // Without it the sender could deadlock on a zero window, because the
    // client ACK carrying the update is dropped at the AP. (Needed in both
    // rwnd modes — suppression eats the client's update.)
    if (cfg_.suppress_client_acks &&
        s.last_advertised_rwnd < 1460 && advertised_window(s) >= 1460) {
      emit_fast_ack(ack.flow, s, /*window_update_only=*/true);
    }
    // Stall heal: the client is advancing but still behind the fast-ACK
    // point with its window collapsed — it is buffering out-of-order data
    // it cannot consume because bytes only our cache still has are missing.
    // The stalled sender generates (almost) no arrivals, so the dup-ACK
    // trigger starves; chain the next cached burst off this ACK instead so
    // recovery clocks itself until the window reopens.
    if (s.seq_tcp < s.seq_fack &&
        advertised_window(s) < kStallRwndBytes) {
      local_retransmit(ack.flow, s, s.seq_tcp);
    }
  } else if (ack.ack == s.last_client_ack && !ack.has_payload()) {
    // Duplicate ACK from the client: it is missing data the AP already
    // fast-acked (wireless loss or a bad 802.11 hint). Serve it locally
    // from the cache — never bother the sender (§5.5.1).
    ++s.client_dupacks;
    trace(obs::TraceKind::kFastAckClientDupAck, ack.flow, ack.ack,
          static_cast<std::uint64_t>(s.client_dupacks));
    local_retransmit(ack.flow, s, ack.ack);
  }
  if (s.client_dupacks == 0 && s.seq_tcp > s.seq_fack) {
    // Naive-mode bookkeeping: never let the fast-ACK point fall behind what
    // the client has actually acknowledged.
    s.seq_fack = s.seq_tcp;
  }

  if (!cfg_.suppress_client_acks) {
    trace(obs::TraceKind::kFastAckClientAckPassed, ack.flow, ack.ack);
    return false;
  }
  ++stats_.client_acks_suppressed;
  trace(obs::TraceKind::kFastAckSuppress, ack.flow, ack.ack, ack.rwnd);
  return true;
}

void FastAckAgent::on_mpdu_dropped(const TcpSegment& seg) {
  // 802.11 retries exhausted: the fast-ACK point stalls here, no fast ACKs
  // flow, and the sender's RTO eventually drives an end-to-end
  // retransmission (case ii). Deliberately nothing to do (§5.5.1,
  // "timeout-based retransmissions").
  trace(obs::TraceKind::kFastAckMpduDropped, seg.flow, seg.seq, seg.payload);
}

void FastAckAgent::local_retransmit(FlowId flow, FlowState& s,
                                    std::uint64_t from_seq) {
  // Re-inject a burst of consecutive cached segments from the one covering
  // `from_seq`, but never past the fast-ACK point (beyond it the sender is
  // still in charge). On a cache miss (overflow, or the byte was never
  // seen) the sender's own machinery must recover.
  const int injected = s.retx_cache.replay(
      s.retx_cache.covering(from_seq), from_seq, s.seq_fack, sim_.now(),
      [&](TcpSegment copy) {
        copy.dst_station = s.client;
        ++stats_.local_retransmits;
        trace(obs::TraceKind::kFastAckLocalRetransmit, flow, copy.seq,
              copy.payload);
        ap_.inject_downlink(std::move(copy), /*priority=*/true);
      });
  if (injected > 0) {
    trace(obs::TraceKind::kFastAckCacheServe, flow, from_seq,
          static_cast<std::uint64_t>(injected));
  }
}

std::uint64_t FastAckAgent::advertised_window(const FlowState& s) const {
  if (!cfg_.rewrite_rwnd) return s.client_rwnd;
  const std::uint64_t out = s.outstanding_bytes();
  return s.client_rwnd > out ? s.client_rwnd - out : 0;
}

void FastAckAgent::emit_fast_ack(FlowId flow, FlowState& s,
                                 bool window_update_only) {
  TcpSegment ack;
  ack.flow = flow;
  ack.dst_station = s.client;
  ack.is_ack = true;
  ack.ack = s.seq_fack;
  ack.rwnd = advertised_window(s);
  ack.sent_at = sim_.now();
  s.last_advertised_rwnd = ack.rwnd;
  if (window_update_only) {
    ++stats_.window_updates_sent;
    trace(obs::TraceKind::kFastAckWindowUpdate, flow, ack.ack, ack.rwnd);
  } else {
    ++stats_.fast_acks_sent;
    trace(obs::TraceKind::kFastAckSynth, flow, ack.ack, ack.rwnd);
  }
  ap_.send_to_wire(std::move(ack));
}

std::optional<FlowState> FastAckAgent::export_flow(FlowId flow) {
  const auto it = flows_.find(flow);
  if (it == flows_.end()) return std::nullopt;
  FlowState out = std::move(it->second);
  flows_.erase(it);
  return out;
}

void FastAckAgent::import_flow(FlowId flow, FlowState state) {
  // Pending 802.11-ack ranges belong to the roam-from AP's air; they will
  // never be acknowledged here, so fast-acking resumes from seq_fack as new
  // MPDUs are delivered by this AP.
  state.q_seq.clear();
  state.client_dupacks = 0;
  state.last_activity = sim_.now();
  if (flows_.find(flow) == flows_.end() && flows_.size() >= cfg_.max_flows) {
    gc_idle_flows();
    if (flows_.size() >= cfg_.max_flows) evict_for_capacity();
  }
  FlowState& s = flows_[flow] = std::move(state);
  // A torn transfer (roam racing a crash) can deliver corrupt state; catch
  // it at the border instead of letting it poison the fast path.
  validate(flow, s);
}

void FastAckAgent::crash_reset() {
  stats_.flows_lost_to_crash += flows_.size();
  flows_.clear();
}

void FastAckAgent::gc_idle_flows() {
  const Time now = sim_.now();
  std::vector<FlowId> victims;
  for (const auto& [flow, s] : flows_) {
    if (now - s.last_activity > cfg_.flow_idle_timeout) victims.push_back(flow);
  }
  // Sorted eviction keeps the trace (and any tie-breaking) deterministic
  // regardless of hash-table iteration order.
  std::sort(victims.begin(), victims.end(),
            [](FlowId a, FlowId b) { return a.value() < b.value(); });
  for (FlowId flow : victims) {
    trace(obs::TraceKind::kFastAckFlowEvicted, flow, flows_[flow].seq_fack);
    flows_.erase(flow);
    ++stats_.flows_evicted_idle;
  }
}

void FastAckAgent::evict_for_capacity() {
  if (flows_.empty()) return;
  auto victim = flows_.begin();
  for (auto it = flows_.begin(); it != flows_.end(); ++it) {
    if (it->second.last_activity < victim->second.last_activity ||
        (it->second.last_activity == victim->second.last_activity &&
         it->first.value() < victim->first.value()))
      victim = it;
  }
  trace(obs::TraceKind::kFastAckFlowEvicted, victim->first,
        victim->second.seq_fack);
  flows_.erase(victim);
  ++stats_.flows_evicted_capacity;
}

void FastAckAgent::inject_anomaly(FlowId flow) {
  const auto it = flows_.find(flow);
  if (it == flows_.end()) return;
  // Push the fast-ACK point past the delivery horizon — a state no correct
  // execution can reach. The next datapath event trips validate().
  it->second.seq_fack = it->second.seq_exp + 1'000'000;
}

const FlowState* FastAckAgent::flow_state(FlowId flow) const {
  const auto it = flows_.find(flow);
  return it == flows_.end() ? nullptr : &it->second;
}

}  // namespace w11::fastack
