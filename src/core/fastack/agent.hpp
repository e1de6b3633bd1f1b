#pragma once
// The FastACK agent (§5.2, §5.4, §5.5).
//
// Runs on the AP and plugs into its datapath via wlan::TcpInterceptor.
// On every 802.11 ACK for a downlink TCP data MPDU it synthesizes the
// corresponding cumulative TCP ACK toward the sender ("fast ACK"),
// suppresses the client's own (now duplicate) TCP ACKs, serves client
// loss-recovery from a local retransmission cache, rewrites the advertised
// receive window to account for bytes the AP holds, and emulates duplicate
// ACKs for holes caused by upstream drops.
//
// Config switches the design decisions DESIGN.md marks as ablation
// candidates (contiguity, suppression, rwnd rewriting) and sizes the flow
// table and cache. The local-retransmission trigger and its limiter are
// fixed: they live in the wlan::RetxCache FastACK shares with Snoop.

#include <optional>
#include <unordered_map>

#include "common/ids.hpp"
#include "core/fastack/flow_state.hpp"
#include "net/tcp_segment.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "wlan/access_point.hpp"
#include "wlan/interceptor.hpp"

namespace w11::fastack {

class FastAckAgent : public TcpInterceptor {
 public:
  struct Config {
    // Cache at most this many segments per flow; overflow disables local
    // retransmission for the overflowed bytes (sender RTO covers them).
    std::size_t retx_cache_segments = RetxCache::kCapacity;
    // §5.5.2 receive-window rewriting: rx'win = rxwin − outbytes.
    bool rewrite_rwnd = true;
    // Suppress the client's own TCP ACKs (ablation D6).
    bool suppress_client_acks = true;
    // Only fast-ack contiguous 802.11-acked prefixes (ablation D4). When
    // false the agent naively acks every delivered MPDU's end, which can
    // acknowledge past holes.
    bool require_contiguity = true;
    // --- graceful degradation (§5.5.4 corner cases) ----------------------
    // On an invariant anomaly (corrupt imported state, bookkeeping gone
    // wrong) the flow drops to bypass: plain forwarding, sender-driven
    // recovery, counted in FlowStats. With this off the agent fails hard
    // (W11_CHECK) instead — the debug-build stance.
    bool bypass_on_anomaly = true;
    // Hard cap on tracked flows; creating a flow past the cap first evicts
    // idle flows, then the least-recently-active one. A deployed AP serves
    // a churning client population forever — the table must be bounded.
    std::size_t max_flows = 4096;
    // A flow without datapath activity for this long is dead weight (the
    // client roamed away, the connection closed — the agent never sees FIN
    // in this model) and is collected by gc_idle_flows().
    Time flow_idle_timeout = time::seconds(60);
  };

  FastAckAgent(Simulator& sim, AccessPoint& ap, Config cfg);

  // TcpInterceptor ------------------------------------------------------
  DataAction on_downlink_data(TcpSegment& seg) override;
  bool on_uplink_ack(const TcpSegment& ack) override;
  void on_80211_delivered(const TcpSegment& seg) override;
  void on_mpdu_dropped(const TcpSegment& seg) override;

  // Roaming (§5.5.4) ----------------------------------------------------
  // Extract a flow's state — including the retransmission cache — for
  // transfer to the roam-to AP's agent, and install state arriving from a
  // roam-from AP. The paper requires such a mechanism for controller-less
  // roaming but leaves it unspecified; this is the minimal faithful one.
  [[nodiscard]] std::optional<FlowState> export_flow(FlowId flow);
  // Imported state is validated; state that fails its invariants (a torn
  // transfer, a crashed source AP) installs the flow in bypass mode instead
  // of poisoning the fast path.
  void import_flow(FlowId flow, FlowState state);

  // Degradation & lifecycle ---------------------------------------------
  // AP crash/reboot: the in-memory flow table is gone. Flows re-create on
  // the next segment; clients recover via normal end-to-end TCP.
  void crash_reset();
  // Evict flows idle longer than flow_idle_timeout. Called lazily when the
  // table is full; harnesses may also call it periodically.
  void gc_idle_flows();
  // Corrupt a flow's bookkeeping (fault-injection hook): the next datapath
  // event on the flow trips invariant validation and activates bypass.
  void inject_anomaly(FlowId flow);

  // Introspection -------------------------------------------------------
  [[nodiscard]] const FlowState* flow_state(FlowId flow) const;
  [[nodiscard]] const FlowStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t tracked_flows() const { return flows_.size(); }

 private:
  FlowState& state_for(const TcpSegment& seg);
  // Invariant validation: true iff the flow is healthy and accelerated.
  // A violated invariant activates bypass (or fails hard when
  // bypass_on_anomaly is off).
  bool validate(FlowId flow, FlowState& s);
  void activate_bypass(FlowId flow, FlowState& s);
  void evict_for_capacity();
  void drain_q_seq(FlowId flow, FlowState& s);
  void emit_fast_ack(FlowId flow, FlowState& s, bool window_update_only);
  void local_retransmit(FlowId flow, FlowState& s, std::uint64_t from_seq);
  [[nodiscard]] std::uint64_t advertised_window(const FlowState& s) const;

  // Debug switches (paper fn. 9): every datapath event goes to the
  // recorder attached to the simulator, if any (Simulator::set_tracer).
  void trace(obs::TraceKind kind, FlowId flow, std::uint64_t seq,
             std::uint64_t extra = 0) {
    if (obs::TraceRecorder* t = sim_.tracer())
      t->record_at(sim_.now(), kind, flow.value(), seq, extra);
  }

  Simulator& sim_;
  AccessPoint& ap_;
  Config cfg_;
  std::unordered_map<FlowId, FlowState> flows_;
  FlowStats stats_;
};

}  // namespace w11::fastack
