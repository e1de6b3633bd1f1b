#pragma once
// 802.11ac access point datapath.
//
// The AP bridges a wired uplink and the wireless medium:
//   wire_in()  — downlink TCP data from the wired side is classified into an
//                EDCA access category, passed through the optional
//                TcpInterceptor (FastACK), and queued per client.
//   TXOPs      — one EDCA contention function per access category; a TXOP
//                serves one client with an A-MPDU bounded by 64 MPDUs /
//                5.3 ms; per-MPDU delivery is drawn from the PER model and
//                reported like a BlockAck.
//   uplink     — client TCP ACKs arrive over the air; the interceptor may
//                suppress them (FastACK) before they reach the wire.
//
// The AP also measures what the paper measures: per-AC 802.11 latency
// (frame-to-link-layer-ack, Fig. 4/10), AP-side TCP latency (data-to-TCP-ack,
// §4.6.2), per-client A-MPDU sizes (Fig. 15), and per-AC loss.

#include <array>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "common/ring.hpp"
#include "common/rng.hpp"
#include "common/seq_containers.hpp"
#include "common/stats.hpp"
#include "mac/aggregation.hpp"
#include "mac/medium.hpp"
#include "net/tcp_segment.hpp"
#include "phy/propagation.hpp"
#include "wlan/capability.hpp"
#include "wlan/client.hpp"
#include "wlan/interceptor.hpp"
#include "wlan/rate_control.hpp"

namespace w11 {

class AccessPoint {
 public:
  struct Config {
    ApId id;
    Position pos;
    Channel channel{Band::G5, 36, ChannelWidth::MHz80};
    ApCapability cap;
    PropagationModel prop;
    RateController::Config rate_control;
    // Fraction of 802.11 ACKs that are "bad hints" (§5.7 fn. 15): the MAC
    // acknowledges but the transport never sees the data.
    double bad_hint_rate = 0.0;
    bool rts_protected = true;
    // A-MSDU bundling (§5.1): up to this many MSDUs share one MPDU. >1
    // multiplies the aggregation ceiling (64 MPDUs × k MSDUs) and amortizes
    // MPDU framing, at the cost of a larger loss unit — all MSDUs in a
    // bundle fail together.
    int amsdu_max_msdus = 1;
  };

  struct Stats {
    std::array<Samples, 4> latency_80211_by_ac;  // wire-in -> 802.11 ack
    std::array<std::uint64_t, 4> mpdus_acked_by_ac{};
    std::array<std::uint64_t, 4> mpdus_lost_by_ac{};  // retry exhaustion
    Samples tcp_latency;     // data processed -> TCP ACK processed (ms)
    Samples ampdu_bundles;   // MPDUs per A-MPDU, one sample per TXOP
    Samples ampdu_frames;    // MSDUs per A-MPDU, one sample per TXOP
    std::uint64_t queue_drops = 0;       // downlink queue overflow
    std::array<std::uint64_t, 4> queue_drops_by_ac{};
    std::uint64_t acks_suppressed = 0;   // by the interceptor
    std::uint64_t segments_forwarded = 0;
  };

  AccessPoint(Simulator& sim, mac::Medium& medium, Config cfg, Rng rng);
  ~AccessPoint();
  AccessPoint(const AccessPoint&) = delete;
  AccessPoint& operator=(const AccessPoint&) = delete;

  // Upstream path toward the TCP sender(s).
  void set_wire_out(SegmentSink fn) { wire_out_ = std::move(fn); }
  // Install / remove the FastACK agent.
  void set_interceptor(TcpInterceptor* agent) { interceptor_ = agent; }

  void associate(ClientStation* client);

  // Remove a client (roam-away, §5.5.4). Frames still queued for it are
  // dropped (they never reach the air) and their count is returned — the
  // roam-to AP's accelerator must be able to supply them from its cache.
  std::size_t disassociate(StationId station);

  // Downlink packet from the wired network.
  void wire_in(TcpSegment seg);

  // Local (interceptor-initiated) downlink injection, e.g. FastACK cache
  // retransmissions. Priority puts the segment at the head of its queue.
  void inject_downlink(TcpSegment seg, bool priority);

  // Interceptor-initiated upstream transmission (fast ACKs).
  void send_to_wire(TcpSegment seg);

  // Uplink frame received over the air from an associated client.
  void uplink_receive(TcpSegment seg);

  // Keep `station`'s BE queue saturated with UDP payload (Fig. 15 bound).
  void enable_udp_saturation(StationId station, Bytes mpdu_payload);

  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const Samples& ampdu_sizes(StationId station) const;
  [[nodiscard]] std::size_t queue_depth(StationId station) const;
  [[nodiscard]] const RateController* rate_controller(StationId station) const;

 private:
  // seg.ap_rx_at is when the frame was queued: every enqueue site stamps
  // it at that instant.
  struct QueuedMpdu {
    TcpSegment seg;
    int retries = 0;
    int bundle = -1;  // A-MSDU bundle id within the current TXOP batch
  };

  struct ClientCtx {
    ClientStation* station = nullptr;
    std::unique_ptr<RateController> rc;
    std::array<common::RingFifo<QueuedMpdu>, 4> queues;
    Samples ampdu_sizes;
    bool udp_saturate = false;
    Bytes udp_payload{1470};
    std::uint64_t udp_seq = 0;
  };

  // One EDCA contention function per access category.
  class AcQueue : public mac::Contender {
   public:
    AcQueue(AccessPoint& ap, AccessCategory ac) : ap_(ap), ac_(ac) {}
    mac::TxDescriptor begin_txop() override { return ap_.begin_txop(ac_); }
    void end_txop(bool collided) override { ap_.end_txop(ac_, collided); }
    [[nodiscard]] AccessCategory access_category() const override { return ac_; }

   private:
    AccessPoint& ap_;
    AccessCategory ac_;
  };

  // One per AC, reused TXOP after TXOP so `batch` keeps its capacity.
  struct PendingTxop {
    bool active = false;  // between begin_txop and end_txop
    StationId client;
    RateController::Decision decision;
    std::vector<QueuedMpdu> batch;
    int n_bundles = 0;  // MPDU count (= batch size unless A-MSDU bundles)
  };

  mac::TxDescriptor begin_txop(AccessCategory ac);
  void end_txop(AccessCategory ac, bool collided);
  void enqueue(ClientCtx& ctx, AccessCategory ac, QueuedMpdu mpdu, bool priority);
  void refill_udp(ClientCtx& ctx);
  void update_backlog(AccessCategory ac);
  [[nodiscard]] ClientCtx* ctx_of(StationId id);
  [[nodiscard]] static std::size_t ac_index(AccessCategory ac) {
    return static_cast<std::size_t>(ac);
  }

  Simulator& sim_;
  mac::Medium& medium_;
  Config cfg_;
  Rng rng_;
  SegmentSink wire_out_;
  TcpInterceptor* interceptor_ = nullptr;

  std::array<std::unique_ptr<AcQueue>, 4> ac_queues_;
  std::array<PendingTxop, 4> pending_;
  std::array<std::size_t, 4> rr_cursor_{};
  std::vector<QueuedMpdu> retries_;  // end_txop scratch

  std::unordered_map<StationId, ClientCtx> clients_;
  // Stable round-robin order. unordered_map nodes never move, so the
  // pointers hold until disassociate() erases both.
  std::vector<ClientCtx*> client_order_;

  // TCP-latency bookkeeping: flow -> (seq_end -> forwarded-at). Entries
  // arrive in (nearly) sequence order and retire front-first as ACKs cover
  // them, which is exactly the SeqRing access pattern.
  std::unordered_map<FlowId, SeqRing<Time>> tcp_pending_;

  Stats stats_;
};

}  // namespace w11
