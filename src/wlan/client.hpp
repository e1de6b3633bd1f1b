#pragma once
// Wireless client station (the TCP receiver side, §5.1 fn. 7).
//
// Receives downlink MPDUs from its AP, runs a TcpReceiver per flow, and
// contends for the medium to transmit the resulting TCP ACKs uplink. Two
// behaviours the paper measures are modelled explicitly:
//   * ACK turnaround delay — "many client devices take over 2 ms to even
//     begin transmitting TCP ACKs" (§5.1); drawn uniformly per ACK.
//   * Uplink ACK aggregation — clients also form A-MPDUs, so ACKs arrive at
//     the AP in bursts.

#include <memory>
#include <unordered_map>

#include "common/ids.hpp"
#include "common/ring.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "mac/aggregation.hpp"
#include "mac/medium.hpp"
#include "net/tcp_receiver.hpp"
#include "phy/propagation.hpp"
#include "wlan/capability.hpp"
#include "wlan/rate_control.hpp"

namespace w11 {

class AccessPoint;

class ClientStation : public mac::Contender {
 public:
  struct Config {
    StationId id;
    Position pos;
    ClientCapability cap;
    // TCP ACK processing delay bounds (time from transport-layer receipt to
    // the ACK being ready for the uplink queue).
    Time turnaround_min = time::micros(300);
    Time turnaround_max = time::millis(2);
    TcpReceiver::Config receiver;
  };

  ClientStation(Simulator& sim, mac::Medium& medium, Config cfg, Rng rng);
  ~ClientStation() override;
  ClientStation(const ClientStation&) = delete;
  ClientStation& operator=(const ClientStation&) = delete;

  // Called by AccessPoint::associate.
  void attach_ap(AccessPoint* ap, std::unique_ptr<RateController> uplink_rc);

  // Register a downlink TCP flow terminating at this client.
  void add_flow(FlowId flow);

  // Downlink MPDU delivered over the air to the transport layer.
  void receive_mpdu(const TcpSegment& seg);

  // mac::Contender (uplink ACK transmission).
  mac::TxDescriptor begin_txop() override;
  void end_txop(bool collided) override;
  [[nodiscard]] AccessCategory access_category() const override {
    return AccessCategory::BE;
  }

  [[nodiscard]] StationId id() const { return cfg_.id; }
  [[nodiscard]] const Position& position() const { return cfg_.pos; }
  [[nodiscard]] const ClientCapability& capability() const { return cfg_.cap; }
  [[nodiscard]] std::uint64_t bytes_delivered() const;
  [[nodiscard]] std::uint64_t udp_bytes_received() const { return udp_bytes_; }
  [[nodiscard]] const TcpReceiver* receiver(FlowId flow) const;

 private:
  struct PendingAck {
    TcpSegment seg;
    int retries = 0;
  };

  void enqueue_ack(TcpSegment ack);

  Simulator& sim_;
  mac::Medium& medium_;
  Config cfg_;
  Rng rng_;
  AccessPoint* ap_ = nullptr;
  std::unique_ptr<RateController> uplink_rc_;

  std::unordered_map<FlowId, std::unique_ptr<TcpReceiver>> receivers_;
  common::RingFifo<PendingAck> uplink_;
  std::vector<PendingAck> in_flight_;  // batch for the current TXOP
  std::vector<PendingAck> retries_;    // end_txop scratch
  RateController::Decision txop_decision_{};
  std::uint64_t udp_bytes_ = 0;
  bool attached_to_medium_ = false;
};

}  // namespace w11
