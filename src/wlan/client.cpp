#include "wlan/client.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "phy/mcs.hpp"
#include "wlan/access_point.hpp"

namespace w11 {

namespace {
// Uplink ACK queue depth; a full queue tail-drops.
constexpr std::size_t kUplinkQueueCap = 512;
// Client devices aggregate uplink ACKs far less aggressively than APs
// aggregate data (sparse release + conservative drivers); this cap is
// what makes TCP-ACK medium access expensive (§5.1 / Fig. 10).
constexpr int kMaxUplinkAmpdu = 8;
}  // namespace

ClientStation::ClientStation(Simulator& sim, mac::Medium& medium, Config cfg, Rng rng)
    : sim_(sim), medium_(medium), cfg_(cfg), rng_(std::move(rng)) {}

ClientStation::~ClientStation() {
  if (attached_to_medium_) medium_.detach(this);
}

void ClientStation::attach_ap(AccessPoint* ap,
                              std::unique_ptr<RateController> uplink_rc) {
  W11_CHECK(ap != nullptr);
  ap_ = ap;
  uplink_rc_ = std::move(uplink_rc);
  if (!attached_to_medium_) {
    medium_.attach(this);
    attached_to_medium_ = true;
  }
}

void ClientStation::add_flow(FlowId flow) {
  W11_CHECK_MSG(!receivers_.contains(flow), "flow already registered");
  receivers_[flow] = std::make_unique<TcpReceiver>(
      sim_, flow, cfg_.receiver,
      [this](TcpSegment ack) {
        // ACK turnaround: device-side processing before the ACK can even
        // enter the uplink queue.
        const Time delay{rng_.uniform_int(cfg_.turnaround_min.ns(),
                                          cfg_.turnaround_max.ns())};
        sim_.schedule_after(delay, [this, a = std::move(ack)]() mutable {
          enqueue_ack(std::move(a));
        });
      });
}

void ClientStation::receive_mpdu(const TcpSegment& seg) {
  if (seg.udp) {
    udp_bytes_ += seg.payload;
    return;
  }
  const auto it = receivers_.find(seg.flow);
  if (it == receivers_.end()) return;  // stale flow
  it->second->on_data(seg);
}

void ClientStation::enqueue_ack(TcpSegment ack) {
  if (uplink_.size() >= kUplinkQueueCap) return;  // tail drop
  ack.dst_station = cfg_.id;
  uplink_.push_back(PendingAck{std::move(ack), 0});
  medium_.set_backlogged(this, true);
}

mac::TxDescriptor ClientStation::begin_txop() {
  W11_CHECK(!uplink_.empty());
  W11_CHECK(uplink_rc_ != nullptr);
  txop_decision_ = uplink_rc_->decide_txop();
  const RateMbps rate = txop_decision_.rate;

  in_flight_.clear();
  Time airtime = mac::kVhtPreamble;
  const auto ampdu_cap = static_cast<std::size_t>(
      std::min(kMaxUplinkAmpdu, mac::kMaxAmpduMpdus));
  while (!uplink_.empty() && in_flight_.size() < ampdu_cap) {
    const Bytes sz = uplink_.front().seg.wire_size() + mac::kPerMpduOverhead;
    const Time add = transmit_time(sz, rate);
    if (airtime + add > mac::kMaxAmpduAirtime && !in_flight_.empty()) break;
    airtime += add;
    in_flight_.push_back(std::move(uplink_.front()));
    uplink_.pop_front();
  }
  const Time duration =
      airtime + mac::kSifs + mac::control_frame_airtime(mac::kBlockAckBytes);
  return mac::TxDescriptor{duration, static_cast<int>(in_flight_.size())};
}

void ClientStation::end_txop(bool collided) {
  W11_CHECK(ap_ != nullptr);
  if (collided) {
    // The whole exchange failed before data went out (RTS collision); put
    // the batch back at the head in original order.
    for (auto it = in_flight_.rbegin(); it != in_flight_.rend(); ++it)
      uplink_.push_front(std::move(*it));
  } else {
    const int retry_limit = edca_params(AccessCategory::BE).retry_limit;
    retries_.clear();
    // ACKs are 40 B or 52 B (with SACK), so the PER curve evaluates one
    // exp per TXOP and one pow per change of length.
    mcs::PerCurve per(txop_decision_.mcs, txop_decision_.snr);
    for (auto& pa : in_flight_) {
      if (!rng_.bernoulli(per.at(static_cast<int>(pa.seg.wire_size().count())))) {
        ap_->uplink_receive(pa.seg);
      } else if (++pa.retries <= retry_limit) {
        retries_.push_back(std::move(pa));
      }
      // else: ACK lost for good; cumulative ACKs make this recoverable.
    }
    for (auto it = retries_.rbegin(); it != retries_.rend(); ++it)
      uplink_.push_front(std::move(*it));
  }
  in_flight_.clear();
  medium_.set_backlogged(this, !uplink_.empty());
}

std::uint64_t ClientStation::bytes_delivered() const {
  std::uint64_t total = udp_bytes_;
  for (const auto& [flow, rx] : receivers_) total += rx->bytes_delivered();
  return total;
}

const TcpReceiver* ClientStation::receiver(FlowId flow) const {
  const auto it = receivers_.find(flow);
  return it == receivers_.end() ? nullptr : it->second.get();
}

}  // namespace w11
