#include "wlan/access_point.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "phy/mcs.hpp"

namespace w11 {

namespace {
// Downlink MPDUs queued per client and access category; a full queue drops.
constexpr std::size_t kPerClientQueueCap = 768;
}  // namespace

AccessPoint::AccessPoint(Simulator& sim, mac::Medium& medium, Config cfg, Rng rng)
    : sim_(sim), medium_(medium), cfg_(cfg), rng_(std::move(rng)) {
  for (AccessCategory ac : kAllAccessCategories) {
    auto q = std::make_unique<AcQueue>(*this, ac);
    medium_.attach(q.get());
    ac_queues_[ac_index(ac)] = std::move(q);
  }
}

AccessPoint::~AccessPoint() {
  for (auto& q : ac_queues_)
    if (q) medium_.detach(q.get());
}

void AccessPoint::associate(ClientStation* client) {
  W11_CHECK(client != nullptr);
  const StationId id = client->id();
  W11_CHECK_MSG(!clients_.contains(id), "client already associated");

  ClientCtx ctx;
  ctx.station = client;
  RateController::Config down_cfg = cfg_.rate_control;
  down_cfg.tx_power = kApTxPowerDbm;
  ctx.rc = std::make_unique<RateController>(
      cfg_.prop, cfg_.pos, client->position(), cfg_.channel.band,
      cfg_.channel.width, cfg_.cap, client->capability(), down_cfg, rng_.fork());

  RateController::Config up_cfg = cfg_.rate_control;
  up_cfg.tx_power = kClientTxPowerDbm;
  auto uplink_rc = std::make_unique<RateController>(
      cfg_.prop, cfg_.pos, client->position(), cfg_.channel.band,
      cfg_.channel.width, cfg_.cap, client->capability(), up_cfg, rng_.fork());

  client_order_.push_back(&clients_.emplace(id, std::move(ctx)).first->second);
  client->attach_ap(this, std::move(uplink_rc));
}

std::size_t AccessPoint::disassociate(StationId station) {
  const auto it = clients_.find(station);
  if (it == clients_.end()) return 0;
  std::size_t dropped = 0;
  for (const auto& q : it->second.queues) dropped += q.size();
  std::erase(client_order_, &it->second);
  clients_.erase(it);
  for (auto& cursor : rr_cursor_) cursor = 0;
  for (AccessCategory ac : kAllAccessCategories) update_backlog(ac);
  return dropped;
}

void AccessPoint::wire_in(TcpSegment seg) {
  seg.ap_rx_at = sim_.now();
  const AccessCategory ac = dscp_to_ac(seg.dscp);

  ClientCtx* ctx = ctx_of(seg.dst_station);
  if (ctx == nullptr) return;  // not associated here

  bool priority = false;
  if (interceptor_ != nullptr && seg.has_payload() && !seg.udp) {
    switch (interceptor_->on_downlink_data(seg)) {
      case TcpInterceptor::DataAction::kDrop:
        return;
      case TcpInterceptor::DataAction::kForwardPriority:
        priority = true;
        break;
      case TcpInterceptor::DataAction::kForward:
        break;
    }
  }

  if (seg.has_payload() && !seg.udp) {
    // Record for the AP-side TCP latency metric (§4.6.2).
    auto& pend = tcp_pending_[seg.flow];
    pend.insert_or_assign(seg.seq_end(), sim_.now());
    if (pend.size() > 4096) pend.pop_front();  // bound stale state
  }

  enqueue(*ctx, ac, QueuedMpdu{std::move(seg)}, priority);
}

void AccessPoint::inject_downlink(TcpSegment seg, bool priority) {
  ClientCtx* ctx = ctx_of(seg.dst_station);
  if (ctx == nullptr) return;
  seg.ap_rx_at = sim_.now();
  enqueue(*ctx, dscp_to_ac(seg.dscp), QueuedMpdu{std::move(seg)}, priority);
}

void AccessPoint::send_to_wire(TcpSegment seg) {
  if (wire_out_) wire_out_(std::move(seg));
}

void AccessPoint::uplink_receive(TcpSegment seg) {
  if (seg.is_ack) {
    // TCP latency: every data segment this ACK covers completes now.
    auto it = tcp_pending_.find(seg.flow);
    if (it != tcp_pending_.end()) {
      auto& pend = it->second;
      while (!pend.empty() && pend.front().first <= seg.ack) {
        stats_.tcp_latency.add((sim_.now() - pend.front().second).ms());
        pend.pop_front();
      }
    }
    if (interceptor_ != nullptr && interceptor_->on_uplink_ack(seg)) {
      ++stats_.acks_suppressed;
      return;
    }
  }
  ++stats_.segments_forwarded;
  if (wire_out_) wire_out_(std::move(seg));
}

void AccessPoint::enable_udp_saturation(StationId station, Bytes mpdu_payload) {
  ClientCtx* ctx = ctx_of(station);
  W11_CHECK_MSG(ctx != nullptr, "station not associated");
  ctx->udp_saturate = true;
  ctx->udp_payload = mpdu_payload;
  refill_udp(*ctx);
}

void AccessPoint::refill_udp(ClientCtx& ctx) {
  if (!ctx.udp_saturate) return;
  auto& q = ctx.queues[ac_index(AccessCategory::BE)];
  while (q.size() < kPerClientQueueCap) {
    TcpSegment seg;
    seg.dst_station = ctx.station->id();
    seg.udp = true;
    seg.seq = ctx.udp_seq;
    seg.payload = static_cast<std::uint32_t>(ctx.udp_payload.count());
    ctx.udp_seq += seg.payload;
    seg.ap_rx_at = sim_.now();
    q.push_back(QueuedMpdu{std::move(seg)});
  }
  update_backlog(AccessCategory::BE);
}

void AccessPoint::enqueue(ClientCtx& ctx, AccessCategory ac, QueuedMpdu mpdu,
                          bool priority) {
  auto& q = ctx.queues[ac_index(ac)];
  if (q.size() >= kPerClientQueueCap) {
    ++stats_.queue_drops;
    ++stats_.queue_drops_by_ac[ac_index(ac)];
    return;
  }
  if (priority) {
    q.push_front(std::move(mpdu));
  } else {
    q.push_back(std::move(mpdu));
  }
  update_backlog(ac);
}

void AccessPoint::update_backlog(AccessCategory ac) {
  bool any = false;
  for (const auto& [id, ctx] : clients_) {
    if (!ctx.queues[ac_index(ac)].empty()) {
      any = true;
      break;
    }
  }
  medium_.set_backlogged(ac_queues_[ac_index(ac)].get(), any);
}

mac::TxDescriptor AccessPoint::begin_txop(AccessCategory ac) {
  const std::size_t aci = ac_index(ac);
  // Round-robin scheduler: next client with frames in this AC.
  ClientCtx* chosen = nullptr;
  const std::size_t n = client_order_.size();
  for (std::size_t step = 0; step < n; ++step) {
    const std::size_t idx = (rr_cursor_[aci] + step) % n;
    ClientCtx* ctx = client_order_[idx];
    if (!ctx->queues[aci].empty()) {
      chosen = ctx;
      rr_cursor_[aci] = (idx + 1) % n;
      break;
    }
  }
  W11_CHECK_MSG(chosen != nullptr, "TXOP granted with no backlog");

  PendingTxop& txop = pending_[aci];
  W11_CHECK(!txop.active);
  txop.batch.clear();
  txop.client = chosen->station->id();
  txop.decision = chosen->rc->decide_txop();
  auto& q = chosen->queues[aci];
  Time airtime = mac::kVhtPreamble;
  // Batch building: the A-MPDU holds up to 64 MPDUs; with A-MSDU enabled
  // each MPDU bundles up to k MSDUs (consecutive queue entries), paying the
  // MPDU framing once per bundle plus a 14 B subframe header per MSDU.
  const int msdus_per_mpdu = std::max(1, cfg_.amsdu_max_msdus);
  int bundle_id = -1;
  int in_bundle = msdus_per_mpdu;  // force a new bundle on first MSDU
  int bundles = 0;
  while (!q.empty()) {
    const bool new_bundle = in_bundle >= msdus_per_mpdu;
    if (new_bundle && bundles >= mac::kMaxAmpduMpdus) break;
    Bytes sz = q.front().seg.wire_size() + Bytes{14};  // A-MSDU subframe
    if (new_bundle) sz += mac::kPerMpduOverhead;
    const Time add = transmit_time(sz, txop.decision.rate);
    if (airtime + add > mac::kMaxAmpduAirtime && !txop.batch.empty()) break;
    if (new_bundle) {
      ++bundle_id;
      ++bundles;
      in_bundle = 0;
    }
    airtime += add;
    QueuedMpdu mpdu = std::move(q.front());
    mpdu.bundle = bundle_id;
    txop.batch.push_back(std::move(mpdu));
    q.pop_front();
    ++in_bundle;
  }

  Time duration =
      airtime + mac::kSifs + mac::control_frame_airtime(mac::kBlockAckBytes);
  if (cfg_.rts_protected) {
    duration += mac::control_frame_airtime(mac::kRtsBytes) + mac::kSifs +
                mac::control_frame_airtime(mac::kCtsBytes) + mac::kSifs;
  }
  txop.n_bundles = bundles;
  // The A-MPDU occupies [now, now+duration] on the air; the sim is
  // single-threaded, so processed_events() is a deterministic ordinal.
  if (obs::TraceRecorder* t = sim_.tracer())
    t->record_span(sim_.now(), sim_.now() + duration, obs::TraceKind::kAmpduTx,
                   sim_.processed_events(),
                   static_cast<std::uint64_t>(bundles), txop.batch.size());
  stats_.ampdu_bundles.add(bundles);
  stats_.ampdu_frames.add(static_cast<double>(txop.batch.size()));
  txop.active = true;
  return mac::TxDescriptor{duration, bundles};
}

void AccessPoint::end_txop(AccessCategory ac, bool collided) {
  const std::size_t aci = ac_index(ac);
  PendingTxop& txop = pending_[aci];
  W11_CHECK(txop.active);
  txop.active = false;

  ClientCtx* ctx = ctx_of(txop.client);
  if (ctx == nullptr) {
    // Client disassociated (roamed away) while the TXOP was on the air;
    // its frames are moot.
    update_backlog(ac);
    return;
  }
  auto& q = ctx->queues[aci];

  if (collided) {
    // RTS collision: the data never went out; restore the batch unscathed.
    for (auto it = txop.batch.rbegin(); it != txop.batch.rend(); ++it)
      q.push_front(std::move(*it));
  } else {
    ctx->ampdu_sizes.add(static_cast<double>(txop.n_bundles));
    const int retry_limit = edca_params(ac).retry_limit;
    retries_.clear();
    // Per-MPDU delivery: all MSDUs in an A-MSDU bundle share one FCS, so
    // the whole bundle succeeds or fails together on its combined length.
    // Bundle ids are dense (0..n_bundles-1, bounded by the A-MPDU MPDU
    // cap), so a fixed bitmask replaces the former std::map<int, bool>: one
    // pass accumulates per-bundle lengths, then one Bernoulli draw per
    // bundle in increasing id order — the same draw order as the old
    // first-occurrence walk, so RNG streams are unchanged. The bundles
    // share one MCS and one faded SNR, so one PerCurve prices them all.
    static_assert(mac::kMaxAmpduMpdus <= 64,
                  "bundle_acked bitmask holds one bit per A-MPDU bundle");
    std::array<int, mac::kMaxAmpduMpdus> bundle_bytes;
    bundle_bytes.fill(40);  // MPDU framing
    for (const auto& mpdu : txop.batch)
      bundle_bytes[static_cast<std::size_t>(mpdu.bundle)] +=
          static_cast<int>(mpdu.seg.wire_size().count()) + 14;
    std::uint64_t bundle_acked = 0;
    mcs::PerCurve per(txop.decision.mcs, txop.decision.snr);
    for (int b = 0; b < txop.n_bundles; ++b) {
      if (!rng_.bernoulli(per.at(bundle_bytes[static_cast<std::size_t>(b)])) &&
          txop.decision.viable)
        bundle_acked |= std::uint64_t{1} << b;
    }
    for (auto& mpdu : txop.batch) {
      const bool acked = (bundle_acked >> mpdu.bundle) & 1u;
      if (acked) {
        ++stats_.mpdus_acked_by_ac[aci];
        stats_.latency_80211_by_ac[aci].add((sim_.now() - mpdu.seg.ap_rx_at).ms());
        // "Bad hint": MAC-acked but lost before the transport (§5.7).
        const bool reaches_transport =
            cfg_.bad_hint_rate <= 0.0 || !rng_.bernoulli(cfg_.bad_hint_rate);
        if (interceptor_ != nullptr && mpdu.seg.has_payload() && !mpdu.seg.udp)
          interceptor_->on_80211_delivered(mpdu.seg);
        if (reaches_transport) ctx->station->receive_mpdu(mpdu.seg);
      } else if (++mpdu.retries <= retry_limit) {
        retries_.push_back(std::move(mpdu));
      } else {
        ++stats_.mpdus_lost_by_ac[aci];
        if (interceptor_ != nullptr && mpdu.seg.has_payload() && !mpdu.seg.udp)
          interceptor_->on_mpdu_dropped(mpdu.seg);
      }
    }
    // Failed MPDUs return to the head so TCP ordering is preserved as much
    // as possible.
    for (auto it = retries_.rbegin(); it != retries_.rend(); ++it)
      q.push_front(std::move(*it));
    refill_udp(*ctx);
  }
  update_backlog(ac);
}

AccessPoint::ClientCtx* AccessPoint::ctx_of(StationId id) {
  const auto it = clients_.find(id);
  return it == clients_.end() ? nullptr : &it->second;
}

const Samples& AccessPoint::ampdu_sizes(StationId station) const {
  const auto it = clients_.find(station);
  W11_CHECK_MSG(it != clients_.end(), "station not associated");
  return it->second.ampdu_sizes;
}

std::size_t AccessPoint::queue_depth(StationId station) const {
  const auto it = clients_.find(station);
  if (it == clients_.end()) return 0;
  std::size_t total = 0;
  for (const auto& q : it->second.queues) total += q.size();
  return total;
}

const RateController* AccessPoint::rate_controller(StationId station) const {
  const auto it = clients_.find(station);
  return it == clients_.end() ? nullptr : it->second.rc.get();
}

}  // namespace w11
