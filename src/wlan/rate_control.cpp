#include "wlan/rate_control.hpp"

#include <algorithm>

namespace w11 {

RateController::RateController(const PropagationModel& prop, Position ap_pos,
                               Position client_pos, Band band,
                               ChannelWidth channel_width, ApCapability ap_cap,
                               ClientCapability client_cap, Config cfg, Rng rng)
    : cfg_(cfg), rng_(std::move(rng)) {
  width_ = std::min(channel_width,
                    std::min(ap_cap.max_width, client_cap.max_width));
  nss_ = std::min(ap_cap.max_nss, client_cap.max_nss);
  short_gi_ = ap_cap.short_gi && client_cap.short_gi;
  max_mcs_ = client_cap.to_mcs_capability().max_mcs;
  rssi_ = prop.rssi(cfg.tx_power, ap_pos, client_pos, band);
  mean_snr_ = rssi_ - prop.noise_floor(width_);

  mcs::Capability ac = ap_cap.to_mcs_capability();
  mcs::Capability cc = client_cap.to_mcs_capability();
  ac.max_width = cc.max_width = width_;
  max_rate_ = mcs::max_rate(ac, cc);
}

RateController::Decision RateController::decide_txop() {
  Decision d;
  d.snr = mean_snr_ + (cfg_.fading_sigma > 0.0
                           ? rng_.normal(0.0, cfg_.fading_sigma)
                           : 0.0);
  // The best MCS at this SNR within the capability's modulation cap; when
  // none fits, MCS0/1ss, marked not viable.
  const auto pick =
      mcs::select(d.snr - cfg_.selection_margin, width_, nss_, max_mcs_);
  d.viable = pick.has_value();
  d.mcs = pick.value_or(McsIndex{0, 1});
  d.rate = mcs::rate(d.mcs, width_, short_gi_).value_or(RateMbps{6.5});
  return d;
}

}  // namespace w11
