#include "ctrl/control_channel.hpp"

#include "common/check.hpp"

namespace w11::ctrl {

ControlChannel::ControlChannel(Simulator& sim, Config cfg, std::uint64_t seed,
                               int n_aps)
    : sim_(sim), cfg_(cfg), root_(seed),
      online_(static_cast<std::size_t>(n_aps), true),
      send_seq_(static_cast<std::size_t>(n_aps), 0) {
  W11_CHECK(n_aps > 0);
  W11_CHECK(cfg_.loss >= 0.0 && cfg_.loss < 1.0);
  W11_CHECK(cfg_.delay >= Time{0} && cfg_.jitter >= Time{0});
}

bool ControlChannel::send(std::uint32_t ap, std::function<void()> on_delivered) {
  W11_CHECK(ap < online_.size());
  ++stats_.sent;
  if (!online_[ap]) {
    ++stats_.dropped_offline;
    return false;
  }
  // One independent stream per (AP, send). The stream id packs the AP into
  // the high bits so distinct APs can never collide within 2^32 sends.
  Rng rng = root_.fork((static_cast<std::uint64_t>(ap) << 32) |
                       send_seq_[ap]++);
  if (cfg_.loss > 0.0 && rng.bernoulli(cfg_.loss)) {
    ++stats_.lost;
    return false;
  }
  Time delay = cfg_.delay;
  if (cfg_.jitter > Time{0})
    delay += time::nanos(rng.uniform_int(0, cfg_.jitter.ns() - 1));
  sim_.schedule_after(delay, [this, cb = std::move(on_delivered)] {
    ++stats_.delivered;
    cb();
  });
  return true;
}

void ControlChannel::set_online(std::uint32_t ap, bool up) {
  W11_CHECK(ap < online_.size());
  if (online_[ap] == up) return;
  online_[ap] = up;
  ++stats_.offline_transitions;
  if (up && on_reconnect_) on_reconnect_(ap);
}

bool ControlChannel::online(std::uint32_t ap) const {
  W11_CHECK(ap < online_.size());
  return online_[ap];
}

}  // namespace w11::ctrl
