#pragma once
// Simulated controller→AP control channel.
//
// The cloud controller's channel-switch commands ride the same WAN as
// everything else: they are lost, delayed, and — when an AP is offline,
// rebooting, or partitioned — silently dropped. This models exactly that,
// on the discrete-event Simulator: send() either schedules the delivery
// callback after a (deterministically jittered) propagation delay or drops
// the command, and per-AP online state is toggled by fault injection
// (FaultKind::kLinkDown/kLinkUp targeting the AP's control link).
//
// Determinism: every loss/delay draw comes from the root Rng's
// fork(stream_id) stream keyed by (AP index, per-AP send sequence), so the
// channel's behavior is a pure function of (seed, send sequence),
// independent of wall clock and worker count.

#include <cstdint>
#include <functional>
#include <vector>

#include "common/time.hpp"
#include "common/rng.hpp"
#include "sim/simulator.hpp"

namespace w11::ctrl {

class ControlChannel {
 public:
  struct Config {
    double loss = 0.0;             // per-command loss probability
    Time delay = time::millis(20);  // command + ack round trip, fixed part
    Time jitter = time::millis(10); // uniform [0, jitter) added per command
  };

  struct Stats {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t lost = 0;          // random loss draws
    std::uint64_t dropped_offline = 0;  // sends while the AP was offline
    std::uint64_t offline_transitions = 0;
  };

  ControlChannel(Simulator& sim, Config cfg, std::uint64_t seed, int n_aps);

  // Send one command to `ap`. If it survives (AP online, loss draw passes),
  // `on_delivered` runs after delay+jitter sim time; otherwise the command
  // vanishes (the sender learns only via its own timeout). Returns whether
  // the command got through the loss stage (test observability only — a
  // real controller cannot see this).
  bool send(std::uint32_t ap, std::function<void()> on_delivered);

  // Partition / flap injection. Going offline drops nothing retroactively:
  // commands already in flight still deliver (they were on the wire).
  // Coming online fires the reconnect listener (apply-on-reconnect).
  void set_online(std::uint32_t ap, bool up);
  [[nodiscard]] bool online(std::uint32_t ap) const;

  // Observer for kLinkUp transitions; at most one (the PlanApplier).
  void set_reconnect_listener(std::function<void(std::uint32_t ap)> fn) {
    on_reconnect_ = std::move(fn);
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const Config& config() const { return cfg_; }

 private:
  Simulator& sim_;
  Config cfg_;
  Rng root_;  // only forked, never drawn from
  std::vector<bool> online_;
  std::vector<std::uint32_t> send_seq_;  // per-AP command counter
  std::function<void(std::uint32_t)> on_reconnect_;
  Stats stats_;
};

}  // namespace w11::ctrl
