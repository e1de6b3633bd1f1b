#pragma once
// PlanApplier: delivers one wave of per-AP channel-switch commands over the
// lossy control channel and drives each AP to a terminal state.
//
// Per-AP state machine:
//
//   kInFlight --ack--> kApplied                  (terminal)
//      |  ^
//   timeout |  retry (capped exponential backoff, deterministic jitter,
//      v  |   or immediately on the AP's reconnect)
//   kBackoff --attempts exhausted--> kExhausted  (terminal)
//
//   any non-terminal --cancel_wave/cancel_ap--> kCancelled (terminal)
//
// Commands carry the wave's generation; an ack arriving after the wave was
// cancelled (the AP was offline or the command slow while the controller
// moved on — e.g. to a revert) is rejected as stale and the AP does NOT
// switch. That is the staleness-rejection half of apply-on-reconnect: an AP
// reappearing after a partition only ever applies the controller's *current*
// intent, never a superseded plan version.
//
// Backoff jitter is drawn from the root Rng's fork(stream_id) stream keyed
// by (AP, attempt), so retry timing is a pure function of (seed, AP,
// attempt): no wall clock, byte-identical schedules at any worker count
// (tests/test_exec.cpp pins this).

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/time.hpp"
#include "common/rng.hpp"
#include "phy/channel.hpp"
#include "sim/simulator.hpp"

namespace w11::ctrl {

class ControlChannel;

struct Backoff {
  Time ack_timeout = time::millis(500);  // per-attempt apply deadline
  Time initial = time::millis(200);      // first retry delay
  double multiplier = 2.0;
  Time cap = time::seconds(10);
  double jitter_frac = 0.25;  // delay scaled by uniform [1-f, 1+f)
  int max_attempts = 0;       // 0 = retry until cancelled (watchdog bounds it)
};

// The retry delay before attempt `attempt` (attempt 2 is the first retry).
// Pure function of (policy, root.seed(), ap, attempt) — exposed so the
// determinism tests exercise the exact production derivation.
[[nodiscard]] Time backoff_delay(const Backoff& b, std::uint32_t ap,
                                 int attempt, const Rng& root);

class PlanApplier {
 public:
  enum class ApState : std::uint8_t {
    kInFlight,
    kBackoff,
    kApplied,    // terminal: AP acked, hook ran
    kExhausted,  // terminal: max_attempts hit
    kCancelled,  // terminal: wave cancelled / AP pulled from the wave
  };

  struct Target {
    std::uint32_t ap = 0;
    Channel channel;
  };

  struct Hooks {
    // Perform the switch on the AP (fires at ack time). Returns whether the
    // channel actually changed.
    std::function<bool(std::uint32_t ap, const Channel& c)> apply;
  };

  struct Stats {
    std::uint64_t waves = 0;
    std::uint64_t commands_sent = 0;
    std::uint64_t acks = 0;
    std::uint64_t applied = 0;   // targets that reached kApplied
    std::uint64_t noops = 0;     // acked commands that changed nothing
    std::uint64_t retries = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t stale_rejected = 0;   // acks for a cancelled generation
    std::uint64_t reconnect_kicks = 0;  // backoffs cut short by reconnect
    std::uint64_t exhausted = 0;
    std::uint64_t cancelled = 0;
  };

  PlanApplier(Simulator& sim, ControlChannel& channel, Backoff backoff,
              Hooks hooks, std::uint64_t seed);

  // Start applying `targets` (all APs must be distinct) as plan `version`.
  // `on_done` fires exactly once — via a scheduled event, never inline —
  // when every target is terminal. Any previous wave must be terminal or
  // cancelled first.
  void begin_wave(std::vector<Target> targets, std::uint64_t version,
                  std::function<void()> on_done);

  // Cancel every non-terminal target; in-flight acks become stale. The
  // pending on_done is dropped (the canceller knows the wave is over).
  void cancel_wave();

  // Pull one AP out of the current wave (radar pinned it elsewhere).
  void cancel_ap(std::uint32_t ap);

  [[nodiscard]] bool wave_active() const { return active_ > 0; }
  // Terminal tallies for the current/last wave.
  [[nodiscard]] int wave_applied() const { return wave_applied_; }
  [[nodiscard]] int wave_exhausted() const { return wave_exhausted_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  // APs the current wave has driven to kApplied (ascending AP order).
  [[nodiscard]] std::vector<std::uint32_t> applied_aps() const;

 private:
  struct Task {
    std::uint32_t ap = 0;
    Channel target;
    ApState state = ApState::kInFlight;
    int attempts = 0;
    Time started{};
    EventHandle timer;  // ack timeout (kInFlight) or retry (kBackoff)
  };

  void attempt(std::size_t idx);
  void on_ack(std::uint64_t gen, std::size_t idx);
  void on_timeout(std::uint64_t gen, std::size_t idx);
  void on_reconnect(std::uint32_t ap);
  void finish(Task& t, ApState terminal);
  void check_done();

  Simulator& sim_;
  ControlChannel& channel_;
  Backoff backoff_;
  Hooks hooks_;
  Rng root_;  // only forked, never drawn from

  std::uint64_t gen_ = 0;      // wave generation; stale acks check this
  std::uint64_t version_ = 0;  // plan version the wave carries
  std::vector<Task> tasks_;
  std::unordered_map<std::uint32_t, std::size_t> task_of_ap_;
  std::size_t active_ = 0;  // non-terminal tasks
  int wave_applied_ = 0;
  int wave_exhausted_ = 0;
  std::function<void()> on_done_;
  Stats stats_;
};

}  // namespace w11::ctrl
