#pragma once
// Deterministic fault plans.
//
// A FaultPlan is an ordered list of timestamped fault events covering the
// failure modes the paper's deployment had to survive: DFS radar evacuations
// (§4.5.2), AP crash/reboot with FastACK flow-state loss (§5.5.4 names state
// transfer but a crashed AP simply loses the table), degraded scan inputs to
// the channel-assignment services, wired-link outages/flaps upstream of the
// AP, and telemetry collector drops.
//
// Plans are pure data: building one never touches a simulator. The same
// (seed, RandomConfig) pair always produces the same plan, and FaultInjector
// fires a given plan identically on every run — chaos results are exactly
// reproducible from (plan seed, sim seed) alone.

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"

namespace w11::fault {

enum class FaultKind : std::uint8_t {
  kRadar,          // radar detected on a DFS channel; target = AP index
  kApCrash,        // AP reboot: queues flushed, FastACK flow table lost
  kScanDegrade,    // switch the scan decorator's mode (param = ScanFaultMode)
  kLinkDown,       // wired-link outage begins; target = link index
  kLinkUp,         // wired-link outage ends
  kTelemetryDrop,  // collector drops the next `count` polling records
  kClockJump,      // services observe time jumping backwards by `delta`
};

// Degraded-scan modes for the NetworkHooks decorator (scan_fault.hpp).
enum class ScanFaultMode : std::uint8_t {
  kHealthy,  // pass scans through untouched
  kEmpty,    // backend returns no scans at all (total collection outage)
  kPartial,  // a fraction of APs fail to report (param = keep fraction)
  kStale,    // replay the last healthy snapshot with its old timestamp
};

[[nodiscard]] constexpr const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kRadar: return "radar";
    case FaultKind::kApCrash: return "ap-crash";
    case FaultKind::kScanDegrade: return "scan-degrade";
    case FaultKind::kLinkDown: return "link-down";
    case FaultKind::kLinkUp: return "link-up";
    case FaultKind::kTelemetryDrop: return "telemetry-drop";
    case FaultKind::kClockJump: return "clock-jump";
  }
  return "?";
}

[[nodiscard]] constexpr const char* to_string(ScanFaultMode m) {
  switch (m) {
    case ScanFaultMode::kHealthy: return "healthy";
    case ScanFaultMode::kEmpty: return "empty";
    case ScanFaultMode::kPartial: return "partial";
    case ScanFaultMode::kStale: return "stale";
  }
  return "?";
}

struct FaultEvent {
  Time at{};
  FaultKind kind = FaultKind::kRadar;
  int target = -1;      // AP / link index; -1 = unspecified
  double param = 0.0;   // kind-specific (mode, fraction, count)
  Time delta{};         // kClockJump: how far time appears to rewind

  friend constexpr auto operator<=>(const FaultEvent&,
                                    const FaultEvent&) = default;
  [[nodiscard]] std::string to_string() const;
};

class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(std::string name) : name_(std::move(name)) {}

  // --- builders (chainable) ----------------------------------------------
  FaultPlan& add(FaultEvent ev);
  FaultPlan& radar(Time at, int ap);
  // A burst of `count` radar hits `spacing` apart — repeated strikes chase
  // the AP down its fallback chain (§4.5.2 requires this to terminate on a
  // non-DFS channel, never strand the AP).
  FaultPlan& radar_burst(Time at, int ap, int count, Time spacing);
  FaultPlan& ap_crash(Time at, int ap);
  FaultPlan& scan_degrade(Time at, ScanFaultMode mode, double keep_fraction = 1.0);
  // Outage on link `link` lasting `duration` (down + up pair).
  FaultPlan& link_outage(Time at, int link, Time duration);
  // `flaps` rapid down/up cycles of `period` each.
  FaultPlan& link_flap(Time at, int link, int flaps, Time period);
  FaultPlan& telemetry_drop(Time at, int count);
  FaultPlan& clock_jump(Time at, Time backwards_by);

  // Generator knobs for random(): event mix over a time horizon.
  struct RandomConfig {
    Time horizon = time::seconds(10);
    int n_aps = 1;
    int n_links = 1;   // wired links eligible for outage
    int n_events = 8;  // faults drawn before expansion (bursts/flaps expand)
    bool allow_radar = true;
    bool allow_ap_crash = true;
    bool allow_scan_faults = true;
    bool allow_link_faults = true;
    bool allow_telemetry_faults = true;
    bool allow_clock_faults = true;
    Time max_outage = time::millis(500);
  };

  // Deterministic: identical (seed, cfg) => identical plan (bitwise).
  [[nodiscard]] static FaultPlan random(std::uint64_t seed,
                                        const RandomConfig& cfg);

  // Events sorted by time; ties keep insertion order (stable).
  [[nodiscard]] const std::vector<FaultEvent>& events() const;
  // Sorts now, so plans compare bitwise-stable; events() sorts lazily.
  void sort() const;
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  std::string name_;
  mutable std::vector<FaultEvent> events_;
  mutable bool sorted_ = true;
};

}  // namespace w11::fault
