#pragma once
// Fleet health engine (DESIGN.md §17): named SLI series + declarative SLO
// specs evaluated at poll boundaries with multi-window burn-rate alerting.
//
// An SLO says "fraction of good samples >= objective over the slow
// window". The error budget is 1 - objective; the burn rate is the
// observed bad fraction divided by that budget (burn 1.0 = spending the
// budget exactly as fast as allowed). A breach fires only when BOTH the
// fast and the slow window burn past their thresholds — the standard
// multi-window shape: the fast window makes alerts prompt, the slow window
// keeps one bad poll from paging. Recovery is the same condition releasing.
//
// Everything is deterministic in (specs, observation stream, poll times):
// SLIs aggregate order-free, specs evaluate in declaration order, and
// events carry sim time — two runs that adopt the same samples emit
// byte-identical event logs at any worker count.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.hpp"
#include "obs/health/sliding_window.hpp"

namespace w11::obs {

enum class Severity : std::uint8_t { kTicket, kPage };
[[nodiscard]] const char* to_string(Severity s);

struct SloSpec {
  std::string name;       // event / table identity
  std::string sli;        // series the spec reads
  // Per-sample badness predicate: bad iff value > threshold (bad_above)
  // or value <= threshold (!bad_above). Align thresholds with the series'
  // bucket bounds for exact (not interpolated) fractions.
  double threshold = 0.0;
  bool bad_above = true;
  // Good-sample fraction target over the slow window; budget = 1 - objective.
  double objective = 0.99;
  std::size_t fast_windows = 5;
  std::size_t slow_windows = 60;
  double fast_burn = 14.0;  // breach iff fast AND slow burn exceed these
  double slow_burn = 6.0;
  Severity severity = Severity::kPage;
};

struct HealthEvent {
  Time at{};
  std::uint32_t slo = 0;  // index into specs()
  std::string name;
  bool breach = false;  // false = recovery
  Severity severity = Severity::kPage;
  double burn_fast = 0.0;
  double burn_slow = 0.0;
  double error_fast = 0.0;  // bad fraction over the fast window
  double error_slow = 0.0;
};

class HealthEngine {
 public:
  struct SeriesConfig {
    Time width = time::minutes(1);
    std::size_t windows = 64;
    std::vector<double> bounds;  // empty = power-of-two ladder
  };
  struct Config {
    SeriesConfig series;  // default shape for undeclared SLIs
    std::vector<SloSpec> slos;
  };

  explicit HealthEngine(Config cfg);

  // Declare-or-get a named SLI series; the two-argument form fixes a
  // non-default shape and must come before the first observation.
  SlidingWindow& series(std::string_view name);
  SlidingWindow& series(std::string_view name, const SeriesConfig& sc);
  [[nodiscard]] const SlidingWindow* find_series(std::string_view name) const;

  // One sample at sim time `at` (declares the series on first use).
  void observe(std::string_view name, Time at, double v);
  // Cumulative-counter form: observes the delta since the previous call
  // (first call is a delta from zero; negative deltas clamp to zero so a
  // counter reset never reads as negative rate).
  void observe_counter(std::string_view name, Time at, double cumulative);

  // Evaluate every SLO at a poll boundary. Advances each referenced series
  // to `now` (quiet windows become zeros) and emits breach/recovery events
  // on state transitions, in spec order, into the returned vector and the
  // retained event log. Recording them on a trace (kHealthBreach /
  // kHealthRecovery, ord = SLO index) is the caller's: the engine owns no
  // recorder.
  std::vector<HealthEvent> poll(Time now);

  struct SloState {
    bool breached = false;
    std::uint64_t breaches = 0;
    std::uint64_t recoveries = 0;
    double burn_fast = 0.0;   // as of the last poll
    double burn_slow = 0.0;
    double error_fast = 0.0;
    double error_slow = 0.0;
  };

  [[nodiscard]] const std::vector<SloSpec>& specs() const { return specs_; }
  [[nodiscard]] const SloState& slo_state(std::size_t i) const {
    return states_[i];
  }
  [[nodiscard]] const std::vector<HealthEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::uint64_t polls() const { return polls_; }
  [[nodiscard]] std::uint64_t breaches() const { return breaches_; }
  [[nodiscard]] std::uint64_t recoveries() const { return recoveries_; }
  // Polls that referenced an SLI no observation ever declared.
  [[nodiscard]] std::uint64_t unbound_slo_polls() const { return unbound_; }

  // Byte-deterministic event log, one JSON object per line.
  void write_events_jsonl(std::ostream& os) const;
  [[nodiscard]] std::string events_jsonl() const;

 private:
  SeriesConfig default_series_;
  std::vector<SloSpec> specs_;
  std::vector<SloState> states_;
  // Ordered map: deterministic iteration, stable references (node-based).
  std::map<std::string, SlidingWindow, std::less<>> series_;
  std::map<std::string, double, std::less<>> counter_last_;
  std::vector<HealthEvent> events_;
  std::uint64_t polls_ = 0;
  std::uint64_t breaches_ = 0;
  std::uint64_t recoveries_ = 0;
  std::uint64_t unbound_ = 0;
};

}  // namespace w11::obs
