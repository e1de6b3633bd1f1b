#pragma once
// Anomaly flight recorder (DESIGN.md §17): an always-on bounded ring of
// recent metric snapshots and notes that, on trigger, dumps a
// self-contained postmortem bundle — JSONL correlating the flight ring,
// the trace stream, and any attached audit sources (rollout audit, planner
// decision audit) by sim time around the trigger.
//
// Determinism contract: feeds are serial (the scenario's poll/tick thread)
// so ring contents and overflow accounting are exact, trace records come
// from TraceRecorder::merged() (a stable sort on sim time and ordinal),
// metric snapshots are restricted to a declared catalog (fixed name order,
// zero-valued for a name not yet set) or name-sorted when no catalog is
// set, and attached sources are required to be worker-count invariant
// (the rollout and plan audits already are). A bundle produced by the same
// scenario at any worker count is byte-identical — the property
// tests/test_health.cpp pins at 1/2/4/8 workers.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/ring.hpp"
#include "common/time.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace w11::obs {

enum class Trigger : std::uint8_t {
  kSloBreach,
  kAutoRevert,
  kWatchdog,
  kFaultInjection,
  kRadarPin,
  kManual,
};
[[nodiscard]] const char* to_string(Trigger t);

class FlightRecorder {
 public:
  struct Config {
    std::size_t ring_capacity = 256;  // flight-ring entries (snapshots+notes)
    Time window = time::minutes(5);   // bundle lookback: [at - window, at]
    std::size_t max_bundles = 4;      // kept postmortems (>= 1; oldest evicted)
  };

  explicit FlightRecorder(Config cfg);

  // A source writes its own JSONL records for [from, to]; it must be
  // deterministic and worker-count invariant. Sections appear in
  // attachment order.
  using Source = std::function<void(Time from, Time to, std::ostream& os)>;

  // Trace stream the bundles read; trigger() also records into it.
  void attach_tracer(TraceRecorder* t) { tracer_ = t; }
  // `catalog` fixes the snapshot shape: exactly these metrics, in this
  // order, value 0 when a name is not (yet) set. Empty = every metric set
  // so far, name-sorted.
  void attach_metrics(const MetricsRegistry* m,
                      std::vector<std::string> catalog = {});
  void attach_source(std::string name, Source src);

  // --- always-on serial feeds (poll boundaries) --------------------------
  // Snapshot the attached registry into the ring.
  void capture(Time at);
  // One tagged scalar observation (fault landed, wave launched, ...).
  void note(Time at, std::string_view tag, double value = 0.0);

  // Assemble (and retain) a postmortem bundle for [at - window, at].
  // First records a kPostmortem event (ord = trigger sequence) into the
  // attached tracer, so the bundle's own trace section includes it.
  const std::string& trigger(Trigger t, Time at, std::string_view detail);

  // Retained bundles, oldest first.
  [[nodiscard]] const common::BoundedRing<std::string>& bundles() const {
    return bundles_;
  }
  [[nodiscard]] std::uint64_t triggers_fired() const { return triggers_; }
  [[nodiscard]] std::uint64_t entries_dropped() const {
    return ring_.dropped();
  }
  [[nodiscard]] std::uint64_t bundles_dropped() const {
    return bundles_.dropped();
  }
  [[nodiscard]] std::size_t ring_size() const { return ring_.size(); }
  [[nodiscard]] const Config& config() const { return cfg_; }

 private:
  struct Entry {
    Time at{};
    bool is_snapshot = false;
    std::string tag;      // note only
    double value = 0.0;   // note only
    std::vector<MetricsRegistry::Sample> samples;  // snapshot only
  };

  Config cfg_;
  TraceRecorder* tracer_ = nullptr;
  const MetricsRegistry* metrics_ = nullptr;
  std::vector<std::string> catalog_;
  std::vector<std::pair<std::string, Source>> sources_;
  common::BoundedRing<Entry> ring_;
  common::BoundedRing<std::string> bundles_;
  std::uint64_t triggers_ = 0;
};

}  // namespace w11::obs
