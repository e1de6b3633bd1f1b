#pragma once
// Metrics registry (DESIGN.md §12): an ordered name -> value list.
//
// A registry belongs to a run and has one writer, the thread that runs it.
// Components count in their own Stats; a run that wants a metrics dump or a
// flight-ring catalog snapshots those Stats into a registry it owns, at the
// run's edge (Testbed::run under W11_TRACE, run_rollout_scenario's flight
// ring). There is no process-wide registry, and concurrent runs each own
// their own.
//
// set() overwrites a name's value; snapshot() lists every name ever set, in
// first-set order, so a run that sets the same names in the same order
// dumps the same bytes.

#include <string>
#include <string_view>
#include <vector>

namespace w11::obs {

class MetricsRegistry {
 public:
  struct Sample {
    std::string name;
    double value = 0.0;
  };

  // The latest value wins; a new name appends to the snapshot order.
  void set(std::string_view name, double value);

  [[nodiscard]] const std::vector<Sample>& snapshot() const {
    return samples_;
  }

 private:
  std::vector<Sample> samples_;
};

}  // namespace w11::obs
