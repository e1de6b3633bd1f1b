#pragma once
// health -> telemetry glue: land HealthEvents in a LittleTable so SLO
// breaches query/aggregate exactly like AP statistics. Header-only on
// purpose: w11_obs sits below w11_telemetry in the library order, so the
// glue lives where both are visible.

#include "obs/health/health.hpp"
#include "telemetry/littletable.hpp"

namespace w11::obs {

// Schema: entity = SLO index, one row per HealthEvent.
inline telemetry::LittleTable make_fleet_health_table() {
  return telemetry::LittleTable(
      "fleet_health",
      {"breach", "severity", "burn_fast", "burn_slow", "error_slow"});
}

inline void append_health_events(const std::vector<HealthEvent>& events,
                                 telemetry::LittleTable& table) {
  for (const HealthEvent& e : events) {
    table.insert(e.slo, e.at,
                 {e.breach ? 1.0 : 0.0, static_cast<double>(e.severity),
                  e.burn_fast, e.burn_slow, e.error_slow});
  }
}

}  // namespace w11::obs
