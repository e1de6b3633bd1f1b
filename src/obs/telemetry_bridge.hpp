#pragma once
// obs -> telemetry bridge: snapshot a MetricsRegistry into LittleTable rows
// so the existing dashboard/bench queries consume instrumentation metrics
// exactly like AP statistics.
//
// Header-only on purpose: w11_obs sits below w11_telemetry in the library
// order, so the glue lives where both are visible (any target linking both
// — tests, benches, scenario — can include it).

#include "obs/metrics.hpp"
#include "telemetry/littletable.hpp"

namespace w11::obs {

// The schema snapshot_into() expects: one row per metric sample, keyed by
// the sample's position in the snapshot (stable across snapshots as long
// as no new name is set in between).
inline telemetry::LittleTable make_metrics_table() {
  return telemetry::LittleTable("obs_metrics", {"value"});
}

// Append one row per snapshot sample at time `at`. Returns the sample
// names in entity order, for mapping entities back to metric names.
inline std::vector<std::string> snapshot_into(const MetricsRegistry& reg,
                                              telemetry::LittleTable& table,
                                              Time at) {
  const auto& samples = reg.snapshot();
  std::vector<telemetry::LittleTable::Row> batch;
  batch.reserve(samples.size());
  std::vector<std::string> names;
  names.reserve(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    batch.push_back(telemetry::LittleTable::Row{
        static_cast<std::uint32_t>(i), at, {samples[i].value}});
    names.push_back(samples[i].name);
  }
  table.append(std::move(batch));
  return names;
}

}  // namespace w11::obs
