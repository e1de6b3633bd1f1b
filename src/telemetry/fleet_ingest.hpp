#pragma once
// FleetIngest: batched multi-network telemetry ingestion (§2.2 at scale).
//
// The backend polls every campus and lands the interval's rows in bulk; at
// fleet scale the write path must be one reserve + one append per campus
// poll, never per-AP inserts — and the tables must tolerate the resulting
// timestamp interleaving across campuses (LittleTable's retention probe
// reads the tracked oldest timestamp, not the sort index, exactly so these
// seams stay O(1) per batch).

#include <cstdint>
#include <vector>

#include "fleet/queues.hpp"
#include "flowsim/scan.hpp"
#include "telemetry/littletable.hpp"

namespace w11::telemetry {

class FleetIngest {
 public:
  FleetIngest()
      : ap_stats_("fleet_ap_stats",
                  {"campus", "utilization", "load", "neighbors"}),
        plan_stats_("fleet_plans",
                    {"n_aps", "netp_log", "improved", "plan_seconds"}) {}

  // One campus's slice of a polling interval: one reserve, one bulk
  // append, staged through a scratch batch whose capacity persists across
  // polls (steady-state ingest allocates no outer batch vector).
  void ingest_scans(std::uint32_t campus_key,
                    const std::vector<ApScan>& scans, Time at) {
    scratch_.clear();
    scratch_.reserve(scans.size());
    for (const ApScan& s : scans) {
      scratch_.push_back(LittleTable::Row{
          s.id.value(), at,
          {static_cast<double>(campus_key), s.utilization_current,
           s.total_load(), static_cast<double>(s.neighbors.size())}});
    }
    rows_ingested_ += scratch_.size();
    ap_stats_.append_reusing(scratch_);
  }

  // One delivered campus plan (entity = campus key).
  void ingest_plan(std::uint32_t campus_key, Time at, std::uint32_t n_aps,
                   double netp_log, bool improved, double plan_seconds) {
    plan_stats_.insert(campus_key, at,
                       {static_cast<double>(n_aps), netp_log,
                        improved ? 1.0 : 0.0, plan_seconds});
    ++plans_ingested_;
  }

  // One controller poll's pipeline tick. The queue and deferral figures
  // are FleetController::health() and Stats fields already, so only the
  // poll is counted here. Call once per poll from the ticking thread.
  void ingest_pipeline(const fleet::QueueStats& /*ingest_q*/,
                       const fleet::QueueStats& /*output_q*/,
                       std::uint64_t /*jobs_deferred*/) {
    ++pipeline_polls_;
  }

  [[nodiscard]] std::uint64_t pipeline_polls() const { return pipeline_polls_; }
  [[nodiscard]] std::uint64_t rows_ingested() const { return rows_ingested_; }
  [[nodiscard]] std::uint64_t plans_ingested() const { return plans_ingested_; }
  [[nodiscard]] const LittleTable& ap_stats() const { return ap_stats_; }
  [[nodiscard]] const LittleTable& plan_stats() const { return plan_stats_; }
  [[nodiscard]] LittleTable& ap_stats() { return ap_stats_; }
  [[nodiscard]] LittleTable& plan_stats() { return plan_stats_; }

 private:
  LittleTable ap_stats_;
  LittleTable plan_stats_;
  std::vector<LittleTable::Row> scratch_;  // reused across ingest_scans calls
  std::uint64_t rows_ingested_ = 0;
  std::uint64_t plans_ingested_ = 0;
  std::uint64_t pipeline_polls_ = 0;
};

}  // namespace w11::telemetry
