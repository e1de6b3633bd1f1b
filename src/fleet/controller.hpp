#pragma once
// FleetController: the sharded planning pipeline (DESIGN.md §15, §16).
//
// One controller plans an entire AP population per cycle:
//
//   offer_epoch/offer_delta --> [ingest queue, bounded, drop-counted]
//        tick(now):
//          drain ingest (adopt the newest full epoch, count superseded;
//                        then apply deltas in arrival order on top)
//          partition_fleet  -> interference-isolated campuses. Full epochs
//                              re-partition everything; deltas re-extract
//                              only the dirty components (O(churn))
//          CadenceScheduler -> due jobs (replans first), clamped to
//                              output_capacity per tick (backpressure)
//          TaskPool         -> one task per campus job: ScanIndex build +
//                              TurboCA NBO at the tier's hop levels, with a
//                              per-campus Rng::fork stream and a per-campus
//                              ScanStatsCache
//          deliver in job order -> plan sink (PlanFanout / telemetry
//                              ingest), fleet plan digest
//
// Threading contract: one tick thread. offer_epoch/offer_delta, tick() and
// every accessor run on it; TaskPool tasks run only inside tick(), on
// disjoint campus state. Nothing here is safe to call from a second thread.
//
// The controller owns a *resident census*: each campus's canonical
// (id-ascending) scan slice lives in CampusState and survives across
// epochs, next to the campus's assignment of record (one channel per
// member, aligned with the slice; AP ids are unique in a census). A full
// ScanEpoch replaces it wholesale; a DeltaEpoch edits it in place and
// re-extracts only campuses the delta touched — everything else
// keeps its cached partition slice, scheduler anchors, firing ordinals and
// spectrum-aggregate cache. See apply_delta() for the dirty-marking rules
// (including the ghost-contender index that catches an added AP activating
// a pre-existing above-floor neighbor report).
//
// Determinism contract: the delivered plan stream — and therefore
// plan_digest() — is a pure function of (config seed, the sequence of
// adopted epoch updates, the tick times). Campus jobs are independent by
// the partition isolation argument, each draws from its own (campus key,
// run ordinal) RNG stream, outputs are delivered in job order, and every
// serial decision (adoption, delta application, partition, scheduling,
// backpressure cuts) happens on the tick thread. Worker count changes
// wall-clock only. Replaying the same census trajectory as full epochs or
// as deltas yields byte-identical plan streams (the FleetDelta golden
// suite pins this).

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "core/turboca/turboca.hpp"
#include "exec/task_pool.hpp"
#include "fleet/delta.hpp"
#include "fleet/partition.hpp"
#include "fleet/queues.hpp"
#include "fleet/scheduler.hpp"
#include "flowsim/scan.hpp"
#include "flowsim/scan_index.hpp"

namespace w11::fleet {

// One population-wide scan census, as a collector shard delivers it.
struct ScanEpoch {
  Time taken_at{};
  std::vector<ApScan> scans;
};

// What the ingest queue carries: a full census or a delta against the last
// adopted one (fleet/delta.hpp).
using EpochUpdate = std::variant<ScanEpoch, DeltaEpoch>;

// One campus planning result, as delivered by tick().
struct CampusPlanOutput {
  std::uint32_t campus_key = 0;
  Tier tier = Tier::kFast;
  Time planned_at{};
  std::uint32_t n_aps = 0;
  ChannelPlan plan;
  double netp_log = 0.0;
  bool improved = false;
  // Wall-clock seconds the planning task took (per-campus plan latency).
  // Measurement only — never part of the plan digest.
  double plan_seconds = 0.0;
};

class FleetController {
 public:
  struct Config {
    turboca::Params planner;  // neighbor_rssi_floor also drives partitioning
    CadenceScheduler::Cadence cadence;
    std::uint64_t seed = 1;
    std::size_t ingest_capacity = 16;    // epoch updates buffered
    std::size_t output_capacity = 4096;  // campus plans delivered per tick
    exec::TaskPool* pool = nullptr;  // nullptr = TaskPool::global()
  };

  // Condensed pipeline-health snapshot (plain types, derived from Stats +
  // edge stats) for bench mains and the fleet health engine's SLIs.
  struct Health {
    double epochs_dropped_rate = 0.0;  // dropped / offered epochs
    double jobs_deferred_rate = 0.0;   // deferred / (run + deferred)
    double cache_hit_ratio = 0.0;      // hits / (hits + misses)
    std::uint64_t epochs_dropped = 0;
    std::uint64_t jobs_deferred = 0;
    std::uint64_t ingest_high_water = 0;
    std::uint64_t output_high_water = 0;
    std::uint64_t output_rejected = 0;
    std::uint64_t plans_delivered = 0;
    std::size_t campuses = 0;
    std::size_t fleet_aps = 0;
  };

  struct Stats {
    std::uint64_t ticks = 0;
    std::uint64_t epochs_adopted = 0;
    std::uint64_t epochs_superseded = 0;  // drained but older than the adopted
    // offer_epoch/offer_delta rejections (bounded ingest queue was full) —
    // the backpressure loss headless callers need next to the adoption
    // counters. Copied from the ingest queue at each tick, so it is current
    // "as of the last tick".
    std::uint64_t epochs_dropped = 0;
    std::uint64_t deltas_adopted = 0;
    std::uint64_t deltas_rejected = 0;    // base mismatch or stale timestamp
    std::uint64_t deltas_normalized = 0;  // add/update/remove reclassified
    std::uint64_t campuses_repartitioned = 0;  // dirty components re-extracted
    std::uint64_t aps_repartitioned = 0;       // scans fed to partition_fleet
    // Wall-clock seconds spent adopting censuses (full or delta): dirty
    // marking, in-place application, partition_fleet, state/scheduler/plan
    // reconciliation. The churn-sweep bench reads this — measurement only,
    // never part of the digest.
    double ingest_seconds = 0.0;
    std::uint64_t jobs_run = 0;
    std::uint64_t jobs_deferred = 0;  // due but cut by output backpressure
    std::uint64_t replans_run = 0;
    std::uint64_t plans_delivered = 0;
    std::uint64_t plans_improved = 0;
    std::uint64_t aps_planned = 0;  // summed over delivered plans
    std::uint64_t cache_hits = 0;   // summed over campus stats caches
    std::uint64_t cache_misses = 0;
  };

  // Delivery hook for plans (rollout fanout, telemetry ingest). Called
  // inside tick(), in job order.
  using PlanSink = std::function<void(const CampusPlanOutput&)>;

  explicit FleetController(Config cfg);

  // Offer one full scan epoch for the next tick. False = the bounded
  // ingest queue was full and this epoch was dropped; the queued ones stay
  // (the next poll's census supersedes the loss anyway).
  bool offer_epoch(ScanEpoch epoch);

  // Offer one delta against the last adopted epoch for the next tick.
  // Same drop semantics; a dropped delta breaks the chain, so the
  // producer should fall back to a full epoch when this returns false.
  bool offer_delta(DeltaEpoch delta);

  void set_plan_sink(PlanSink sink) { sink_ = std::move(sink); }

  // Out-of-band priority replan for the campus owning this key.
  void request_replan(std::uint32_t campus_key) {
    scheduler_.request_replan(campus_key);
  }

  // One planning cycle at time `now`. Everything serial happens here.
  void tick(Time now);

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] QueueStats ingest_stats() const { return ingest_.stats(); }
  // The output edge is tick()'s job-order delivery: every plan is pushed
  // and popped in the tick that ran it, and the budget cut means none is
  // ever rejected.
  [[nodiscard]] QueueStats output_stats() const {
    QueueStats s;
    s.pushed = s.popped = stats_.plans_delivered;
    s.high_water = max_tick_delivery_;
    return s;
  }
  [[nodiscard]] Health health() const {
    Health h;
    const QueueStats in_q = ingest_stats();
    const QueueStats out_q = output_stats();
    const std::uint64_t offered = in_q.pushed + in_q.rejected;
    h.epochs_dropped = in_q.rejected;
    h.epochs_dropped_rate =
        offered > 0
            ? static_cast<double>(in_q.rejected) / static_cast<double>(offered)
            : 0.0;
    const std::uint64_t jobs = stats_.jobs_run + stats_.jobs_deferred;
    h.jobs_deferred = stats_.jobs_deferred;
    h.jobs_deferred_rate =
        jobs > 0 ? static_cast<double>(stats_.jobs_deferred) /
                       static_cast<double>(jobs)
                 : 0.0;
    const std::uint64_t probes = stats_.cache_hits + stats_.cache_misses;
    h.cache_hit_ratio =
        probes > 0 ? static_cast<double>(stats_.cache_hits) /
                         static_cast<double>(probes)
                   : 0.0;
    h.ingest_high_water = in_q.high_water;
    h.output_high_water = out_q.high_water;
    h.output_rejected = out_q.rejected;
    h.plans_delivered = stats_.plans_delivered;
    h.campuses = campus_count();
    h.fleet_aps = fleet_aps_;
    return h;
  }
  [[nodiscard]] const CadenceScheduler& scheduler() const { return scheduler_; }
  [[nodiscard]] std::size_t campus_count() const { return state_.size(); }
  [[nodiscard]] std::size_t fleet_aps() const { return fleet_aps_; }

  // Campus key owning this AP in the resident census (nullopt if unknown).
  [[nodiscard]] std::optional<std::uint32_t> campus_of(ApId id) const {
    const auto it = owner_.find(id.value());
    if (it == owner_.end()) return std::nullopt;
    return it->second;
  }

  // The resident canonical scan slice of one campus (nullptr if unknown).
  [[nodiscard]] const std::vector<ApScan>* campus_scans(
      std::uint32_t key) const {
    const auto it = state_.find(key);
    return it == state_.end() ? nullptr : &it->second.scans;
  }

  // FNV-1a over every delivered plan, in delivery order: campus key, tier,
  // plan timestamp, each (ApId, band, number, width) assignment, and the
  // netp_log bits. The worker-count byte-equivalence witness.
  [[nodiscard]] std::uint64_t plan_digest() const { return digest_; }

  // The fleet-wide assignment of record (last delivered channel per AP,
  // seeded from scan currents for never-planned APs), assembled from every
  // campus's record. O(fleet): for tests and harness reports, not per tick.
  [[nodiscard]] ChannelPlan fleet_plan() const;

  // Visit every tracked campus (ascending key) with its latest epoch slice
  // — the per-campus telemetry poll reads through this.
  template <class F>
  void for_each_campus(F&& fn) const {
    for (const auto& [key, st] : state_) fn(key, st.scans);
  }

 private:
  struct CampusState {
    std::vector<ApScan> scans;  // resident slice, canonical id-ascending
    // Assignment of record, planned[k] for scans[k]: the last delivered
    // channel, or the scanned current of a never-planned AP.
    std::vector<Channel> planned;
    // Ids reported at contender-grade RSSI by members but absent from the
    // fleet (sorted, unique). If such an id is later *added*, the report
    // becomes a live contender edge and this campus must merge — the
    // ghost reverse index below finds it in O(1).
    std::vector<std::uint32_t> ghost_contenders;
    flowsim::ScanStatsCache cache;
    std::uint64_t runs = 0;  // firing ordinal (RNG stream derivation)
  };

  [[nodiscard]] exec::TaskPool& pool() const {
    return cfg_.pool ? *cfg_.pool : exec::TaskPool::global();
  }

  void adopt_epoch(ScanEpoch epoch, Time now);
  void apply_delta(DeltaEpoch delta, Time now);
  // AP id value -> channel of record, for APs whose campus is dissolved
  // while they stay in the fleet.
  using CarriedPlan = std::unordered_map<std::uint32_t, Channel>;
  // The one adoption step both paths end in: partition `pool`, install its
  // campuses, and reconcile the scheduler — keys of `prior` (the campuses
  // the pool was taken from) that did not come back are dropped, keys new
  // to it get a first-sighting pass. Returns the campus count.
  std::size_t repartition(std::vector<ApScan> pool,
                          std::map<std::uint32_t, CampusState>& prior,
                          const CarriedPlan& carried, Time now);
  // Install one freshly extracted campus, carrying cache/runs from `prior`
  // when its key persisted and each member's channel from `carried` (its
  // scanned current when absent), and registering owner_/ghost_rev_
  // entries.
  void install_campus(Campus&& campus,
                      std::map<std::uint32_t, CampusState>& prior,
                      const CarriedPlan& carried);
  // Remove a campus's owner_/ghost_rev_ registrations (state_ erase is the
  // caller's job — the dirty pool still needs the scans).
  void unregister_campus(std::uint32_t key, const CampusState& st);
  [[nodiscard]] std::vector<std::uint32_t> ghost_contenders_of(
      const std::vector<ApScan>& scans) const;
  // Plans one campus from its assignment of record and stores the result
  // back into that record (a pool task; see tick()).
  [[nodiscard]] CampusPlanOutput run_job(const PlanJob& job, CampusState& cs,
                                         std::uint64_t stream, Time now) const;
  void fold_digest(const CampusPlanOutput& out);

  Config cfg_;
  Rng root_;  // only forked (run_job, from pool tasks), never drawn from
  BoundedFifo<EpochUpdate> ingest_;
  CadenceScheduler scheduler_;
  std::map<std::uint32_t, CampusState> state_;  // key-ordered
  // Resident census lookup: AP id value -> owning campus key.
  std::unordered_map<std::uint32_t, std::uint32_t> owner_;
  // Ghost reverse index: absent id value -> campus keys whose members
  // report it at contender-grade RSSI.
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> ghost_rev_;
  PartitionScratch scratch_;
  std::size_t fleet_aps_ = 0;
  Time last_epoch_at_ = time::nanos(-1);  // newest adopted taken_at
  PlanSink sink_;
  std::uint64_t digest_ = fnv::kTruncatedOffsetBasis;
  std::uint64_t max_tick_delivery_ = 0;  // largest plans delivered per tick
  Stats stats_;
};

}  // namespace w11::fleet
