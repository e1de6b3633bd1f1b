#include "fleet/controller.hpp"

#include <algorithm>
#include <chrono>
#include <set>
#include <utility>

#include "common/check.hpp"
#include "common/fnv.hpp"

namespace w11::fleet {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

FleetController::FleetController(Config cfg)
    : cfg_(cfg),
      root_(cfg.seed),
      ingest_(cfg.ingest_capacity),
      scheduler_(cfg.cadence, cfg.seed) {
  W11_CHECK_MSG(cfg.output_capacity > 0,
                "the per-tick output budget needs capacity >= 1");
}

bool FleetController::offer_epoch(ScanEpoch epoch) {
  return ingest_.try_push(EpochUpdate{std::move(epoch)});
}

bool FleetController::offer_delta(DeltaEpoch delta) {
  return ingest_.try_push(EpochUpdate{std::move(delta)});
}

std::vector<std::uint32_t> FleetController::ghost_contenders_of(
    const std::vector<ApScan>& scans) const {
  // `scans` is a canonical slice (ascending id), so membership is a binary
  // search. A contender-grade report of a non-member must point outside the
  // fleet entirely: a live cross-campus contender edge would have merged
  // the campuses at extraction time.
  std::vector<std::uint32_t> ids;
  ids.reserve(scans.size());
  for (const ApScan& s : scans) ids.push_back(s.id.value());
  std::vector<std::uint32_t> out;
  for (const ApScan& s : scans) {
    for (const NeighborReport& nb : s.neighbors) {
      if (nb.rssi < cfg_.planner.neighbor_rssi_floor) continue;
      const std::uint32_t v = nb.id.value();
      if (!std::binary_search(ids.begin(), ids.end(), v)) out.push_back(v);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void FleetController::install_campus(
    Campus&& campus, std::map<std::uint32_t, CampusState>& prior,
    const CarriedPlan& carried) {
  CampusState st;
  st.scans = std::move(campus.scans);
  st.planned.reserve(st.scans.size());
  for (const ApScan& s : st.scans) {
    const auto it = carried.find(s.id.value());
    st.planned.push_back(it != carried.end() ? it->second : s.current);
  }
  st.ghost_contenders = ghost_contenders_of(st.scans);
  // Carry the stats cache and firing ordinal of a campus whose key
  // persisted (the cross-epoch aggregate reuse is the point of the cache);
  // a re-keyed campus starts fresh.
  const auto p = prior.find(campus.key);
  if (p != prior.end()) {
    st.cache = std::move(p->second.cache);
    st.runs = p->second.runs;
  }
  for (const ApScan& s : st.scans) owner_[s.id.value()] = campus.key;
  for (const std::uint32_t g : st.ghost_contenders)
    ghost_rev_[g].push_back(campus.key);
  state_.emplace(campus.key, std::move(st));
}

void FleetController::unregister_campus(std::uint32_t key,
                                        const CampusState& st) {
  for (const std::uint32_t g : st.ghost_contenders) {
    const auto it = ghost_rev_.find(g);
    if (it == ghost_rev_.end()) continue;
    std::vector<std::uint32_t>& keys = it->second;
    keys.erase(std::remove(keys.begin(), keys.end(), key), keys.end());
    if (keys.empty()) ghost_rev_.erase(it);
  }
}

std::size_t FleetController::repartition(
    std::vector<ApScan> pool, std::map<std::uint32_t, CampusState>& prior,
    const CarriedPlan& carried, Time now) {
  FleetPartition part = partition_fleet(
      std::move(pool), cfg_.planner.neighbor_rssi_floor, &scratch_);
  std::vector<std::uint32_t> added_keys;
  for (Campus& campus : part.campuses) {
    if (!prior.contains(campus.key)) added_keys.push_back(campus.key);
    install_campus(std::move(campus), prior, carried);
  }
  // Reconcile the scheduler: a prior key that no campus took back is
  // dropped; keys outside `prior` and the new campuses are untouched.
  std::vector<std::uint32_t> dropped_keys;
  for (const auto& [key, st] : prior)
    if (!state_.contains(key)) dropped_keys.push_back(key);
  scheduler_.apply_delta(added_keys, dropped_keys, now);
  return part.campuses.size();
}

void FleetController::adopt_epoch(ScanEpoch epoch, Time now) {
  const auto t0 = std::chrono::steady_clock::now();
  last_epoch_at_ = epoch.taken_at;

  // Rebuild the resident census wholesale. Keys absent from this epoch drop
  // their state; persisting keys carry cache + firing ordinal, and every AP
  // that stays in the fleet its channel of record, through install_campus.
  // APs that left the fleet drop theirs with their campus.
  std::map<std::uint32_t, CampusState> prior = std::move(state_);
  CarriedPlan carried;
  carried.reserve(fleet_aps_);
  for (const auto& [key, st] : prior)
    for (std::size_t k = 0; k < st.scans.size(); ++k)
      carried.emplace(st.scans[k].id.value(), st.planned[k]);
  fleet_aps_ = epoch.scans.size();
  state_.clear();
  owner_.clear();
  ghost_rev_.clear();

  ++stats_.epochs_adopted;
  stats_.aps_repartitioned += epoch.scans.size();
  stats_.campuses_repartitioned +=
      repartition(std::move(epoch.scans), prior, carried, now);
  stats_.ingest_seconds += seconds_since(t0);
}

void FleetController::apply_delta(DeltaEpoch delta, Time now) {
  const auto t0 = std::chrono::steady_clock::now();

  // Normalize producer classification against the resident census: an
  // "update" for an unknown id is an add, an "add" for a present id is an
  // update, a removal of an unknown id is a no-op. Each is counted.
  std::vector<ApScan> added;
  std::vector<ApScan> updated;
  std::vector<std::uint32_t> removed;
  added.reserve(delta.added.size());
  updated.reserve(delta.updated.size());
  removed.reserve(delta.removed.size());
  for (ApScan& a : delta.added) {
    if (owner_.contains(a.id.value())) {
      ++stats_.deltas_normalized;
      updated.push_back(std::move(a));
    } else {
      added.push_back(std::move(a));
    }
  }
  for (ApScan& u : delta.updated) {
    if (owner_.contains(u.id.value())) {
      updated.push_back(std::move(u));
    } else {
      ++stats_.deltas_normalized;
      added.push_back(std::move(u));
    }
  }
  for (const ApId r : delta.removed) {
    if (owner_.contains(r.value())) {
      removed.push_back(r.value());
    } else {
      ++stats_.deltas_normalized;
    }
  }

  // Dirty marking: which resident campuses could the delta have changed in
  // *membership or topology*? Ordered set, so the pool below is assembled
  // deterministically.
  //
  //   * the campus of every removed AP, and of every updated AP whose
  //     neighbor reports changed (only neighbor edges feed the partition —
  //     a spectrum-only update is substituted in place and repartitions
  //     nothing, which is what keeps "1% churn" from ballooning into
  //     "every campus containing a churned AP");
  //   * the campus of every present AP that a topology-changed or added
  //     scan reports at contender grade (a new live edge can merge
  //     campuses; a *dropped* edge's far end was already in the updated
  //     AP's own campus, so marking its owner covers splits);
  //   * every campus whose members report an *added* id at contender grade
  //     (the ghost reverse index: a pre-existing report of an absent AP
  //     becomes a live edge the moment that AP appears).
  //
  // Unchanged scans cannot couple a dirty campus to a clean one beyond
  // this closure: any contender edge between two unchanged present APs
  // already placed them in the same campus.
  const Dbm floor = cfg_.planner.neighbor_rssi_floor;
  std::set<std::uint32_t> dirty;
  const auto mark_owner_of = [&](std::uint32_t id_value) {
    const auto it = owner_.find(id_value);
    if (it != owner_.end()) dirty.insert(it->second);
  };
  for (const std::uint32_t r : removed) mark_owner_of(r);

  // Apply scan updates in place (canonical slices: binary search by id),
  // classifying each as spectrum-only or topology-changing as it lands.
  for (ApScan& u : updated) {
    const std::uint32_t key = owner_.at(u.id.value());
    CampusState& cs = state_.at(key);
    const auto it = std::lower_bound(
        cs.scans.begin(), cs.scans.end(), u.id,
        [](const ApScan& s, ApId id) { return s.id < id; });
    if (it->neighbors != u.neighbors) {
      dirty.insert(key);
      for (const NeighborReport& nb : u.neighbors)
        if (!(nb.rssi < floor)) mark_owner_of(nb.id.value());
    }
    *it = std::move(u);
  }
  for (const ApScan& a : added) {
    for (const NeighborReport& nb : a.neighbors)
      if (!(nb.rssi < floor)) mark_owner_of(nb.id.value());
    const auto g = ghost_rev_.find(a.id.value());
    if (g != ghost_rev_.end())
      for (const std::uint32_t key : g->second) dirty.insert(key);
  }

  // Assemble the dirty pool: every member of a dirty campus that survives
  // the delta, with its channel of record, plus the added scans (seeded
  // with their currents by install_campus). Everything else keeps its
  // cached partition slice untouched — this is the O(churn) claim.
  std::vector<std::uint32_t> removed_sorted = removed;
  std::sort(removed_sorted.begin(), removed_sorted.end());
  std::vector<ApScan> pool;
  CarriedPlan carried;
  std::map<std::uint32_t, CampusState> prior;
  for (const std::uint32_t key : dirty) {
    const auto it = state_.find(key);
    W11_CHECK_MSG(it != state_.end(), "dirty campus vanished from the census");
    CampusState& cs = it->second;
    unregister_campus(key, cs);
    for (std::size_t k = 0; k < cs.scans.size(); ++k) {
      const std::uint32_t id = cs.scans[k].id.value();
      if (std::binary_search(removed_sorted.begin(), removed_sorted.end(), id))
        continue;
      carried.emplace(id, cs.planned[k]);
      pool.push_back(std::move(cs.scans[k]));
    }
    prior.emplace(key, std::move(cs));
    state_.erase(it);
  }
  for (const std::uint32_t r : removed_sorted) owner_.erase(r);
  for (ApScan& a : added) pool.push_back(std::move(a));

  // Re-extract only the dirty components; splits, merges and re-keys all
  // fall out of the same partition pass the full path uses.
  const std::size_t pool_aps = pool.size();
  repartition(std::move(pool), prior, carried, now);

  fleet_aps_ += added.size();
  fleet_aps_ -= removed.size();
  last_epoch_at_ = delta.taken_at;
  ++stats_.deltas_adopted;
  stats_.campuses_repartitioned += dirty.size();
  stats_.aps_repartitioned += pool_aps;
  stats_.ingest_seconds += seconds_since(t0);
}

CampusPlanOutput FleetController::run_job(const PlanJob& job,
                                          CampusState& cs,
                                          std::uint64_t stream,
                                          Time now) const {
  const auto t0 = std::chrono::steady_clock::now();
  CampusPlanOutput out;
  out.campus_key = job.campus_key;
  out.tier = job.tier;
  out.planned_at = now;
  out.n_aps = static_cast<std::uint32_t>(cs.scans.size());

  turboca::TurboCA engine(cfg_.planner, root_.fork(stream));
  // One index over the resident scans and one plan context per firing,
  // shared across the tier's hop levels, seeded with the campus's
  // assignment of record; the stats cache makes unchanged spectrum rows a
  // copy instead of a recompute.
  const flowsim::ScanIndex index(cs.scans, cfg_.planner.neighbor_rssi_floor,
                                 cfg_.pool, &cs.cache);
  turboca::TurboCA::RunResult r =
      engine.run(index, cs.planned, tier_levels(job.tier));
  out.improved = r.improved;
  out.netp_log = r.netp_log;
  // The plan as it leaves the planner: scans are id-ascending, so every
  // entry appends.
  out.plan.reserve(r.plan.size());
  for (std::size_t k = 0; k < r.plan.size(); ++k)
    out.plan[cs.scans[k].id] = r.plan[k];
  // The campus's new assignment of record. A tick runs at most one job per
  // campus, so no other task reads or writes this campus's record.
  cs.planned = std::move(r.plan);
  out.plan_seconds = seconds_since(t0);
  return out;
}

void FleetController::tick(Time now) {
  ++stats_.ticks;
  stats_.epochs_dropped = ingest_.stats().rejected;

  // Drain the ingest queue. Full epochs collapse to the newest (an older
  // census behind a newer one carries no information the planner should
  // act on); deltas then apply in arrival order on top of whatever is
  // adopted — a delta whose base is no longer the adopted epoch (stale, or
  // leapfrogged by a newer full census in the same batch) is rejected and
  // counted, and the producer recovers by sending a full epoch.
  std::vector<EpochUpdate> batch;
  batch.reserve(ingest_.size());
  while (std::optional<EpochUpdate> e = ingest_.try_pop())
    batch.push_back(std::move(*e));
  int newest_full = -1;
  for (int i = 0; i < static_cast<int>(batch.size()); ++i) {
    const ScanEpoch* full = std::get_if<ScanEpoch>(&batch[static_cast<std::size_t>(i)]);
    if (full == nullptr) continue;
    if (newest_full < 0 ||
        full->taken_at >
            std::get<ScanEpoch>(batch[static_cast<std::size_t>(newest_full)])
                .taken_at) {
      if (newest_full >= 0) ++stats_.epochs_superseded;
      newest_full = i;
    } else {
      ++stats_.epochs_superseded;
    }
  }
  if (newest_full >= 0) {
    ScanEpoch& e =
        std::get<ScanEpoch>(batch[static_cast<std::size_t>(newest_full)]);
    if (e.taken_at > last_epoch_at_) {
      adopt_epoch(std::move(e), now);
    } else {
      ++stats_.epochs_superseded;  // stale vs the already-adopted census
    }
  }
  for (EpochUpdate& u : batch) {
    DeltaEpoch* d = std::get_if<DeltaEpoch>(&u);
    if (d == nullptr) continue;
    if (d->taken_at <= last_epoch_at_ || d->base_taken_at != last_epoch_at_) {
      ++stats_.deltas_rejected;
      continue;
    }
    apply_delta(std::move(*d), now);
  }

  // Due jobs in priority order, cut to the per-tick output budget —
  // backpressure defers the tail deterministically (a deferred job keeps
  // its anchors and stays due next tick).
  std::vector<PlanJob> jobs = scheduler_.due(now);
  if (jobs.size() > cfg_.output_capacity) {
    stats_.jobs_deferred += jobs.size() - cfg_.output_capacity;
    jobs.resize(cfg_.output_capacity);
  }

  if (!jobs.empty()) {
    // Serial prep: resolve campus state and derive each job's RNG stream
    // from (campus key, firing ordinal) — a pure function of the adopted
    // history, independent of worker count and interleaving.
    struct JobCtx {
      const PlanJob* job = nullptr;
      CampusState* cs = nullptr;
      std::uint64_t stream = 0;
    };
    std::vector<JobCtx> ctx;
    ctx.reserve(jobs.size());
    for (const PlanJob& job : jobs) {
      const auto it = state_.find(job.campus_key);
      if (it == state_.end()) continue;  // dropped since the scheduler saw it
      JobCtx c;
      c.job = &job;
      c.cs = &it->second;
      c.stream = rng_detail::mix_seed(job.campus_key, it->second.runs);
      ++it->second.runs;
      ctx.push_back(c);
    }

    // One pool task per campus job (due() yields at most one per campus).
    // Tasks touch disjoint campus state — they read the scans and update
    // the stats cache and the assignment of record — plus read-only
    // shared state (config).
    std::vector<CampusPlanOutput> outputs =
        pool().parallel_map<CampusPlanOutput>(ctx.size(), [&](std::size_t i) {
          return run_job(*ctx[i].job, *ctx[i].cs, ctx[i].stream, now);
        });

    for (const JobCtx& c : ctx) {
      scheduler_.fired(*c.job, now);
      ++stats_.jobs_run;
      if (c.job->tier == Tier::kReplan) ++stats_.replans_run;
    }

    // Deliver in job order: the digest, the sink.
    for (const CampusPlanOutput& out : outputs) {
      fold_digest(out);
      ++stats_.plans_delivered;
      if (out.improved) ++stats_.plans_improved;
      stats_.aps_planned += out.n_aps;
      if (sink_) sink_(out);
    }
    max_tick_delivery_ =
        std::max<std::uint64_t>(max_tick_delivery_, outputs.size());
  }

  // Roll the per-campus cache counters up into the controller stats.
  stats_.cache_hits = stats_.cache_misses = 0;
  for (const auto& [key, st] : state_) {
    const flowsim::ScanStatsCache::Stats& cs = st.cache.stats();
    stats_.cache_hits += cs.hits;
    stats_.cache_misses += cs.misses;
  }
}

ChannelPlan FleetController::fleet_plan() const {
  // Campus-key order is not id order: collect the rows, then sort once.
  std::vector<ChannelPlan::value_type> rows;
  for (const auto& [key, st] : state_)
    for (std::size_t k = 0; k < st.scans.size(); ++k)
      rows.emplace_back(st.scans[k].id, st.planned[k]);
  return ChannelPlan(std::move(rows));
}

void FleetController::fold_digest(const CampusPlanOutput& out) {
  fnv::mix_value(digest_, out.campus_key);
  fnv::mix_value(digest_, static_cast<std::uint8_t>(out.tier));
  fnv::mix_value(digest_, out.planned_at.ns());
  fnv::mix_value(digest_, out.n_aps);
  for (const auto& [id, ch] : out.plan) {
    fnv::mix_value(digest_, id.value());
    fnv::mix_value(digest_, static_cast<std::uint8_t>(ch.band));
    fnv::mix_value(digest_, static_cast<std::int32_t>(ch.number));
    fnv::mix_value(digest_, static_cast<std::uint8_t>(ch.width));
  }
  fnv::mix_value(digest_, out.netp_log);
}

}  // namespace w11::fleet
