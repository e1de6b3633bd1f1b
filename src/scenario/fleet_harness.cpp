#include "scenario/fleet_harness.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "ctrl/fanout.hpp"
#include "phy/channel.hpp"
#include "telemetry/fleet_ingest.hpp"

namespace w11::scenario {

namespace {

// Spectrum snapshot for one AP: a few occupied 20 MHz components with
// external utilization and quality, plus the measured current-channel
// utilization. Shared by generation and churn so a churned AP's fields are
// statistically identical to a fresh one.
void roll_spectrum(ApScan& s, const std::vector<Channel>& comps, Rng& rng) {
  s.external_util.clear();
  s.quality.clear();
  const int occupied = static_cast<int>(rng.uniform_int(2, 4));
  for (int k = 0; k < occupied; ++k) {
    const int num = comps[rng.index(comps.size())].number;
    s.external_util[num] = rng.uniform(0.0, 0.4);
    s.quality[num] = rng.uniform(0.6, 1.0);
  }
  s.utilization_current = rng.uniform(0.0, 0.5);
}

}  // namespace

std::vector<ApScan> make_fleet_scans(const FleetPopulationConfig& cfg,
                                     Time taken_at) {
  W11_CHECK(cfg.campuses > 0 && cfg.aps_min > 0 && cfg.aps_max >= cfg.aps_min);
  const Rng root(cfg.seed);
  const std::vector<Channel> cands =
      channels::candidate_set(cfg.band, ChannelWidth::MHz40, false);
  const std::vector<Channel> comps =
      channels::us_catalog(cfg.band, ChannelWidth::MHz20);

  // Pass 1: campus sizes (so ids can be assigned densely in campus order).
  std::vector<int> sizes(static_cast<std::size_t>(cfg.campuses));
  std::size_t total = 0;
  for (int c = 0; c < cfg.campuses; ++c) {
    Rng crng = root.fork(static_cast<std::uint64_t>(c));
    sizes[static_cast<std::size_t>(c)] =
        static_cast<int>(crng.uniform_int(cfg.aps_min, cfg.aps_max));
    total += static_cast<std::size_t>(sizes[static_cast<std::size_t>(c)]);
  }

  std::vector<ApScan> scans;
  scans.reserve(total);
  std::vector<std::uint32_t> base(static_cast<std::size_t>(cfg.campuses));
  std::uint32_t next_id = 0;
  for (int c = 0; c < cfg.campuses; ++c) {
    base[static_cast<std::size_t>(c)] = next_id;
    // Re-fork so the size draw above doesn't shift the content stream.
    Rng crng = root.fork(static_cast<std::uint64_t>(c)).fork(1);
    const int n = sizes[static_cast<std::size_t>(c)];
    for (int i = 0; i < n; ++i) {
      ApScan s;
      s.id = ApId(next_id + static_cast<std::uint32_t>(i));
      s.band = cfg.band;
      s.current = cands[crng.index(cands.size())];
      s.max_width = ChannelWidth::MHz80;
      s.has_clients = crng.bernoulli(0.7);
      s.dfs_capable = true;
      s.load_by_width[ChannelWidth::MHz20] = crng.uniform(0.05, 0.3);
      if (crng.bernoulli(0.5))
        s.load_by_width[ChannelWidth::MHz40] = crng.uniform(0.05, 0.4);
      roll_spectrum(s, comps, crng);
      s.taken_at = taken_at;
      scans.push_back(std::move(s));
    }

    // Contender chain backbone: i <-> i+1 at well-above-floor RSSI keeps
    // the campus one connected component.
    for (int i = 0; i + 1 < n; ++i) {
      const Dbm rssi = crng.uniform(-78.0, -50.0);
      const std::uint32_t a = next_id + static_cast<std::uint32_t>(i);
      const std::uint32_t b = a + 1;
      scans[a].neighbors.push_back(NeighborReport{ApId(b), rssi});
      scans[b].neighbors.push_back(NeighborReport{ApId(a), rssi});
    }
    if (cfg.shape == FleetPopulationConfig::Shape::kClustered && n > 3) {
      // Random in-campus cross links (~n/3 extra edges).
      for (int e = 0; e < n / 3; ++e) {
        const auto i = static_cast<std::uint32_t>(crng.index(
            static_cast<std::size_t>(n)));
        const auto j = static_cast<std::uint32_t>(crng.index(
            static_cast<std::size_t>(n)));
        if (i == j) continue;
        const Dbm rssi = crng.uniform(-82.0, -55.0);
        scans[next_id + i].neighbors.push_back(
            NeighborReport{ApId(next_id + j), rssi});
        scans[next_id + j].neighbors.push_back(
            NeighborReport{ApId(next_id + i), rssi});
      }
    }
    next_id += static_cast<std::uint32_t>(n);
  }

  // Sub-floor cross-campus reports: audible, but below the contender floor
  // — the partitioner must NOT merge across these.
  if (cfg.cross_campus_subfloor > 0.0 && cfg.campuses > 1) {
    Rng xrng = root.fork(0xC0FFEEULL);
    for (std::size_t i = 0; i < scans.size(); ++i) {
      if (!xrng.bernoulli(cfg.cross_campus_subfloor)) continue;
      const std::size_t j = xrng.index(scans.size());
      if (scans[j].id == scans[i].id) continue;
      scans[i].neighbors.push_back(
          NeighborReport{scans[j].id, xrng.uniform(-99.0, -90.0)});
    }
  }
  return scans;
}

fleet::DeltaEpoch evolve_population(std::vector<ApScan>& scans,
                                    const FleetPopulationConfig& pop,
                                    double spectrum_fraction,
                                    double member_fraction, std::uint64_t seed,
                                    std::uint32_t& next_id, Time base_at,
                                    Time now) {
  fleet::DeltaEpoch d;
  d.taken_at = now;
  d.base_taken_at = base_at;
  const Rng root(seed);
  const std::vector<Channel> comps =
      channels::us_catalog(pop.band, ChannelWidth::MHz20);
  const std::vector<Channel> cands =
      channels::candidate_set(pop.band, ChannelWidth::MHz40, false);

  // Removals first (an AP picked for both removal and spectrum churn is
  // simply removed). Per-position coins on independent streams, so the
  // draw for AP i never shifts with fleet size or other churn. Each coin
  // is its stream's first draw, taken without seeding the stream.
  std::vector<std::size_t> removed_pos;
  if (member_fraction > 0.0) {
    const Rng mroot = root.fork(0xD00DULL);
    for (std::size_t i = 0; i < scans.size(); ++i)
      if (mroot.fork_bernoulli(i, member_fraction)) removed_pos.push_back(i);
    // Never empty the census entirely.
    if (removed_pos.size() == scans.size() && !removed_pos.empty())
      removed_pos.pop_back();
  }
  std::vector<bool> removed(scans.size(), false);
  for (const std::size_t i : removed_pos) removed[i] = true;

  // Spectrum churn on survivors; touched scans are restamped and become
  // the delta's updated set.
  if (spectrum_fraction > 0.0) {
    for (std::size_t i = 0; i < scans.size(); ++i) {
      if (removed[i]) continue;
      if (!root.fork_bernoulli(i, spectrum_fraction)) continue;
      Rng arng = root.fork(i);
      arng.engine().discard(1);  // the coin above
      roll_spectrum(scans[i], comps, arng);
      scans[i].taken_at = now;
      d.updated.push_back(scans[i]);
    }
  }

  // Erase removals (descending, positions stay valid; ids stay ascending).
  for (const std::size_t i : removed_pos) d.removed.push_back(scans[i].id);
  for (auto it = removed_pos.rbegin(); it != removed_pos.rend(); ++it)
    scans.erase(scans.begin() + static_cast<std::ptrdiff_t>(*it));

  // Additions replace removals 1:1, with fresh ids above everything ever
  // issued. Edges are one-sided (the new AP reports the survivor) — enough
  // for the contender union, and it keeps the survivor's scan unchanged,
  // which is exactly the hard case for the controller's dirty marking.
  const Rng aroot = root.fork(0xADDEDULL);
  for (std::size_t k = 0; k < removed_pos.size(); ++k) {
    Rng arng = aroot.fork(k);
    ApScan s;
    s.id = ApId(next_id++);
    s.band = pop.band;
    s.current = cands[arng.index(cands.size())];
    s.max_width = ChannelWidth::MHz80;
    s.has_clients = arng.bernoulli(0.7);
    s.dfs_capable = true;
    s.load_by_width[ChannelWidth::MHz20] = arng.uniform(0.05, 0.3);
    if (arng.bernoulli(0.5))
      s.load_by_width[ChannelWidth::MHz40] = arng.uniform(0.05, 0.4);
    roll_spectrum(s, comps, arng);
    s.taken_at = now;
    if (!scans.empty()) {
      const double kind = arng.uniform(0.0, 1.0);
      if (kind < 0.45) {
        // Attach to one surviving AP (joins its campus).
        const std::size_t j = arng.index(scans.size());
        s.neighbors.push_back(
            NeighborReport{scans[j].id, arng.uniform(-75.0, -55.0)});
      } else if (kind < 0.75) {
        // Bridge two surviving APs (merges their campuses if distinct).
        const std::size_t j1 = arng.index(scans.size());
        const std::size_t j2 = arng.index(scans.size());
        s.neighbors.push_back(
            NeighborReport{scans[j1].id, arng.uniform(-75.0, -55.0)});
        if (scans[j2].id != scans[j1].id)
          s.neighbors.push_back(
              NeighborReport{scans[j2].id, arng.uniform(-75.0, -55.0)});
      }
      // else: singleton campus.
    }
    d.added.push_back(s);
    scans.push_back(std::move(s));
  }
  return d;
}

FleetScenarioResult run_fleet_scenario(const FleetScenarioConfig& cfg) {
  FleetScenarioResult res;
  fleet::FleetController controller(cfg.controller);
  ctrl::PlanFanout fanout;
  telemetry::FleetIngest ingest;

  controller.set_plan_sink([&](const fleet::CampusPlanOutput& out) {
    res.plan_seconds.push_back(out.plan_seconds);
    res.netp_log_sum += out.netp_log;
    fanout.commit(out.campus_key, out.plan, out.netp_log, out.planned_at);
    ingest.ingest_plan(out.campus_key, out.planned_at, out.n_aps,
                       out.netp_log, out.improved, out.plan_seconds);
  });

  // One local census is the single source of truth for both replay modes:
  // evolve_population mutates it in place and describes the change as a
  // DeltaEpoch; the controller is fed either the delta or a full copy.
  std::vector<ApScan> scans = make_fleet_scans(cfg.population, Time{});
  std::uint32_t next_id =
      scans.empty() ? 0 : scans.back().id.value() + 1;
  Time last_at{};
  for (int p = 0; p < cfg.polls; ++p) {
    const Time t = time::nanos((p + 1) * cfg.poll.ns());
    fleet::DeltaEpoch delta;
    if (p == 0) {
      // First sighting is always a full census.
      for (ApScan& s : scans) s.taken_at = t;
      controller.offer_epoch(fleet::ScanEpoch{t, scans});
    } else {
      delta = evolve_population(
          scans, cfg.population, cfg.churn_fraction, cfg.member_churn,
          cfg.population.seed ^ static_cast<std::uint64_t>(p), next_id,
          last_at, t);
      if (cfg.use_deltas) {
        controller.offer_delta(delta);
      } else {
        controller.offer_epoch(fleet::ScanEpoch{t, scans});
      }
    }
    controller.tick(t);
    last_at = t;
    // Per-poll pipeline tick; queue high-waters and drop/defer counts are
    // read from FleetController::health().
    ingest.ingest_pipeline(controller.ingest_stats(),
                           controller.output_stats(),
                           controller.stats().jobs_deferred);
    // O(churn) telemetry fan-out: only campuses the poll touched land rows
    // this interval (the first full census polls everyone). The touched set
    // is derived from the delta in *both* replay modes, so row counts match
    // between them.
    if (p == 0) {
      controller.for_each_campus(
          [&](std::uint32_t key, const std::vector<ApScan>& campus) {
            ingest.ingest_scans(key, campus, t);
          });
    } else {
      std::vector<std::uint32_t> touched;
      const auto note = [&](ApId id) {
        if (const auto key = controller.campus_of(id)) touched.push_back(*key);
      };
      for (const ApScan& s : delta.added) note(s.id);
      for (const ApScan& s : delta.updated) note(s.id);
      std::sort(touched.begin(), touched.end());
      touched.erase(std::unique(touched.begin(), touched.end()),
                    touched.end());
      for (const std::uint32_t key : touched)
        if (const std::vector<ApScan>* campus = controller.campus_scans(key))
          ingest.ingest_scans(key, *campus, t);
    }
  }

  res.fleet_aps = controller.fleet_aps();
  res.campuses = controller.campus_count();
  res.digest = controller.plan_digest();
  res.final_plan = controller.fleet_plan();
  res.stats = controller.stats();
  res.health = controller.health();
  res.plans_committed = fanout.stats().plans_committed;
  res.ctrl_campuses = fanout.stats().campuses_seen;
  res.telemetry_rows = ingest.rows_ingested();
  return res;
}

}  // namespace w11::scenario
