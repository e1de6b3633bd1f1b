// fleet_cycle: a clustered ~100k-AP population (10-22 APs per campus)
// planned by the sharded FleetController. Set-up generates the census,
// adopts it cold and runs the first planning tick. Each steady poll then
// evolves the census by 1% spectrum churn (plus 0.1% AP replacement),
// offers the resulting DeltaEpoch and ticks; every delivered campus plan
// goes through the benchmark's plan sink into ctrl::PlanFanout and
// telemetry::FleetIngest, and the poll's touched campuses land telemetry
// rows. The generator runs outside the timed cycle.
//
// Layer boundaries timed from here: offer_delta, tick, the sink's fanout
// and telemetry calls, the post-tick telemetry rows and the generator; the
// controller's own ingest seconds and per-campus plan seconds come from its
// public stats and plan outputs.

#include <algorithm>
#include <iomanip>
#include <memory>

#include "ctrl/fanout.hpp"
#include "exec/task_pool.hpp"
#include "fleet/controller.hpp"
#include "report.hpp"
#include "scenario/fleet_harness.hpp"
#include "telemetry/fleet_ingest.hpp"

namespace perfbench {
namespace {

constexpr int kCampuses = 6250;  // x ~16 APs = ~100k APs
constexpr double kSpectrumChurn = 0.01;
constexpr double kMemberChurn = 0.001;
constexpr int kSetupReps = 3;
constexpr int kCountPolls = 4;  // counts cover this many steady polls; the run never stops sooner

w11::Time poll_time(int p) {
  return w11::time::nanos((p + 1) * w11::time::minutes(15).ns());
}

// One controller with its sink targets, as the run drives it.
struct Pipeline {
  w11::scenario::FleetPopulationConfig pop;
  std::vector<w11::ApScan> census;  // the producer's local copy
  std::uint32_t next_id = 0;
  w11::ctrl::PlanFanout fanout;
  w11::telemetry::FleetIngest ingest;
  w11::Samples plan_ms;  // per delivered campus plan
  double netp_log_sum = 0.0;
  SpanRecorder* spans = nullptr;  // set once set-up is done: set-up is untraced
  // Last, so it is destroyed first: its plan sink points at the members above.
  std::unique_ptr<w11::fleet::FleetController> ctl;
};

std::unique_ptr<Pipeline> build(std::uint64_t seed, w11::exec::TaskPool& pool) {
  auto p = std::make_unique<Pipeline>();
  p->pop.campuses = kCampuses;
  p->pop.aps_min = 10;
  p->pop.aps_max = 22;
  p->pop.seed = seed;
  w11::fleet::FleetController::Config cc;
  cc.seed = seed ^ 0x5eedULL;
  cc.pool = &pool;
  cc.output_capacity = 2 * kCampuses;  // one job per campus per poll fits
  p->ctl = std::make_unique<w11::fleet::FleetController>(cc);
  Pipeline* raw = p.get();
  p->ctl->set_plan_sink([raw](const w11::fleet::CampusPlanOutput& out) {
    raw->plan_ms.add(out.plan_seconds * 1e3);
    raw->netp_log_sum += out.netp_log;
    {
      Scoped span(raw->spans, "ctrl.fanout");
      raw->fanout.commit(out.campus_key, out.plan, out.netp_log, out.planned_at);
    }
    Scoped span(raw->spans, "telemetry.ingest");
    raw->ingest.ingest_plan(out.campus_key, out.planned_at, out.n_aps,
                            out.netp_log, out.improved, out.plan_seconds);
  });

  // First sighting: generate, adopt the full census cold, plan everything.
  p->census = w11::scenario::make_fleet_scans(p->pop, w11::Time{});
  p->next_id = p->census.back().id.value() + 1;
  const w11::Time t = poll_time(0);
  for (w11::ApScan& s : p->census) s.taken_at = t;
  p->ctl->offer_epoch(w11::fleet::ScanEpoch{t, p->census});
  p->ctl->tick(t);
  p->ingest.ingest_pipeline(p->ctl->ingest_stats(), p->ctl->output_stats(),
                            p->ctl->stats().jobs_deferred);
  p->ctl->for_each_campus([&](std::uint32_t key, const std::vector<w11::ApScan>& campus) {
    p->ingest.ingest_scans(key, campus, t);
  });
  return p;
}

}  // namespace

WorkloadResult run_fleet_cycle(const RunConfig& cfg, Ledger& ledger,
                               std::ostream& log) {
  SpanRecorder* rec = cfg.spans;
  const std::uint64_t seed = 20170901 + 7919 * cfg.seed;
  w11::exec::TaskPool pool(cfg.lanes);
  WitnessLog witness(ledger);

  w11::Samples setup_s;
  std::unique_ptr<Pipeline> p;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    p.reset();
    const std::int64_t t0 = now_ns();
    p = build(seed, pool);
    setup_s.add(static_cast<double>(now_ns() - t0) / 1e9);
    witness.observe("fleet_cycle.first_tick_digest", p->ctl->plan_digest());
    ledger.check(p->ctl->stats().plans_delivered == p->ctl->campus_count() &&
                     p->ctl->stats().jobs_deferred == 0,
                 "fleet: first tick plans every campus once, nothing deferred");
  }
  const std::size_t first_aps = p->ctl->fleet_aps();
  const std::size_t first_campuses = p->ctl->campus_count();
  p->plan_ms = w11::Samples{};
  p->spans = rec;

  // Steady polls. The reported rate and cycle time are the faster quartile
  // over polls: on a shared host, speed can swing by tens of percent for
  // seconds at a time, and the faster polls are the ones least slowed by
  // other tenants. They cover the cycle (offer_delta to the last
  // plan sunk): the post-tick telemetry rows grow with the table's history,
  // so they are reported per layer but kept out of the end-to-end metrics,
  // which would otherwise depend on how many polls a run reached.
  w11::Samples cycle_ms;
  w11::Samples cycle_rate;
  double poll_s = 0.0, tick_s = 0.0, tick_cpu_s = 0.0, ingest_s = 0.0;
  std::uint64_t aps_planned = 0;
  const w11::fleet::FleetController::Stats base = p->ctl->stats();
  w11::fleet::FleetController::Stats window{};
  double window_cache_hit_ratio = 0.0;
  double peak_rss = 0.0;  // VmHWM after set-up and the first kCountPolls polls
  w11::Time last_at = poll_time(0);
  const std::int64_t run0 = now_ns();
  int polls = 0;
  for (int poll = 1;; ++poll) {
    if (polls >= kCountPolls &&
        static_cast<double>(now_ns() - run0) / 1e9 >= cfg.seconds)
      break;
    const w11::Time t = poll_time(poll);
    w11::fleet::DeltaEpoch delta;
    {
      Scoped span(rec, "workload.evolve");
      delta = w11::scenario::evolve_population(
          p->census, p->pop, kSpectrumChurn, kMemberChurn,
          p->pop.seed ^ static_cast<std::uint64_t>(poll), p->next_id, last_at, t);
    }
    std::vector<w11::ApId> touched_ids;
    touched_ids.reserve(delta.added.size() + delta.updated.size());
    for (const w11::ApScan& s : delta.added) touched_ids.push_back(s.id);
    for (const w11::ApScan& s : delta.updated) touched_ids.push_back(s.id);

    const w11::fleet::FleetController::Stats before = p->ctl->stats();
    const std::int64_t c0 = now_ns();
    std::int64_t c1 = 0;
    {
      Scoped poll_span(rec, "fleet.poll");
      {
        Scoped span(rec, "fleet.offer");
        ledger.check(p->ctl->offer_delta(std::move(delta)),
                     "fleet: delta accepted by the ingest queue");
      }
      const std::int64_t k0 = now_ns();
      const double cpu0 = process_cpu_s();
      {
        Scoped span(rec, "fleet.tick");
        p->ctl->tick(t);
      }
      c1 = now_ns();
      tick_cpu_s += process_cpu_s() - cpu0;
      tick_s += static_cast<double>(c1 - k0) / 1e9;
      Scoped span(rec, "telemetry.scan_rows");
      p->ingest.ingest_pipeline(p->ctl->ingest_stats(), p->ctl->output_stats(),
                                p->ctl->stats().jobs_deferred);
      std::vector<std::uint32_t> touched;
      for (const w11::ApId id : touched_ids)
        if (const auto key = p->ctl->campus_of(id)) touched.push_back(*key);
      std::sort(touched.begin(), touched.end());
      touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
      for (const std::uint32_t key : touched)
        if (const std::vector<w11::ApScan>* campus = p->ctl->campus_scans(key))
          p->ingest.ingest_scans(key, *campus, t);
    }
    const std::int64_t c2 = now_ns();
    cycle_ms.add(static_cast<double>(c1 - c0) / 1e6);
    poll_s += static_cast<double>(c2 - c0) / 1e9;
    last_at = t;
    ++polls;

    const w11::fleet::FleetController::Stats& st = p->ctl->stats();
    aps_planned += st.aps_planned - before.aps_planned;
    cycle_rate.add(static_cast<double>(st.aps_planned - before.aps_planned) /
                         (static_cast<double>(c1 - c0) / 1e9));
    ingest_s += st.ingest_seconds - before.ingest_seconds;
    ledger.check(st.deltas_rejected == 0 && st.epochs_dropped == 0 &&
                     st.jobs_deferred == 0,
                 "fleet: no delta rejected, epoch dropped or job deferred");
    ledger.check(st.plans_delivered - before.plans_delivered == p->ctl->campus_count(),
                 "fleet: every campus planned exactly once this poll");
    if (polls == kCountPolls) {
      peak_rss = peak_rss_mib();
      window = st;
      window_cache_hit_ratio = p->ctl->health().cache_hit_ratio;
      witness.observe("fleet_cycle.window_digest", p->ctl->plan_digest());
    }
  }
  const auto window_delta = [&](std::uint64_t w11::fleet::FleetController::Stats::*f) {
    return static_cast<double>(window.*f - base.*f);
  };

  log << std::setprecision(6);
  log << "fleet_cycle: " << first_aps << " APs in " << first_campuses
      << " campuses, " << cfg.lanes << " lanes, " << polls << " steady polls at "
      << kSpectrumChurn * 100 << "% churn\n";
  log << "  witness: first_tick_digest="
      << hex64(witness.reference().at("fleet_cycle.first_tick_digest"))
      << "  plan_digest=" << hex64(witness.reference().at("fleet_cycle.window_digest"))
      << " (after " << kCountPolls << " steady polls)  netp_log_sum="
      << std::setprecision(17) << p->netp_log_sum << std::setprecision(6) << "\n";
  log << "  aps_planned_per_s=" << cycle_rate.median()
      << " (median over n=" << polls << " steady cycles; per second of whole polls "
      << static_cast<double>(aps_planned) / poll_s << ")\n";
  print_timing(log, "cycle_ms", cycle_ms);
  log << "  reported: aps_planned_per_s_p75=" << cycle_rate.quantile(0.75)
      << " cycle_ms_p25=" << cycle_ms.quantile(0.25) << " (the faster quartile of "
      << polls << " steady polls; fastest poll: aps_planned_per_s_max="
      << cycle_rate.max() << " cycle_ms_min=" << cycle_ms.min() << ")\n";
  log << "  setup_s: fastest of " << setup_s.count()
      << " (generate + cold adoption + first tick; median " << setup_s.median()
      << " s)\n";

  WorkloadResult res;
  res.end_to_end["setup_s"] = setup_s.min();
  res.end_to_end["peak_rss_mib"] = peak_rss;
  res.end_to_end["work_per_s"] = cycle_rate.quantile(0.75);
  res.end_to_end["op_ms"] = cycle_ms.quantile(0.25);

  if (rec != nullptr) {
    const std::vector<LayerTime> layers = rec->layer_times();
    const auto per_poll = [&](const char* name) {
      return static_cast<double>(find_layer(layers, name).total_ns) / 1e6 / polls;
    };
    const double poll_ms = per_poll("fleet.poll");
    const double tick_ms = per_poll("fleet.tick");
    const double fanout_ms = per_poll("ctrl.fanout");
    const double tele_ms = per_poll("telemetry.ingest");
    const double ingest_ms = ingest_s * 1e3 / polls;
    const double other_ms = tick_ms - ingest_ms - fanout_ms - tele_ms;
    MetricValues& m = res.per_layer;
    m["workload.evolve_ms"] = per_poll("workload.evolve");
    m["fleet.offer_ms"] = per_poll("fleet.offer");
    m["fleet.tick_ms"] = tick_ms;
    m["fleet.ingest_ms"] = ingest_ms;
    m["ctrl.fanout_ms"] = fanout_ms;
    m["telemetry.ingest_ms"] = tele_ms;
    m["telemetry.scan_rows_ms"] = per_poll("telemetry.scan_rows");
    m["fleet.plan_other_ms"] = other_ms;
    m["exec.cpu_share"] = tick_cpu_s / tick_s;
    m["turboca.campus_plan_ms_p50"] = p->plan_ms.median();
    m["turboca.campus_plan_ms_p95"] = p->plan_ms.quantile(0.95);
    m["fleet.offer_share"] = m["fleet.offer_ms"] / poll_ms;
    m["fleet.ingest_share"] = ingest_ms / poll_ms;
    m["ctrl.fanout_share"] = fanout_ms / poll_ms;
    m["telemetry.ingest_share"] = tele_ms / poll_ms;
    m["telemetry.scan_rows_share"] = m["telemetry.scan_rows_ms"] / poll_ms;
    m["fleet.plan_other_share"] = other_ms / poll_ms;
    m["fleet.span_coverage"] =
        1.0 - static_cast<double>(find_layer(layers, "fleet.poll").self_ns) / 1e6 /
                  polls / poll_ms;
    m["fleet.polls"] = polls;
    using S = w11::fleet::FleetController::Stats;
    m["fleet.aps_repartitioned"] = window_delta(&S::aps_repartitioned);
    m["fleet.campuses_repartitioned"] = window_delta(&S::campuses_repartitioned);
    m["fleet.plans_delivered"] = window_delta(&S::plans_delivered);
    m["fleet.jobs_deferred"] = window_delta(&S::jobs_deferred);
    m["fleet.epochs_dropped"] = window_delta(&S::epochs_dropped);
    m["fleet.deltas_rejected"] = window_delta(&S::deltas_rejected);
    m["fleet.cache_hit_ratio"] = window_cache_hit_ratio;
    log << "  cpu_share during tick: " << m["exec.cpu_share"] << " of " << cfg.lanes
        << " lanes; campus plans: " << p->plan_ms.count() << "\n";
  }
  return res;
}

}  // namespace perfbench
