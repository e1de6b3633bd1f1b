// planning_day: the four Table 2 systems (UNet and MNet, each under TurboCA
// and ReservedCA) stepped together through diurnal days in 15-minute steps,
// with RF churn every 2 h and one radar strike per day. One 15-minute step
// of all four systems is one closed-loop operation; per system it mutates
// the RF/load state, advances the channel service (which scans and may
// apply a plan), evaluates the network, and on business-hour steps runs the
// samplers.
//
// Layer boundaries timed from here: the flowsim calls the step makes
// directly, the service's advance_to, and the service's scan/apply hooks,
// which this file wraps.

#include <cmath>
#include <iomanip>
#include <memory>

#include "deployment.hpp"
#include "exec/task_pool.hpp"
#include "report.hpp"

namespace perfbench {
namespace {

using w11::bench::Algorithm;
using w11::bench::Deployment;

constexpr int kStepsPerDay = 96;
constexpr int kTableDays = 3;  // the Table 2 window; the run never stops sooner
constexpr int kSetupReps = 5;    // builds before the run; the last one runs
constexpr int kSetupPerDay = 3;  // further builds at each day boundary

struct System {
  const char* label = "";
  std::unique_ptr<w11::flowsim::Network> net;
  std::unique_ptr<w11::turboca::TurboCaService> turbo;
  std::unique_ptr<w11::turboca::ReservedCaService> reserved;
  w11::Rng churn_rng{0};
  std::uint64_t scan_calls = 0;
  std::uint64_t evaluate_calls = 0;
  double day_gb = 0.0;
  double peak_hour_gb = 0.0;  // over the Table 2 window
  std::vector<double> daily_gb;

  [[nodiscard]] int firings() const {
    return turbo ? turbo->stats().runs : reserved->stats().runs;
  }
  [[nodiscard]] int switches() const {
    return turbo ? turbo->stats().channel_switches
                 : reserved->stats().channel_switches;
  }
  [[nodiscard]] const w11::flowsim::ScanStatsCache::Stats& cache() const {
    return turbo ? turbo->scan_stats_cache().stats()
                 : reserved->scan_stats_cache().stats();
  }
};

// Mean and (population) sigma of the first `n` days, as the Tbl. 2 bench
// computes them.
w11::RunningStats first_days(const std::vector<double>& daily_gb, std::size_t n) {
  w11::RunningStats rs;
  for (std::size_t i = 0; i < n; ++i) rs.add(daily_gb[i]);
  return rs;
}

std::unique_ptr<System> make_system(Deployment dep, Algorithm algo,
                                    std::uint64_t seed,
                                    w11::exec::TaskPool& lane_pool,
                                    SpanRecorder* rec) {
  auto s = std::make_unique<System>();
  s->label = dep == Deployment::kUNet
                 ? (algo == Algorithm::kTurboCA ? "UNet/TurboCA" : "UNet/ReservedCA")
                 : (algo == Algorithm::kTurboCA ? "MNet/TurboCA" : "MNet/ReservedCA");
  s->net = w11::bench::make_deployment(dep);
  s->churn_rng = w11::Rng(seed + 1);

  w11::flowsim::Network* net = s->net.get();
  System* sys = s.get();
  w11::turboca::NetworkHooks hooks;
  hooks.scan = [net, sys, rec] {
    Scoped span(rec, "flowsim.scan");
    ++sys->scan_calls;
    return net->scan();
  };
  hooks.current_plan = [net] { return net->current_plan(); };
  hooks.apply_plan = [net, rec](const w11::ChannelPlan& p) {
    Scoped span(rec, "flowsim.apply");
    net->apply_plan(p);
  };
  if (algo == Algorithm::kTurboCA) {
    s->turbo = std::make_unique<w11::turboca::TurboCaService>(
        w11::turboca::Params{}, w11::turboca::TurboCaService::Schedule{},
        hooks, w11::Rng(seed));
    s->turbo->engine().set_pool(&lane_pool);
  } else {
    s->reserved = std::make_unique<w11::turboca::ReservedCaService>(
        w11::turboca::ReservedCaService::Config{}, w11::turboca::Params{},
        hooks, w11::Rng(seed));
  }
  return s;
}

std::vector<std::unique_ptr<System>> make_systems(std::uint64_t seed,
                                                  w11::exec::TaskPool& pool,
                                                  SpanRecorder* rec) {
  std::vector<std::unique_ptr<System>> out;
  for (const Deployment d : {Deployment::kUNet, Deployment::kMNet})
    for (const Algorithm a : {Algorithm::kReservedCA, Algorithm::kTurboCA})
      out.push_back(make_system(d, a, seed, pool, rec));
  return out;
}

void mix_plan(Fnv& h, const w11::ChannelPlan& plan) {
  for (const auto& [id, ch] : plan) {
    h.mix(id.value());
    h.mix(static_cast<std::int32_t>(ch.number));
    h.mix(static_cast<std::uint8_t>(ch.width));
  }
}

// Census witness: what the planners would see right after construction.
std::uint64_t census_digest(const std::vector<std::unique_ptr<System>>& systems) {
  Fnv h;
  for (const auto& s : systems) {
    for (const w11::ApScan& scan : s->net->scan()) {
      h.mix(scan.id.value());
      h.mix(scan.utilization_current);
      h.mix(scan.neighbors.size());
    }
    mix_plan(h, s->net->current_plan());
  }
  return h.value();
}

void step_once(System& s, int day, int step, SpanRecorder* rec, Ledger& ledger) {
  const double hour = step * 0.25;
  const w11::Time now =
      w11::time::hours(24 * day) + w11::time::minutes(15 * step);
  {
    Scoped span(rec, "flowsim.mutate");
    s.net->set_load_factor(w11::workload::diurnal_factor(hour));
    if (step % 8 == 0) s.net->mutate_interferers(s.churn_rng);
    if (step == 44) {
      for (const auto& ap : s.net->aps()) {
        if (ap.channel.is_dfs()) {
          s.net->radar_event(ap.id);
          break;
        }
      }
    }
  }
  {
    Scoped span(rec, "turboca.fire");
    if (s.turbo) s.turbo->advance_to(now);
    if (s.reserved) s.reserved->advance_to(now);
  }
  w11::flowsim::Evaluation ev;
  {
    Scoped span(rec, "flowsim.evaluate");
    ev = s.net->evaluate();
    ++s.evaluate_calls;
  }
  ledger.check(std::isfinite(ev.total_throughput_mbps) &&
                   ev.total_throughput_mbps > 0.0 &&
                   ev.total_throughput_mbps <= ev.total_offered_mbps * (1 + 1e-9),
               "evaluate(): throughput finite, positive and within offered load");
  s.day_gb += ev.total_throughput_mbps * 900.0 / 8e3;  // Mbps·15 min -> GB

  const bool business = hour >= 9.0 && hour < 18.0;
  if (business && step % 4 == 0) {
    if (day < kTableDays)
      s.peak_hour_gb =
          std::max(s.peak_hour_gb, ev.total_throughput_mbps * 3600.0 / 8e3);
    Scoped span(rec, "flowsim.sample");
    (void)s.net->sample_tcp_latency(ev, 4);
    (void)s.net->sample_bitrate_efficiency(ev);
  }
}

}  // namespace

WorkloadResult run_planning_day(const RunConfig& cfg, Ledger& ledger,
                                std::ostream& log) {
  SpanRecorder* rec = cfg.spans;
  const std::uint64_t seed = 97 + 7919 * cfg.seed;
  w11::exec::TaskPool lane_pool(1);  // TurboCA's engine: one lane
  WitnessLog witness(ledger);

  // Set-up: build the four deployments and their channel services. The
  // build repeats at the start and again at every day boundary (the extra
  // copies are checked and dropped), so set-up is sampled across the whole
  // run; its fastest repeat is reported.
  w11::Samples setup_s;
  const auto timed_build = [&] {
    const std::int64_t t0 = now_ns();
    std::vector<std::unique_ptr<System>> built = make_systems(seed, lane_pool, rec);
    setup_s.add(static_cast<double>(now_ns() - t0) / 1e9);
    witness.observe("planning_day.census", census_digest(built));
    return built;
  };
  std::vector<std::unique_ptr<System>> systems;
  for (int rep = 0; rep < kSetupReps; ++rep) systems = timed_build();

  // Measured phase: whole days, all four systems per 15-minute step, until
  // the time budget is spent (and never before the Table 2 window closes).
  // Day 0 is the warm-up (first sightings, cold caches). Each step of the
  // day recurs once per later day; the rate uses each step's fastest repeat:
  // on a shared host, speed can swing by tens of percent for seconds at a
  // time, and the fastest repeat is the one least slowed by other tenants.
  w11::Samples step_ms;  // every timed step
  w11::Samples slot_ms[kStepsPerDay];
  std::uint64_t table_plan_digest = 0;
  double peak_rss = 0.0;  // VmHWM at the end of the Table 2 window
  struct Counts {
    std::uint64_t scan_calls = 0, evaluate_calls = 0, firings = 0,
                  plans_applied = 0, switches = 0, hits = 0, misses = 0;
  } table;
  const std::int64_t run0 = now_ns();
  int days = 0;
  for (;; ++days) {
    if (days >= kTableDays &&
        static_cast<double>(now_ns() - run0) / 1e9 >= cfg.seconds)
      break;
    for (int step = 0; step < kStepsPerDay; ++step) {
      const std::int64_t t0 = now_ns();
      {
        Scoped span(rec, "planning.step");
        for (auto& s : systems) step_once(*s, days, step, rec, ledger);
      }
      const std::int64_t t1 = now_ns();
      if (days >= 1) {
        step_ms.add(static_cast<double>(t1 - t0) / 1e6);
        slot_ms[step].add(static_cast<double>(t1 - t0) / 1e6);
      }
    }
    for (auto& s : systems) {
      s->daily_gb.push_back(s->day_gb);
      s->day_gb = 0.0;
    }
    if (days == kTableDays - 1) {
      peak_rss = peak_rss_mib();
      Fnv h;
      for (const auto& s : systems) {
        mix_plan(h, s->net->current_plan());
        table.scan_calls += s->scan_calls;
        table.evaluate_calls += s->evaluate_calls;
        table.firings += static_cast<std::uint64_t>(s->firings());
        table.plans_applied += static_cast<std::uint64_t>(
            s->turbo ? s->turbo->stats().plans_applied : s->reserved->stats().runs);
        table.switches += static_cast<std::uint64_t>(s->switches());
        table.hits += s->cache().hits;
        table.misses += s->cache().misses;
      }
      table_plan_digest = h.value();
    }
    for (int rep = 0; rep < kSetupPerDay; ++rep) (void)timed_build();
  }
  const double run_s = static_cast<double>(now_ns() - run0) / 1e9;

  // --- Table 2 shape checks over the first three days ----------------------
  const System& u_rca = *systems[0];
  const System& u_tca = *systems[1];
  const System& m_rca = *systems[2];
  const System& m_tca = *systems[3];
  const std::size_t n = kTableDays;
  const double unet_ratio =
      first_days(u_tca.daily_gb, n).mean() / first_days(u_rca.daily_gb, n).mean();
  const double mnet_peak_gain =
      100.0 * (m_tca.peak_hour_gb - m_rca.peak_hour_gb) / m_rca.peak_hour_gb;
  ledger.check(unet_ratio > 0.90 && unet_ratio < 1.10,
               "Tbl. 2: UNet daily usage unchanged by TurboCA (|delta| < 10%)");
  ledger.check(mnet_peak_gain > 10.0,
               "Tbl. 2: MNet peak-hour usage improves by tens of percent");
  const w11::RunningStats u_days = first_days(u_tca.daily_gb, n);
  const w11::RunningStats m_days = first_days(m_tca.daily_gb, n);
  ledger.check(u_days.stddev() < 0.15 * u_days.mean() &&
                   m_days.stddev() < 0.15 * m_days.mean(),
               "Tbl. 2: sigma_daily small relative to daily usage");

  log << std::setprecision(6);
  log << "planning_day: " << systems.size() << " systems, " << days
      << " days x " << kStepsPerDay << " steps in " << run_s << " s\n";
  for (const auto& s : systems)
    log << "  " << std::left << std::setw(16) << s->label << std::right
        << " daily GB (first 3 days) " << first_days(s->daily_gb, n).mean()
        << "  sigma " << first_days(s->daily_gb, n).stddev() << "  peak hour GB " << s->peak_hour_gb
        << "  firings " << s->firings() << "\n";
  log << "  witness: plan_digest=" << hex64(table_plan_digest)
      << " (day " << kTableDays << ")  mnet_peak_gain_pct=" << std::setprecision(17)
      << mnet_peak_gain << "  unet_daily_ratio=" << unet_ratio
      << std::setprecision(6) << "\n";
  double day_s = 0.0;     // a day built from each step's fastest repeat
  w11::Samples fastest_ms;  // each step of the day's fastest repeat
  for (const w11::Samples& repeats : slot_ms) {
    day_s += repeats.min() / 1e3;
    fastest_ms.add(repeats.min());
  }
  const double steps_per_s = kStepsPerDay / day_s;
  log << "  steps_per_s=" << steps_per_s << " 1/s, step_ms_p50=" << fastest_ms.median()
      << " ms (over the " << kStepsPerDay << " steps' fastest of " << days - 1
      << " timed days)\n";
  print_timing(log, "step_ms (every timed step)", step_ms);
  log << "  setup_s: fastest of " << setup_s.count() << " builds across the run (median "
      << setup_s.median() << " s)\n";

  WorkloadResult res;
  res.end_to_end["setup_s"] = setup_s.min();
  res.end_to_end["peak_rss_mib"] = peak_rss;
  res.end_to_end["work_per_s"] = steps_per_s;
  res.end_to_end["op_ms"] = fastest_ms.median();

  if (rec != nullptr) {
    const std::vector<LayerTime> layers = rec->layer_times();
    const auto per_day = [&](const char* name) {
      return static_cast<double>(find_layer(layers, name).self_ns) / 1e6 / days;
    };
    const double step_total =
        static_cast<double>(find_layer(layers, "planning.step").total_ns);
    const auto share = [&](const char* name) {
      return static_cast<double>(find_layer(layers, name).self_ns) / step_total;
    };
    MetricValues& m = res.per_layer;
    m["flowsim.scan_ms"] = per_day("flowsim.scan");
    m["flowsim.evaluate_ms"] = per_day("flowsim.evaluate");
    m["flowsim.sample_ms"] = per_day("flowsim.sample");
    m["flowsim.mutate_ms"] = per_day("flowsim.mutate");
    m["flowsim.apply_ms"] = per_day("flowsim.apply");
    m["turboca.fire_self_ms"] = per_day("turboca.fire");
    m["flowsim.scan_share"] = share("flowsim.scan");
    m["flowsim.evaluate_share"] = share("flowsim.evaluate");
    m["flowsim.sample_share"] = share("flowsim.sample");
    m["flowsim.mutate_share"] = share("flowsim.mutate");
    m["flowsim.apply_share"] = share("flowsim.apply");
    m["turboca.fire_share"] = share("turboca.fire");
    m["planning.span_coverage"] = 1.0 - share("planning.step");
    m["flowsim.scan_calls"] = static_cast<double>(table.scan_calls);
    m["flowsim.evaluate_calls"] = static_cast<double>(table.evaluate_calls);
    m["turboca.firings"] = static_cast<double>(table.firings);
    m["turboca.plans_applied"] = static_cast<double>(table.plans_applied);
    m["turboca.channel_switches"] = static_cast<double>(table.switches);
    const std::uint64_t probes = table.hits + table.misses;
    m["turboca.stats_cache_probes"] = static_cast<double>(probes);
    m["turboca.stats_cache_hit_ratio"] =
        probes > 0 ? static_cast<double>(table.hits) / static_cast<double>(probes)
                   : 0.0;
    m["planning.step_ms_p99"] = step_ms.quantile(0.99);
    m["planning.steps"] = static_cast<double>(step_ms.count());
    log << "  stats cache: " << table.hits << " hits of " << probes
        << " probes (first " << kTableDays << " days)\n";
  }
  return res;
}

}  // namespace perfbench
