// §4.3.1 "Performance vs. Stability": why TurboCA deliberately damps
// channel churn instead of chasing the instantaneous optimum.
//
// Three policies run the same churning day on the same campus:
//   * chase    — TurboCA with the switch penalty removed: every 15-minute
//                run is free to re-plan from scratch (the "continued
//                iterations to follow the optimal assignment" of §4.7);
//   * turboca  — the shipped configuration (penalty + schedule);
//   * static   — plan once at midnight, never again.
//
// Expected: `chase` wins on raw plan quality but racks up client
// disruption (non-CSA clients rescan ~5-8 s per switch); `static` never
// disrupts anyone but degrades as interference shifts; TurboCA lands near
// `chase` on performance at a fraction of the disruption — the paper's
// design argument.

#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "core/turboca/hopping.hpp"
#include "core/turboca/service.hpp"
#include "exec/task_pool.hpp"
#include "workload/topology.hpp"
#include "workload/traffic.hpp"

using namespace w11;

namespace {

struct Outcome {
  double mean_latency_ms = 0.0;
  double mean_fulfilment = 0.0;  // served / offered during business hours
  int switches = 0;
  double disruption_client_s = 0.0;
};

enum class Policy { kChase, kTurboCa, kStatic, kHopping };

Outcome run(Policy policy, std::uint64_t seed = 71) {
  workload::CampusConfig cc;
  cc.n_aps = 50;
  cc.buildings = 6;
  cc.seed = seed;
  cc.clients_per_ap_mean = 8.0;
  cc.offered_per_client_mbps = 3.0;
  cc.interferers_per_building = 5.0;
  auto net = workload::make_campus(cc);

  turboca::NetworkHooks hooks;
  hooks.scan = [&net] { return net->scan(); };
  hooks.current_plan = [&net] { return net->current_plan(); };
  hooks.apply_plan = [&net](const ChannelPlan& p) { net->apply_plan(p); };

  turboca::Params params;
  if (policy == Policy::kChase) {
    params.switch_penalty = 0.0;
    params.switch_penalty_24ghz = 0.0;
    params.switch_penalty_high_util = 0.0;
  }
  turboca::TurboCaService svc(params, {}, hooks, Rng(seed ^ 55));
  turboca::HoppingCaService hopper({}, hooks, Rng(seed ^ 56));
  net->set_load_factor(workload::diurnal_factor(0.0));  // midnight: idle
  if (policy == Policy::kHopping) {
    hopper.hop_now();
  } else {
    svc.run_now({2, 1, 0});  // everyone starts from a sane midnight plan
  }

  Outcome out;
  Rng churn(seed ^ 99);
  int samples = 0;
  int switches_at_8am = 0;
  double disruption_at_8am = 0.0;
  for (int step = 0; step < 96; ++step) {
    const double hour = step * 0.25;
    net->set_load_factor(workload::diurnal_factor(hour));
    if (step % 4 == 0) net->mutate_interferers(churn);  // hourly churn
    if (policy == Policy::kHopping) {
      hopper.advance_to(time::minutes(15 * step));
    } else if (policy != Policy::kStatic) {
      svc.advance_to(time::minutes(15 * step));
    }
    if (step == 32) {  // 8:00 — stability is measured while clients are on
      switches_at_8am = net->total_switches();
      disruption_at_8am = net->disruption_client_seconds();
    }

    if (hour >= 9.0 && hour < 18.0 && step % 4 == 0) {
      const auto ev = net->evaluate();
      auto lat = net->sample_tcp_latency(ev, 10, 0.0);
      out.mean_latency_ms += lat.mean();
      out.mean_fulfilment += ev.total_offered_mbps > 0
                                 ? ev.total_throughput_mbps / ev.total_offered_mbps
                                 : 1.0;
      ++samples;
    }
  }
  out.mean_latency_ms /= samples;
  out.mean_fulfilment /= samples;
  // Business-hours churn is what §4.3.1 cares about: overnight moves are
  // free (clients idle), so count from 8:00 on.
  out.switches = net->total_switches() - switches_at_8am;
  out.disruption_client_s = net->disruption_client_seconds() - disruption_at_8am;
  return out;
}

}  // namespace

int main() {
  print_banner("§4.3.1", "Performance vs stability: chase vs TurboCA vs static");

  // One policy per task: the four simulated days are independent (each
  // builds its own campus and RNGs), so they shard across the pool and the
  // results land in policy order regardless of completion order.
  exec::TaskPool& pool = exec::TaskPool::global();
  const std::vector<Policy> policies = {Policy::kChase, Policy::kTurboCa,
                                        Policy::kStatic, Policy::kHopping};
  const std::vector<Outcome> outcomes = pool.parallel_map<Outcome>(
      policies.size(), [&](std::size_t i) { return run(policies[i]); });
  const Outcome& chase = outcomes[0];
  const Outcome& turbo = outcomes[1];
  const Outcome& fixed = outcomes[2];
  const Outcome& hopping = outcomes[3];

  TablePrinter t({"policy", "mean latency (ms)", "demand fulfilment",
                  "channel switches", "client disruption (s)"});
  t.add_row("chase optimum", chase.mean_latency_ms, chase.mean_fulfilment,
            chase.switches, chase.disruption_client_s);
  t.add_row("TurboCA", turbo.mean_latency_ms, turbo.mean_fulfilment,
            turbo.switches, turbo.disruption_client_s);
  t.add_row("static plan", fixed.mean_latency_ms, fixed.mean_fulfilment,
            fixed.switches, fixed.disruption_client_s);
  t.add_row("channel hopping", hopping.mean_latency_ms, hopping.mean_fulfilment,
            hopping.switches, hopping.disruption_client_s);
  t.print();

  bench::paper_note("\"such optimality is transient... continued iterations sacrifice stability\" (§4.7); TurboCA balances the two");
  bench::shape_check("chasing the optimum churns materially more than TurboCA",
                     chase.switches > static_cast<int>(1.3 * turbo.switches));
  bench::shape_check("TurboCA's client disruption is materially lower than chasing",
                     turbo.disruption_client_s < 0.8 * chase.disruption_client_s);
  bench::shape_check("TurboCA's performance is within 15% of the chased optimum",
                     turbo.mean_latency_ms < 1.15 * chase.mean_latency_ms ||
                         turbo.mean_fulfilment > 0.85 * chase.mean_fulfilment);
  bench::shape_check("a static plan underperforms under churn",
                     fixed.mean_latency_ms > turbo.mean_latency_ms ||
                         fixed.mean_fulfilment < turbo.mean_fulfilment);
  // §4.2 category (iii): oblivious hopping churns every period and pays the
  // full disruption bill without measurement-driven gains.
  bench::shape_check("oblivious hopping disrupts clients far more than TurboCA",
                     hopping.disruption_client_s > 2.0 * turbo.disruption_client_s);
  bench::shape_check("TurboCA outperforms oblivious hopping",
                     turbo.mean_latency_ms < hopping.mean_latency_ms ||
                         turbo.mean_fulfilment > hopping.mean_fulfilment);
  bench::shape_check("a static plan disrupts least (only the midnight rollout)",
                     fixed.disruption_client_s <= turbo.disruption_client_s &&
                         fixed.switches <= turbo.switches);

  // Multi-seed stability: the §4.3.1 argument must hold across campuses,
  // not on one lucky seed. One campus/seed per task; per-task accumulators
  // merge in seed order (Chan et al.), so the aggregate is identical at any
  // worker count.
  const std::vector<std::uint64_t> seeds = {71, 101, 131, 161, 191, 221};
  struct SeedStats {
    RunningStats turbo_fulfilment, turbo_disruption;
    RunningStats chase_fulfilment, chase_disruption;
  };
  const std::vector<SeedStats> per_seed = pool.parallel_map<SeedStats>(
      seeds.size(), [&](std::size_t i) {
        SeedStats s;
        const Outcome tca = run(Policy::kTurboCa, seeds[i]);
        const Outcome c = run(Policy::kChase, seeds[i]);
        s.turbo_fulfilment.add(tca.mean_fulfilment);
        s.turbo_disruption.add(tca.disruption_client_s);
        s.chase_fulfilment.add(c.mean_fulfilment);
        s.chase_disruption.add(c.disruption_client_s);
        return s;
      });
  SeedStats agg;
  for (const SeedStats& s : per_seed) {
    agg.turbo_fulfilment.merge(s.turbo_fulfilment);
    agg.turbo_disruption.merge(s.turbo_disruption);
    agg.chase_fulfilment.merge(s.chase_fulfilment);
    agg.chase_disruption.merge(s.chase_disruption);
  }

  TablePrinter ms({"metric (6 seeds)", "TurboCA mean", "chase mean"});
  ms.add_row("demand fulfilment", agg.turbo_fulfilment.mean(),
             agg.chase_fulfilment.mean());
  ms.add_row("client disruption (s)", agg.turbo_disruption.mean(),
             agg.chase_disruption.mean());
  ms.print();

  bench::shape_check("across seeds, TurboCA disrupts less than chasing on average",
                     agg.turbo_disruption.mean() <
                         0.8 * agg.chase_disruption.mean());
  bench::shape_check("across seeds, TurboCA fulfilment stays within 15% of chase",
                     agg.turbo_fulfilment.mean() >
                         0.85 * agg.chase_fulfilment.mean());
  return bench::finish();
}
