// Ablations for the design decisions DESIGN.md calls out (D1-D6).
//
// D1  NodeP product vs sum aggregation (single-node-failure avoidance)
// D2  hop-limit schedule: i=0-only vs full 0/1/2 cadence
// D3  load-weighted AP pick in NBO line 8 vs uniform
// D4  FastACK contiguity queue vs naive per-MPDU acking
// D5  receive-window rewriting on vs off
// D6  client TCP ACK suppression on vs off
// D7  A-MSDU bundling on top of A-MPDU (§5.1's second aggregation type)

#include <cmath>
#include <iostream>
#include <type_traits>
#include <utility>

#include "bench_util.hpp"
#include "core/turboca/plan_context.hpp"
#include "core/turboca/plan_map.hpp"
#include "core/turboca/service.hpp"
#include "exec/task_pool.hpp"
#include "flowsim/scan_index.hpp"
#include "scenario/testbed.hpp"
#include "workload/topology.hpp"

using namespace w11;

namespace {

// Each ablation contrasts two independent simulations (own campus, own
// RNGs); run the pair as two pool tasks. parallel_map returns in index
// order, so the printed tables and shape checks are identical at any
// worker count.
template <class F>
auto run_pair(F&& f) {
  using T = std::invoke_result_t<F&, bool>;
  auto r = exec::TaskPool::global().parallel_map<T>(
      2, [&](std::size_t i) { return f(i == 0); });
  return std::pair<T, T>{std::move(r[0]), std::move(r[1])};
}

// ---------------------------------------------------------------- D1 ----
void d1_product_vs_sum() {
  std::cout << "\n[D1] NetP product (log-sum) vs plain sum aggregation\n";
  // Three APs: plan X starves AP c completely but over-serves a & b; plan Y
  // is balanced. A sum metric prefers X; the product (the paper's choice)
  // must prefer Y because one starved NodeP collapses the whole product.
  const turboca::Params params;
  auto scan_with_util = [&](std::uint32_t id, double util36, double util149) {
    ApScan s;
    s.id = ApId{id};
    s.current = Channel{Band::G5, 36, ChannelWidth::MHz20};
    s.max_width = ChannelWidth::MHz20;
    s.has_clients = true;
    s.load_by_width[ChannelWidth::MHz20] = 2.0;
    s.external_util[36] = util36;
    s.external_util[149] = util149;
    for (const Channel& c : channels::us_catalog(Band::G5, ChannelWidth::MHz20)) {
      s.quality[c.number] = 1.0;
      if (c.number != 36 && c.number != 149) s.external_util[c.number] = 1.0;
    }
    return s;
  };
  // AP2 hears channel 36 saturated; 149 clean. AP0/AP1 see both mild.
  std::vector<ApScan> scans{scan_with_util(0, 0.1, 0.3),
                            scan_with_util(1, 0.1, 0.3),
                            scan_with_util(2, 0.999, 0.0)};
  const Channel c36{Band::G5, 36, ChannelWidth::MHz20};
  const Channel c149{Band::G5, 149, ChannelWidth::MHz20};
  const ChannelPlan starving{{ApId{0}, c36}, {ApId{1}, c36}, {ApId{2}, c36}};
  const ChannelPlan balanced{{ApId{0}, c36}, {ApId{1}, c36}, {ApId{2}, c149}};

  // One ScanIndex for the whole ablation; both metrics evaluate against it.
  const flowsim::ScanIndex index(scans, params.neighbor_rssi_floor);
  auto netp_log = [&](const ChannelPlan& p) {
    turboca::PlanContext ctx(index, params, turboca::dense_plan(index, p));
    return ctx.net_p_log();
  };
  auto netp_sum = [&](const ChannelPlan& p) {
    turboca::PlanContext ctx(index, params, turboca::dense_plan(index, p));
    double sum = 0.0;
    for (std::size_t i = 0; i < index.size(); ++i)
      sum += std::exp(ctx.node_p_log(i, p.at(index.scan(i).id)) / 2.0);
    return sum;  // linearized
  };
  std::cout << "  product(log): starving=" << netp_log(starving)
            << " balanced=" << netp_log(balanced) << "\n";
  std::cout << "  sum:          starving=" << netp_sum(starving)
            << " balanced=" << netp_sum(balanced) << "\n";
  bench::shape_check("D1: product metric rejects the starving plan",
                     netp_log(balanced) > netp_log(starving));
}

// ---------------------------------------------------------------- D2/D3 --
turboca::NetworkHooks hooks_for(flowsim::Network& net) {
  turboca::NetworkHooks h;
  h.scan = [&net] { return net.scan(); };
  h.current_plan = [&net] { return net.current_plan(); };
  h.apply_plan = [&net](const ChannelPlan& p) { net.apply_plan(p); };
  return h;
}

void d2_hop_schedule() {
  std::cout << "\n[D2] i=0-only vs full i=2,1,0 schedule (local-optimum escape)\n";
  auto final_netp = [&](std::vector<int> levels) {
    workload::CampusConfig cc;
    cc.n_aps = 50;
    cc.buildings = 5;
    cc.seed = 83;
    auto net = workload::make_campus(cc);
    turboca::TurboCaService svc({}, {}, hooks_for(*net), Rng(7));
    svc.run_now(levels);
    return svc.stats().last_netp_log;
  };
  const auto [only0, full] = run_pair([&](bool first) {
    return final_netp(first ? std::vector<int>{0} : std::vector<int>{2, 1, 0});
  });
  std::cout << "  NetP(log): i=0 only = " << only0 << ", full schedule = " << full
            << "\n";
  bench::shape_check("D2: deeper hop limits find plans at least as good",
                     full >= only0 - 1e-6);
}

void d3_load_weighted_pick() {
  std::cout << "\n[D3] load-weighted vs uniform AP pick in NBO\n";
  auto heavy_ap_share = [&](bool weighted) {
    workload::CampusConfig cc;
    cc.n_aps = 40;
    cc.buildings = 4;
    cc.seed = 89;
    auto net = workload::make_campus(cc);
    // Make a handful of APs far heavier than the rest.
    for (std::size_t i = 0; i < 5; ++i)
      net->set_client_load(net->aps()[i * 7].id, 8.0);
    turboca::Params p;
    p.load_weighted_pick = weighted;
    turboca::TurboCaService svc(p, {}, hooks_for(*net), Rng(11));
    svc.run_now({1, 0});
    const auto ev = net->evaluate();
    double share = 0.0;
    for (std::size_t i = 0; i < 5; ++i) {
      const auto& m = ev.of(net->aps()[i * 7].id);
      share += m.demand_airtime > 0
                   ? std::min(1.0, m.airtime_share / m.demand_airtime)
                   : 1.0;
    }
    return share / 5.0;  // mean demand fulfilment of the heavy APs
  };
  const auto [weighted, uniform] =
      run_pair([&](bool first) { return heavy_ap_share(first); });
  std::cout << "  heavy-AP demand fulfilment: weighted=" << weighted
            << " uniform=" << uniform << "\n";
  bench::shape_check("D3: load weighting serves heavy APs at least as well",
                     weighted >= uniform - 0.02);
}

// ---------------------------------------------------------------- D4-D6 --
struct FaOutcome {
  double throughput = 0.0;
  std::uint64_t local_retx = 0;
  std::uint64_t rwnd_overflows = 0;
  std::uint64_t sender_rtos = 0;
};

FaOutcome run_fastack(fastack::FastAckAgent::Config agent, double bad_hints,
                      std::size_t receiver_buffer_kb = 1024,
                      int n_clients = 10) {
  scenario::TestbedConfig cfg;
  cfg.n_clients_per_ap = n_clients;
  cfg.duration = time::seconds(5);
  cfg.fastack = {true};
  cfg.agent = agent;
  cfg.bad_hint_rate = bad_hints;
  cfg.receiver.buffer = units::kilobytes(static_cast<std::int64_t>(receiver_buffer_kb));
  cfg.seed = 97;
  scenario::Testbed tb(cfg);
  tb.run();
  FaOutcome out;
  out.throughput = tb.aggregate_throughput_mbps();
  out.local_retx = tb.agent(0)->stats().local_retransmits;
  for (int c = 0; c < n_clients; ++c) {
    const auto* rx = tb.client(0, c).receiver(FlowId{static_cast<std::uint32_t>(c)});
    if (rx) out.rwnd_overflows += rx->stats().window_overflow_drops;
    out.sender_rtos += tb.sender(0, c).stats().rto_events;
  }
  return out;
}

void d4_contiguity() {
  std::cout << "\n[D4] contiguity queue vs naive per-MPDU fast-acking (1.5% bad hints)\n";
  fastack::FastAckAgent::Config naive;
  naive.require_contiguity = false;
  const auto [ctg, nv] = run_pair([&](bool first) {
    return run_fastack(first ? fastack::FastAckAgent::Config{} : naive, 0.015);
  });
  std::cout << "  contiguous: thr=" << ctg.throughput << " Mbps, local retx="
            << ctg.local_retx << ", sender RTOs=" << ctg.sender_rtos << "\n";
  std::cout << "  naive:      thr=" << nv.throughput << " Mbps, local retx="
            << nv.local_retx << ", sender RTOs=" << nv.sender_rtos << "\n";
  bench::shape_check("D4: contiguity keeps throughput at least as high",
                     ctg.throughput >= nv.throughput * 0.95);
}

void d5_rwnd_rewrite() {
  // Overflow needs (a) a hole at the client (a bad 802.11 hint) so data
  // accumulates out-of-order, and (b) a fast flow against a small buffer.
  std::cout << "\n[D5] rwnd rewriting on vs off (128 kB client buffers, 5% bad hints, 2 fast flows)\n";
  fastack::FastAckAgent::Config no_rewrite;
  no_rewrite.rewrite_rwnd = false;
  const auto [on, off] = run_pair([&](bool first) {
    return run_fastack(first ? fastack::FastAckAgent::Config{} : no_rewrite,
                       0.05, 128, 2);
  });
  std::cout << "  rewrite on:  thr=" << on.throughput
            << " Mbps, receiver overflow drops=" << on.rwnd_overflows << "\n";
  std::cout << "  rewrite off: thr=" << off.throughput
            << " Mbps, receiver overflow drops=" << off.rwnd_overflows << "\n";
  bench::shape_check("D5: disabling rwnd rewriting causes receiver overflow",
                     off.rwnd_overflows > on.rwnd_overflows);
}

void d6_suppression() {
  std::cout << "\n[D6] client TCP ACK suppression on vs off\n";
  fastack::FastAckAgent::Config no_suppress;
  no_suppress.suppress_client_acks = false;
  const auto [on, off] = run_pair([&](bool first) {
    return run_fastack(first ? fastack::FastAckAgent::Config{} : no_suppress,
                       0.0);
  });
  std::cout << "  suppression on:  thr=" << on.throughput << " Mbps\n";
  std::cout << "  suppression off: thr=" << off.throughput
            << " Mbps (duplicate cumulative ACKs reach the sender)\n";
  bench::shape_check("D6: both configurations remain functional",
                     on.throughput > 50.0 && off.throughput > 50.0);
  bench::shape_check("D6: suppression does not hurt throughput",
                     on.throughput >= off.throughput * 0.9);
}

void d7_amsdu() {
  std::cout << "\n[D7] A-MSDU bundling (4 MSDUs/MPDU) on top of A-MPDU, FastACK on\n";
  auto thr = [](int k) {
    scenario::TestbedConfig cfg;
    cfg.n_clients_per_ap = 8;
    cfg.duration = time::seconds(5);
    cfg.fastack = {true};
    cfg.amsdu_max_msdus = k;
    cfg.client_max_dist_m = 15.0;  // high MCS: the 64-MPDU cap binds
    cfg.seed = 101;
    scenario::Testbed tb(cfg);
    tb.run();
    return tb.aggregate_throughput_mbps();
  };
  const auto [plain, bundled] =
      run_pair([&](bool first) { return thr(first ? 1 : 4); });
  std::cout << "  A-MPDU only:        " << plain << " Mbps\n";
  std::cout << "  A-MSDU x4 + A-MPDU: " << bundled << " Mbps\n";
  bench::shape_check("D7: A-MSDU bundling adds throughput when the MPDU cap binds",
                     bundled > plain * 1.05);
}

}  // namespace

int main() {
  print_banner("Ablations", "design decisions D1-D6 (DESIGN.md §5)");
  d1_product_vs_sum();
  d2_hop_schedule();
  d3_load_weighted_pick();
  d4_contiguity();
  d5_rwnd_rewrite();
  d6_suppression();
  d7_amsdu();
  return bench::finish();
}
