// Micro-benchmarks (google-benchmark): costs of the hot paths — event
// queue, MCS selection, NodeP evaluation, NBO scaling (indexed vs
// reference), FastACK datapath, LittleTable ingest/query — to back
// DESIGN.md's complexity claims. Results are also written to
// BENCH_planner.json (ops/sec + items processed) unless the caller passes
// its own --benchmark_out.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_main.hpp"
#include "core/fastack/agent.hpp"
#include "core/turboca/plan_context.hpp"
#include "core/turboca/plan_map.hpp"
#include "core/turboca/turboca.hpp"
#include "flowsim/network.hpp"
#include "flowsim/scan_index.hpp"
#include "oracle/reference_planner.hpp"
#include "phy/mcs.hpp"
#include "sim/simulator.hpp"
#include "telemetry/littletable.hpp"
#include "workload/topology.hpp"

namespace w11 {
namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    for (int i = 0; i < 1000; ++i)
      sim.schedule_at(time::micros(i), [] {});
    sim.run();
    benchmark::DoNotOptimize(sim.processed_events());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_McsSelect(benchmark::State& state) {
  double snr = 3.0;
  for (auto _ : state) {
    snr = snr > 40.0 ? 3.0 : snr + 0.37;
    benchmark::DoNotOptimize(mcs::select(snr, ChannelWidth::MHz80, 3));
  }
}
BENCHMARK(BM_McsSelect);

void BM_PacketErrorRate(benchmark::State& state) {
  double snr = 5.0;
  for (auto _ : state) {
    snr = snr > 35.0 ? 5.0 : snr + 0.13;
    benchmark::DoNotOptimize(mcs::packet_error_rate({7, 2}, snr, 1500));
  }
}
BENCHMARK(BM_PacketErrorRate);

std::vector<ApScan> campus_scans(int n_aps) {
  workload::CampusConfig cc;
  cc.n_aps = n_aps;
  cc.buildings = std::max(2, n_aps / 10);
  cc.seed = 5;
  auto net = workload::make_campus(cc);
  return net->scan();
}

// One scalar NodeP on the oracle's reference formula (linear neighbor
// lookup, catalog walk per sub-channel).
void BM_NodePEvaluation(benchmark::State& state) {
  const auto scans = campus_scans(40);
  const turboca::Params params;
  ChannelPlan plan;
  for (const auto& s : scans) plan[s.id] = s.current;
  std::size_t i = 0;
  for (auto _ : state) {
    const ApScan& s = scans[i++ % scans.size()];
    benchmark::DoNotOptimize(
        oracle::node_p_log(params, s, s.current, scans, plan, {}));
  }
}
BENCHMARK(BM_NodePEvaluation);

// One NBO sweep on the production (ScanIndex + PlanContext) path. The index
// is built once per scan epoch, as the services do.
void BM_NboSweep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const turboca::Params params;
  const std::vector<ApScan> scans = campus_scans(n);
  const flowsim::ScanIndex index(scans, params.neighbor_rssi_floor);
  turboca::TurboCA tca(params, Rng(2));
  const std::vector<Channel> plan = turboca::dense_plan(index, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(tca.nbo(index, plan, 0));
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_NboSweep)->Arg(40)->Arg(200)->Arg(600)->Complexity();

// The same sweep on the oracle's reference evaluator — the before/after
// pair behind the speedup claim in DESIGN.md §9.
void BM_NboSweepReference(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto scans = campus_scans(n);
  oracle::ReferenceEvaluator ref({}, Rng(2));
  ChannelPlan plan;
  for (const auto& s : scans) plan[s.id] = s.current;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ref.nbo(scans, plan, 0));
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_NboSweepReference)->Arg(40)->Arg(200)->Arg(600)->Complexity();

// The batched kernel's own-term pass (DESIGN.md §14): all candidates of
// one AP scored in one walk over their memoised terms. Counters report the
// per-candidate cost and throughput the tentpole claims.
void BM_ScoreCandidates(benchmark::State& state) {
  const turboca::Params params;
  const std::vector<ApScan> scans = campus_scans(200);
  const flowsim::ScanIndex index(scans, params.neighbor_rssi_floor);
  const turboca::PlanContext ctx(index, params,
                                 turboca::dense_plan(index, {}));
  std::vector<double> out;
  std::size_t i = 0;
  std::int64_t cands_scored = 0;
  for (auto _ : state) {
    const std::size_t target = i++ % index.size();
    out.resize(index.candidates(target).size());
    ctx.score_candidates(target, out);
    benchmark::DoNotOptimize(out.data());
    cands_scored += static_cast<std::int64_t>(out.size());
  }
  state.SetItemsProcessed(cands_scored);
  state.counters["candidates_per_sec"] = benchmark::Counter(
      static_cast<double>(cands_scored), benchmark::Counter::kIsRate);
  state.counters["ns_per_candidate"] = benchmark::Counter(
      static_cast<double>(cands_scored) * 1e-9,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ScoreCandidates);

// One full batched NodeP evaluation of a move: own term for every candidate
// plus every affected neighbor's term under each trial — exactly what one
// ACC pick pays, minus the argmax. The before/after partner of
// BM_NodePEvaluation (one scalar node_p_log call per iteration there).
void BM_NodePBatch(benchmark::State& state) {
  const turboca::Params params;
  const std::vector<ApScan> scans = campus_scans(200);
  const flowsim::ScanIndex index(scans, params.neighbor_rssi_floor);
  const turboca::PlanContext ctx(index, params,
                                 turboca::dense_plan(index, {}));
  std::vector<double> out;
  std::size_t i = 0;
  std::int64_t terms_scored = 0;  // (candidate, AP-term) evaluations
  for (auto _ : state) {
    const std::size_t target = i++ % index.size();
    out.resize(index.candidates(target).size());
    ctx.acc_scores(target, out);
    const std::int64_t aps =
        1 + static_cast<std::int64_t>(index.neighbors(target).size());
    benchmark::DoNotOptimize(out.data());
    terms_scored += aps * static_cast<std::int64_t>(out.size());
  }
  state.SetItemsProcessed(terms_scored);
  state.counters["node_p_per_sec"] = benchmark::Counter(
      static_cast<double>(terms_scored), benchmark::Counter::kIsRate);
  state.counters["ns_per_node_p"] = benchmark::Counter(
      static_cast<double>(terms_scored) * 1e-9,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_NodePBatch);

// Steady-state ACC cost against a warm PlanContext: candidate trial moves
// evaluated incrementally (mover + overlap-affected neighbors only).
void BM_AccIncremental(benchmark::State& state) {
  const turboca::Params params;
  const std::vector<ApScan> scans = campus_scans(200);
  const flowsim::ScanIndex index(scans, params.neighbor_rssi_floor);
  turboca::TurboCA tca(params, Rng(3));
  turboca::PlanContext ctx(index, params, turboca::dense_plan(index, {}));
  benchmark::DoNotOptimize(ctx.net_p_log());  // warm the term cache
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t target = i++ % index.size();
    const Channel best = tca.acc(ctx, target);
    benchmark::DoNotOptimize(best);
    ctx.set(target, best);
    benchmark::DoNotOptimize(ctx.net_p_log());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AccIncremental);

// Cost of flattening one scan epoch (amortized over every evaluation the
// planner stack makes against it).
void BM_ScanIndexBuild(benchmark::State& state) {
  const auto scans = campus_scans(static_cast<int>(state.range(0)));
  const turboca::Params params;
  for (auto _ : state) {
    const flowsim::ScanIndex index(scans, params.neighbor_rssi_floor);
    benchmark::DoNotOptimize(index.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ScanIndexBuild)->Arg(200);

// Fleet-cadence index rebuild with the service-style ScanStatsCache: every
// firing after the first finds all APs' spectrum content unchanged, so the
// aggregate fill is pure row copies. stats_hit_rate proves the cache is
// actually serving (1.0 = every AP row after warmup came from the cache).
void BM_ScanIndexBuildCached(benchmark::State& state) {
  const auto scans = campus_scans(static_cast<int>(state.range(0)));
  const turboca::Params params;
  flowsim::ScanStatsCache cache;
  {  // warm firing, as a long-lived service's first run
    const flowsim::ScanIndex warm(scans, params.neighbor_rssi_floor, nullptr,
                                  &cache);
    benchmark::DoNotOptimize(warm.size());
  }
  const std::uint64_t warm_misses = cache.stats().misses;
  for (auto _ : state) {
    const flowsim::ScanIndex index(scans, params.neighbor_rssi_floor, nullptr,
                                   &cache);
    benchmark::DoNotOptimize(index.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  const flowsim::ScanStatsCache::Stats& cs = cache.stats();
  state.counters["stats_hits"] =
      benchmark::Counter(static_cast<double>(cs.hits));
  state.counters["stats_misses"] =
      benchmark::Counter(static_cast<double>(cs.misses));
  state.counters["stats_hit_rate"] =
      cs.hits + (cs.misses - warm_misses)
          ? static_cast<double>(cs.hits) /
                static_cast<double>(cs.hits + cs.misses - warm_misses)
          : 0.0;
}
BENCHMARK(BM_ScanIndexBuildCached)->Arg(200);

// Network memoises its evaluation until the next mutation, so each
// iteration first moves the load factor (alternating between two values):
// every evaluate() below is a full solve, never a memo hit.
void BM_FlowsimEvaluate(benchmark::State& state) {
  workload::CampusConfig cc;
  cc.n_aps = static_cast<int>(state.range(0));
  cc.seed = 7;
  auto net = workload::make_campus(cc);
  bool high = false;
  for (auto _ : state) {
    high = !high;
    net->set_load_factor(high ? 1.0 : 0.9);
    benchmark::DoNotOptimize(net->evaluate().total_throughput_mbps);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FlowsimEvaluate)->Arg(25)->Arg(50)->Arg(100)->Complexity();

// FastACK datapath: case-(iii) data + 802.11 ack + suppressed client ack —
// the steady-state per-segment cost.
void BM_FastAckDatapath(benchmark::State& state) {
  Simulator sim;
  mac::Medium medium(sim, {}, Rng(1));
  AccessPoint::Config acfg;
  acfg.id = ApId{0};
  AccessPoint ap(sim, medium, acfg, Rng(2));
  ClientStation::Config ccfg;
  ccfg.id = StationId{1};
  ccfg.pos = Position{5, 0};
  ClientStation client(sim, medium, ccfg, Rng(3));
  ap.associate(&client);
  fastack::FastAckAgent agent(sim, ap, {});
  ap.set_interceptor(&agent);
  ap.set_wire_out([](TcpSegment) {});

  std::uint64_t seq = 0;
  for (auto _ : state) {
    TcpSegment seg;
    seg.flow = FlowId{1};
    seg.dst_station = StationId{1};
    seg.seq = seq;
    seg.payload = 1460;
    benchmark::DoNotOptimize(agent.on_downlink_data(seg));
    agent.on_80211_delivered(seg);
    TcpSegment ack;
    ack.flow = FlowId{1};
    ack.is_ack = true;
    ack.ack = seq + 1460;
    ack.rwnd = 1 << 20;
    benchmark::DoNotOptimize(agent.on_uplink_ack(ack));
    seq += 1460;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FastAckDatapath);

void BM_LittleTableInsert(benchmark::State& state) {
  telemetry::LittleTable t("bench", {"a", "b", "c"});
  std::int64_t i = 0;
  for (auto _ : state) {
    t.insert(static_cast<std::uint32_t>(i % 64), time::seconds(i), {1.0, 2.0, 3.0});
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LittleTableInsert);

// Batched ingestion: one reserve + bulk append per polling interval versus
// a per-row insert loop (the before/after pair for the collector path).
void BM_LittleTableBatchAppend(benchmark::State& state) {
  const std::size_t batch_size = static_cast<std::size_t>(state.range(0));
  telemetry::LittleTable t("bench", {"a", "b", "c"});
  std::int64_t tick = 0;
  for (auto _ : state) {
    std::vector<telemetry::LittleTable::Row> batch;
    batch.reserve(batch_size);
    for (std::size_t i = 0; i < batch_size; ++i)
      batch.push_back(telemetry::LittleTable::Row{
          static_cast<std::uint32_t>(i), time::seconds(tick), {1.0, 2.0, 3.0}});
    t.append(std::move(batch));
    ++tick;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch_size));
}
BENCHMARK(BM_LittleTableBatchAppend)->Arg(64)->Arg(600);

void BM_LittleTableAggregate(benchmark::State& state) {
  telemetry::LittleTable t("bench", {"a"});
  for (std::int64_t i = 0; i < 100'000; ++i)
    t.insert(static_cast<std::uint32_t>(i % 64), time::seconds(i), {1.0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.aggregate("a", telemetry::LittleTable::Agg::kMean,
                                         Time{0}, time::seconds(100'000),
                                         time::hours(1)));
  }
}
BENCHMARK(BM_LittleTableAggregate);

}  // namespace
}  // namespace w11

// Shared benchmark main with a default JSON report so the planner speedup
// numbers land on disk on every plain run.
int main(int argc, char** argv) {
  return w11::bench::run_benchmark_main(argc, argv, "BENCH_planner.json");
}
