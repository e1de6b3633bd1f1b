// Flowsim engine benchmarks (google-benchmark): the event-engine overhaul's
// before/after pairs (DESIGN.md §11). Every hot structure the overhaul
// touched is measured against its preserved predecessor:
//
//   * event queue schedule/run, steady-state churn and cancellation — the
//     arena Simulator vs oracle::ReferenceSimulator (the pre-overhaul
//     priority_queue/shared_ptr engine, kept in the test-only oracle/)
//   * TcpReceiver out-of-order reassembly (flat interval vector)
//   * FastACK table ops (flat retx cache / pending-ack queue)
//   * an end-to-end FastACK testbed run
//
// Results are written to BENCH_flowsim.json unless the caller passes its
// own --benchmark_out. EXPERIMENTS.md records the measured numbers.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench_main.hpp"

#include "core/fastack/agent.hpp"
#include "net/tcp_receiver.hpp"
#include "oracle/reference_simulator.hpp"
#include "scenario/testbed.hpp"
#include "sim/simulator.hpp"

namespace w11 {
namespace {

// --- event queue: schedule + drain (BM_EventQueueScheduleRun successor) ----
// Same shape as the old micro-bench: 1000 one-shot events scheduled then
// drained, fresh simulator per iteration. `Sim` is Simulator or
// oracle::ReferenceSimulator throughout.

template <class Sim>
void schedule_run_1000(benchmark::State& state) {
  for (auto _ : state) {
    Sim sim;
    for (int i = 0; i < 1000; ++i)
      sim.schedule_at(time::micros(i), [] {});
    sim.run();
    benchmark::DoNotOptimize(sim.processed_events());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}

BENCHMARK(schedule_run_1000<Simulator>)->Name("BM_EventQueueScheduleRunArena");
BENCHMARK(schedule_run_1000<oracle::ReferenceSimulator>)
    ->Name("BM_EventQueueScheduleRunReference");

// --- event queue: steady-state timer churn ---------------------------------
// The simulator's real workload: a bounded population of self-rescheduling
// timers (MAC backoff, delayed ACKs, wire arrivals). Slot recycling and SBO
// callbacks make this allocation-free on the arena engine.

template <class Sim>
void steady_churn(benchmark::State& state) {
  const int kTimers = 64;
  Sim sim;
  std::uint64_t fired = 0;
  std::function<void()> tick = [&] {
    ++fired;
    sim.schedule_after(time::micros(1 + (fired % 7)), tick);
  };
  for (int i = 0; i < kTimers; ++i)
    sim.schedule_at(time::nanos(i), tick);
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) sim.step();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations() * 1000);
}

BENCHMARK(steady_churn<Simulator>)->Name("BM_EventQueueSteadyChurnArena");
BENCHMARK(steady_churn<oracle::ReferenceSimulator>)
    ->Name("BM_EventQueueSteadyChurnReference");

// --- event queue: cancellation-heavy (retired timers) ----------------------
// Timers are mostly cancelled, not fired (every ACK retires a retransmit
// timer). O(1) generation-checked cancel vs shared_ptr flag allocation.

template <class Sim>
void cancel_heavy(benchmark::State& state) {
  for (auto _ : state) {
    Sim sim;
    std::vector<decltype(sim.schedule_at(Time{}, [] {}))> handles;
    handles.reserve(1000);
    for (int i = 0; i < 1000; ++i)
      handles.push_back(sim.schedule_at(time::micros(i), [] {}));
    for (std::size_t i = 0; i < handles.size(); i += 2) handles[i].cancel();
    sim.run();
    benchmark::DoNotOptimize(sim.processed_events());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}

BENCHMARK(cancel_heavy<Simulator>)->Name("BM_EventQueueCancelHeavyArena");
BENCHMARK(cancel_heavy<oracle::ReferenceSimulator>)
    ->Name("BM_EventQueueCancelHeavyReference");

// --- TcpReceiver: out-of-order reassembly (flat interval vector) -----------
// Segments arrive pairwise swapped, so every second segment opens a hole
// and every other one closes it — constant insert/absorb pressure on ooo_.

void BM_TcpReceiverOutOfOrder(benchmark::State& state) {
  Simulator sim;
  std::uint64_t acks = 0;
  TcpReceiver rx(sim, FlowId{1}, {},
                 [&](TcpSegment) { ++acks; });
  std::uint64_t seq = 0;
  for (auto _ : state) {
    for (int i = 0; i < 100; ++i) {
      TcpSegment hi;
      hi.flow = FlowId{1};
      hi.seq = seq + 1460;
      hi.payload = 1460;
      rx.on_data(hi);  // hole: [seq, seq+1460) still missing
      TcpSegment lo;
      lo.flow = FlowId{1};
      lo.seq = seq;
      lo.payload = 1460;
      rx.on_data(lo);  // closes it
      seq += 2 * 1460;
    }
    sim.run();
  }
  benchmark::DoNotOptimize(acks);
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_TcpReceiverOutOfOrder);

// --- FastACK table ops (flat retx cache / q_seq / tcp_pending) -------------
// Steady-state per-segment agent cost with a deep cache: data in, 802.11
// delivery, client ACK lagging 64 segments behind so the retransmission
// cache holds 64 entries and eviction continuously pops the prefix.

void BM_FastAckTableOps(benchmark::State& state) {
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

  const std::uint64_t kLag = 64 * 1460;
  std::uint64_t seq = 0;
  for (auto _ : state) {
    TcpSegment seg;
    seg.flow = FlowId{1};
    seg.dst_station = StationId{1};
    seg.seq = seq;
    seg.payload = 1460;
    benchmark::DoNotOptimize(agent.on_downlink_data(seg));
    agent.on_80211_delivered(seg);
    if (seq >= kLag) {
      TcpSegment ack;
      ack.flow = FlowId{1};
      ack.is_ack = true;
      ack.ack = seq - kLag + 1460;
      ack.rwnd = 1 << 20;
      benchmark::DoNotOptimize(agent.on_uplink_ack(ack));
    }
    seq += 1460;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FastAckTableOps);

// --- end-to-end: FastACK testbed run ---------------------------------------
// A full contended-cell FastACK scenario. Items = events executed, so
// items/sec is end-to-end engine throughput.

void BM_TestbedFastAckArena(benchmark::State& state) {
  double thpt = 0.0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    scenario::TestbedConfig cfg;
    cfg.seed = 1;
    cfg.n_clients_per_ap = 8;
    cfg.fastack = {true};
    cfg.duration = time::seconds(2);
    cfg.warmup = time::millis(500);
    scenario::Testbed tb(cfg);
    tb.run();
    thpt = tb.aggregate_throughput_mbps();
    events += tb.simulator().processed_events();
    benchmark::DoNotOptimize(thpt);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["throughput_mbps"] = thpt;
}
BENCHMARK(BM_TestbedFastAckArena)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace w11

// Shared benchmark main with a default JSON report so the engine speedup
// numbers land on disk on every plain run.
int main(int argc, char** argv) {
  return w11::bench::run_benchmark_main(argc, argv, "BENCH_flowsim.json");
}
