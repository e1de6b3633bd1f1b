// Unit tests for the discrete-event engine.

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "oracle/reference_simulator.hpp"
#include "sim/simulator.hpp"
#include "sim_trace.hpp"

namespace w11 {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), Time{0});
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(time::millis(3), [&] { order.push_back(3); });
  sim.schedule_at(time::millis(1), [&] { order.push_back(1); });
  sim.schedule_at(time::millis(2), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), time::millis(3));
}

TEST(Simulator, SameTimeEventsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    sim.schedule_at(time::millis(1), [&order, i] { order.push_back(i); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  Time fired{};
  sim.schedule_at(time::millis(5), [&] {
    sim.schedule_after(time::millis(2), [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired, time::millis(7));
}

TEST(Simulator, SchedulingIntoThePastThrows) {
  Simulator sim;
  sim.schedule_at(time::millis(10), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(time::millis(5), [] {}), std::logic_error);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  EventHandle h = sim.schedule_at(time::millis(1), [&] { ran = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelAfterExecutionIsHarmless) {
  Simulator sim;
  EventHandle h = sim.schedule_at(time::millis(1), [] {});
  sim.run();
  h.cancel();  // no crash
}

TEST(Simulator, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(time::millis(1), [&] { ++count; });
  sim.schedule_at(time::millis(5), [&] { ++count; });
  sim.schedule_at(time::millis(10), [&] { ++count; });
  sim.run_until(time::millis(5));
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.now(), time::millis(5));
  sim.run_until(time::millis(20));
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.now(), time::millis(20));  // clock reaches the horizon
}

TEST(Simulator, StepExecutesOneEvent) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(time::millis(1), [&] { ++count; });
  sim.schedule_at(time::millis(2), [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(count, 2);
}

TEST(Simulator, ProcessedEventsExcludesCancelled) {
  Simulator sim;
  sim.schedule_at(time::millis(1), [] {});
  EventHandle h = sim.schedule_at(time::millis(2), [] {});
  h.cancel();
  sim.run();
  EXPECT_EQ(sim.processed_events(), 1u);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) sim.schedule_after(time::micros(1), recurse);
  };
  sim.schedule_at(Time{0}, recurse);
  sim.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.now(), time::micros(9));
}

TEST(PeriodicTimer, FiresAtPeriod) {
  Simulator sim;
  std::vector<Time> fires;
  PeriodicTimer timer(sim, time::millis(10), [&] { fires.push_back(sim.now()); });
  sim.run_until(time::millis(35));
  ASSERT_EQ(fires.size(), 3u);
  EXPECT_EQ(fires[0], time::millis(10));
  EXPECT_EQ(fires[1], time::millis(20));
  EXPECT_EQ(fires[2], time::millis(30));
}

TEST(PeriodicTimer, FirstDelayDiffersFromPeriod) {
  Simulator sim;
  std::vector<Time> fires;
  PeriodicTimer timer(sim, time::millis(1), time::millis(10),
                      [&] { fires.push_back(sim.now()); });
  sim.run_until(time::millis(22));
  ASSERT_EQ(fires.size(), 3u);
  EXPECT_EQ(fires[0], time::millis(1));
  EXPECT_EQ(fires[1], time::millis(11));
  EXPECT_EQ(fires[2], time::millis(21));
}

TEST(PeriodicTimer, StopHalts) {
  Simulator sim;
  int count = 0;
  PeriodicTimer timer(sim, time::millis(10), [&] {
    if (++count == 2) timer.stop();
  });
  sim.run_until(time::millis(100));
  EXPECT_EQ(count, 2);
}

TEST(PeriodicTimer, DestructionCancels) {
  Simulator sim;
  int count = 0;
  {
    PeriodicTimer timer(sim, time::millis(10), [&] { ++count; });
  }
  sim.run_until(time::millis(100));
  EXPECT_EQ(count, 0);
}

TEST(PeriodicTimer, ZeroPeriodRejected) {
  Simulator sim;
  EXPECT_THROW(PeriodicTimer(sim, Time{0}, [] {}), std::logic_error);
}

TEST(DeadlineTimer, FiresOnceAtLastArmedDeadline) {
  Simulator sim;
  std::vector<Time> fires;
  DeadlineTimer timer(sim, [&] { fires.push_back(sim.now()); });
  timer.arm_after(time::millis(10));
  sim.schedule_at(time::millis(5), [&] { timer.arm_after(time::millis(10)); });
  sim.schedule_at(time::millis(12), [&] { timer.arm_after(time::millis(10)); });
  sim.run();
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0], time::millis(22));
  EXPECT_FALSE(timer.armed());
}

TEST(DeadlineTimer, RearmingLaterKeepsOneEventQueued) {
  Simulator sim;
  std::vector<Time> fires;
  DeadlineTimer timer(sim, [&] { fires.push_back(sim.now()); });
  for (int ms = 10; ms <= 20; ++ms) {
    timer.arm_at(time::millis(ms));
    EXPECT_EQ(sim.pending_events(), 1u);
  }
  EXPECT_TRUE(timer.armed());
  sim.run();
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0], time::millis(20));
}

TEST(DeadlineTimer, RearmingEarlierFiresEarly) {
  Simulator sim;
  std::vector<Time> fires;
  DeadlineTimer timer(sim, [&] { fires.push_back(sim.now()); });
  timer.arm_at(time::millis(10));
  timer.arm_at(time::millis(3));
  sim.run();
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0], time::millis(3));
  EXPECT_EQ(sim.processed_events(), 1u);  // the 10 ms event was cancelled
}

TEST(DeadlineTimer, DisarmSuppressesCallback) {
  Simulator sim;
  int count = 0;
  DeadlineTimer timer(sim, [&] { ++count; });
  timer.arm_at(time::millis(10));
  sim.schedule_at(time::millis(5), [&] { timer.disarm(); });
  sim.run();
  EXPECT_EQ(count, 0);
  EXPECT_FALSE(timer.armed());
}

TEST(DeadlineTimer, RearmingFromItsOwnCallbackSchedulesAgain) {
  // The running event must not count as pending, or the re-arm below would
  // only record its deadline and the timer would go silent.
  Simulator sim;
  std::vector<Time> fires;
  std::function<void()> on_fire;
  DeadlineTimer timer(sim, [&] { on_fire(); });
  on_fire = [&] {
    fires.push_back(sim.now());
    if (fires.size() < 3) timer.arm_after(time::millis(10));
  };
  timer.arm_after(time::millis(10));
  sim.run();
  ASSERT_EQ(fires.size(), 3u);
  EXPECT_EQ(fires[0], time::millis(10));
  EXPECT_EQ(fires[1], time::millis(20));
  EXPECT_EQ(fires[2], time::millis(30));
}

TEST(DeadlineTimer, DestructionCancels) {
  Simulator sim;
  int count = 0;
  {
    DeadlineTimer timer(sim, [&] { ++count; });
    timer.arm_after(time::millis(10));
  }
  sim.run();
  EXPECT_EQ(count, 0);
  EXPECT_EQ(sim.processed_events(), 0u);
}

// --- EventHandle lifetime hazards ------------------------------------------
// A handle may legally outlive everything it refers to: the event (already
// run), the slot (recycled for a newer event), or the whole simulator. All
// of those must be safe no-ops, on the arena Simulator and on the oracle
// engine it is checked against.

// Slab index, generation and the shared ArenaTag pointer: no per-event
// control block.
static_assert(sizeof(EventHandle) == 16);

enum class EngineImpl { kArena, kReference };

template <class Sim>
using HandleOf = decltype(std::declval<Sim&>().schedule_at(Time{}, [] {}));

class EventHandleLifetime : public ::testing::TestWithParam<EngineImpl> {
 protected:
  // Runs `body.operator()<Sim>()` with Sim = the parameter's engine type.
  template <class Body>
  void on_engine(Body body) {
    if (GetParam() == EngineImpl::kArena) {
      body.template operator()<Simulator>();
    } else {
      body.template operator()<oracle::ReferenceSimulator>();
    }
  }
};

TEST_P(EventHandleLifetime, CancelAfterSimulatorDestroyedIsSafe) {
  on_engine([]<class Sim>() {
    auto sim = std::make_unique<Sim>();
    HandleOf<Sim> pending = sim->schedule_at(time::millis(5), [] {});
    HandleOf<Sim> ran = sim->schedule_at(time::millis(1), [] {});
    sim->run_until(time::millis(2));
    sim.reset();  // arena and queue die with the simulator
    EXPECT_FALSE(pending.pending());
    EXPECT_FALSE(ran.pending());
    pending.cancel();  // must not touch freed memory
    ran.cancel();
  });
}

TEST_P(EventHandleLifetime, CancelAfterExecutionIsInert) {
  on_engine([]<class Sim>() {
    Sim sim;
    int runs = 0;
    HandleOf<Sim> h = sim.schedule_at(time::millis(1), [&] { ++runs; });
    sim.run();
    EXPECT_EQ(runs, 1);
    EXPECT_FALSE(h.pending());
    h.cancel();
    // Cancelling a completed event must not disturb later scheduling.
    sim.schedule_after(time::millis(1), [&] { ++runs; });
    sim.run();
    EXPECT_EQ(runs, 2);
  });
}

TEST_P(EventHandleLifetime, StaleHandleCannotCancelSlotReuse) {
  on_engine([]<class Sim>() {
    Sim sim;
    HandleOf<Sim> old = sim.schedule_at(time::millis(1), [] {});
    sim.run();  // old's storage is recycled
    // The next event takes over the freed storage (slot 0 in the arena); a
    // stale handle's cancel must not leak through to it.
    bool ran = false;
    HandleOf<Sim> fresh =
        sim.schedule_after(time::millis(1), [&] { ran = true; });
    old.cancel();
    EXPECT_TRUE(fresh.pending());
    sim.run();
    EXPECT_TRUE(ran);
  });
}

TEST_P(EventHandleLifetime, CancelledSlotReuseIsIsolated) {
  on_engine([]<class Sim>() {
    Sim sim;
    HandleOf<Sim> a = sim.schedule_at(time::millis(1), [] {});
    a.cancel();
    sim.run();  // pops and recycles the cancelled record
    bool ran = false;
    sim.schedule_after(time::millis(1), [&] { ran = true; });
    a.cancel();  // stale again — different generation now
    sim.run();
    EXPECT_TRUE(ran);
  });
}

TEST_P(EventHandleLifetime, DefaultConstructedHandleIsInert) {
  on_engine([]<class Sim>() {
    HandleOf<Sim> h;
    EXPECT_FALSE(h.pending());
    h.cancel();
  });
}

TEST_P(EventHandleLifetime, CopiedHandleCancelsSameEvent) {
  on_engine([]<class Sim>() {
    Sim sim;
    bool ran = false;
    HandleOf<Sim> h = sim.schedule_at(time::millis(1), [&] { ran = true; });
    HandleOf<Sim> copy = h;
    copy.cancel();
    EXPECT_FALSE(h.pending());
    sim.run();
    EXPECT_FALSE(ran);
  });
}

TEST_P(EventHandleLifetime, SelfCancelDuringExecutionIsSafe) {
  on_engine([]<class Sim>() {
    Sim sim;
    HandleOf<Sim> h;
    int runs = 0;
    h = sim.schedule_at(time::millis(1), [&] {
      ++runs;
      h.cancel();  // cancelling the event currently running: no-op
    });
    sim.run();
    EXPECT_EQ(runs, 1);
  });
}

INSTANTIATE_TEST_SUITE_P(BothEngines, EventHandleLifetime,
                         ::testing::Values(EngineImpl::kArena,
                                           EngineImpl::kReference),
                         [](const auto& param_info) {
                           return param_info.param == EngineImpl::kArena
                                      ? "Arena"
                                      : "Reference";
                         });

// --- arena-engine internals -------------------------------------------------

TEST(Simulator, OversizedCallbackCapturesSurviveHeapFallback) {
  // Captures past SmallFn's inline buffer take the heap path; they must
  // still run with their payload intact.
  static_assert(sizeof(std::array<std::uint64_t, 64>) >
                sim::SmallFn::kInlineBytes);
  Simulator sim;
  std::array<std::uint64_t, 64> big{};
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = i * 31;
  std::uint64_t sum = 0;
  sim.schedule_at(time::millis(1), [big, &sum] {
    for (std::uint64_t v : big) sum += v;
  });
  sim.run();
  std::uint64_t want = 0;
  for (std::size_t i = 0; i < big.size(); ++i) want += i * 31;
  EXPECT_EQ(sum, want);
}

TEST(Simulator, SlotRecyclingKeepsArenaBounded) {
  // A schedule/run ping-pong must reuse one slot, not grow a chunk per
  // event: steady state is allocation-free.
  Simulator sim;
  std::uint64_t fired = 0;
  std::function<void()> tick = [&] {
    if (++fired < 10'000) sim.schedule_after(time::micros(1), tick);
  };
  sim.schedule_at(Time{0}, tick);
  sim.run();
  EXPECT_EQ(fired, 10'000u);
}

TEST(Simulator, EventTraceRecordsTimeAndSeq) {
  obs::TraceRecorder rec;
  rec.set_enabled(true);
  Simulator sim;
  sim.set_tracer(&rec);
  sim.schedule_at(time::millis(2), [] {});
  sim.schedule_at(time::millis(1), [] {});
  EventHandle h = sim.schedule_at(time::millis(3), [] {});
  h.cancel();
  sim.run();
  const std::vector<obs::TraceEvent> trace = dispatch_stream(rec);
  ASSERT_EQ(trace.size(), 2u);  // cancelled event not processed
  EXPECT_EQ(trace[0].ts_ns, time::millis(1).ns());
  EXPECT_EQ(trace[0].ord, 1u);
  EXPECT_EQ(trace[1].ts_ns, time::millis(2).ns());
  EXPECT_EQ(trace[1].ord, 0u);
  EXPECT_NE(dispatch_digest(rec), 0u);
}

}  // namespace
}  // namespace w11
