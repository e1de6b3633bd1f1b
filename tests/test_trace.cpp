// Tests for the FastACK debug-trace facility (paper fn. 9).

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "core/fastack/agent.hpp"
#include "core/fastack/trace.hpp"
#include "scenario/testbed.hpp"

namespace w11 {
namespace {

using fastack::TraceEvent;
using fastack::TraceRecord;
using fastack::TraceRing;

TEST(TraceRecord, RendersHumanReadable) {
  const TraceRecord r{time::millis(3), FlowId{7}, TraceEvent::kLocalRetransmit,
                      1460, 1460};
  const std::string s = r.to_string();
  EXPECT_NE(s.find("local-retx"), std::string::npos);
  EXPECT_NE(s.find("flow7"), std::string::npos);
  EXPECT_NE(s.find("seq=1460"), std::string::npos);
}

TEST(TraceRing, EvictsOldestWhenFull) {
  TraceRing ring(4);
  for (int i = 0; i < 10; ++i)
    ring.push({time::millis(i), FlowId{1}, TraceEvent::kAirAck,
               static_cast<std::uint64_t>(i), 0});
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 6u);
  EXPECT_EQ(ring[0].seq, 6u);
  EXPECT_EQ(ring.back().seq, 9u);
}

TEST(TraceRing, DumpMentionsEvictions) {
  TraceRing ring(2);
  for (int i = 0; i < 5; ++i)
    ring.push({Time{}, FlowId{1}, TraceEvent::kFastAck, 0, 0});
  std::ostringstream os;
  dump(ring, os);
  EXPECT_NE(os.str().find("3 older records evicted"), std::string::npos);
}

TEST(TraceEventNames, AllDistinct) {
  std::set<std::string> names;
  for (int e = 0; e <= static_cast<int>(TraceEvent::kMpduDropped); ++e)
    names.insert(to_string(static_cast<TraceEvent>(e)));
  EXPECT_EQ(names.size(),
            static_cast<std::size_t>(TraceEvent::kMpduDropped) + 1);
}

// ----------------------------------------------------- agent integration --

TEST(AgentTracing, DisabledByDefault) {
  scenario::TestbedConfig cfg;
  cfg.n_clients_per_ap = 2;
  cfg.duration = time::seconds(1);
  cfg.fastack = {true};
  scenario::Testbed tb(cfg);
  tb.run();
  EXPECT_EQ(tb.agent(0)->trace_ring().size(), 0u);
}

TEST(AgentTracing, RecordsTheExpectedEventSequence) {
  scenario::TestbedConfig cfg;
  cfg.n_clients_per_ap = 2;
  cfg.duration = time::millis(500);
  cfg.warmup = time::millis(0);
  cfg.fastack = {true};
  cfg.agent.trace_enabled = true;
  cfg.agent.trace_capacity = 1 << 20;  // hold the whole run
  scenario::Testbed tb(cfg);
  tb.run();

  const TraceRing& trace = tb.agent(0)->trace_ring();
  ASSERT_GT(trace.size(), 100u);

  // Every event class of the steady state shows up.
  std::map<TraceEvent, int> counts;
  for (const auto& r : trace) ++counts[r.event];
  EXPECT_EQ(counts[TraceEvent::kFlowCreated], 2);
  EXPECT_GT(counts[TraceEvent::kDataInOrder], 50);
  EXPECT_GT(counts[TraceEvent::kAirAck], 50);
  EXPECT_GT(counts[TraceEvent::kFastAck], 50);
  EXPECT_GT(counts[TraceEvent::kClientAckSuppressed], 10);

  // The very first event of a flow is its creation.
  EXPECT_EQ(trace[0].event, TraceEvent::kFlowCreated);

  // Timestamps are non-decreasing.
  for (std::size_t i = 1; i < trace.size(); ++i)
    EXPECT_GE(trace[i].at, trace[i - 1].at);
}

TEST(AgentTracing, CapturesLossRecoveryStory) {
  // With bad hints the ring must show client dupacks followed by local
  // retransmissions — the §5.5.1 recovery in one readable dump.
  scenario::TestbedConfig cfg;
  cfg.n_clients_per_ap = 2;
  cfg.duration = time::seconds(2);
  cfg.fastack = {true};
  cfg.bad_hint_rate = 0.05;
  cfg.agent.trace_enabled = true;
  cfg.agent.trace_capacity = 1 << 18;
  cfg.seed = 11;
  scenario::Testbed tb(cfg);
  tb.run();

  const TraceRing& trace = tb.agent(0)->trace_ring();
  bool saw_dupack_then_retx = false;
  for (std::size_t i = 0; i + 1 < trace.size() && !saw_dupack_then_retx; ++i) {
    if (trace[i].event == TraceEvent::kClientDupAck) {
      for (std::size_t j = i + 1; j < std::min(trace.size(), i + 8); ++j) {
        if (trace[j].event == TraceEvent::kLocalRetransmit) {
          saw_dupack_then_retx = true;
          break;
        }
      }
    }
  }
  EXPECT_TRUE(saw_dupack_then_retx);
}

}  // namespace
}  // namespace w11
