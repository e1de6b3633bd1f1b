// Tests for the FastACK debug trace (paper fn. 9): the agent's datapath
// events as records in the obs::TraceRecorder attached to its simulator.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/fnv.hpp"
#include "core/fastack/agent.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "scenario/testbed.hpp"

namespace w11 {
namespace {

using obs::TraceEvent;
using obs::TraceKind;
using obs::TraceRecorder;

TEST(TraceRecord, RendersHumanReadable) {
  TraceRecorder rec;
  rec.set_enabled(true);
  rec.record_at(time::millis(3), TraceKind::kFastAckLocalRetransmit,
                /*flow=*/7, /*seq=*/1460, /*length=*/1460);
  const std::string s = obs::trace_jsonl_string(rec);
  EXPECT_NE(s.find("\"kind\":\"fastack.local_retx\""), std::string::npos);
  EXPECT_NE(s.find("\"ts\":3000000"), std::string::npos);
  EXPECT_NE(s.find("\"ord\":7"), std::string::npos);
  EXPECT_NE(s.find("\"a\":1460"), std::string::npos);
}

TEST(TraceRing, EvictsOldestWhenFull) {
  TraceRecorder rec(4);
  rec.set_enabled(true);
  for (int i = 0; i < 10; ++i)
    rec.record_at(time::millis(i), TraceKind::kFastAckAirAck, 1,
                  static_cast<std::uint64_t>(i));
  const std::vector<TraceEvent> ev = rec.merged();
  EXPECT_EQ(ev.size(), 4u);
  EXPECT_EQ(rec.total_dropped(), 6u);
  EXPECT_EQ(ev.front().a, 6u);
  EXPECT_EQ(ev.back().a, 9u);
}

TEST(TraceRing, DumpMentionsEvictions) {
  TraceRecorder rec(2);
  rec.set_enabled(true);
  for (int i = 0; i < 5; ++i)
    rec.record_at(Time{}, TraceKind::kFastAckSynth, 1);
  EXPECT_TRUE(obs::trace_jsonl_string(rec).ends_with("{\"dropped\":3}\n"));
  EXPECT_NE(obs::chrome_trace_string(rec).find("\"args\":{\"dropped\":3}"),
            std::string::npos);
  rec.clear();  // no evictions left: no dropped marker
  EXPECT_EQ(obs::trace_jsonl_string(rec).find("dropped"), std::string::npos);
}

TEST(TraceEventNames, AllDistinct) {
  std::set<std::string> names;
  for (int e = 0; e <= static_cast<int>(TraceKind::kPostmortem); ++e)
    names.insert(to_string(static_cast<TraceKind>(e)));
  EXPECT_EQ(names.size(),
            static_cast<std::size_t>(TraceKind::kPostmortem) + 1);
}

// ----------------------------------------------------- agent integration --

TEST(AgentTracing, DisabledByDefault) {
  scenario::TestbedConfig cfg;
  cfg.n_clients_per_ap = 2;
  cfg.duration = time::seconds(1);
  cfg.fastack = {true};
  scenario::Testbed tb(cfg);
  tb.run();
  EXPECT_EQ(tb.health().trace_events, 0u);
}

TEST(AgentTracing, RecordsTheExpectedEventSequence) {
  TraceRecorder rec(1 << 20);  // hold the whole run
  rec.set_enabled(true);
  rec.set_category_mask(obs::category_bit(obs::TraceCategory::kFastAck));
  scenario::TestbedConfig cfg;
  cfg.n_clients_per_ap = 2;
  cfg.duration = time::millis(500);
  cfg.warmup = time::millis(0);
  cfg.fastack = {true};
  scenario::Testbed tb(cfg);
  tb.simulator().set_tracer(&rec);
  tb.run();

  const std::vector<TraceEvent> trace = rec.merged();
  ASSERT_GT(trace.size(), 100u);

  // Every event class of the steady state shows up.
  std::map<TraceKind, int> counts;
  for (const auto& r : trace) ++counts[r.kind];
  EXPECT_EQ(counts[TraceKind::kFastAckFlowCreated], 2);
  EXPECT_GT(counts[TraceKind::kFastAckDataInOrder], 50);
  EXPECT_GT(counts[TraceKind::kFastAckAirAck], 50);
  EXPECT_GT(counts[TraceKind::kFastAckSynth], 50);
  EXPECT_GT(counts[TraceKind::kFastAckSuppress], 10);

  // The very first event of a flow is its creation.
  EXPECT_EQ(trace[0].kind, TraceKind::kFastAckFlowCreated);

  // Timestamps are non-decreasing.
  for (std::size_t i = 1; i < trace.size(); ++i)
    EXPECT_GE(trace[i].ts_ns, trace[i - 1].ts_ns);
}

TEST(AgentTracing, CapturesLossRecoveryStory) {
  // With bad hints the trace must show client dupacks followed by local
  // retransmissions — the §5.5.1 recovery in one readable dump.
  TraceRecorder rec(1 << 18);
  rec.set_enabled(true);
  rec.set_category_mask(obs::category_bit(obs::TraceCategory::kFastAck));
  scenario::TestbedConfig cfg;
  cfg.n_clients_per_ap = 2;
  cfg.duration = time::seconds(2);
  cfg.fastack = {true};
  cfg.bad_hint_rate = 0.05;
  cfg.seed = 11;
  scenario::Testbed tb(cfg);
  tb.simulator().set_tracer(&rec);
  tb.run();

  const std::vector<TraceEvent> trace = rec.merged();
  bool saw_dupack_then_retx = false;
  for (std::size_t i = 0; i + 1 < trace.size() && !saw_dupack_then_retx; ++i) {
    if (trace[i].kind == TraceKind::kFastAckClientDupAck) {
      for (std::size_t j = i + 1; j < std::min(trace.size(), i + 8); ++j) {
        if (trace[j].kind == TraceKind::kFastAckLocalRetransmit) {
          saw_dupack_then_retx = true;
          break;
        }
      }
    }
  }
  EXPECT_TRUE(saw_dupack_then_retx);
}

// W11_TRACE=1 makes Testbed::run attach a recorder of its own and export
// it next to a metrics dump of the same run.
TEST(TestbedTracing, W11TraceExportsTheRunsOwnRecorder) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("w11_trace_test_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const fs::path chrome = dir / "run.json";
  ::setenv("W11_TRACE", "1", 1);
  ::setenv("W11_TRACE_OUT", chrome.c_str(), 1);
  scenario::TestbedConfig cfg;
  cfg.n_clients_per_ap = 1;
  cfg.duration = time::millis(200);
  cfg.warmup = time::millis(0);
  scenario::Testbed tb(cfg);
  tb.run();
  ::unsetenv("W11_TRACE");
  ::unsetenv("W11_TRACE_OUT");

  EXPECT_GT(tb.health().trace_events, 0u);
  EXPECT_TRUE(fs::exists(chrome));
  EXPECT_TRUE(fs::exists(dir / "run_metrics.json"));
  std::ifstream jsonl(dir / "run.jsonl");
  ASSERT_TRUE(jsonl);
  bool sim_event = false;
  for (std::string line; std::getline(jsonl, line);)
    sim_event = sim_event ||
                line.find("\"kind\":\"sim.event\"") != std::string::npos;
  EXPECT_TRUE(sim_event);
  fs::remove_all(dir);
}

// The numeric value of `"name":<number>` in a flat metrics JSON object.
double metric_in(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const std::size_t at = json.find(key);
  if (at == std::string::npos) {
    ADD_FAILURE() << "no metric " << name << " in " << json;
    return -1.0;
  }
  return std::strtod(json.c_str() + at + key.size(), nullptr);
}

// Two traced Testbeds back to back: the second metrics dump is a snapshot
// of the second run's own Stats, not a sum over every run in the process.
TEST(TestbedTracing, W11TraceMetricsDescribeOnlyThisRun) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("w11_trace_runs_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  ::setenv("W11_TRACE", "1", 1);
  ::setenv("W11_TRACE_OUT", (dir / "run.json").c_str(), 1);
  scenario::TestbedConfig cfg;
  cfg.n_clients_per_ap = 2;
  cfg.warmup = time::millis(0);
  cfg.fastack = {true};
  cfg.duration = time::millis(400);
  scenario::Testbed first(cfg);
  first.run();
  cfg.duration = time::millis(200);
  scenario::Testbed second(cfg);
  second.run();
  ::unsetenv("W11_TRACE");
  ::unsetenv("W11_TRACE_OUT");

  std::ifstream in(dir / "run_metrics.json");
  ASSERT_TRUE(in);
  const std::string json((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const std::size_t frames = second.ap(0).stats().ampdu_frames.count();
  const std::uint64_t fast_acks = second.agent(0)->stats().fast_acks_sent;
  ASSERT_GT(first.ap(0).stats().ampdu_frames.count(), 0u);
  ASSERT_GT(frames, 0u);
  ASSERT_GT(fast_acks, 0u);
  EXPECT_EQ(metric_in(json, "mac.ampdu_frames.count"),
            static_cast<double>(frames));
  EXPECT_EQ(metric_in(json, "fastack.acks_synthesized"),
            static_cast<double>(fast_acks));
  fs::remove_all(dir);
}

// One fixed traced Testbed (1 AP, 2 clients, FastACK on, 200 ms), its
// Chrome JSON, JSONL and metrics dump folded into one FNV-1a digest: each
// file's bytes, then its length. Any change to what a run exports, or to
// the order it exports it in, moves the digest.
constexpr std::uint64_t kExportBytesDigest = 0x0acfb492eb1a3942ull;

TEST(TestbedTracing, ExportBytesDigest) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("w11_trace_digest_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  ::setenv("W11_TRACE", "1", 1);
  ::setenv("W11_TRACE_OUT", (dir / "run.json").c_str(), 1);
  scenario::TestbedConfig cfg;
  cfg.n_aps = 1;
  cfg.n_clients_per_ap = 2;
  cfg.fastack = {true};
  cfg.warmup = time::millis(0);
  cfg.duration = time::millis(200);
  scenario::Testbed tb(cfg);
  tb.run();
  ::unsetenv("W11_TRACE");
  ::unsetenv("W11_TRACE_OUT");

  std::uint64_t h = fnv::kOffsetBasis;
  for (const char* name : {"run.json", "run.jsonl", "run_metrics.json"}) {
    std::ifstream in(dir / name, std::ios::binary);
    ASSERT_TRUE(in) << name;
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    EXPECT_FALSE(bytes.empty()) << name;
    for (const char c : bytes) fnv::mix_value(h, c);
    fnv::mix_value(h, static_cast<std::uint64_t>(bytes.size()));
  }
  EXPECT_EQ(h, kExportBytesDigest) << std::hex << "0x" << h;
  fs::remove_all(dir);
}

}  // namespace
}  // namespace w11
