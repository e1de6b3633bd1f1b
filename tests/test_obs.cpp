// Observability layer (DESIGN.md §12): trace ring eviction, byte-stable
// golden JSONL exports whatever the record order, the metrics registry's
// name -> value list, and — the property everything else leans on — that
// attaching tracing or the planner audit never perturbs execution.

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "core/turboca/turboca.hpp"
#include "exec/task_pool.hpp"
#include "flowsim/scan_index.hpp"
#include "obs/audit.hpp"
#include "obs/export.hpp"
#include "obs/health/sliding_window.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "plan_epoch.hpp"
#include "sim/simulator.hpp"
#include "workload/topology.hpp"

namespace w11 {
namespace {

using obs::MetricsRegistry;
using obs::PlanAudit;
using obs::ScopedSpan;
using obs::TraceCategory;
using obs::TraceEvent;
using obs::TraceKind;
using obs::TraceRecorder;
using obs::TraceRing;

// ---------------------------------------------------------------- TraceRing

TEST(TraceRing, OverflowEvictsOldest) {
  TraceRing ring(4);
  for (std::uint64_t i = 0; i < 7; ++i)
    ring.push(TraceEvent{static_cast<std::int64_t>(i), 0, i, 0, 0,
                         TraceKind::kSimEvent});
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 3u);
  ASSERT_EQ(ring.size(), 4u);
  for (std::size_t i = 0; i < ring.size(); ++i)
    EXPECT_EQ(ring[i].ord, i + 3) << "survivors must be the newest, in order";
}

// ------------------------------------------------------------ TraceRecorder

TEST(TraceRecorder, DisabledByDefaultRecordsNothing) {
  TraceRecorder rec;
  rec.record_at(time::micros(1), TraceKind::kSimEvent, 1);
  EXPECT_EQ(rec.total_events(), 0u);
  EXPECT_TRUE(rec.merged().empty());
}

TEST(TraceRecorder, CategoryMaskFilters) {
  TraceRecorder rec;
  rec.set_enabled(true);
  rec.set_category_mask(obs::category_bit(TraceCategory::kTelemetry));
  rec.record_at(time::micros(1), TraceKind::kSimEvent, 1);
  rec.record_at(time::micros(2), TraceKind::kCollectorPoll, 2);
  auto ev = rec.merged();
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_EQ(ev[0].kind, TraceKind::kCollectorPoll);

  rec.set_category_mask(obs::kAllCategories);
  rec.record_at(time::micros(3), TraceKind::kSimEvent, 3);
  EXPECT_EQ(rec.merged().size(), 2u);
}

TEST(TraceRecorder, PerLaneOverflowAccounting) {
  TraceRecorder rec(/*capacity=*/8);
  rec.set_enabled(true);
  for (std::uint64_t i = 0; i < 20; ++i)
    rec.record_at(time::micros(static_cast<std::int64_t>(i)),
                  TraceKind::kSimEvent, i);
  EXPECT_EQ(rec.total_events(), 8u);
  EXPECT_EQ(rec.total_dropped(), 12u);
  const auto ev = rec.merged();
  ASSERT_EQ(ev.size(), 8u);
  for (std::size_t i = 0; i < ev.size(); ++i) EXPECT_EQ(ev[i].ord, i + 12);

  rec.clear();
  EXPECT_EQ(rec.total_events(), 0u);
  EXPECT_EQ(rec.total_dropped(), 0u);
}

TEST(TraceRecorder, ScopedSpanStampsBeginAndDuration) {
  TraceRecorder rec;
  rec.set_enabled(true);
  Time clock = time::micros(100);
  rec.bind_clock(&clock);
  {
    ScopedSpan span = rec.span(TraceKind::kAmpduTx, 7, 3);
    span.set_args(3, 12);
    clock = time::micros(250);
  }
  rec.bind_clock(nullptr);
  const auto ev = rec.merged();
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_EQ(ev[0].ts_ns, time::micros(100).ns());
  EXPECT_EQ(ev[0].dur_ns, time::micros(150).ns());
  EXPECT_EQ(ev[0].ord, 7u);
  EXPECT_EQ(ev[0].a, 3u);
  EXPECT_EQ(ev[0].b, 12u);
}

TEST(TraceRecorder, SpanOpenedWhileDisabledStaysInert) {
  TraceRecorder rec;
  {
    ScopedSpan span = rec.span(TraceKind::kAmpduTx, 1);
    rec.set_enabled(true);  // enabling mid-span must not record a half-span
  }
  EXPECT_EQ(rec.total_events(), 0u);
}

// The golden determinism property (DESIGN.md §12): the same events
// recorded in a different order export to byte-identical JSONL and Chrome
// traces, because merged() sorts on (ts, ord, kind, a, b), never on record
// order.
struct Exports {
  std::string jsonl;
  std::string chrome;
};

// Records synthetic event i for each i in `order`, exports, then clears.
Exports record_synthetic_workload(TraceRecorder& rec,
                                  const std::vector<std::size_t>& order) {
  for (const std::size_t i : order) {
    const auto u = static_cast<std::uint64_t>(i);
    const Time ts = time::micros(static_cast<std::int64_t>((u * 31) % 97));
    switch (i % 4) {
      case 0: rec.record_at(ts, TraceKind::kSimEvent, u, u % 13); break;
      case 1:
        rec.record_span(ts, ts + time::micros(5), TraceKind::kAmpduTx, u,
                        u % 7, u % 3);
        break;
      case 2:
        rec.record_at(ts, TraceKind::kRolloutApply, u, u % 11, u % 2);
        break;
      default: rec.record_at(ts, TraceKind::kCollectorPoll, u, u % 5); break;
    }
  }
  Exports out{obs::trace_jsonl_string(rec), obs::chrome_trace_string(rec)};
  rec.clear();
  return out;
}

TEST(TraceRecorder, ExportBytesAreWorkerCountInvariant) {
  constexpr std::size_t kEvents = 500;
  constexpr std::size_t kLanes = 4;
  constexpr std::size_t kPerLane = kEvents / kLanes;
  std::vector<std::size_t> in_order(kEvents);
  std::vector<std::size_t> strided(kEvents);
  for (std::size_t j = 0; j < kEvents; ++j) {
    in_order[j] = j;
    // Four lanes of consecutive indices taking turns: 0, 125, 250, 375, 1, ...
    strided[j] = (j % kLanes) * kPerLane + j / kLanes;
  }
  TraceRecorder rec(std::size_t{1} << 12);
  rec.set_enabled(true);
  const Exports serial = record_synthetic_workload(rec, in_order);
  const Exports interleaved = record_synthetic_workload(rec, strided);
  EXPECT_FALSE(serial.jsonl.empty());
  EXPECT_EQ(serial.jsonl, interleaved.jsonl);
  EXPECT_EQ(serial.chrome, interleaved.chrome);
  // Spot-check the formats without a JSON parser: JSONL is one object per
  // line; the Chrome export is a single traceEvents envelope.
  EXPECT_EQ(serial.jsonl[0], '{');
  EXPECT_NE(serial.jsonl.find("\"kind\":\"sim.event\""), std::string::npos);
  EXPECT_NE(serial.chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(serial.chrome.find("\"ph\":\"X\""), std::string::npos);
}

TEST(TraceRecorder, MergedOrdersByTimestampThenOrdinal) {
  TraceRecorder rec;
  rec.set_enabled(true);
  rec.record_at(time::micros(5), TraceKind::kSimEvent, 9);
  rec.record_at(time::micros(1), TraceKind::kSimEvent, 4);
  rec.record_at(time::micros(1), TraceKind::kSimEvent, 2);
  const auto ev = rec.merged();
  ASSERT_EQ(ev.size(), 3u);
  EXPECT_EQ(ev[0].ord, 2u);
  EXPECT_EQ(ev[1].ord, 4u);
  EXPECT_EQ(ev[2].ord, 9u);
}

// -------------------------------------------------------- Simulator tracing

TEST(SimTracing, RecordsOneEventPerDispatchWithSimTimestamps) {
  Simulator sim;
  TraceRecorder rec;
  rec.set_enabled(true);
  sim.set_tracer(&rec);
  for (int i = 0; i < 10; ++i) sim.schedule_at(time::micros(i), [] {});
  sim.run();
  EXPECT_EQ(sim.processed_events(), 10u);
  const auto ev = rec.merged();
  ASSERT_EQ(ev.size(), 10u);
  for (std::size_t i = 0; i < ev.size(); ++i) {
    EXPECT_EQ(ev[i].kind, TraceKind::kSimEvent);
    EXPECT_EQ(ev[i].ts_ns, time::micros(static_cast<std::int64_t>(i)).ns());
    if (i > 0) {
      EXPECT_LT(ev[i - 1].ord, ev[i].ord);
    }
  }
  sim.set_tracer(nullptr);
}

TEST(SimTracing, AttachedTracerDoesNotPerturbExecution) {
  auto run_workload = [](TraceRecorder* rec) {
    Simulator sim;
    if (rec != nullptr) sim.set_tracer(rec);
    Rng rng(99);
    // What the callbacks observed, in execution order: (now, label).
    std::uint64_t digest = fnv::kOffsetBasis;
    auto note = [&](std::uint64_t label) {
      fnv::mix_word(digest, static_cast<std::uint64_t>(sim.now().ns()));
      fnv::mix_word(digest, label);
    };
    // A self-rescheduling chain plus scattered one-shots: enough structure
    // that any tracer-induced divergence would move the digest.
    std::function<void(int)> chain = [&](int depth) {
      note(static_cast<std::uint64_t>(depth));
      if (depth == 0) return;
      sim.schedule_after(time::micros(rng.uniform_int(1, 50)),
                         [&chain, depth] { chain(depth - 1); });
    };
    chain(200);
    for (int i = 0; i < 100; ++i)
      sim.schedule_at(time::micros(rng.uniform_int(0, 5000)),
                      [&note, i] { note(1000u + static_cast<unsigned>(i)); });
    sim.run();
    if (rec != nullptr) sim.set_tracer(nullptr);
    return std::pair(digest, sim.processed_events());
  };

  TraceRecorder rec;
  rec.set_enabled(true);
  const auto bare = run_workload(nullptr);
  const auto traced = run_workload(&rec);
  EXPECT_EQ(bare.first, traced.first);
  EXPECT_EQ(bare.second, traced.second);
  EXPECT_EQ(rec.total_events() + rec.total_dropped(), traced.second);
}

// Attaching B over A must unbind A from the simulator's clock: otherwise A
// keeps reading the simulator's time after the simulator is gone.
TEST(SimTracing, ReplacedRecorderIsUnboundFromTheClock) {
  TraceRecorder a;
  TraceRecorder b;
  a.set_enabled(true);
  auto sim = std::make_unique<Simulator>();
  sim->schedule_at(time::micros(3), [] {});
  sim->run();
  sim->set_tracer(&a);
  sim->set_tracer(&b);
  sim.reset();
  a.record(TraceKind::kSimEvent, 1);
  const auto ev = a.merged();
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_EQ(ev[0].ts_ns, 0);  // unbound clock stamps Time{0}
}

// ----------------------------------------------------------------- Metrics

// Concurrent runs each own a registry: every parallel_for task fills its
// own, and the dumps, in index order, do not depend on the worker count.
TEST(Metrics, CountersSumAcrossLanesAndWorkerCounts) {
  auto dumps_at = [](int workers) {
    std::vector<std::string> dumps(64);
    exec::TaskPool pool(workers);
    pool.parallel_for(dumps.size(), [&dumps](std::size_t i) {
      MetricsRegistry reg;
      reg.set("work.items", static_cast<double>(i));
      reg.set("work.size", static_cast<double>(i % 10));
      dumps[i] = obs::metrics_json_string(reg);
    });
    std::string all;
    for (const std::string& d : dumps) all += d;
    return all;
  };
  const std::string serial = dumps_at(1);
  const std::string threaded = dumps_at(4);
  EXPECT_NE(serial.find("{\"work.items\":13,\"work.size\":3}\n"),
            std::string::npos);
  EXPECT_EQ(serial, threaded);
}

TEST(Metrics, DeclaredButNeverHitMetricsSnapshotAtZero) {
  // Absent-vs-zero: a metric the SLO sheet reads must be present (at zero)
  // in every snapshot even when its code path never ran this interval —
  // otherwise a quiet poll is indistinguishable from a never-set name and
  // rate SLIs over it are undefined. Setting a name to 0 puts it there.
  MetricsRegistry reg;
  reg.set("quiet.counter", 0.0);
  reg.set("quiet.gauge", 0.0);
  reg.set("quiet.hist.count", 0.0);
  reg.set("hot.counter", 3.0);
  const auto snap = reg.snapshot();
  auto value_of = [&](const std::string& name) -> const double* {
    for (const auto& s : snap)
      if (s.name == name) return &s.value;
    return nullptr;
  };
  ASSERT_NE(value_of("quiet.counter"), nullptr);
  EXPECT_EQ(*value_of("quiet.counter"), 0.0);
  ASSERT_NE(value_of("quiet.gauge"), nullptr);
  EXPECT_EQ(*value_of("quiet.gauge"), 0.0);
  ASSERT_NE(value_of("quiet.hist.count"), nullptr);
  EXPECT_EQ(*value_of("quiet.hist.count"), 0.0);
  EXPECT_EQ(*value_of("hot.counter"), 3.0);
  // The JSON dump carries them too (same snapshot underneath).
  const std::string json = obs::metrics_json_string(reg);
  EXPECT_NE(json.find("\"quiet.counter\":0"), std::string::npos);
  // Setting again is idempotent: same row, no duplicates.
  reg.set("quiet.counter", 0.0);
  EXPECT_EQ(reg.snapshot().size(), snap.size());
}

TEST(Metrics, GaugeLatestSetWins) {
  MetricsRegistry reg;
  reg.set("queue.depth", 1.0);
  reg.set("queue.depth", 2.5);
  reg.set("queue.depth", -3.0);
  ASSERT_EQ(reg.snapshot().size(), 1u);
  EXPECT_DOUBLE_EQ(reg.snapshot()[0].value, -3.0);
}

// The bucket and quantile rules SLIs read, on a SlidingWindow's aggregate.
TEST(Metrics, HistogramViewCountsBucketsAndBounds) {
  obs::SlidingWindow w(time::seconds(1), 1, {1, 2, 4, 8});
  for (double v : {0.5, 1.5, 3.0, 6.0, 6.0}) w.observe(Time{0}, v);
  const obs::SlidingWindow::Agg& view = w.window(0);
  EXPECT_EQ(view.count, 5u);
  EXPECT_DOUBLE_EQ(view.sum, 17.0);
  EXPECT_DOUBLE_EQ(view.min, 0.5);
  EXPECT_DOUBLE_EQ(view.max, 6.0);
  ASSERT_EQ(view.buckets.size(), 5u);  // 4 bounds + overflow
  EXPECT_EQ(view.buckets[0], 1u);
  EXPECT_EQ(view.buckets[1], 1u);
  EXPECT_EQ(view.buckets[2], 1u);
  EXPECT_EQ(view.buckets[3], 2u);
  EXPECT_EQ(view.buckets[4], 0u);
  // Quantiles are interpolated estimates: monotone and inside [min, max].
  const double p25 = w.quantile(view, 0.25);
  const double p50 = w.quantile(view, 0.50);
  const double p95 = w.quantile(view, 0.95);
  EXPECT_LE(view.min, p25);
  EXPECT_LE(p25, p50);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, view.max);
}

TEST(Metrics, RegistrationIsIdempotentAndKindChecked) {
  MetricsRegistry reg;
  reg.set("dup.name", 2.0);
  reg.set("dup.name", 5.0);
  ASSERT_EQ(reg.snapshot().size(), 1u) << "same name must alias one row";
  EXPECT_EQ(reg.snapshot()[0].value, 5.0);
}

TEST(Metrics, SnapshotExpandsHistogramsInRegistrationOrder) {
  MetricsRegistry reg;
  reg.set("c", 0.0);
  for (const char* suffix : {"count", "sum", "mean", "p50", "p95", "max"})
    reg.set(std::string("h.") + suffix, 5.0);
  reg.set("h.count", 1.0);
  reg.set("g", 1.25);
  reg.set("c", 4.0);  // a later set keeps the name's first-set position
  const auto samples = reg.snapshot();
  std::vector<std::string> names;
  for (const auto& s : samples) names.push_back(s.name);
  const std::vector<std::string> want = {"c",     "h.count", "h.sum",
                                         "h.mean", "h.p50",  "h.p95",
                                         "h.max",  "g"};
  EXPECT_EQ(names, want);
  EXPECT_DOUBLE_EQ(samples[0].value, 4.0);
  EXPECT_DOUBLE_EQ(samples[1].value, 1.0);
  EXPECT_DOUBLE_EQ(samples[2].value, 5.0);
  EXPECT_DOUBLE_EQ(samples.back().value, 1.25);
}

TEST(Metrics, ResetValuesKeepsRegistrations) {
  MetricsRegistry reg;
  reg.set("c", 7.0);
  reg.set("c", 0.0);
  ASSERT_EQ(reg.snapshot().size(), 1u);
  EXPECT_EQ(reg.snapshot()[0].value, 0.0);
  reg.set("c", 1.0);
  ASSERT_EQ(reg.snapshot().size(), 1u);
  EXPECT_EQ(reg.snapshot()[0].value, 1.0);
}

// A registry belongs to the run that fills it: two registries that set the
// same metric name keep separate values, so one run's dump never holds
// another run's counts.
TEST(Metrics, MacroGateRespectsRuntimeToggle) {
  MetricsRegistry first;
  MetricsRegistry second;
  first.set("run.frames", 5.0);
  second.set("run.frames", 2.0);
  EXPECT_EQ(obs::metrics_json_string(first), "{\"run.frames\":5}\n");
  EXPECT_EQ(obs::metrics_json_string(second), "{\"run.frames\":2}\n");
}

TEST(ObsEnv, EnableFromEnvHonorsW11Trace) {
  ::setenv("W11_TRACE", "0", 1);
  EXPECT_FALSE(obs::enable_from_env());
  ::setenv("W11_TRACE", "", 1);
  EXPECT_FALSE(obs::enable_from_env());
  ::setenv("W11_TRACE", "1", 1);
  EXPECT_TRUE(obs::enable_from_env());
  ::unsetenv("W11_TRACE");
  EXPECT_FALSE(obs::enable_from_env());

  ::setenv("W11_TRACE_OUT", "/tmp/custom.json", 1);
  EXPECT_STREQ(obs::trace_out_path("default.json"), "/tmp/custom.json");
  ::unsetenv("W11_TRACE_OUT");
  EXPECT_STREQ(obs::trace_out_path("default.json"), "default.json");
}

// ------------------------------------------------------------ Planner audit

std::vector<ApScan> audit_scans(int n_aps, std::uint64_t seed) {
  workload::CampusConfig cc;
  cc.n_aps = n_aps;
  cc.buildings = std::max(2, n_aps / 12);
  cc.seed = seed;
  auto net = workload::make_campus(cc);
  Rng rng(seed ^ 0x5eedULL);
  workload::randomize_channels(*net, ChannelWidth::MHz40, rng);
  return net->scan();
}

TEST(PlanAuditTest, AttachingAuditDoesNotPerturbThePlan) {
  const auto scans = audit_scans(40, 17);
  ChannelPlan plan;
  for (const ApScan& s : scans) plan[s.id] = s.current;
  turboca::Params p;
  p.runs_min = 1;
  p.runs_max = 3;

  const PlanEpoch epoch(scans, plan, p);

  turboca::TurboCA bare(p, Rng(5));
  const auto without =
      bare.run(epoch.index, turboca::dense_plan(epoch.index, plan), {1});

  turboca::TurboCA audited(p, Rng(5));
  PlanAudit audit;
  audited.set_audit(&audit);
  const auto with =
      audited.run(epoch.index, turboca::dense_plan(epoch.index, plan), {1});

  EXPECT_TRUE(without.plan == with.plan);
  EXPECT_EQ(without.improved, with.improved);
  EXPECT_DOUBLE_EQ(without.netp_log, with.netp_log);

  ASSERT_FALSE(audit.rounds().empty());
  ASSERT_FALSE(audit.picks().empty());
  std::uint32_t round_picks = 0;
  for (const auto& r : audit.rounds()) {
    EXPECT_EQ(r.hop_limit, 1);
    round_picks += r.picks;
  }
  EXPECT_EQ(round_picks, audit.picks().size() + audit.dropped_picks());

  // Every switch must come with the term breakdown that explains it.
  bool saw_switch = false;
  for (const auto& pk : audit.picks()) {
    EXPECT_FALSE(pk.terms_to.empty());
    if (pk.switched) {
      saw_switch = true;
      EXPECT_NE(pk.from, pk.to);
      EXPECT_FALSE(pk.terms_from.empty());
    }
  }
  EXPECT_TRUE(saw_switch);

  std::ostringstream table;
  audit.write_table(table, /*switches_only=*/true);
  EXPECT_NE(table.str().find("planner decision audit"), std::string::npos);
  std::ostringstream jsonl;
  audit.write_jsonl(jsonl);
  EXPECT_NE(jsonl.str().find("\"type\":\"round\""), std::string::npos);
  EXPECT_NE(jsonl.str().find("\"type\":\"pick\""), std::string::npos);
}

TEST(PlanAuditTest, AuditRecordsAreWorkerCountInvariant) {
  const auto scans = audit_scans(60, 29);
  ChannelPlan plan;
  for (const ApScan& s : scans) plan[s.id] = s.current;
  turboca::Params p;
  p.runs_min = 1;
  p.runs_max = 2;

  // The ScanIndex fill runs on the pool, so the 4-worker run fans it out
  // across lanes.
  auto jsonl_at = [&](int workers) {
    exec::TaskPool pool(workers);
    const PlanEpoch epoch(scans, plan, p, &pool);
    turboca::TurboCA tca(p, Rng(13));
    PlanAudit audit;
    tca.set_audit(&audit);
    (void)tca.run(epoch.index, turboca::dense_plan(epoch.index, plan), {0});
    std::ostringstream os;
    audit.write_jsonl(os);
    return os.str();
  };

  const std::string serial = jsonl_at(1);
  const std::string threaded = jsonl_at(4);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, threaded);
}

// The audit of an 8-round hop-0 firing, byte for byte: most of its rounds
// come after the plan has settled, and their round and pick records
// (term breakdowns included) must not change however those rounds run.
constexpr std::uint64_t kHop0AuditDigest = 0xd140b0a1663020f8ull;

TEST(PlanAuditTest, Hop0FiringAuditIsPinned) {
  const auto scans = audit_scans(40, 17);
  ChannelPlan plan;
  for (const ApScan& s : scans) plan[s.id] = s.current;
  turboca::Params p;
  p.runs_min = 8;
  p.runs_max = 8;
  const PlanEpoch epoch(scans, plan, p);
  turboca::TurboCA tca(p, Rng(41));
  PlanAudit audit;
  tca.set_audit(&audit);
  (void)tca.run(epoch.index, turboca::dense_plan(epoch.index, plan), {0});
  ASSERT_EQ(audit.rounds().size(), 8u);
  std::size_t quiet_rounds = 0;
  for (const auto& r : audit.rounds()) quiet_rounds += r.switches == 0 ? 1 : 0;
  EXPECT_GE(quiet_rounds, 4u);

  std::ostringstream os;
  audit.write_jsonl(os);
  std::uint64_t digest = fnv::kOffsetBasis;
  for (const char c : os.str()) fnv::mix_value(digest, c);
  EXPECT_EQ(digest, kHop0AuditDigest) << std::hex << digest;
}

TEST(PlanAuditTest, PickCapDropsDetailButKeepsCounting) {
  PlanAudit audit(/*max_picks=*/2);
  for (std::uint32_t i = 0; i < 5; ++i) {
    obs::PickRecord r;
    r.pick = i;
    audit.add_pick(std::move(r));
  }
  EXPECT_EQ(audit.picks().size(), 2u);
  EXPECT_EQ(audit.dropped_picks(), 3u);
}

}  // namespace
}  // namespace w11
