// Fleet-scale planning throughput (DESIGN.md §15, §16). Two modes:
//
//   bench_fleet            worker sweep: a ≥10k-AP population through the
//                          sharded pipeline at 1-8 workers (aps/sec, plan
//                          latency, ingest rate, digest byte-equivalence).
//                          Writes BENCH_fleet.json.
//   bench_fleet --churn    churn sweep: a ≥100k-AP population re-ingested
//                          for 5 steady-state cycles at 0.1% / 1% / 10%
//                          churn, replayed both as full ScanEpochs and as
//                          DeltaEpochs. Measures the controller's
//                          ingest+partition seconds per mode (the O(churn)
//                          vs O(fleet) claim), peak RSS, and checks the
//                          two replays deliver byte-identical plan
//                          streams. Writes BENCH_fleet_delta.json.
//
// The churn sweep throttles planning with a tiny output budget (jobs defer
// deterministically), so the measured time is census adoption — partition,
// dirty marking, state reconciliation — not TurboCA.

#include <chrono>
#include <cstdint>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/json_writer.hpp"
#include "common/stats.hpp"
#include "exec/task_pool.hpp"
#include "fleet/controller.hpp"
#include "scenario/fleet_harness.hpp"

using namespace w11;

namespace {

// Keyed off NDEBUG like bench_main.hpp's build_type() (not included here —
// it drags in google-benchmark): the committed perf JSON must never be
// regenerated from an unoptimized build.
const char* build_type() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << std::setfill('0') << std::setw(16) << v;
  return os.str();
}

// ---------------------------------------------------------------------------
// Worker sweep (BENCH_fleet.json)

scenario::FleetScenarioConfig fleet_config(exec::TaskPool* pool) {
  scenario::FleetScenarioConfig cfg;
  // ~640 campuses × avg 16 APs ≈ 10k APs.
  cfg.population.campuses = 640;
  cfg.population.aps_min = 10;
  cfg.population.aps_max = 22;
  cfg.population.seed = 20170901;  // the paper's dataset era
  cfg.controller.seed = 7;
  cfg.controller.pool = pool;
  cfg.polls = 3;
  cfg.churn_fraction = 0.25;
  return cfg;
}

struct WorkerRun {
  int workers = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  scenario::FleetScenarioResult r;
};

WorkerRun run_at(int workers) {
  exec::TaskPool pool(static_cast<std::size_t>(workers));
  WorkerRun out;
  out.workers = workers;
  const auto wall0 = std::chrono::steady_clock::now();
  const std::clock_t cpu0 = std::clock();
  out.r = scenario::run_fleet_scenario(fleet_config(&pool));
  out.cpu_s = static_cast<double>(std::clock() - cpu0) /
              static_cast<double>(CLOCKS_PER_SEC);
  out.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - wall0)
                   .count();
  return out;
}

int run_worker_sweep() {
  print_banner("fleet",
               "Fleet-scale sharded planning: 10k+ APs per cycle, 1-8 workers");

  const std::vector<int> worker_counts = {1, 2, 4, 8};
  std::vector<WorkerRun> runs;
  for (const int w : worker_counts) runs.push_back(run_at(w));

  const auto& base = runs.front().r;
  TablePrinter t({"workers", "wall s", "cpu s", "cpu share", "aps/sec",
                  "plan p50 ms", "plan p95 ms", "ingest rows/s", "deferred"});
  for (const WorkerRun& run : runs) {
    Samples lat;
    for (double s : run.r.plan_seconds) lat.add(s * 1e3);
    t.add_row(run.workers, run.wall_s, run.cpu_s, run.cpu_s / run.wall_s,
              static_cast<double>(run.r.stats.aps_planned) / run.wall_s,
              lat.quantile(0.50), lat.quantile(0.95),
              static_cast<double>(run.r.telemetry_rows) / run.wall_s,
              run.r.stats.jobs_deferred);
  }
  t.print();
  std::cout << "  population: " << base.fleet_aps << " APs in "
            << base.campuses << " campuses; " << base.stats.plans_delivered
            << " plans delivered over 3 polls; digest "
            << hex64(base.digest) << "\n";

  bench::paper_note(
      "TurboCA plans centrally from fleet-wide scan telemetry (§4.4); NodeP "
      "couples only through contender edges, so interference-isolated "
      "campuses plan independently — the fleet is embarrassingly shardable "
      "once partitioned");
  bench::shape_check("population meets the fleet bar (>= 10k APs)",
                     base.fleet_aps >= 10000);
  bool digest_identical = true;
  for (const WorkerRun& run : runs)
    digest_identical = digest_identical && run.r.digest == base.digest &&
                       run.r.final_plan == base.final_plan &&
                       run.r.netp_log_sum == base.netp_log_sum;
  bench::shape_check(
      "delivered plan stream is byte-identical at 1/2/4/8 workers",
      digest_identical);
  bench::shape_check("no jobs deferred (output budget sized for the fleet)",
                     runs.back().r.stats.jobs_deferred == 0);
  const double speedup = runs.front().wall_s / runs.back().wall_s;
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw >= 2) {
    bench::shape_check("8 workers beat 1 worker on wall clock (speedup > 1.3x)",
                       speedup > 1.3);
  } else {
    // One execution lane total: speedup is physically impossible, so the
    // scaling claim degrades to "sharding costs nothing when it can't help".
    bench::shape_check(
        "single-core substrate: 8-worker overhead stays bounded (< 25%)",
        runs.back().wall_s < runs.front().wall_s * 1.25);
  }
  bench::shape_check(
      "spectrum churn leaves the stats caches warm (hit rate > 25%)",
      base.stats.cache_hits * 4 >
          base.stats.cache_hits + base.stats.cache_misses);
  bool health_clean = true;
  for (const WorkerRun& run : runs)
    health_clean = health_clean && run.r.health.epochs_dropped == 0 &&
                   run.r.health.plans_delivered ==
                       run.r.stats.plans_delivered;
  bench::shape_check(
      "pipeline health is clean at every worker count (no epochs dropped; "
      "health() agrees with the delivery stats)",
      health_clean);

  // --- JSON artifact -------------------------------------------------------
  if (std::string(build_type()) != "release") {
    std::cout << "\n  debug build: refusing to write BENCH_fleet.json\n";
    return bench::finish();
  }
  {
    std::ofstream os("BENCH_fleet.json");
    json::Writer w(os);
    w.begin_object();
    w.field("bench", "fleet");
    w.field("build_type", build_type());
    w.field("fleet_aps", static_cast<std::int64_t>(base.fleet_aps));
    w.field("campuses", static_cast<std::int64_t>(base.campuses));
    w.field("polls", static_cast<std::int64_t>(3));
    w.field("digest", hex64(base.digest));
    w.field("digest_identical_across_workers", digest_identical);
    w.field("speedup_8w_over_1w", speedup);
    w.field("hardware_concurrency", static_cast<std::int64_t>(hw));
    w.key("workers").begin_array();
    for (const WorkerRun& run : runs) {
      Samples lat;
      for (double s : run.r.plan_seconds) lat.add(s * 1e3);
      w.begin_object();
      w.field("workers", static_cast<std::int64_t>(run.workers));
      w.field("wall_s", run.wall_s);
      w.field("cpu_s", run.cpu_s);
      w.field("cpu_share", run.cpu_s / run.wall_s);
      w.field("aps_planned", run.r.stats.aps_planned);
      w.field("aps_per_sec",
              static_cast<double>(run.r.stats.aps_planned) / run.wall_s);
      w.field("plans_delivered", run.r.stats.plans_delivered);
      w.field("plan_latency_ms_p50", lat.quantile(0.50));
      w.field("plan_latency_ms_p95", lat.quantile(0.95));
      w.field("telemetry_rows", run.r.telemetry_rows);
      w.field("ingest_rows_per_sec",
              static_cast<double>(run.r.telemetry_rows) / run.wall_s);
      w.field("jobs_deferred", run.r.stats.jobs_deferred);
      w.field("epochs_dropped", run.r.health.epochs_dropped);
      w.field("epochs_dropped_rate", run.r.health.epochs_dropped_rate);
      w.field("ingest_high_water", run.r.health.ingest_high_water);
      w.field("output_high_water", run.r.health.output_high_water);
      w.field("cache_hit_ratio", run.r.health.cache_hit_ratio);
      w.field("cache_hits", run.r.stats.cache_hits);
      w.field("cache_misses", run.r.stats.cache_misses);
      w.field("digest", hex64(run.r.digest));
      w.end_object();
    }
    w.end_array();
    w.end_object();
    os << "\n";
    std::cout << "\n  wrote BENCH_fleet.json\n";
  }
  return bench::finish();
}

// ---------------------------------------------------------------------------
// Churn sweep (BENCH_fleet_delta.json)

// Peak resident set (VmHWM) in KiB from /proc/self/status; 0 if unreadable.
std::size_t peak_rss_kib() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      std::size_t kib = 0;
      in >> kib;
      return kib;
    }
    in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0;
}

// Reset the VmHWM watermark so per-run peaks are independent (Linux
// clear_refs; returns false where unsupported, in which case readings are
// process-monotonic and runs must be ordered cheapest-first).
bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  if (!out) return false;
  out << "5";
  out.flush();
  return out.good();
}

struct ChurnRun {
  double churn = 0.0;
  bool use_deltas = false;
  double ingest_steady_s = 0.0;   // census adoption seconds, polls 2..N
  std::uint64_t aps_repart = 0;   // scans re-partitioned, polls 2..N
  std::uint64_t campuses_repart = 0;
  std::uint64_t deltas_adopted = 0;
  std::size_t fleet_aps = 0;
  std::size_t peak_rss_kib = 0;
  std::uint64_t digest = 0;
};

constexpr int kChurnPolls = 6;  // 1 full census + 5 steady-state cycles

ChurnRun run_churn(double churn, bool use_deltas, bool rss_resettable) {
  exec::TaskPool pool(1);
  scenario::FleetPopulationConfig pop;
  // ~6250 campuses × avg 16 APs ≈ 100k APs.
  pop.campuses = 6250;
  pop.aps_min = 10;
  pop.aps_max = 22;
  pop.seed = 20170901;
  fleet::FleetController::Config ccfg;
  ccfg.seed = 7;
  ccfg.pool = &pool;
  // Throttle planning to a trickle: this sweep measures census adoption,
  // and deferred jobs are deterministic, so both replay modes plan the
  // same handful of campuses and stay digest-comparable.
  ccfg.output_capacity = 8;
  fleet::FleetController ctl(ccfg);

  ChurnRun out;
  out.churn = churn;
  out.use_deltas = use_deltas;
  std::vector<ApScan> scans = scenario::make_fleet_scans(pop, Time{});
  std::uint32_t next_id = scans.back().id.value() + 1;
  if (rss_resettable) reset_peak_rss();

  double ingest_first = 0.0;
  std::uint64_t aps_first = 0, campuses_first = 0;
  Time prev{};
  for (int p = 0; p < kChurnPolls; ++p) {
    const Time t = time::nanos((p + 1) * time::minutes(15).ns());
    if (p == 0) {
      for (ApScan& s : scans) s.taken_at = t;
      ctl.offer_epoch(fleet::ScanEpoch{t, scans});
    } else {
      fleet::DeltaEpoch d = scenario::evolve_population(
          scans, pop, churn, churn / 10.0,
          pop.seed ^ static_cast<std::uint64_t>(p), next_id, prev, t);
      if (use_deltas) {
        ctl.offer_delta(std::move(d));
      } else {
        ctl.offer_epoch(fleet::ScanEpoch{t, scans});
      }
    }
    ctl.tick(t);
    if (p == 0) {
      ingest_first = ctl.stats().ingest_seconds;
      aps_first = ctl.stats().aps_repartitioned;
      campuses_first = ctl.stats().campuses_repartitioned;
    }
    prev = t;
  }
  out.ingest_steady_s = ctl.stats().ingest_seconds - ingest_first;
  out.aps_repart = ctl.stats().aps_repartitioned - aps_first;
  out.campuses_repart = ctl.stats().campuses_repartitioned - campuses_first;
  out.deltas_adopted = ctl.stats().deltas_adopted;
  out.fleet_aps = ctl.fleet_aps();
  out.peak_rss_kib = peak_rss_kib();
  out.digest = ctl.plan_digest();
  return out;
}

int run_churn_sweep() {
  print_banner("fleet --churn",
               "Delta-epoch ingestion: O(churn) vs O(fleet) census adoption "
               "at 100k APs");

  const std::vector<double> churn_levels = {0.001, 0.01, 0.1};
  const bool rss_resettable = reset_peak_rss();

  // Delta runs first: where the watermark can't be reset, readings are
  // process-monotonic, so the cheap (delta) runs must come before the
  // expensive (full) ones for "delta peak <= full peak" to be honest.
  std::vector<ChurnRun> deltas, fulls;
  for (const double c : churn_levels)
    deltas.push_back(run_churn(c, /*use_deltas=*/true, rss_resettable));
  for (const double c : churn_levels)
    fulls.push_back(run_churn(c, /*use_deltas=*/false, rss_resettable));

  TablePrinter t({"churn", "mode", "ingest s (5 cycles)", "aps repart",
                  "campuses repart", "peak RSS MiB"});
  for (std::size_t i = 0; i < churn_levels.size(); ++i) {
    t.add_row(churn_levels[i], "delta", deltas[i].ingest_steady_s,
              deltas[i].aps_repart, deltas[i].campuses_repart,
              static_cast<double>(deltas[i].peak_rss_kib) / 1024.0);
    t.add_row(churn_levels[i], "full", fulls[i].ingest_steady_s,
              fulls[i].aps_repart, fulls[i].campuses_repart,
              static_cast<double>(fulls[i].peak_rss_kib) / 1024.0);
  }
  t.print();
  std::cout << "  population: " << fulls[0].fleet_aps
            << " APs; 1 full census + " << (kChurnPolls - 1)
            << " churn cycles per run; VmHWM reset "
            << (rss_resettable ? "supported" : "unsupported (monotonic)")
            << "\n";

  bench::paper_note(
      "fleet-wide scan collection feeds central planning (§4.4); a delta "
      "census format makes the steady-state planning cycle O(churn) — only "
      "campuses the churn touched are re-partitioned and re-planned");
  bench::shape_check("population meets the fleet bar (>= 100k APs)",
                     fulls[0].fleet_aps >= 100000);
  bool digests_match = true;
  for (std::size_t i = 0; i < churn_levels.size(); ++i)
    digests_match = digests_match && deltas[i].digest == fulls[i].digest;
  bench::shape_check(
      "delta replay delivers the full replay's exact plan stream (digests "
      "match at every churn level)",
      digests_match);
  bool adopted_all = true;
  for (const ChurnRun& r : deltas)
    adopted_all = adopted_all && r.deltas_adopted == kChurnPolls - 1;
  bench::shape_check("every delta was adopted (no base mismatches)",
                     adopted_all);
  const double speedup_low =
      fulls[0].ingest_steady_s / std::max(deltas[0].ingest_steady_s, 1e-9);
  const double speedup_mid =
      fulls[1].ingest_steady_s / std::max(deltas[1].ingest_steady_s, 1e-9);
  bench::shape_check(
      "delta ingest+partition >= 5x faster than full at 0.1% churn",
      speedup_low >= 5.0);
  bench::shape_check(
      "delta ingest+partition >= 5x faster than full at 1% churn",
      speedup_mid >= 5.0);
  bool rss_bounded = true;
  for (std::size_t i = 0; i < churn_levels.size(); ++i)
    rss_bounded = rss_bounded &&
                  deltas[i].peak_rss_kib <= fulls[i].peak_rss_kib;
  bench::shape_check("delta path peak RSS never exceeds the full path's",
                     rss_bounded);
  std::cout << "  speedup: " << std::fixed << std::setprecision(1)
            << speedup_low << "x at 0.1% churn, " << speedup_mid
            << "x at 1% churn, "
            << fulls[2].ingest_steady_s /
                   std::max(deltas[2].ingest_steady_s, 1e-9)
            << "x at 10% churn\n";

  // --- JSON artifact -------------------------------------------------------
  if (std::string(build_type()) != "release") {
    std::cout << "\n  debug build: refusing to write BENCH_fleet_delta.json\n";
    return bench::finish();
  }
  {
    std::ofstream os("BENCH_fleet_delta.json");
    json::Writer w(os);
    w.begin_object();
    w.field("bench", "fleet_delta");
    w.field("build_type", build_type());
    w.field("fleet_aps", static_cast<std::int64_t>(fulls[0].fleet_aps));
    w.field("polls", static_cast<std::int64_t>(kChurnPolls));
    w.field("steady_cycles", static_cast<std::int64_t>(kChurnPolls - 1));
    w.field("digests_match_full_vs_delta", digests_match);
    w.field("rss_watermark_resettable", rss_resettable);
    w.field("hardware_concurrency",
            static_cast<std::int64_t>(std::thread::hardware_concurrency()));
    w.key("churn_levels").begin_array();
    for (std::size_t i = 0; i < churn_levels.size(); ++i) {
      w.begin_object();
      w.field("churn", churn_levels[i]);
      w.field("ingest_speedup",
              fulls[i].ingest_steady_s /
                  std::max(deltas[i].ingest_steady_s, 1e-9));
      for (const ChurnRun* r : {&deltas[i], &fulls[i]}) {
        w.key(r->use_deltas ? "delta" : "full").begin_object();
        w.field("ingest_steady_s", r->ingest_steady_s);
        w.field("aps_repartitioned", r->aps_repart);
        w.field("campuses_repartitioned", r->campuses_repart);
        w.field("peak_rss_kib", static_cast<std::int64_t>(r->peak_rss_kib));
        w.field("digest", hex64(r->digest));
        w.end_object();
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();
    os << "\n";
    std::cout << "\n  wrote BENCH_fleet_delta.json\n";
  }
  return bench::finish();
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--churn") return run_churn_sweep();
  return run_worker_sweep();
}
