#include "report.hpp"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_catalog() {
  static const std::vector<MetricSpec> kCatalog = {
      {"setup_s", "s"},
      {"peak_rss_mib", "MiB"},
      {"work_per_s", "1/s"},
      {"op_ms", "ms"},
  };
  return kCatalog;
}

const std::vector<MetricSpec>& per_layer_catalog() {
  static const std::vector<MetricSpec> kCatalog = {
      // planning_day: times are ms per simulated day (all four systems),
      // counts cover the first three days.
      {"flowsim.scan_ms", "ms"},
      {"flowsim.scan_calls", "count"},
      {"flowsim.evaluate_ms", "ms"},
      {"flowsim.evaluate_calls", "count"},
      {"flowsim.sample_ms", "ms"},
      {"flowsim.mutate_ms", "ms"},
      {"flowsim.apply_ms", "ms"},
      {"turboca.fire_self_ms", "ms"},
      {"turboca.firings", "count"},
      {"turboca.plans_applied", "count"},
      {"turboca.channel_switches", "count"},
      {"turboca.stats_cache_hit_ratio", "ratio"},
      {"turboca.stats_cache_probes", "count"},
      {"flowsim.scan_share", "ratio"},
      {"flowsim.evaluate_share", "ratio"},
      {"flowsim.sample_share", "ratio"},
      {"flowsim.mutate_share", "ratio"},
      {"flowsim.apply_share", "ratio"},
      {"turboca.fire_share", "ratio"},
      {"planning.span_coverage", "ratio"},
      {"planning.step_ms_p99", "ms"},
      {"planning.steps", "count"},
      // testbed_fig16: times are ms per timed sweep, counts cover the
      // paper sweep.
      {"testbed.construct_ms", "ms"},
      {"testbed.run_ms", "ms"},
      {"testbed.runs", "count"},
      {"sim.events", "count"},
      {"sim.events_per_sim_s", "1/s"},
      {"sim.host_ns_per_event", "ns"},
      {"mac.txops", "count"},
      {"mac.collision_ratio", "ratio"},
      {"mac.busy_share", "ratio"},
      {"wlan.mean_ampdu", "count"},
      {"wlan.queue_drops", "count"},
      {"net.wired_segments", "count"},
      {"net.tcp_segments_sent", "count"},
      {"net.tcp_retx", "count"},
      {"net.rto_events", "count"},
      {"fastack.fast_acks_sent", "count"},
      {"fastack.acks_suppressed_ratio", "ratio"},
      {"fastack.local_retransmits", "count"},
      // fleet_cycle: times are ms per steady poll, counts cover the first
      // four steady polls.
      {"workload.evolve_ms", "ms"},
      {"fleet.offer_ms", "ms"},
      {"fleet.tick_ms", "ms"},
      {"fleet.ingest_ms", "ms"},
      {"ctrl.fanout_ms", "ms"},
      {"telemetry.ingest_ms", "ms"},
      {"telemetry.scan_rows_ms", "ms"},
      {"fleet.plan_other_ms", "ms"},
      {"exec.cpu_share", "ratio"},
      {"turboca.campus_plan_ms_p50", "ms"},
      {"turboca.campus_plan_ms_p95", "ms"},
      {"fleet.aps_repartitioned", "count"},
      {"fleet.campuses_repartitioned", "count"},
      {"fleet.cache_hit_ratio", "ratio"},
      {"fleet.plans_delivered", "count"},
      {"fleet.jobs_deferred", "count"},
      {"fleet.epochs_dropped", "count"},
      {"fleet.deltas_rejected", "count"},
      {"fleet.offer_share", "ratio"},
      {"fleet.ingest_share", "ratio"},
      {"ctrl.fanout_share", "ratio"},
      {"telemetry.ingest_share", "ratio"},
      {"telemetry.scan_rows_share", "ratio"},
      {"fleet.plan_other_share", "ratio"},
      {"fleet.span_coverage", "ratio"},
      {"fleet.polls", "count"},
      // All workloads: relative loss of work_per_s with tracing on.
      {"trace.overhead_share", "ratio"},
  };
  return kCatalog;
}

// ---------------------------------------------------------------------------

TailRule tail_rule(std::size_t n) {
  // Percentiles in tenths of a percent, highest first.
  for (const std::uint64_t p10 : {999ULL, 990ULL, 950ULL, 900ULL, 750ULL, 500ULL}) {
    const std::uint64_t beyond = static_cast<std::uint64_t>(n) * (1000 - p10) / 1000;
    if (beyond >= 10) return TailRule{static_cast<double>(p10) / 10.0, beyond};
  }
  return TailRule{};
}

void print_timing(std::ostream& os, std::string_view name, const w11::Samples& ms) {
  const TailRule tail = tail_rule(ms.count());
  os << "  " << name << ": p50=" << ms.median() << " ms";
  if (tail.percentile > 50.0)
    os << "  p" << tail.percentile << "=" << ms.quantile(tail.percentile / 100.0)
       << " ms";
  os << "  (n=" << ms.count();
  if (tail.percentile > 0.0)
    os << ", " << tail.beyond << " beyond p" << tail.percentile;
  else
    os << ", too few samples for a tail";
  os << ")\n";
}

// ---------------------------------------------------------------------------

bool Ledger::check(bool ok, std::string_view what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cout << "  [check FAIL] " << what << "\n";
  }
  return ok;
}

void WitnessLog::observe(const std::string& key, std::uint64_t value) {
  const auto [it, fresh] = ref_.try_emplace(key, value);
  if (fresh) return;
  std::ostringstream what;
  what << "witness " << key << " = " << hex64(value) << ", reference "
       << hex64(it->second);
  ledger_.check(it->second == value, what.str());
}

void WitnessLog::observe(const std::string& key, double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  observe(key, bits);
}

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << std::setfill('0') << std::setw(16) << v;
  return os.str();
}

// ---------------------------------------------------------------------------

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      in >> kib;
      return kib / 1024.0;
    }
    in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0.0;
}

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  if (!out) return false;
  out << "5";
  out.flush();
  return out.good();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

void write_result_json(std::ostream& os, const Ledger& ledger,
                       const std::vector<MetricSpec>& catalog,
                       const MetricValues& values) {
  std::set<std::string> known;
  for (const MetricSpec& m : catalog) known.insert(m.name);
  for (const auto& [name, v] : values)
    if (!known.contains(name))
      throw std::logic_error("perfbench: metric not in the catalog: " + name);
  std::ostringstream line;
  line << std::setprecision(17);
  line << "{\"correct\": " << (ledger.failed() == 0 ? "true" : "false")
       << ", \"attempted\": " << ledger.attempted()
       << ", \"failed\": " << ledger.failed() << ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& m : catalog) {
    const auto it = values.find(m.name);
    if (it == values.end())
      throw std::logic_error(std::string("perfbench: metric missing: ") + m.name);
    if (!std::isfinite(it->second))
      throw std::logic_error(std::string("perfbench: metric not finite: ") + m.name);
    line << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
         << it->second << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  line << "}}";
  os << line.str() << "\n";
}

}  // namespace perfbench
