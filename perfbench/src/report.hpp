#pragma once
// Shared benchmark plumbing: the metric catalog (which must equal the names
// in BENCHMARK.json), percentile rules, the correctness ledger, environment
// pinning, and the final one-line JSON result.

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hpp"
#include "spans.hpp"

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Printed with --trace 0.
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_catalog();
// Printed with --trace 1. The union over all workloads; a layer a workload
// bypasses reads 0 there.
[[nodiscard]] const std::vector<MetricSpec>& per_layer_catalog();

using MetricValues = std::map<std::string, double>;

// ---------------------------------------------------------------------------
// Percentiles

// The highest of p99.9 / p99 / p95 / p90 / p75 / p50 with at least ten
// samples strictly beyond it (floor(n * (100 - p) / 100) >= 10).
struct TailRule {
  double percentile = 0.0;  // 0 = fewer than 20 samples: no tail to report
  std::uint64_t beyond = 0;
};
[[nodiscard]] TailRule tail_rule(std::size_t n);

// "name p50=… p99=… (n=…, 11 beyond p99)" for the human-readable report.
void print_timing(std::ostream& os, std::string_view name, const w11::Samples& ms);

// ---------------------------------------------------------------------------
// Correctness

// Every verified operation counts as attempted; each failed check counts
// one failure and prints why.
class Ledger {
 public:
  bool check(bool ok, std::string_view what);
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// Determinism witnesses: the first value recorded under a key is the
// reference; every later value under the same key must equal it bit for bit
// (one checked operation each).
class WitnessLog {
 public:
  explicit WitnessLog(Ledger& ledger) : ledger_(ledger) {}
  void observe(const std::string& key, std::uint64_t value);
  void observe(const std::string& key, double value);
  [[nodiscard]] const std::map<std::string, std::uint64_t>& reference() const {
    return ref_;
  }

 private:
  Ledger& ledger_;
  std::map<std::string, std::uint64_t> ref_;
};

// FNV-1a, for plan and census digests.
class Fnv {
 public:
  template <class T>
  void mix(const T& v) {
    const auto* p = reinterpret_cast<const unsigned char*>(&v);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

[[nodiscard]] std::string hex64(std::uint64_t v);

// ---------------------------------------------------------------------------
// Workload interface

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;       // measured phase length (after set-up)
  int lanes = 1;               // TaskPool lanes, counting the caller
  SpanRecorder* spans = nullptr;  // non-null = traced run
};

struct WorkloadResult {
  MetricValues end_to_end;
  MetricValues per_layer;  // filled by traced runs
};

using WorkloadFn = WorkloadResult (*)(const RunConfig&, Ledger&, std::ostream&);

WorkloadResult run_planning_day(const RunConfig& cfg, Ledger& ledger,
                                std::ostream& log);
WorkloadResult run_testbed_fig16(const RunConfig& cfg, Ledger& ledger,
                                 std::ostream& log);
WorkloadResult run_fleet_cycle(const RunConfig& cfg, Ledger& ledger,
                               std::ostream& log);

// ---------------------------------------------------------------------------
// Environment and process

[[nodiscard]] double peak_rss_mib();  // VmHWM
bool reset_peak_rss();                // false where clear_refs is unsupported
[[nodiscard]] double process_cpu_s();
[[nodiscard]] int online_cpus();      // affinity-aware nproc

// Final line: {"correct":…,"attempted":…,"failed":…,"metrics":{…}}. Throws
// if `values` misses a catalog metric or names one the catalog lacks.
void write_result_json(std::ostream& os, const Ledger& ledger,
                       const std::vector<MetricSpec>& catalog,
                       const MetricValues& values);

}  // namespace perfbench
