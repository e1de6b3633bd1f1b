// perfbench: one benchmark for the paper's three workloads.
//
//   perfbench --workload planning_day|testbed_fig16|fleet_cycle
//             --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// --trace 0 runs the workload untraced and prints the end-to-end metrics.
// --trace 1 runs it untraced, then again with spans recorded around every
// layer call, prints the per-layer metrics, the tracing overhead (traced
// minus untraced on each end-to-end metric), and writes the spans as
// Chrome trace-event JSON to --trace-out. The last stdout line is always the
// JSON result; human-readable detail precedes it.

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <thread>

#include "obs/gate.hpp"
#include "report.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload planning_day|testbed_fig16|fleet_cycle"
               " --seed N --seconds S --trace 0|1 [--trace-out FILE]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      a.trace = v == "1";
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

void print_overhead(const MetricValues& untraced, const MetricValues& traced) {
  std::cout << "tracing overhead (traced - untraced):\n";
  for (const MetricSpec& m : end_to_end_catalog()) {
    const double u = untraced.at(m.name);
    const double t = traced.at(m.name);
    std::cout << "  " << std::left << std::setw(13) << m.name << std::right
              << " untraced " << u << "  traced " << t << "  delta " << (t - u)
              << " " << m.unit << " (" << (u != 0.0 ? 100.0 * (t - u) / u : 0.0)
              << " %)\n";
  }
}

void print_layers(const SpanRecorder& rec) {
  std::vector<LayerTime> layers = rec.layer_times();
  std::int64_t root_ns = 0;
  for (const Span& s : rec.spans())
    if (s.parent < 0) root_ns += s.end_ns - s.start_ns;
  std::sort(layers.begin(), layers.end(),
            [](const LayerTime& a, const LayerTime& b) { return a.self_ns > b.self_ns; });
  std::cout << "span self time (share of all root-span time):\n";
  for (const LayerTime& l : layers)
    std::cout << "  " << std::left << std::setw(20) << l.name << std::right
              << " calls " << std::setw(9) << l.calls << "  total "
              << std::setw(10) << static_cast<double>(l.total_ns) / 1e6
              << " ms  self " << std::setw(10) << static_cast<double>(l.self_ns) / 1e6
              << " ms  share "
              << static_cast<double>(l.self_ns) / static_cast<double>(root_ns) << "\n";
}

int run(const Args& args) {
  WorkloadFn fn = nullptr;
  if (args.workload == "planning_day") fn = run_planning_day;
  if (args.workload == "testbed_fig16") fn = run_testbed_fig16;
  if (args.workload == "fleet_cycle") fn = run_fleet_cycle;
  if (fn == nullptr) usage(("unknown workload " + args.workload).c_str());

  // Pin the environment. The obs tracer would switch itself on inside
  // Testbed::run() from W11_TRACE; the process-wide TaskPool would size
  // itself from W11_THREADS. Neither may change the load.
  const bool had_trace_env = std::getenv("W11_TRACE") != nullptr;
  unsetenv("W11_TRACE");
  unsetenv("W11_TRACE_OUT");
  const int nproc = online_cpus();
  const int lanes = args.workload == "fleet_cycle" ? std::min(nproc, 4) : 1;
  setenv("W11_THREADS", std::to_string(lanes).c_str(), 1);
  const bool rss_reset = reset_peak_rss();

  std::cout << std::setprecision(6);
  std::cout << "perfbench " << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace << "\n"
            << "  nproc=" << nproc
            << " hardware_concurrency=" << std::thread::hardware_concurrency()
            << " lanes=" << lanes << " W11_OBS=" << W11_OBS
            << " W11_TRACE=" << (had_trace_env ? "cleared" : "unset")
            << " VmHWM_reset=" << (rss_reset ? "yes" : "unsupported") << "\n";

  Ledger ledger;
  RunConfig cfg;
  cfg.seed = args.seed;
  cfg.seconds = args.seconds;
  cfg.lanes = lanes;
  WorkloadResult untraced = fn(cfg, ledger, std::cout);
  std::cout << "  peak_rss_mib=" << untraced.end_to_end.at("peak_rss_mib")
            << " (VmHWM after set-up and the workload's fixed first window; at exit "
            << peak_rss_mib() << ")\n";
  std::cout << "  checks: " << ledger.attempted() << " attempted, " << ledger.failed()
            << " failed (shape_fails and witness mismatches count here)\n";
  if (!args.trace) {
    write_result_json(std::cout, ledger, end_to_end_catalog(), untraced.end_to_end);
    return 0;
  }

  SpanRecorder rec;
  cfg.spans = &rec;
  reset_peak_rss();
  WorkloadResult traced = fn(cfg, ledger, std::cout);
  print_overhead(untraced.end_to_end, traced.end_to_end);
  print_layers(rec);
  if (!args.trace_out.empty()) {
    std::ofstream os(args.trace_out);
    rec.write_chrome_trace(os, "perfbench " + args.workload + " (wall clock)");
    std::cout << "  wrote " << rec.spans().size() << " spans to " << args.trace_out << "\n";
  }
  MetricValues layers = traced.per_layer;
  const double u = untraced.end_to_end.at("work_per_s");
  layers["trace.overhead_share"] = (u - traced.end_to_end.at("work_per_s")) / u;
  for (const MetricSpec& m : per_layer_catalog()) layers.try_emplace(m.name, 0.0);
  write_result_json(std::cout, ledger, per_layer_catalog(), layers);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  (void)argc;
  (void)argv;
  std::cerr << "perfbench: refusing to measure a build without NDEBUG "
               "(configure with -DCMAKE_BUILD_TYPE=Release)\n";
  return 2;
#else
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
#endif
}
