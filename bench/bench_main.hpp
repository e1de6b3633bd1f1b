#pragma once
// Shared google-benchmark main for the perf benches (bench_flowsim,
// bench_micro_perf). Separate from bench_util.hpp because including
// <benchmark/benchmark.h> drags in a static initializer that every
// includer must link against — the figure benches don't use the library.

#include <cstdio>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

namespace w11::bench {

// Optimization level of this binary. Keyed off NDEBUG (what -DCMAKE_BUILD_TYPE
// =Release/RelWithDebInfo define and Debug does not) — the committed perf
// JSONs must never be regenerated from an unoptimized build again.
inline const char* build_type() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

// BENCHMARK_MAIN() semantics plus a default JSON report
// (--benchmark_out=<default_out>) when the caller did not pass its own, so
// the recorded numbers land on disk on every plain run. Two guardrails on
// the recorded numbers:
//   * every report carries a "w11_build_type" context tag, and
//   * a debug build REFUSES to write the default JSON (it still runs, and
//     still honors an explicit --benchmark_out, which stays debug-tagged) —
//     so an unoptimized run cannot silently overwrite the committed
//     release numbers.
// With W11_TRACE set, a Testbed inside the bench exports its own trace and
// metrics; the bench main owns no run and writes nothing of its own.
inline int run_benchmark_main(int argc, char** argv, const char* default_out) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = std::string("--benchmark_out=") + default_out;
  std::string fmt_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]).starts_with("--benchmark_out=")) has_out = true;
  benchmark::AddCustomContext("w11_build_type", build_type());
  const bool is_debug = std::string(build_type()) == "debug";
  if (!has_out && is_debug) {
    std::fprintf(stderr,
                 "=========================================================\n"
                 "W11 BENCH: DEBUG BUILD — refusing to write %s.\n"
                 "Timings from unoptimized code are not comparable; rebuild\n"
                 "with -DCMAKE_BUILD_TYPE=Release to record numbers (or pass\n"
                 "an explicit --benchmark_out=<file> to force a debug JSON).\n"
                 "=========================================================\n",
                 default_out);
  } else if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace w11::bench
