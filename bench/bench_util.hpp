#pragma once
// Shared reporting helpers for the reproduction benches.
//
// Every bench prints (a) the series/rows the paper reports, and (b) a
// "shape check" block comparing the paper's qualitative claim with the
// measured value, so EXPERIMENTS.md can be filled from bench output alone.

#include <iostream>
#include <string>

#include "common/stats.hpp"
#include "common/table_printer.hpp"

namespace w11::bench {

inline int g_checks_failed = 0;

// Record a qualitative shape check: prints PASS/FAIL and tracks failures;
// finish() turns any failure into a non-zero exit status.
inline void shape_check(const std::string& claim, bool ok) {
  std::cout << (ok ? "  [shape PASS] " : "  [shape FAIL] ") << claim << "\n";
  if (!ok) ++g_checks_failed;
}

inline void paper_note(const std::string& note) {
  std::cout << "  [paper] " << note << "\n";
}

// Print a CDF as (value, percentile) rows.
inline void print_cdf(const std::string& label, const Samples& s,
                      std::initializer_list<double> qs = {0.1, 0.25, 0.5, 0.75,
                                                          0.9, 0.99}) {
  std::cout << "  CDF " << label << " (n=" << s.count() << "):";
  for (double q : qs)
    std::cout << "  p" << static_cast<int>(q * 100) << "=" << s.quantile(q);
  std::cout << "\n";
}

// Prints the summary and returns the process exit status: 1 when any
// shape check failed, so CI fails the run.
inline int finish() {
  if (g_checks_failed > 0) {
    std::cout << "\n" << g_checks_failed
              << " shape check(s) FAILED — see lines above.\n";
    return 1;
  }
  std::cout << "\nAll shape checks passed.\n";
  return 0;
}

}  // namespace w11::bench
