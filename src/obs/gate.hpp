#pragma once
// Observability gating (DESIGN.md §12).
//
// The macros below feed the process metrics registry. Trace events are not
// gated here: every one goes to a recorder the run owns, usually the one
// attached to its Simulator (Simulator::set_tracer), and records in every
// build.
//
// Two gates stack:
//
//   * Compile-time: the W11_OBS preprocessor flag (CMake option of the same
//     name, default ON). With -DW11_OBS=0 every metrics macro below expands
//     to nothing — the stance for a minimal embedded build.
//   * Runtime: with W11_OBS compiled in, recording still costs one relaxed
//     bool load per site until the MetricsRegistry is enabled (by tests, by
//     the W11_TRACE environment variable, or explicitly).
//     bench_flowsim medians with instrumentation compiled in but disabled
//     must stay within noise of the uninstrumented build.
//
// The macros exist so call sites read as one line and so the W11_OBS=0
// expansion can drop their arguments entirely (including any function-local
// static metric handles, which otherwise still cost a guard check).

#ifndef W11_OBS
#define W11_OBS 1
#endif

#if W11_OBS

#include "obs/metrics.hpp"

// Bump a named counter on the process metrics registry. The handle is
// resolved once per site (function-local static) on the first *enabled*
// hit; a disabled registry costs one bool load.
#define W11_COUNT_N(name_literal, n)                                     \
  do {                                                                   \
    ::w11::obs::MetricsRegistry& w11_mr = ::w11::obs::metrics();         \
    if (w11_mr.enabled()) {                                              \
      static const ::w11::obs::Counter w11_c = w11_mr.counter(name_literal); \
      w11_c.add(static_cast<std::uint64_t>(n));                          \
    }                                                                    \
  } while (0)
#define W11_COUNT(name_literal) W11_COUNT_N(name_literal, 1)

// Set a named gauge on the process metrics registry (single-writer by
// contract, like Gauge::set). Same lazy handle shape as W11_COUNT; sites
// whose gauges must exist before the first hit (rate SLIs over quiet
// windows) should register eagerly via MetricsRegistry::declare_gauge.
#define W11_GAUGE_SET(name_literal, v)                                   \
  do {                                                                   \
    ::w11::obs::MetricsRegistry& w11_mr = ::w11::obs::metrics();         \
    if (w11_mr.enabled()) {                                              \
      static const ::w11::obs::Gauge w11_g = w11_mr.gauge(name_literal); \
      w11_g.set(static_cast<double>(v));                                 \
    }                                                                    \
  } while (0)

// Record one sample into a named fixed-bucket histogram. Buckets default to
// the registry's power-of-two ladder; register the name explicitly first
// for custom bounds.
#define W11_HISTOGRAM(name_literal, v)                                   \
  do {                                                                   \
    ::w11::obs::MetricsRegistry& w11_mr = ::w11::obs::metrics();         \
    if (w11_mr.enabled()) {                                              \
      static const ::w11::obs::Histogram w11_h =                         \
          w11_mr.histogram(name_literal);                                \
      w11_h.observe(static_cast<double>(v));                             \
    }                                                                    \
  } while (0)

#else  // W11_OBS == 0: every macro vanishes, arguments unevaluated.

#define W11_COUNT_N(name_literal, n) ((void)0)
#define W11_COUNT(name_literal) ((void)0)
#define W11_GAUGE_SET(name_literal, v) ((void)0)
#define W11_HISTOGRAM(name_literal, v) ((void)0)

#endif  // W11_OBS
