#pragma once
// Trace / metrics exporters (DESIGN.md §12).
//
// Two trace formats from one merged event stream:
//
//   * Chrome trace-event JSON ("{"traceEvents": [...]}"): loadable in
//     Perfetto (ui.perfetto.dev) and chrome://tracing. Events land on one
//     track per category (pid 0, tid = category ordinal); spans export as
//     complete ("X") events, instants as "i". Timestamps are sim virtual
//     microseconds.
//   * JSONL: one flat object per line in merged order — the byte-stable,
//     regression-diffable form the golden trace tests pin down.
//
// When the rings evicted events, the JSONL ends with a {"dropped":N} line
// and the Chrome trace with a "trace_dropped" metadata event; with no
// evictions neither appears.
//
// Both are deterministic byte-for-byte given a deterministic event stream
// (see TraceRecorder::merged()).

#include <iosfwd>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace w11::obs {

void write_chrome_trace(const TraceRecorder& rec, std::ostream& os);
void write_trace_jsonl(const TraceRecorder& rec, std::ostream& os);

// Flat {"name": value} object over MetricsRegistry::snapshot(), in
// first-set order.
void write_metrics_json(const MetricsRegistry& reg, std::ostream& os);

// Convenience: serialize to a string (tests diff these).
[[nodiscard]] std::string chrome_trace_string(const TraceRecorder& rec);
[[nodiscard]] std::string trace_jsonl_string(const TraceRecorder& rec);
[[nodiscard]] std::string metrics_json_string(const MetricsRegistry& reg);

// Write the W11_TRACE export set for one run's recorder `rec` and the
// registry `reg` it filled from its Stats:
//   <path>        — Chrome trace JSON
//   <path>l       — JSONL dump (".jsonl" when path ends in ".json")
//   <path stem>_metrics.json
// Returns false if any file fails to open.
bool export_run(const TraceRecorder& rec, const MetricsRegistry& reg,
                const std::string& chrome_path);

}  // namespace w11::obs
