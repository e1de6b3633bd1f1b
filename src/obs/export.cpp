#include "obs/export.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/json_writer.hpp"

namespace w11::obs {

namespace {

// Sim-time ns -> trace-format microseconds with exact thousandths, emitted
// as a fixed-format string so export bytes never depend on double
// formatting edge cases.
void write_us(std::ostream& os, std::int64_t ns) {
  char buf[40];
  const char* sign = ns < 0 ? "-" : "";
  const std::uint64_t abs_ns =
      ns < 0 ? static_cast<std::uint64_t>(-ns) : static_cast<std::uint64_t>(ns);
  std::snprintf(buf, sizeof buf, "%s%llu.%03llu", sign,
                static_cast<unsigned long long>(abs_ns / 1000),
                static_cast<unsigned long long>(abs_ns % 1000));
  os << buf;
}

}  // namespace

void write_chrome_trace(const TraceRecorder& rec, std::ostream& os) {
  const auto events = rec.merged();
  os << "{\"traceEvents\":[";
  // Track-naming metadata: one thread per category, named for it.
  bool first = true;
  for (const TraceCategory cat :
       {TraceCategory::kSim, TraceCategory::kMac, TraceCategory::kFastAck,
        TraceCategory::kTelemetry, TraceCategory::kCtrl,
        TraceCategory::kHealth}) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":"
       << static_cast<int>(cat) << ",\"args\":{\"name\":\"" << to_string(cat)
       << "\"}}";
  }
  for (const TraceEvent& e : events) {
    os << ",{\"name\":\"" << to_string(e.kind) << "\",\"cat\":\""
       << to_string(category(e.kind)) << "\",\"ph\":\""
       << (e.dur_ns > 0 ? 'X' : 'i') << "\",\"ts\":";
    write_us(os, e.ts_ns);
    if (e.dur_ns > 0) {
      os << ",\"dur\":";
      write_us(os, e.dur_ns);
    } else {
      os << ",\"s\":\"t\"";  // instant scope: thread
    }
    os << ",\"pid\":0,\"tid\":" << static_cast<int>(category(e.kind))
       << ",\"args\":{\"ord\":" << e.ord << ",\"a\":" << e.a
       << ",\"b\":" << e.b << "}}";
  }
  if (const std::uint64_t dropped = rec.total_dropped(); dropped > 0)
    os << ",{\"name\":\"trace_dropped\",\"ph\":\"M\",\"pid\":0,"
          "\"args\":{\"dropped\":"
       << dropped << "}}";
  os << "],\"displayTimeUnit\":\"ms\"}\n";
}

void write_trace_jsonl(const TraceRecorder& rec, std::ostream& os) {
  for (const TraceEvent& e : rec.merged()) {
    json::Writer w(os);
    w.begin_object()
        .field("ts", e.ts_ns)
        .field("dur", e.dur_ns)
        .field("kind", to_string(e.kind))
        .field("ord", e.ord)
        .field("a", e.a)
        .field("b", e.b)
        .end_object();
    os << "\n";
  }
  if (const std::uint64_t dropped = rec.total_dropped(); dropped > 0) {
    json::Writer(os).begin_object().field("dropped", dropped).end_object();
    os << "\n";
  }
}

void write_metrics_json(const MetricsRegistry& reg, std::ostream& os) {
  json::Writer w(os);
  w.begin_object();
  for (const MetricsRegistry::Sample& s : reg.snapshot())
    w.field(s.name, s.value);
  w.end_object();
  os << "\n";
}

std::string chrome_trace_string(const TraceRecorder& rec) {
  std::ostringstream os;
  write_chrome_trace(rec, os);
  return os.str();
}

std::string trace_jsonl_string(const TraceRecorder& rec) {
  std::ostringstream os;
  write_trace_jsonl(rec, os);
  return os.str();
}

std::string metrics_json_string(const MetricsRegistry& reg) {
  std::ostringstream os;
  write_metrics_json(reg, os);
  return os.str();
}

bool export_run(const TraceRecorder& rec, const MetricsRegistry& reg,
                const std::string& chrome_path) {
  const std::string stem = chrome_path.ends_with(".json")
                               ? chrome_path.substr(0, chrome_path.size() - 5)
                               : chrome_path;
  std::ofstream chrome(chrome_path);
  std::ofstream jsonl(stem + ".jsonl");
  std::ofstream mjson(stem + "_metrics.json");
  if (!chrome || !jsonl || !mjson) return false;
  write_chrome_trace(rec, chrome);
  write_trace_jsonl(rec, jsonl);
  write_metrics_json(reg, mjson);
  return true;
}

}  // namespace w11::obs
