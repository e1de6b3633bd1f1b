#include "obs/health/flight_recorder.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <sstream>

#include "common/check.hpp"
#include "common/json_writer.hpp"

namespace w11::obs {

const char* to_string(Trigger t) {
  switch (t) {
    case Trigger::kSloBreach: return "slo_breach";
    case Trigger::kAutoRevert: return "auto_revert";
    case Trigger::kWatchdog: return "watchdog";
    case Trigger::kFaultInjection: return "fault_injection";
    case Trigger::kRadarPin: return "radar_pin";
    case Trigger::kManual: return "manual";
  }
  return "?";
}

FlightRecorder::FlightRecorder(Config cfg)
    : cfg_(cfg), ring_(cfg.ring_capacity), bundles_(cfg.max_bundles) {
  // trigger() hands back the bundle it just retained.
  W11_CHECK(cfg.max_bundles >= 1);
}

void FlightRecorder::attach_metrics(const MetricsRegistry* m,
                                    std::vector<std::string> catalog) {
  metrics_ = m;
  catalog_ = std::move(catalog);
}

void FlightRecorder::attach_source(std::string name, Source src) {
  sources_.emplace_back(std::move(name), std::move(src));
}

void FlightRecorder::capture(Time at) {
  if (metrics_ == nullptr) return;
  Entry e;
  e.at = at;
  e.is_snapshot = true;
  const std::vector<MetricsRegistry::Sample>& samples = metrics_->snapshot();
  if (catalog_.empty()) {
    // No catalog: every metric set so far, name-sorted so the bundle does
    // not depend on the order the run first set them.
    e.samples = samples;
    std::sort(e.samples.begin(), e.samples.end(),
              [](const MetricsRegistry::Sample& a,
                 const MetricsRegistry::Sample& b) { return a.name < b.name; });
  } else {
    std::map<std::string_view, double> by_name;
    for (const MetricsRegistry::Sample& s : samples) by_name[s.name] = s.value;
    e.samples.reserve(catalog_.size());
    for (const std::string& name : catalog_) {
      const auto it = by_name.find(name);
      e.samples.push_back({name, it == by_name.end() ? 0.0 : it->second});
    }
  }
  ring_.push(std::move(e));
}

void FlightRecorder::note(Time at, std::string_view tag, double value) {
  Entry e;
  e.at = at;
  e.tag = std::string(tag);
  e.value = value;
  ring_.push(std::move(e));
}

const std::string& FlightRecorder::trigger(Trigger t, Time at,
                                           std::string_view detail) {
  const std::uint64_t seq = triggers_++;
  if (tracer_ != nullptr)
    tracer_->record_at(at, TraceKind::kPostmortem, seq,
                       static_cast<std::uint64_t>(t), 0);
  const Time from = at - cfg_.window;

  std::ostringstream os;
  {
    json::Writer w(os);
    w.begin_object()
        .field("record", "postmortem")
        .field("trigger", to_string(t))
        .field("seq", seq)
        .field("t_ns", at.ns())
        .field("from_ns", from.ns())
        .field("detail", detail)
        .field("ring_entries", static_cast<std::uint64_t>(ring_.size()))
        .field("ring_dropped", ring_.dropped())
        .end_object();
    os << '\n';
  }

  // Flight ring within the window, oldest first (ring order is feed order).
  for (const Entry& e : ring_) {
    if (e.at < from || e.at > at) continue;
    json::Writer w(os);
    if (e.is_snapshot) {
      w.begin_object().field("record", "metrics").field("t_ns", e.at.ns());
      w.key("m").begin_object();
      for (const MetricsRegistry::Sample& s : e.samples)
        w.field(s.name, s.value);
      w.end_object().end_object();
    } else {
      w.begin_object()
          .field("record", "note")
          .field("t_ns", e.at.ns())
          .field("tag", e.tag)
          .field("value", e.value)
          .end_object();
    }
    os << '\n';
  }

  // Trace events intersecting the window, in merged() order.
  if (tracer_ != nullptr) {
    for (const TraceEvent& e : tracer_->merged()) {
      if (e.ts_ns + e.dur_ns < from.ns() || e.ts_ns > at.ns()) continue;
      json::Writer w(os);
      w.begin_object()
          .field("record", "trace")
          .field("ts", e.ts_ns)
          .field("dur", e.dur_ns)
          .field("kind", to_string(e.kind))
          .field("ord", e.ord)
          .field("a", e.a)
          .field("b", e.b)
          .end_object();
      os << '\n';
    }
  }

  // Attached audit sections, each announced then written in its own format.
  for (const auto& [name, src] : sources_) {
    {
      json::Writer w(os);
      w.begin_object()
          .field("record", "section")
          .field("name", name)
          .end_object();
      os << '\n';
    }
    src(from, at, os);
  }
  {
    json::Writer w(os);
    w.begin_object().field("record", "end").field("seq", seq).end_object();
    os << '\n';
  }

  bundles_.push(os.str());
  return bundles_.back();
}

}  // namespace w11::obs
