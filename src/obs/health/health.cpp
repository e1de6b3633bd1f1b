#include "obs/health/health.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "common/json_writer.hpp"

namespace w11::obs {

const char* to_string(Severity s) {
  switch (s) {
    case Severity::kTicket: return "ticket";
    case Severity::kPage: return "page";
  }
  return "?";
}

HealthEngine::HealthEngine(Config cfg)
    : default_series_(cfg.series), specs_(std::move(cfg.slos)),
      states_(specs_.size()) {}

SlidingWindow& HealthEngine::series(std::string_view name) {
  return series(name, default_series_);
}

SlidingWindow& HealthEngine::series(std::string_view name,
                                    const SeriesConfig& sc) {
  const auto it = series_.find(name);
  if (it != series_.end()) return it->second;
  return series_
      .emplace(std::string(name),
               SlidingWindow(sc.width, sc.windows, sc.bounds))
      .first->second;
}

const SlidingWindow* HealthEngine::find_series(std::string_view name) const {
  const auto it = series_.find(name);
  return it == series_.end() ? nullptr : &it->second;
}

void HealthEngine::observe(std::string_view name, Time at, double v) {
  series(name).observe(at, v);
}

void HealthEngine::observe_counter(std::string_view name, Time at,
                                   double cumulative) {
  double& last = counter_last_.emplace(std::string(name), 0.0).first->second;
  const double delta = std::max(0.0, cumulative - last);
  last = cumulative;
  observe(name, at, delta);
}

std::vector<HealthEvent> HealthEngine::poll(Time now) {
  ++polls_;
  std::vector<HealthEvent> fresh;
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const SloSpec& spec = specs_[i];
    const auto it = series_.find(spec.sli);
    if (it == series_.end()) {
      ++unbound_;
      continue;
    }
    SlidingWindow& sw = it->second;
    sw.advance(now);
    SloState& st = states_[i];
    const double budget = std::max(1.0 - spec.objective, 1e-12);
    st.error_fast = sw.fraction_bad(sw.merged(spec.fast_windows),
                                    spec.threshold, spec.bad_above);
    st.error_slow = sw.fraction_bad(sw.merged(spec.slow_windows),
                                    spec.threshold, spec.bad_above);
    st.burn_fast = st.error_fast / budget;
    st.burn_slow = st.error_slow / budget;
    const bool breached_now =
        st.burn_fast >= spec.fast_burn && st.burn_slow >= spec.slow_burn;
    if (breached_now == st.breached) continue;
    st.breached = breached_now;
    HealthEvent ev;
    ev.at = now;
    ev.slo = static_cast<std::uint32_t>(i);
    ev.name = spec.name;
    ev.breach = breached_now;
    ev.severity = spec.severity;
    ev.burn_fast = st.burn_fast;
    ev.burn_slow = st.burn_slow;
    ev.error_fast = st.error_fast;
    ev.error_slow = st.error_slow;
    if (breached_now) {
      ++st.breaches;
      ++breaches_;
    } else {
      ++st.recoveries;
      ++recoveries_;
    }
    events_.push_back(ev);
    fresh.push_back(std::move(ev));
  }
  return fresh;
}

void HealthEngine::write_events_jsonl(std::ostream& os) const {
  for (const HealthEvent& e : events_) {
    json::Writer w(os);
    w.begin_object()
        .field("event", e.breach ? "breach" : "recovery")
        .field("t_ns", e.at.ns())
        .field("slo", e.name)
        .field("severity", to_string(e.severity))
        .field("burn_fast", e.burn_fast)
        .field("burn_slow", e.burn_slow)
        .field("error_fast", e.error_fast)
        .field("error_slow", e.error_slow)
        .end_object();
    os << '\n';
  }
}

std::string HealthEngine::events_jsonl() const {
  std::ostringstream os;
  write_events_jsonl(os);
  return os.str();
}

}  // namespace w11::obs
