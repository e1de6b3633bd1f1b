#include "fault/fault_plan.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"

namespace w11::fault {

std::string FaultEvent::to_string() const {
  std::ostringstream os;
  os << at.ms() << "ms " << fault::to_string(kind);
  if (target >= 0) os << " target=" << target;
  if (kind == FaultKind::kScanDegrade) {
    os << " mode=" << fault::to_string(static_cast<ScanFaultMode>(
              static_cast<int>(param)));
  } else if (param != 0.0) {
    os << " param=" << param;
  }
  if (delta != Time{}) os << " delta=" << delta.ms() << "ms";
  return os.str();
}

FaultPlan& FaultPlan::add(FaultEvent ev) {
  W11_CHECK_MSG(ev.at >= Time{0}, "fault events cannot predate the epoch");
  if (!events_.empty() && ev.at < events_.back().at) sorted_ = false;
  events_.push_back(ev);
  return *this;
}

FaultPlan& FaultPlan::radar(Time at, int ap) {
  return add({.at = at, .kind = FaultKind::kRadar, .target = ap});
}

FaultPlan& FaultPlan::radar_burst(Time at, int ap, int count, Time spacing) {
  W11_CHECK(count >= 1 && spacing > Time{0});
  for (int i = 0; i < count; ++i) radar(at + spacing * i, ap);
  return *this;
}

FaultPlan& FaultPlan::ap_crash(Time at, int ap) {
  return add({.at = at, .kind = FaultKind::kApCrash, .target = ap});
}

FaultPlan& FaultPlan::scan_degrade(Time at, ScanFaultMode mode,
                                   double keep_fraction) {
  FaultEvent ev{.at = at, .kind = FaultKind::kScanDegrade};
  ev.param = static_cast<double>(static_cast<int>(mode));
  // Partial mode smuggles its keep fraction in delta-free storage: reuse
  // target as percent to keep FaultEvent simple and comparable.
  ev.target = static_cast<int>(keep_fraction * 100.0 + 0.5);
  return add(ev);
}

FaultPlan& FaultPlan::link_outage(Time at, int link, Time duration) {
  W11_CHECK(duration > Time{0});
  add({.at = at, .kind = FaultKind::kLinkDown, .target = link});
  add({.at = at + duration, .kind = FaultKind::kLinkUp, .target = link});
  return *this;
}

FaultPlan& FaultPlan::link_flap(Time at, int link, int flaps, Time period) {
  W11_CHECK(flaps >= 1 && period > Time{0});
  for (int i = 0; i < flaps; ++i)
    link_outage(at + period * (2 * i), link, period);
  return *this;
}

FaultPlan& FaultPlan::telemetry_drop(Time at, int count) {
  W11_CHECK(count >= 1);
  return add({.at = at, .kind = FaultKind::kTelemetryDrop,
              .param = static_cast<double>(count)});
}

FaultPlan& FaultPlan::clock_jump(Time at, Time backwards_by) {
  W11_CHECK(backwards_by > Time{0});
  return add({.at = at, .kind = FaultKind::kClockJump, .delta = backwards_by});
}

const std::vector<FaultEvent>& FaultPlan::events() const {
  sort();
  return events_;
}

void FaultPlan::sort() const {
  if (sorted_) return;
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  sorted_ = true;
}

FaultPlan FaultPlan::random(std::uint64_t seed, const RandomConfig& cfg) {
  Rng rng(seed);
  std::ostringstream name;
  name << "random-" << seed;
  FaultPlan plan(name.str());

  std::vector<FaultKind> menu;
  if (cfg.allow_radar) menu.push_back(FaultKind::kRadar);
  if (cfg.allow_ap_crash) menu.push_back(FaultKind::kApCrash);
  if (cfg.allow_scan_faults) menu.push_back(FaultKind::kScanDegrade);
  if (cfg.allow_link_faults) menu.push_back(FaultKind::kLinkDown);
  if (cfg.allow_telemetry_faults) menu.push_back(FaultKind::kTelemetryDrop);
  if (cfg.allow_clock_faults) menu.push_back(FaultKind::kClockJump);
  if (menu.empty()) return plan;

  for (int i = 0; i < cfg.n_events; ++i) {
    const Time at = time::nanos(rng.uniform_int(0, cfg.horizon.ns()));
    const int ap = static_cast<int>(rng.index(
        static_cast<std::size_t>(std::max(cfg.n_aps, 1))));
    const int link = static_cast<int>(rng.index(
        static_cast<std::size_t>(std::max(cfg.n_links, 1))));
    switch (menu[rng.index(menu.size())]) {
      case FaultKind::kRadar:
        if (rng.bernoulli(0.4)) {
          plan.radar_burst(at, ap, static_cast<int>(rng.uniform_int(2, 4)),
                           time::millis(rng.uniform_int(5, 50)));
        } else {
          plan.radar(at, ap);
        }
        break;
      case FaultKind::kApCrash:
        plan.ap_crash(at, ap);
        break;
      case FaultKind::kScanDegrade: {
        // Degrade, then recover to healthy later so plans end survivable.
        const auto mode = static_cast<ScanFaultMode>(rng.uniform_int(1, 3));
        plan.scan_degrade(at, mode, rng.uniform(0.2, 0.9));
        plan.scan_degrade(at + time::nanos(rng.uniform_int(
                              1, std::max<std::int64_t>(
                                     cfg.horizon.ns() - at.ns(), 2))),
                          ScanFaultMode::kHealthy);
        break;
      }
      case FaultKind::kLinkDown:
        if (rng.bernoulli(0.5)) {
          plan.link_flap(at, link, static_cast<int>(rng.uniform_int(2, 4)),
                         time::millis(rng.uniform_int(10, 60)));
        } else {
          plan.link_outage(at, link,
                           time::nanos(rng.uniform_int(
                               time::millis(20).ns(), cfg.max_outage.ns())));
        }
        break;
      case FaultKind::kTelemetryDrop:
        plan.telemetry_drop(at, static_cast<int>(rng.uniform_int(1, 5)));
        break;
      case FaultKind::kClockJump:
        plan.clock_jump(at, time::millis(rng.uniform_int(1, 2000)));
        break;
      case FaultKind::kLinkUp:
        break;  // only ever emitted as the tail of an outage
    }
  }
  plan.sort();
  return plan;
}

}  // namespace w11::fault
