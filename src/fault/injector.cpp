#include "fault/injector.hpp"

#include "common/check.hpp"

namespace w11::fault {

FaultInjector::FaultInjector(FaultPlan plan, FaultHandlers handlers)
    : plan_(std::move(plan)), handlers_(std::move(handlers)) {
  plan_.sort();
}

void FaultInjector::advance_to(Time now) {
  W11_CHECK_MSG(!armed_, "an armed injector is driven by the simulator");
  const auto& evs = plan_.events();
  while (next_ < evs.size() && evs[next_].at <= now) fire(evs[next_++]);
}

void FaultInjector::arm(Simulator& sim) {
  W11_CHECK_MSG(!armed_, "arm() may only be called once");
  armed_ = true;
  const auto& evs = plan_.events();
  for (std::size_t i = next_; i < evs.size(); ++i) {
    const FaultEvent ev = evs[i];
    const Time at = ev.at < sim.now() ? sim.now() : ev.at;
    sim.schedule_at(at, [this, ev] { fire(ev); });
  }
  next_ = evs.size();
}

void FaultInjector::fire(const FaultEvent& ev) {
  ++stats_.fired;
  log_.push_back(ev);
  switch (ev.kind) {
    case FaultKind::kRadar:
      ++stats_.radar;
      if (handlers_.radar) handlers_.radar(ev.target);
      else ++stats_.unhandled;
      break;
    case FaultKind::kApCrash:
      ++stats_.ap_crash;
      if (handlers_.ap_crash) handlers_.ap_crash(ev.target);
      else ++stats_.unhandled;
      break;
    case FaultKind::kScanDegrade:
      ++stats_.scan_degrade;
      if (handlers_.scan_degrade) {
        handlers_.scan_degrade(
            static_cast<ScanFaultMode>(static_cast<int>(ev.param)),
            ev.target >= 0 ? ev.target / 100.0 : 1.0);
      } else {
        ++stats_.unhandled;
      }
      break;
    case FaultKind::kLinkDown:
      ++stats_.link_down;
      if (handlers_.link_down) handlers_.link_down(ev.target);
      else ++stats_.unhandled;
      break;
    case FaultKind::kLinkUp:
      ++stats_.link_up;
      if (handlers_.link_up) handlers_.link_up(ev.target);
      else ++stats_.unhandled;
      break;
    case FaultKind::kTelemetryDrop:
      ++stats_.telemetry_drop;
      if (handlers_.telemetry_drop)
        handlers_.telemetry_drop(static_cast<int>(ev.param));
      else ++stats_.unhandled;
      break;
    case FaultKind::kClockJump:
      ++stats_.clock_jump;
      if (handlers_.clock_jump) handlers_.clock_jump(ev.delta);
      else ++stats_.unhandled;
      break;
  }
}

}  // namespace w11::fault
