#include "ctrl/rollout.hpp"

#include <cmath>
#include <limits>
#include <sstream>

#include "common/check.hpp"
#include "common/json_writer.hpp"

namespace w11::ctrl {

namespace {
// Wave n is canary * kWaveGrowth^n APs.
constexpr std::size_t kWaveGrowth = 3;
// A wave fails if mean utilization rose by more than this (absolute) ...
constexpr double kUtilRegressionTol = 0.10;
// ... or log-NetP dropped by more than this.
constexpr double kNetpRegressionTol = 1.0;
}  // namespace

const char* to_string(RolloutState s) {
  switch (s) {
    case RolloutState::kIdle: return "idle";
    case RolloutState::kApplying: return "applying";
    case RolloutState::kValidating: return "validating";
    case RolloutState::kReverting: return "reverting";
    case RolloutState::kDone: return "done";
  }
  return "?";
}

const char* to_string(RolloutOutcome o) {
  switch (o) {
    case RolloutOutcome::kNone: return "none";
    case RolloutOutcome::kCommitted: return "committed";
    case RolloutOutcome::kReverted: return "reverted";
  }
  return "?";
}

const char* to_string(RevertReason r) {
  switch (r) {
    case RevertReason::kNone: return "none";
    case RevertReason::kTelemetry: return "telemetry";
    case RevertReason::kNetP: return "netp";
    case RevertReason::kRadar: return "radar";
    case RevertReason::kWatchdog: return "watchdog";
    case RevertReason::kExhausted: return "exhausted";
  }
  return "?";
}

namespace {
const char* to_string(RolloutAudit::Record::Kind k) {
  using Kind = RolloutAudit::Record::Kind;
  switch (k) {
    case Kind::kStart: return "rollout_start";
    case Kind::kWave: return "wave";
    case Kind::kWaveDone: return "wave_done";
    case Kind::kValidate: return "validate";
    case Kind::kRevert: return "revert";
    case Kind::kDone: return "rollout_done";
  }
  return "?";
}
}  // namespace

void RolloutAudit::write_jsonl(std::ostream& os) const {
  write_jsonl(os, time::nanos(std::numeric_limits<std::int64_t>::min()),
              time::nanos(std::numeric_limits<std::int64_t>::max()));
}

void RolloutAudit::write_jsonl(std::ostream& os, Time from, Time to) const {
  using Kind = Record::Kind;
  for (const Record& r : records_) {
    if (r.at_ns < from.ns() || r.at_ns > to.ns()) continue;
    json::Writer w(os);
    w.begin_object();
    w.field("event", to_string(r.kind));
    w.field("t_ns", r.at_ns);
    w.field("version", r.version);
    switch (r.kind) {
      case Kind::kStart:
        w.field("switches", r.n_aps);
        break;
      case Kind::kWave:
        w.field("wave", r.wave);
        w.field("aps", r.n_aps);
        break;
      case Kind::kWaveDone:
        w.field("wave", r.wave);
        w.field("applied", r.applied);
        w.field("exhausted", r.exhausted);
        break;
      case Kind::kValidate:
        w.field("wave", r.wave);
        w.field("util_checked", r.util_checked);
        w.field("util_base", r.util_base);
        w.field("util_now", r.util_now);
        w.field("netp_base", r.netp_base);
        w.field("netp_now", r.netp_now);
        w.field("ok", r.ok);
        break;
      case Kind::kRevert:
        w.field("wave", r.wave);
        w.field("reason", ctrl::to_string(r.reason));
        w.field("aps_touched", r.n_aps);
        break;
      case Kind::kDone:
        w.field("outcome", ctrl::to_string(r.outcome));
        w.field("applied", r.applied);
        w.field("convergence_ns", r.convergence_ns);
        break;
    }
    w.end_object();
    os << '\n';
  }
}

std::string RolloutAudit::jsonl() const {
  std::ostringstream os;
  write_jsonl(os);
  return os.str();
}

RolloutCoordinator::RolloutCoordinator(Simulator& sim, PlanApplier& applier,
                                       PlanStore& store, Config cfg,
                                       Hooks hooks)
    : sim_(sim), applier_(applier), store_(store), cfg_(cfg),
      hooks_(std::move(hooks)) {
  W11_CHECK(cfg_.canary >= 1);
  W11_CHECK(hooks_.netp_log != nullptr);
  W11_CHECK(hooks_.mean_utilization != nullptr);
  W11_CHECK(hooks_.channel_of != nullptr);
}

bool RolloutCoordinator::start(std::uint64_t version) {
  if (active()) return false;
  const PlanVersion* pv = store_.get(version);
  if (pv == nullptr) return false;
  // Without a last-known-good there is nothing safe to revert to; the
  // harness bootstraps by committing + marking the initial plan good.
  if (store_.last_known_good() == nullptr) return false;

  // The switch set: APs whose current channel differs from the plan. APs
  // radar-pinned by an earlier rollout are unpinned here — this version was
  // planned after the strike, so its assignment supersedes the fallback.
  std::vector<PlanApplier::Target> switches;
  for (const auto& [ap, ch] : pv->plan) {
    radar_pinned_.erase(ap.value());
    if (hooks_.channel_of(ap.value()) != ch)
      switches.push_back({ap.value(), ch});
  }

  ++stats_.rollouts_started;
  ++rollout_ord_;
  ++epoch_;
  version_ = version;
  started_ = sim_.now();
  state_ = RolloutState::kApplying;
  outcome_ = RolloutOutcome::kNone;
  revert_reason_ = RevertReason::kNone;
  wave_idx_ = 0;
  revert_rounds_ = 0;
  touched_.clear();
  baseline_netp_ = hooks_.netp_log();
  baseline_util_ =
      hooks_.mean_utilization(sim_.now() - cfg_.validate_window, sim_.now());

  audit_.add({RolloutAudit::Record::Kind::kStart, sim_.now().ns(), version_, 0,
              static_cast<std::uint32_t>(switches.size())});

  if (switches.empty()) {
    // Nothing to move: the plan is already live (common when the planner
    // re-emits an unchanged assignment). Commit directly.
    done(RolloutOutcome::kCommitted);
    return true;
  }

  // Wave schedule: canary, then geometric growth until the set is covered.
  waves_.clear();
  std::size_t next = 0;
  std::size_t wave_cap = static_cast<std::size_t>(cfg_.canary);
  while (next < switches.size()) {
    const std::size_t n = std::min(wave_cap, switches.size() - next);
    waves_.emplace_back(switches.begin() + static_cast<std::ptrdiff_t>(next),
                        switches.begin() +
                            static_cast<std::ptrdiff_t>(next + n));
    next += n;
    wave_cap *= kWaveGrowth;
  }

  watchdog_.cancel();
  watchdog_ = sim_.schedule_after(cfg_.watchdog, [this, e = epoch_] {
    if (e != epoch_) return;
    if (state_ == RolloutState::kApplying ||
        state_ == RolloutState::kValidating)
      revert(RevertReason::kWatchdog);
  });
  launch_wave();
  return true;
}

void RolloutCoordinator::launch_wave() {
  W11_CHECK(wave_idx_ < waves_.size());
  // Drop APs radar-pinned since the schedule was built — they sit on their
  // DFS fallback until the next replan, never mid-rollout retargets.
  std::vector<PlanApplier::Target> targets;
  for (const PlanApplier::Target& t : waves_[wave_idx_])
    if (!radar_pinned_.contains(t.ap)) targets.push_back(t);
  for (const PlanApplier::Target& t : targets) touched_.push_back(t.ap);

  ++stats_.waves_started;
  audit_.add({RolloutAudit::Record::Kind::kWave, sim_.now().ns(), version_,
              static_cast<std::uint32_t>(wave_idx_),
              static_cast<std::uint32_t>(targets.size())});
  if (obs::TraceRecorder* tr = sim_.tracer())
    tr->record_at(sim_.now(), obs::TraceKind::kRolloutWave, wave_idx_,
                  targets.size(), version_);
  applier_.begin_wave(std::move(targets), version_, [this, e = epoch_] {
    if (e == epoch_) on_wave_done();
  });
}

void RolloutCoordinator::on_wave_done() {
  RolloutAudit::Record r{RolloutAudit::Record::Kind::kWaveDone, sim_.now().ns(),
                         version_, static_cast<std::uint32_t>(wave_idx_)};
  r.applied = static_cast<std::uint32_t>(applier_.wave_applied());
  r.exhausted = static_cast<std::uint32_t>(applier_.wave_exhausted());
  audit_.add(r);
  if (applier_.wave_exhausted() > 0) {
    revert(RevertReason::kExhausted);
    return;
  }
  state_ = RolloutState::kValidating;
  validate_timer_.cancel();
  validate_timer_ = sim_.schedule_after(cfg_.validate_window,
                                        [this, e = epoch_] {
                                          if (e == epoch_) validate();
                                        });
}

void RolloutCoordinator::validate() {
  ++stats_.validations;
  const double netp_now = hooks_.netp_log();
  const double util_now =
      hooks_.mean_utilization(sim_.now() - cfg_.validate_window, sim_.now());
  const bool util_checked =
      !std::isnan(baseline_util_) && !std::isnan(util_now);
  if (!util_checked) ++stats_.validations_no_data;

  // A wave regresses if utilization climbed or the planner score dropped
  // beyond tolerance. Missing telemetry (kTelemetryDrop faults) skips the
  // utilization gate rather than failing it — absence of evidence.
  const bool util_bad =
      util_checked && (util_now - baseline_util_ > kUtilRegressionTol);
  const bool netp_bad = baseline_netp_ - netp_now > kNetpRegressionTol;
  const bool ok = !util_bad && !netp_bad;

  RolloutAudit::Record r{RolloutAudit::Record::Kind::kValidate, sim_.now().ns(),
                         version_, static_cast<std::uint32_t>(wave_idx_)};
  r.util_base = std::isnan(baseline_util_) ? 0.0 : baseline_util_;
  r.util_now = std::isnan(util_now) ? 0.0 : util_now;
  r.netp_base = baseline_netp_;
  r.netp_now = netp_now;
  r.util_checked = util_checked;
  r.ok = ok;
  audit_.add(r);

  if (!ok) {
    revert(util_bad ? RevertReason::kTelemetry : RevertReason::kNetP);
    return;
  }
  ++wave_idx_;
  if (wave_idx_ >= waves_.size()) {
    done(RolloutOutcome::kCommitted);
    return;
  }
  state_ = RolloutState::kApplying;
  launch_wave();
}

void RolloutCoordinator::notify_radar(std::uint32_t ap) {
  radar_pinned_.insert(ap);
  ++stats_.radar_pins;
  if (!active()) return;
  if (state_ == RolloutState::kReverting) {
    // The revert must not fight the evacuation: drop the struck AP from the
    // revert wave; it stays on its DFS fallback.
    applier_.cancel_ap(ap);
    return;
  }
  revert(RevertReason::kRadar);
}

void RolloutCoordinator::revert(RevertReason reason) {
  W11_CHECK(state_ == RolloutState::kApplying ||
            state_ == RolloutState::kValidating);
  revert_reason_ = reason;
  switch (reason) {
    case RevertReason::kTelemetry: ++stats_.reverts_telemetry; break;
    case RevertReason::kNetP: ++stats_.reverts_netp; break;
    case RevertReason::kRadar: ++stats_.reverts_radar; break;
    case RevertReason::kWatchdog: ++stats_.reverts_watchdog; break;
    case RevertReason::kExhausted: ++stats_.reverts_exhausted; break;
    case RevertReason::kNone: break;
  }
  ++epoch_;  // voids pending wave/validate/watchdog closures
  validate_timer_.cancel();
  watchdog_.cancel();
  applier_.cancel_wave();
  state_ = RolloutState::kReverting;

  audit_.add({RolloutAudit::Record::Kind::kRevert, sim_.now().ns(), version_,
              static_cast<std::uint32_t>(wave_idx_),
              static_cast<std::uint32_t>(touched_.size()), 0, 0, 0.0, 0.0,
              0.0, 0.0, false, false, reason});
  if (obs::TraceRecorder* tr = sim_.tracer())
    tr->record_at(sim_.now(), obs::TraceKind::kRolloutRevert, rollout_ord_,
                  static_cast<std::uint64_t>(reason), touched_.size());

  const PlanVersion* good = store_.last_known_good();
  W11_CHECK(good != nullptr);

  // Re-target every AP this rollout touched that is (a) not radar-pinned
  // and (b) not already on its last-known-good channel. Touched APs that
  // never applied (lost command, cancelled) fall out via (b) — they never
  // moved.
  std::vector<PlanApplier::Target> targets;
  for (const std::uint32_t ap : touched_) {
    if (radar_pinned_.contains(ap)) continue;
    const auto it = good->plan.find(ApId(ap));
    if (it == good->plan.end()) continue;
    if (hooks_.channel_of(ap) == it->second) continue;
    targets.push_back({ap, it->second});
  }
  applier_.begin_wave(std::move(targets), good->version, [this, e = epoch_] {
    if (e == epoch_) on_revert_done();
  });
}

void RolloutCoordinator::on_revert_done() {
  // With bounded apply attempts a revert wave can itself exhaust (the AP is
  // hard-down); re-issue for the stragglers a few times before accepting —
  // the post-revert replan re-covers whatever is left.
  const PlanVersion* good = store_.last_known_good();
  std::vector<PlanApplier::Target> stragglers;
  for (const std::uint32_t ap : touched_) {
    if (radar_pinned_.contains(ap)) continue;
    const auto it = good->plan.find(ApId(ap));
    if (it == good->plan.end()) continue;
    if (hooks_.channel_of(ap) == it->second) continue;
    stragglers.push_back({ap, it->second});
  }
  if (!stragglers.empty() && revert_rounds_ < kMaxRevertRounds) {
    ++revert_rounds_;
    ++epoch_;
    applier_.begin_wave(std::move(stragglers), good->version,
                        [this, e = epoch_] {
                          if (e == epoch_) on_revert_done();
                        });
    return;
  }
  if (hooks_.request_replan) {
    hooks_.request_replan();
    ++stats_.replans_requested;
  }
  done(RolloutOutcome::kReverted);
}

void RolloutCoordinator::done(RolloutOutcome outcome) {
  ++epoch_;
  watchdog_.cancel();
  validate_timer_.cancel();
  state_ = RolloutState::kDone;
  outcome_ = outcome;
  last_convergence_ = sim_.now() - started_;
  if (outcome == RolloutOutcome::kCommitted) {
    ++stats_.committed;
    store_.mark_good(version_);
  } else {
    ++stats_.reverted;
  }
  RolloutAudit::Record r{RolloutAudit::Record::Kind::kDone, sim_.now().ns(),
                         version_};
  r.applied = static_cast<std::uint32_t>(touched_.size());
  r.outcome = outcome;
  r.convergence_ns = last_convergence_.ns();
  audit_.add(r);
}

}  // namespace w11::ctrl
