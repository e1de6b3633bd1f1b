#include "ctrl/applier.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "ctrl/control_channel.hpp"

namespace w11::ctrl {

Time backoff_delay(const Backoff& b, std::uint32_t ap, int attempt,
                   const Rng& root) {
  W11_CHECK(attempt >= 2);  // attempt 1 is the initial send, not a retry
  double delay_ns = static_cast<double>(b.initial.ns());
  for (int i = 2; i < attempt; ++i) {
    delay_ns *= b.multiplier;
    if (delay_ns >= static_cast<double>(b.cap.ns())) break;
  }
  delay_ns = std::min(delay_ns, static_cast<double>(b.cap.ns()));
  if (b.jitter_frac > 0.0) {
    // One independent stream per (AP, attempt), so the jitter sequence for
    // an AP is fixed by (root seed, AP) alone — independent of interleaving
    // or worker count.
    Rng rng = root.fork((static_cast<std::uint64_t>(ap) << 32) |
                        static_cast<std::uint32_t>(attempt));
    delay_ns *= rng.uniform(1.0 - b.jitter_frac, 1.0 + b.jitter_frac);
  }
  return time::nanos(static_cast<std::int64_t>(delay_ns));
}

PlanApplier::PlanApplier(Simulator& sim, ControlChannel& channel,
                         Backoff backoff, Hooks hooks, std::uint64_t seed)
    : sim_(sim), channel_(channel), backoff_(backoff),
      hooks_(std::move(hooks)), root_(seed) {
  W11_CHECK(hooks_.apply != nullptr);
  W11_CHECK(backoff_.multiplier >= 1.0);
  W11_CHECK(backoff_.jitter_frac >= 0.0 && backoff_.jitter_frac < 1.0);
  channel_.set_reconnect_listener(
      [this](std::uint32_t ap) { on_reconnect(ap); });
}

void PlanApplier::begin_wave(std::vector<Target> targets,
                             std::uint64_t version,
                             std::function<void()> on_done) {
  W11_CHECK_MSG(active_ == 0, "previous wave still has non-terminal APs");
  ++gen_;
  ++stats_.waves;
  version_ = version;
  tasks_.clear();
  task_of_ap_.clear();
  wave_applied_ = 0;
  wave_exhausted_ = 0;
  on_done_ = std::move(on_done);

  tasks_.reserve(targets.size());
  for (const Target& t : targets) {
    W11_CHECK_MSG(!task_of_ap_.contains(t.ap), "duplicate AP in wave");
    task_of_ap_[t.ap] = tasks_.size();
    Task task;
    task.ap = t.ap;
    task.target = t.channel;
    task.started = sim_.now();
    tasks_.push_back(std::move(task));
  }
  active_ = tasks_.size();
  for (std::size_t i = 0; i < tasks_.size(); ++i) attempt(i);
  check_done();  // an empty wave completes immediately
}

void PlanApplier::attempt(std::size_t idx) {
  Task& t = tasks_[idx];
  t.state = ApState::kInFlight;
  ++t.attempts;
  ++stats_.commands_sent;
  if (t.attempts > 1) ++stats_.retries;
  const std::uint64_t gen = gen_;
  channel_.send(t.ap, [this, gen, idx] { on_ack(gen, idx); });
  t.timer.cancel();
  t.timer = sim_.schedule_after(backoff_.ack_timeout,
                                [this, gen, idx] { on_timeout(gen, idx); });
}

void PlanApplier::on_ack(std::uint64_t gen, std::size_t idx) {
  if (gen != gen_) {
    // The wave moved on (cancelled or superseded) while this command was in
    // flight — e.g. the AP sat out a partition. Reject: the AP keeps its
    // channel rather than applying a stale plan version.
    ++stats_.stale_rejected;
    return;
  }
  Task& t = tasks_[idx];
  if (t.state == ApState::kApplied || t.state == ApState::kCancelled ||
      t.state == ApState::kExhausted)
    return;  // duplicate ack for an already-terminal task
  ++stats_.acks;
  t.timer.cancel();
  const bool switched = hooks_.apply(t.ap, t.target);
  if (!switched) ++stats_.noops;
  ++stats_.applied;
  ++wave_applied_;
  if (obs::TraceRecorder* tr = sim_.tracer())
    tr->record_at(sim_.now(), obs::TraceKind::kRolloutApply, t.ap,
                  static_cast<std::uint64_t>(t.attempts), switched ? 1 : 0);
  finish(t, ApState::kApplied);
}

void PlanApplier::on_timeout(std::uint64_t gen, std::size_t idx) {
  if (gen != gen_) return;
  Task& t = tasks_[idx];
  if (t.state != ApState::kInFlight) return;
  ++stats_.timeouts;
  if (backoff_.max_attempts > 0 && t.attempts >= backoff_.max_attempts) {
    ++stats_.exhausted;
    ++wave_exhausted_;
    finish(t, ApState::kExhausted);
    return;
  }
  t.state = ApState::kBackoff;
  const Time delay = backoff_delay(backoff_, t.ap, t.attempts + 1, root_);
  t.timer = sim_.schedule_after(delay, [this, gen, idx] {
    if (gen != gen_) return;
    if (tasks_[idx].state == ApState::kBackoff) attempt(idx);
  });
}

void PlanApplier::on_reconnect(std::uint32_t ap) {
  // Apply-on-reconnect: an AP coming back from a partition should not wait
  // out a (possibly near-cap) backoff — re-send its pending command now.
  const auto it = task_of_ap_.find(ap);
  if (it == task_of_ap_.end()) return;
  Task& t = tasks_[it->second];
  if (t.state != ApState::kBackoff) return;
  t.timer.cancel();
  ++stats_.reconnect_kicks;
  attempt(it->second);
}

void PlanApplier::finish(Task& t, ApState terminal) {
  t.timer.cancel();
  t.state = terminal;
  W11_CHECK(active_ > 0);
  --active_;
  check_done();
}

void PlanApplier::check_done() {
  if (active_ != 0 || !on_done_) return;
  // Fire via the simulator so completion ordering is deterministic and the
  // callback never re-enters the coordinator inside an applier frame.
  sim_.schedule_after(Time{0}, [fn = std::move(on_done_)] { fn(); });
  on_done_ = nullptr;
}

void PlanApplier::cancel_wave() {
  on_done_ = nullptr;
  ++gen_;  // voids every in-flight ack and pending timer of this wave
  for (Task& t : tasks_) {
    if (t.state == ApState::kApplied || t.state == ApState::kCancelled ||
        t.state == ApState::kExhausted)
      continue;
    t.timer.cancel();
    t.state = ApState::kCancelled;
    ++stats_.cancelled;
    W11_CHECK(active_ > 0);
    --active_;
  }
}

void PlanApplier::cancel_ap(std::uint32_t ap) {
  const auto it = task_of_ap_.find(ap);
  if (it == task_of_ap_.end()) return;
  Task& t = tasks_[it->second];
  if (t.state == ApState::kApplied || t.state == ApState::kCancelled ||
      t.state == ApState::kExhausted)
    return;
  ++stats_.cancelled;
  finish(t, ApState::kCancelled);
}

std::vector<std::uint32_t> PlanApplier::applied_aps() const {
  std::vector<std::uint32_t> out;
  for (const Task& t : tasks_)
    if (t.state == ApState::kApplied) out.push_back(t.ap);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace w11::ctrl
