#include "mac/medium.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace w11::mac {

Medium::Medium(Simulator& sim, MediumConfig cfg, Rng rng)
    : sim_(sim), cfg_(cfg), rng_(std::move(rng)) {}

Medium::Slot* Medium::find(Contender* c) {
  const std::size_t i = c->medium_slot_;
  return i < slots_.size() && slots_[i].contender == c ? &slots_[i] : nullptr;
}

void Medium::attach(Contender* c) {
  W11_CHECK(c != nullptr);
  W11_CHECK_MSG(find(c) == nullptr, "contender already attached");
  Slot s;
  s.contender = c;
  s.cw = edca_params(c->access_category()).cw_min;
  c->medium_slot_ = slots_.size();
  slots_.push_back(s);
}

void Medium::detach(Contender* c) {
  const auto it = std::find_if(slots_.begin(), slots_.end(),
                               [c](const Slot& s) { return s.contender == c; });
  if (it == slots_.end()) return;
  for (auto rest = slots_.erase(it); rest != slots_.end(); ++rest)
    rest->contender->medium_slot_ =
        static_cast<std::size_t>(rest - slots_.begin());
  // A detached contender is neither granted nor told its exchange ended.
  std::replace(drawn_.begin(), drawn_.end(), c, static_cast<Contender*>(nullptr));
  std::replace(on_air_.begin(), on_air_.end(), c, static_cast<Contender*>(nullptr));
}

void Medium::set_backlogged(Contender* c, bool backlogged) {
  Slot* s = find(c);
  W11_CHECK_MSG(s != nullptr, "contender not attached");
  s->backlogged = backlogged;
  if (backlogged) maybe_start_round();
}

void Medium::maybe_start_round() {
  if (busy_ || round_pending_) return;
  resolve_round();
}

void Medium::resolve_round() {
  // Draw deferrals for all backlogged contenders at the instant the medium
  // went idle; the earliest draw(s) win.
  W11_CHECK(!busy_ && !round_pending_);
  Time best = time::kForever;
  drawn_.clear();
  for (Slot& s : slots_) {
    if (!s.backlogged) continue;
    const AccessCategory ac = s.contender->access_category();
    const Time deferral =
        aifs(ac) + kSlot * rng_.uniform_int(0, s.cw);
    if (deferral < best) {
      best = deferral;
      drawn_.assign(1, s.contender);
    } else if (deferral == best) {
      drawn_.push_back(s.contender);
    }
  }
  if (drawn_.empty()) return;
  round_pending_ = true;
  sim_.schedule_after(best, [this] {
    round_pending_ = false;
    grant();
  });
}

void Medium::grant() {
  W11_CHECK(!busy_);
  // Re-validate: a drawn contender may have drained or detached (nulled)
  // since the draw.
  on_air_.clear();
  for (Contender* c : drawn_)
    if (c != nullptr && find(c)->backlogged) on_air_.push_back(c);
  if (on_air_.empty()) {
    maybe_start_round();
    return;
  }

  // Busy from here: a contender that re-declares backlog in begin_txop
  // waits for the exchange to end, so no round is drawn under it.
  busy_ = true;
  const bool collided = on_air_.size() > 1;
  Time duration{};
  for (Contender* c : on_air_) {
    const TxDescriptor td = c->begin_txop();
    W11_CHECK(td.duration > Time{0});
    duration = std::max(duration, td.duration);
  }

  if (collided) {
    ++collisions_;
    // With RTS/CTS only the (unanswered) RTS burns airtime; without it the
    // longest colliding frame does.
    if (cfg_.rts_cts)
      duration = control_frame_airtime(kRtsBytes) + kSifs;
    for (Contender* c : on_air_) {
      Slot& s = *find(c);
      s.cw = std::min(2 * s.cw + 1, edca_params(c->access_category()).cw_max);
    }
  } else {
    ++txops_;
    Contender* w = on_air_.front();
    find(w)->cw = edca_params(w->access_category()).cw_min;
  }

  total_busy_ += duration;
  for (Contender* c : on_air_) find(c)->airtime += duration;

  on_air_collided_ = collided;
  sim_.schedule_after(duration + cfg_.slack, [this] { end_exchange(); });
}

void Medium::end_exchange() {
  W11_CHECK(busy_);
  busy_ = false;
  // By index: end_txop may re-enter detach(), which nulls but never
  // resizes; nothing else touches on_air_ until the next grant().
  for (std::size_t i = 0; i < on_air_.size(); ++i)
    if (Contender* c = on_air_[i]) c->end_txop(on_air_collided_);
  maybe_start_round();
}

Time Medium::airtime_of(const Contender* c) const {
  for (const auto& s : slots_)
    if (s.contender == c) return s.airtime;
  return Time{};
}

double Medium::utilization(Time since, Time busy_at_since) const {
  const Time window = sim_.now() - since;
  if (window <= Time{0}) return 0.0;
  const Time busy = total_busy_ - busy_at_since;
  return std::clamp(static_cast<double>(busy.ns()) / static_cast<double>(window.ns()),
                    0.0, 1.0);
}

}  // namespace w11::mac
