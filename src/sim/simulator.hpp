#pragma once
// Discrete-event simulation engine.
//
// The Simulator executes (time, sequence, callback) events in (time, seq)
// order: events scheduled for the same instant run in scheduling order (the
// sequence number breaks ties deterministically). Handles returned by
// schedule() can cancel pending events, which is how timers are retired.
//
// Storage is slab-allocated event records recycled through a free list,
// small-buffer-optimized callbacks (sim::SmallFn) so per-packet lambdas do
// not heap-allocate, a 4-ary indexed heap over compact (time, seq, slot)
// keys, and generation-counted handles for O(1) cancellation. Steady-state
// scheduling is allocation-free (DESIGN.md §11).
//
// The pre-overhaul engine (a std::priority_queue of fat records and one
// heap-allocated cancel flag per event) lives on as
// oracle::ReferenceSimulator in the test-only oracle/ library. EngineGolden
// proves the two pop the identical (time, seq) stream, which any correct
// engine must since seq is unique.

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "common/check.hpp"
#include "common/time.hpp"
#include "obs/trace.hpp"
#include "sim/event_arena.hpp"
#include "sim/small_fn.hpp"

namespace w11 {

class EventHandle;

class Simulator {
 public:
  using Callback = sim::SmallFn;

  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] Time now() const { return now_; }

  // Schedule `cb` at absolute time `at` (must be >= now). Returns a handle
  // that can cancel the event while it is still pending. Templated so the
  // capture is constructed directly inside the slab record — no relocating
  // move of the callable between the call site and the event store.
  template <typename F>
  EventHandle schedule_at(Time at, F&& cb);

  // Schedule `cb` after a relative delay.
  template <typename F>
  EventHandle schedule_after(Time delay, F&& cb);

  // Run until the queue drains or simulated time exceeds `until`.
  void run_until(Time until);

  // Run until the queue drains entirely.
  void run();

  // Execute at most one event; returns false if the queue was empty.
  bool step();

  [[nodiscard]] std::size_t pending_events() const { return live_events_; }
  [[nodiscard]] std::uint64_t processed_events() const { return processed_; }

  // --- structured tracing (DESIGN.md §12) --------------------------------
  // Attach an obs recorder: every dispatched event records a kSimEvent
  // stamped with its (sim time, seq), and the recorder's clock is bound to
  // this simulator so sim-attached instrumentation sites (AP, FastACK,
  // PlanApplier, RolloutCoordinator) stamp sim virtual time. Attaching is
  // the runtime debug switch of the packet-level testbed.
  // Detached (default) the hot loop pays one null check. Any previously
  // attached recorder is unbound from this simulator's clock.
  void set_tracer(obs::TraceRecorder* t) {
    if (tracer_ != nullptr) tracer_->bind_clock(nullptr);
    tracer_ = t;
    if (tracer_ != nullptr) tracer_->bind_clock(&now_);
  }
  [[nodiscard]] obs::TraceRecorder* tracer() const { return tracer_; }

 private:
  void pop_and_run();

  Time now_{};
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::size_t live_events_ = 0;

  // The tag is heap-allocated so outstanding handles can outlive the
  // Simulator; ~Simulator nulls tag_->arena and drops its reference.
  std::unique_ptr<sim_detail::EventArena> arena_;
  sim_detail::ArenaTag* tag_ = nullptr;
  sim_detail::TimerHeap heap_;

  obs::TraceRecorder* tracer_ = nullptr;

  friend class EventHandle;
};

// Cancellation token for a scheduled event. Copyable; cancelling any copy
// cancels the event. A default-constructed handle is inert. Every
// degenerate use is a safe no-op: cancelling after the event ran, after the
// slot was recycled for a newer event (the generation check fails), or
// after the Simulator itself was destroyed (the shared ArenaTag's arena
// pointer is nulled by ~Simulator, and the tag outlives both sides via its
// refcount — non-atomic on purpose, see ArenaTag).
class EventHandle {
 public:
  EventHandle() = default;

  EventHandle(const EventHandle& o)
      : tag_(o.tag_), slot_(o.slot_), gen_(o.gen_) {
    if (tag_ != nullptr) ++tag_->refs;
  }
  EventHandle(EventHandle&& o) noexcept
      : tag_(o.tag_), slot_(o.slot_), gen_(o.gen_) {
    o.tag_ = nullptr;
  }
  EventHandle& operator=(const EventHandle& o) {
    if (this != &o) {
      release_tag();
      tag_ = o.tag_;
      slot_ = o.slot_;
      gen_ = o.gen_;
      if (tag_ != nullptr) ++tag_->refs;
    }
    return *this;
  }
  EventHandle& operator=(EventHandle&& o) noexcept {
    if (this != &o) {
      release_tag();
      tag_ = o.tag_;
      o.tag_ = nullptr;
      slot_ = o.slot_;
      gen_ = o.gen_;
    }
    return *this;
  }
  ~EventHandle() { release_tag(); }

  void cancel() {
    if (tag_ != nullptr && tag_->arena != nullptr &&
        tag_->arena->live(slot_, gen_))
      tag_->arena->slot(slot_).cancelled = true;
  }

  [[nodiscard]] bool pending() const {
    return tag_ != nullptr && tag_->arena != nullptr &&
           tag_->arena->live(slot_, gen_) &&
           !tag_->arena->slot(slot_).cancelled;
  }

 private:
  EventHandle(sim_detail::ArenaTag* tag, std::uint32_t slot, std::uint32_t gen)
      : tag_(tag), slot_(slot), gen_(gen) {
    ++tag_->refs;
  }

  void release_tag() noexcept {
    if (tag_ != nullptr && --tag_->refs == 0) free_tag(tag_);
    tag_ = nullptr;
  }
  // Out of line: the last reference drops once per Simulator, and an
  // inlined delete makes GCC's -Wuse-after-free misread a copied handle's
  // destructor sequence.
  static void free_tag(sim_detail::ArenaTag* tag) noexcept;

  sim_detail::ArenaTag* tag_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
  friend class Simulator;
};

// --- hot-path definitions ---------------------------------------------------
// Scheduling and dispatch live in the header so call sites (per-packet
// lambdas on the wire/MAC paths, the bench loops) can inline the whole
// schedule -> heap-push and pop -> run sequences.

template <typename F>
inline EventHandle Simulator::schedule_at(Time at, F&& cb) {
  W11_CHECK_MSG(at >= now_, "cannot schedule into the past");
  const std::uint64_t seq = next_seq_++;
  ++live_events_;
  const std::uint32_t idx = arena_->acquire();
  sim_detail::EventSlot& s = arena_->slot(idx);
  if constexpr (std::is_same_v<std::remove_cvref_t<F>, Callback>) {
    s.cb = std::forward<F>(cb);
  } else {
    s.cb.emplace(std::forward<F>(cb));
  }
  heap_.push({at, seq, idx});
  return EventHandle{tag_, idx, s.gen};
}

template <typename F>
inline EventHandle Simulator::schedule_after(Time delay, F&& cb) {
  return schedule_at(now_ + delay, std::forward<F>(cb));
}

inline void Simulator::pop_and_run() {
  const sim_detail::TimerHeap::Entry entry = heap_.top();
  heap_.pop();
  --live_events_;
  now_ = entry.at;
  sim_detail::EventSlot& slot = arena_->slot(entry.slot);
  if (slot.cancelled) {
    arena_->release(entry.slot);
    return;
  }
  ++processed_;
  if (tracer_ != nullptr)
    tracer_->record_at(entry.at, obs::TraceKind::kSimEvent, entry.seq);
  // Run the callback in place: the slot is off the free list while it
  // executes and chunk addresses are stable, so the captures cannot move
  // or be overwritten even if the callback schedules new events. release()
  // afterwards destroys the captures and bumps the generation, making the
  // event's own handle inert; a self-cancel during the callback only sets
  // a flag on a slot that is already past its cancellation check.
  slot.cb();
  arena_->release(entry.slot);
}

inline void Simulator::run_until(Time until) {
  while (!heap_.empty() && heap_.top().at <= until) pop_and_run();
  if (now_ < until) now_ = until;
}

inline void Simulator::run() {
  while (!heap_.empty()) pop_and_run();
}

inline bool Simulator::step() {
  if (heap_.empty()) return false;
  pop_and_run();
  return true;
}

// A repeating timer built on the Simulator. Fires first after `period`
// (or `first_delay` if given), then every `period` until stopped/destroyed.
class PeriodicTimer {
 public:
  PeriodicTimer(Simulator& sim, Time period, Simulator::Callback cb)
      : PeriodicTimer(sim, period, period, std::move(cb)) {}

  PeriodicTimer(Simulator& sim, Time first_delay, Time period, Simulator::Callback cb)
      : sim_(sim), period_(period), cb_(std::move(cb)) {
    W11_CHECK(period_ > Time{0});
    arm(first_delay);
  }

  ~PeriodicTimer() { stop(); }
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void stop() { handle_.cancel(); }

 private:
  void arm(Time delay) {
    handle_ = sim_.schedule_after(delay, [this] {
      arm(period_);
      cb_();
    });
  }

  Simulator& sim_;
  Time period_;
  Simulator::Callback cb_;
  EventHandle handle_;
};

// A restartable one-shot timer (an RTO, a delayed ACK) that keeps at most
// one event in the queue however often it is re-armed. Moving the deadline
// later only records it: the pending event, when it fires early, reschedules
// itself at the deadline. Only moving it earlier cancels and reschedules.
// The callback runs once, at the last armed deadline, unless disarmed first.
// A restarted timer's event takes its seq when it reschedules, not when it
// is re-armed (DESIGN.md §11).
class DeadlineTimer {
 public:
  DeadlineTimer(Simulator& sim, Simulator::Callback cb)
      : sim_(sim), cb_(std::move(cb)) {}

  ~DeadlineTimer() { event_.cancel(); }
  DeadlineTimer(const DeadlineTimer&) = delete;
  DeadlineTimer& operator=(const DeadlineTimer&) = delete;

  void arm_at(Time at) {
    deadline_ = at;
    armed_ = true;
    if (event_.pending() && event_at_ <= at) return;
    event_.cancel();
    schedule(at);
  }
  void arm_after(Time delay) { arm_at(sim_.now() + delay); }

  // The pending event stays queued and, unarmed, does nothing when it fires.
  void disarm() { armed_ = false; }
  [[nodiscard]] bool armed() const { return armed_; }

 private:
  void schedule(Time at) {
    event_at_ = at;
    event_ = sim_.schedule_at(at, [this] { fire(); });
  }

  void fire() {
    // Drop the running event's handle first: a callback that re-arms the
    // timer must see nothing pending and schedule anew.
    event_ = EventHandle{};
    if (!armed_) return;
    if (sim_.now() < deadline_) {
      schedule(deadline_);
      return;
    }
    armed_ = false;
    cb_();
  }

  Simulator& sim_;
  Simulator::Callback cb_;
  EventHandle event_;
  Time event_at_{};
  Time deadline_{};
  bool armed_ = false;
};

}  // namespace w11
