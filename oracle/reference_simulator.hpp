#pragma once
// ReferenceSimulator: the pre-overhaul event engine, preserved verbatim as
// the behavioural oracle for w11::Simulator (DESIGN.md §11): a
// std::priority_queue of fat (time, seq) records, one shared_ptr<bool>
// cancel flag per event, retire-before-run dispatch. The golden suites
// require the identical processed-event trace and digest from both
// engines (the arena engine's comes from the kSimEvent records of an
// attached obs::TraceRecorder); bench_flowsim measures the arena engine
// against it. Test and bench code only. Do not optimize it.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/fnv.hpp"
#include "common/time.hpp"
#include "sim/simulator.hpp"
#include "sim/small_fn.hpp"

namespace w11::oracle {

class ReferenceSimulator {
 public:
  using Callback = sim::SmallFn;

  // One dispatched event. The digest is a word-wise FNV-1a fold over the
  // full (at.ns, seq) stream; the trace vector keeps the first `capacity`
  // entries so mismatches are debuggable without unbounded memory.
  struct ProcessedEvent {
    Time at;
    std::uint64_t seq;
    friend constexpr bool operator==(const ProcessedEvent&,
                                     const ProcessedEvent&) = default;
  };

  // The event's flag is set when it runs, is cancelled, or is still queued
  // when the simulator dies; pending() is false in all three cases.
  class Handle {
   public:
    Handle() = default;
    void cancel() {
      if (flag_) *flag_ = true;
    }
    [[nodiscard]] bool pending() const { return flag_ && !*flag_; }

   private:
    friend class ReferenceSimulator;
    explicit Handle(std::shared_ptr<bool> flag) : flag_(std::move(flag)) {}
    std::shared_ptr<bool> flag_;
  };

  ReferenceSimulator() = default;
  ReferenceSimulator(const ReferenceSimulator&) = delete;
  ReferenceSimulator& operator=(const ReferenceSimulator&) = delete;
  ~ReferenceSimulator() {
    for (; !queue_.empty(); queue_.pop()) *queue_.top().cancelled = true;
  }

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] std::uint64_t processed_events() const { return processed_; }

  template <typename F>
  Handle schedule_at(Time at, F&& cb) {
    W11_CHECK_MSG(at >= now_, "cannot schedule into the past");
    auto flag = std::make_shared<bool>(false);
    queue_.push(Event{at, next_seq_++, Callback(std::forward<F>(cb)), flag});
    return Handle{std::move(flag)};
  }
  template <typename F>
  Handle schedule_after(Time delay, F&& cb) {
    return schedule_at(now_ + delay, std::forward<F>(cb));
  }

  void run_until(Time until) {
    while (!queue_.empty() && queue_.top().at <= until) pop_and_run();
    if (now_ < until) now_ = until;
  }
  void run() {
    while (!queue_.empty()) pop_and_run();
  }
  bool step() {
    if (queue_.empty()) return false;
    pop_and_run();
    return true;
  }

  void enable_event_trace(std::size_t capacity = 1u << 20) {
    trace_on_ = true;
    trace_capacity_ = capacity;
    trace_.clear();
    trace_.reserve(std::min<std::size_t>(capacity, 4096));
    digest_ = fnv::kOffsetBasis;
  }
  [[nodiscard]] const std::vector<ProcessedEvent>& event_trace() const {
    return trace_;
  }
  [[nodiscard]] std::uint64_t event_digest() const { return digest_; }

 private:
  struct Event {
    Time at;
    std::uint64_t seq;
    Callback cb;
    std::shared_ptr<bool> cancelled;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  void pop_and_run() {
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    now_ = ev.at;
    if (*ev.cancelled) return;
    *ev.cancelled = true;  // retire first: the handle is inert in its callback
    ++processed_;
    if (trace_on_) {
      fnv::mix_word(digest_, static_cast<std::uint64_t>(ev.at.ns()));
      fnv::mix_word(digest_, ev.seq);
      if (trace_.size() < trace_capacity_) trace_.push_back({ev.at, ev.seq});
    }
    ev.cb();
  }

  Time now_{};
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  bool trace_on_ = false;
  std::size_t trace_capacity_ = 0;
  std::uint64_t digest_ = fnv::kOffsetBasis;
  std::vector<ProcessedEvent> trace_;
};

}  // namespace w11::oracle
