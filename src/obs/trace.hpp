#pragma once
// Structured trace recorder (DESIGN.md §12): one bounded ring of typed
// events stamped with *simulated* virtual time.
//
// A recorder belongs to one run and has one writer, the thread that runs
// it; concurrent runs each own a recorder. Exports must be byte-stable, so
// three rules hold:
//
//   * Timestamps are sim virtual time (or a caller-supplied logical time),
//     never wall clock.
//   * Every event carries a caller-supplied deterministic ordinal `ord`
//     (the simulator's event sequence number, a flow id, a wave index)
//     that orders events sharing a timestamp. merged() stable-sorts on
//     (ts, ord, kind, a, b), so export order never depends on the order
//     the events were recorded in.
//   * One writer per recorder: record() appends to the ring without a
//     lock, and merged()/exports read it once the run has stopped writing.
//
// The ring is a common::BoundedRing (common/ring.hpp): overflow evicts and
// counts the oldest event, and an unattached recorder allocates nothing.

#include <cstdint>
#include <vector>

#include "common/ring.hpp"
#include "common/time.hpp"

namespace w11::obs {

// Every instrumented site in the tree, one contiguous block per category
// (category() relies on it). New sites append to their category block; the
// exporter maps categories to Perfetto tracks.
enum class TraceKind : std::uint16_t {
  // sim
  kSimEvent,        // one dispatched simulator event; ord = event seq
  // mac
  kAmpduTx,         // A-MPDU formation + airtime; a = MPDU bundles, b = batch frames
  // fastack — the paper's fn. 9 "debug switches". ord = flow id, a = seq or
  // ack, b = length, rwnd or count. Declared in datapath order so one
  // flow's events at one instant sort causally under merged().
  kFastAckFlowCreated,      // first segment of a flow; a = seq
  kFastAckDataSpurious,     // case (i), dropped; a = seq, b = length
  kFastAckDataRetransmit,   // case (ii), end-to-end retx; a = seq, b = length
  kFastAckHoleDetected,     // case (iv); a = hole start, b = hole length
  kFastAckHoleDupAck,       // emulated dup-ACK for the hole; a = ack, b = rwnd
  kFastAckDataInOrder,      // case (iii); a = seq, b = length
  kFastAckAirAck,           // 802.11 ACK absorbed into q_seq; a = seq, b = length
  kFastAckSynth,            // synthesized cumulative ACK; a = ack, b = rwnd
  kFastAckWindowUpdate,     // pure window update; a = ack, b = rwnd
  kFastAckClientDupAck,     // duplicate client ACK; a = ack, b = dup count
  kFastAckLocalRetransmit,  // one cached segment re-injected; a = seq, b = length
  kFastAckCacheServe,       // the whole local retx burst; a = from seq, b = segments
  kFastAckClientAckPassed,  // client ACK forwarded upstream; a = ack
  kFastAckSuppress,         // client ACK suppressed; a = ack, b = rwnd
  kFastAckMpduDropped,      // 802.11 retries exhausted; a = seq, b = length
  kFastAckBypass,           // flow dropped to bypass; a = seq_fack, b = seq_exp
  kFastAckFlowEvicted,      // idle-timeout or capacity GC; a = seq_fack
  // telemetry
  kCollectorPoll,   // one collector polling interval; a = rows, b = dropped
  // ctrl (plan rollout)
  kRolloutApply,    // one AP reached kApplied; a = attempts, b = switched
  kRolloutWave,     // one wave launched; ord = wave index, a = wave size
  kRolloutRevert,   // rollout reverted; a = RevertReason, b = APs touched
  // health (SLO evaluator + flight recorder)
  kHealthBreach,    // SLO breached; ord = SLO index, a = Severity, b = burn*1e3
  kHealthRecovery,  // SLO recovered; ord = SLO index, a = Severity, b = burn*1e3
  kPostmortem,      // flight-recorder bundle dumped; ord = seq, a = Trigger
};

enum class TraceCategory : std::uint8_t { kSim, kMac, kFastAck, kTelemetry, kCtrl, kHealth };

[[nodiscard]] constexpr const char* to_string(TraceKind k) {
  switch (k) {
    case TraceKind::kSimEvent: return "sim.event";
    case TraceKind::kAmpduTx: return "mac.ampdu_tx";
    case TraceKind::kFastAckFlowCreated: return "fastack.flow_created";
    case TraceKind::kFastAckDataSpurious: return "fastack.data_spurious";
    case TraceKind::kFastAckDataRetransmit: return "fastack.data_retx";
    case TraceKind::kFastAckHoleDetected: return "fastack.hole_detected";
    case TraceKind::kFastAckHoleDupAck: return "fastack.hole_dupack";
    case TraceKind::kFastAckDataInOrder: return "fastack.data_in_order";
    case TraceKind::kFastAckAirAck: return "fastack.air_ack";
    case TraceKind::kFastAckSynth: return "fastack.synth";
    case TraceKind::kFastAckWindowUpdate: return "fastack.window_update";
    case TraceKind::kFastAckClientDupAck: return "fastack.client_dupack";
    case TraceKind::kFastAckLocalRetransmit: return "fastack.local_retx";
    case TraceKind::kFastAckCacheServe: return "fastack.cache_serve";
    case TraceKind::kFastAckClientAckPassed: return "fastack.client_ack_passed";
    case TraceKind::kFastAckSuppress: return "fastack.suppress";
    case TraceKind::kFastAckMpduDropped: return "fastack.mpdu_dropped";
    case TraceKind::kFastAckBypass: return "fastack.bypass";
    case TraceKind::kFastAckFlowEvicted: return "fastack.flow_evicted";
    case TraceKind::kCollectorPoll: return "telemetry.poll";
    case TraceKind::kRolloutApply: return "ctrl.rollout_apply";
    case TraceKind::kRolloutWave: return "ctrl.rollout_wave";
    case TraceKind::kRolloutRevert: return "ctrl.rollout_revert";
    case TraceKind::kHealthBreach: return "health.breach";
    case TraceKind::kHealthRecovery: return "health.recovery";
    case TraceKind::kPostmortem: return "health.postmortem";
  }
  return "?";
}

// Each category is one contiguous block of the enum, in declaration order.
[[nodiscard]] constexpr TraceCategory category(TraceKind k) {
  if (k < TraceKind::kAmpduTx) return TraceCategory::kSim;
  if (k < TraceKind::kFastAckFlowCreated) return TraceCategory::kMac;
  if (k < TraceKind::kCollectorPoll) return TraceCategory::kFastAck;
  if (k < TraceKind::kRolloutApply) return TraceCategory::kTelemetry;
  if (k < TraceKind::kHealthBreach) return TraceCategory::kCtrl;
  return TraceCategory::kHealth;
}

[[nodiscard]] constexpr const char* to_string(TraceCategory c) {
  switch (c) {
    case TraceCategory::kSim: return "sim";
    case TraceCategory::kMac: return "mac";
    case TraceCategory::kFastAck: return "fastack";
    case TraceCategory::kTelemetry: return "telemetry";
    case TraceCategory::kCtrl: return "ctrl";
    case TraceCategory::kHealth: return "health";
  }
  return "?";
}

[[nodiscard]] constexpr std::uint32_t category_bit(TraceCategory c) {
  return 1u << static_cast<unsigned>(c);
}
inline constexpr std::uint32_t kAllCategories = 0xffffffffu;

struct TraceEvent {
  std::int64_t ts_ns = 0;   // sim virtual time of the event (span begin)
  std::int64_t dur_ns = 0;  // sim-time duration; 0 = instant
  std::uint64_t ord = 0;    // deterministic tie-break ordinal
  std::uint64_t a = 0;      // kind-specific payload
  std::uint64_t b = 0;
  TraceKind kind{};

  friend constexpr bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

using TraceRing = common::BoundedRing<TraceEvent>;

class ScopedSpan;

class TraceRecorder {
 public:
  explicit TraceRecorder(std::size_t capacity = std::size_t{1} << 16)
      : ring_(capacity) {}
  // A simulator binds its clock to a recorder by address.
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  // Runtime gate. Disabled recording is one bool load per site.
  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  // Restrict recording to a category bitmask (category_bit()); kSim's
  // per-event firehose is the usual candidate for masking out.
  void set_category_mask(std::uint32_t mask) { mask_ = mask; }

  // Bind the sim-time source for record()/span() sites that do not pass an
  // explicit timestamp (the pointee must outlive the binding; the Simulator
  // binds &now_). Unbound sites stamp Time{0} and order by ord alone.
  void bind_clock(const Time* clock) { clock_ = clock; }
  [[nodiscard]] Time clock_now() const { return clock_ ? *clock_ : Time{}; }

  void record(TraceKind kind, std::uint64_t ord, std::uint64_t a = 0,
              std::uint64_t b = 0) {
    record_at(clock_now(), kind, ord, a, b);
  }
  // The filter is inline; the ring push, with its growth path, is not, so
  // a site costs an untraced hot path one predictable branch.
  void record_at(Time ts, TraceKind kind, std::uint64_t ord,
                 std::uint64_t a = 0, std::uint64_t b = 0) {
    if (accepts(kind)) push(TraceEvent{ts.ns(), 0, ord, a, b, kind});
  }
  void record_span(Time begin, Time end, TraceKind kind, std::uint64_t ord,
                   std::uint64_t a = 0, std::uint64_t b = 0) {
    if (accepts(kind))
      push(TraceEvent{begin.ns(), (end - begin).ns(), ord, a, b, kind});
  }

  // RAII span: opens at the bound clock's now, records on destruction.
  [[nodiscard]] ScopedSpan span(TraceKind kind, std::uint64_t ord,
                                std::uint64_t a = 0);

  // The ring's events as one deterministic stream: stable sort on
  // (ts, ord, kind, a, b).
  [[nodiscard]] std::vector<TraceEvent> merged() const;

  [[nodiscard]] std::size_t total_events() const { return ring_.size(); }
  [[nodiscard]] std::uint64_t total_dropped() const { return ring_.dropped(); }
  void clear() { ring_.clear(); }

 private:
  [[nodiscard]] bool accepts(TraceKind kind) const {
    return enabled_ && (mask_ & category_bit(category(kind))) != 0;
  }
  void push(const TraceEvent& e);

  bool enabled_ = false;
  std::uint32_t mask_ = kAllCategories;
  const Time* clock_ = nullptr;
  TraceRing ring_;

  friend class ScopedSpan;
};

// RAII helper: stamps the span's begin at construction, records it (with
// duration up to the bound clock's now) at destruction. A span taken while
// recording is disabled stays inert even if the recorder is enabled before
// it closes — half-open spans would break byte-stable golden traces.
class ScopedSpan {
 public:
  ScopedSpan(ScopedSpan&& o) noexcept
      : rec_(o.rec_), begin_(o.begin_), kind_(o.kind_), ord_(o.ord_), a_(o.a_) {
    o.rec_ = nullptr;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ScopedSpan& operator=(ScopedSpan&&) = delete;

  // Attach kind-specific payload discovered mid-span.
  void set_args(std::uint64_t a, std::uint64_t b = 0) { a_ = a; b_ = b; }

  ~ScopedSpan() {
    if (rec_ != nullptr)
      rec_->record_span(begin_, rec_->clock_now(), kind_, ord_, a_, b_);
  }

 private:
  ScopedSpan(TraceRecorder* rec, TraceKind kind, std::uint64_t ord,
             std::uint64_t a)
      : rec_(rec), begin_(rec ? rec->clock_now() : Time{}), kind_(kind),
        ord_(ord), a_(a) {}

  TraceRecorder* rec_;  // nullptr = inert
  Time begin_;
  TraceKind kind_;
  std::uint64_t ord_;
  std::uint64_t a_ = 0;
  std::uint64_t b_ = 0;

  friend class TraceRecorder;
};

inline ScopedSpan TraceRecorder::span(TraceKind kind, std::uint64_t ord,
                                      std::uint64_t a) {
  return ScopedSpan(accepts(kind) ? this : nullptr, kind, ord, a);
}

// W11_TRACE environment gate: true when W11_TRACE is set to anything but
// "" / "0". The caller then records into a recorder of its own and fills a
// registry of its own (Testbed::run attaches one to its simulator).
[[nodiscard]] bool enable_from_env();

// Output path for the exported artifacts: $W11_TRACE_OUT if set, else
// `default_path`.
[[nodiscard]] const char* trace_out_path(const char* default_path);

}  // namespace w11::obs
