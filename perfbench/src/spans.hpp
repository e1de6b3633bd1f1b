#pragma once
// Wall-clock spans recorded by the benchmark around its own calls into each
// layer's public API. Nothing inside the library is instrumented: a span
// opens before the benchmark calls a module function (or before a wrapped
// hook forwards to one) and closes when the call returns.
//
// Spans nest on the calling thread. Each keeps its name, start, end and the
// index of the span that was open when it started (its parent), so a
// layer's self time is its duration minus the time its child spans cover.
// Everything stays in memory until the run ends; write_chrome_trace() then
// emits Chrome trace-event JSON that Perfetto loads next to the sim-time
// trace (pid 1 here; the sim-time tracer uses pid 0).

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = nullptr;  // string literal: spans never own their name
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the recorder's spans, -1 = root
};

// Per-name aggregate over a set of spans.
struct LayerTime {
  std::string name;
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;  // total minus the time child spans cover
};

class SpanRecorder {
 public:
  // Open a span under the innermost open one; returns its index.
  std::size_t open(const char* name);
  void close(std::size_t index);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  // Aggregates by name, in first-seen order.
  [[nodiscard]] std::vector<LayerTime> layer_times() const;

  void write_chrome_trace(std::ostream& os, std::string_view process) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

// Self time of every span: its duration minus the durations of its direct
// children. Spans must be closed; children must lie inside their parent.
[[nodiscard]] std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

// Lookup helper over layer_times(): a missing name reads as zero.
[[nodiscard]] const LayerTime& find_layer(const std::vector<LayerTime>& layers,
                                          std::string_view name);

// RAII span. A null recorder makes it a no-op (no clock reads), which is
// how the untraced run executes the same code path without tracing cost.
class Scoped {
 public:
  Scoped(SpanRecorder* rec, const char* name)
      : rec_(rec), index_(rec ? rec->open(name) : 0) {}
  ~Scoped() {
    if (rec_) rec_->close(index_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanRecorder* rec_;
  std::size_t index_;
};

}  // namespace perfbench
