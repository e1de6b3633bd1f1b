#pragma once
// SLI time-series primitive (DESIGN.md §17): fixed-width sliding-window
// ring aggregation over one named service-level indicator.
//
// Each window of width W covers the half-open sim-time interval
// [k*W, (k+1)*W) for integer k; the ring keeps the newest `windows`
// of them. A window holds a merge-free aggregate — count / sum / min / max
// plus fixed-bucket counts — so per-window quantiles and threshold
// fractions come from one set of interpolation rules, and merging N windows
// (or two partial aggregates of the same window) is order-free: the SLO
// evaluator's numbers are worker-count invariant by construction.
//
// Quiet windows are *defined*, not absent: advance() rolls zeroed
// aggregates into the ring, so a rate SLI over a window with no samples
// reads 0, never a missing value.
// Samples older than the ring's reach are counted (dropped_late()) and
// discarded — never silently folded into the wrong window.

#include <cstdint>
#include <vector>

#include "common/time.hpp"

namespace w11::obs {

class SlidingWindow {
 public:
  // One window's order-free aggregate.
  struct Agg {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  // valid only when count > 0
    double max = 0.0;
    std::vector<std::uint64_t> buckets;  // bounds.size() + 1; empty until used

    [[nodiscard]] double mean() const {
      return count > 0 ? sum / static_cast<double>(count) : 0.0;
    }
    void merge(const Agg& o);
  };

  // `bounds`: strictly increasing bucket upper bounds, with an implicit
  // +inf overflow bucket; empty = the power-of-two ladder 1..2^20.
  SlidingWindow(Time width, std::size_t windows,
                std::vector<double> bounds = {});

  // Record one sample at sim time `at`. Advances the ring if `at` lands
  // past the newest window; counts (and drops) samples older than the ring.
  void observe(Time at, double v);

  // Roll the ring forward so `now` lands in the newest window, zeroing
  // every window rolled in. Idempotent; called at poll boundaries so quiet
  // windows exist as zeros.
  void advance(Time now);

  // Merge of the newest `n` windows (clamped to the ring size). Windows
  // never observed read as zero aggregates.
  [[nodiscard]] Agg merged(std::size_t n) const;

  // The window `ago` steps behind the newest (0 = newest). Zero aggregate
  // when beyond history.
  [[nodiscard]] const Agg& window(std::size_t ago) const;

  // Quantile / threshold readings by linear interpolation inside the
  // owning bucket (min/max tighten the bucket's nominal edges; the overflow
  // bucket reports max). fraction_bad: estimated fraction of samples
  // strictly above (bad_above) or at-or-below (otherwise) `threshold`; 0
  // when count == 0 — quiet is good.
  [[nodiscard]] double quantile(const Agg& a, double q) const;
  [[nodiscard]] double fraction_bad(const Agg& a, double threshold,
                                    bool bad_above) const;

  [[nodiscard]] Time width() const { return width_; }
  [[nodiscard]] std::size_t windows() const { return ring_.size(); }
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  [[nodiscard]] std::uint64_t samples() const { return samples_; }
  [[nodiscard]] std::uint64_t dropped_late() const { return dropped_late_; }

 private:
  [[nodiscard]] std::int64_t index_of(Time t) const {
    const std::int64_t w = width_.ns();
    const std::int64_t n = t.ns();
    // Floor division (sim time can legitimately be 0; negatives defensive).
    return n >= 0 ? n / w : -((-n + w - 1) / w);
  }
  [[nodiscard]] Agg& slot(std::int64_t index) {
    return ring_[static_cast<std::size_t>(index % static_cast<std::int64_t>(
                     ring_.size()))];
  }

  Time width_;
  std::vector<double> bounds_;
  std::vector<Agg> ring_;
  std::int64_t newest_ = -1;  // window index currently at ring front
  std::uint64_t samples_ = 0;
  std::uint64_t dropped_late_ = 0;
};

}  // namespace w11::obs
