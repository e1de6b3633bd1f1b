#include "obs/health/sliding_window.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace w11::obs {

namespace {

const SlidingWindow::Agg kZeroAgg{};

std::vector<double> default_bounds() {
  // Power-of-two ladder 1, 2, 4, ... 2^20: a serviceable default for
  // counts, queue depths and microsecond-scale durations.
  std::vector<double> b;
  b.reserve(21);
  for (int i = 0; i <= 20; ++i) b.push_back(static_cast<double>(1u << i));
  return b;
}

}  // namespace

void SlidingWindow::Agg::merge(const Agg& o) {
  if (o.count == 0) return;
  if (count == 0) {
    min = o.min;
    max = o.max;
  } else {
    min = std::min(min, o.min);
    max = std::max(max, o.max);
  }
  count += o.count;
  sum += o.sum;
  if (buckets.empty()) {
    buckets = o.buckets;
  } else {
    W11_CHECK_MSG(buckets.size() == o.buckets.size(),
                  "merging windows with different bucket ladders");
    for (std::size_t i = 0; i < buckets.size(); ++i) buckets[i] += o.buckets[i];
  }
}

SlidingWindow::SlidingWindow(Time width, std::size_t windows,
                             std::vector<double> bounds)
    : width_(width),
      bounds_(bounds.empty() ? default_bounds() : std::move(bounds)),
      ring_(windows) {
  W11_CHECK_MSG(width.ns() > 0, "sliding window width must be positive");
  W11_CHECK_MSG(windows > 0, "a sliding window needs at least one window");
  for (std::size_t i = 1; i < bounds_.size(); ++i)
    W11_CHECK_MSG(bounds_[i] > bounds_[i - 1],
                  "window bounds must be strictly increasing");
}

void SlidingWindow::advance(Time now) {
  const std::int64_t idx = index_of(now);
  if (newest_ < 0) {
    newest_ = idx;
    return;
  }
  if (idx <= newest_) return;
  const auto n = static_cast<std::int64_t>(ring_.size());
  // Rolling further than the whole ring zeroes everything once.
  const std::int64_t steps = std::min(idx - newest_, n);
  for (std::int64_t k = 1; k <= steps; ++k) slot(newest_ + k) = Agg{};
  newest_ = idx;
}

void SlidingWindow::observe(Time at, double v) {
  const std::int64_t idx = index_of(at);
  if (newest_ >= 0 &&
      idx <= newest_ - static_cast<std::int64_t>(ring_.size())) {
    ++dropped_late_;
    return;
  }
  advance(at);
  Agg& a = slot(idx);
  if (a.buckets.empty()) a.buckets.assign(bounds_.size() + 1, 0);
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++a.buckets[static_cast<std::size_t>(it - bounds_.begin())];
  if (a.count == 0) {
    a.min = v;
    a.max = v;
  } else {
    a.min = std::min(a.min, v);
    a.max = std::max(a.max, v);
  }
  ++a.count;
  a.sum += v;
  ++samples_;
}

SlidingWindow::Agg SlidingWindow::merged(std::size_t n) const {
  Agg out;
  for (std::size_t k = 0; k < std::min(n, ring_.size()); ++k)
    out.merge(window(k));
  return out;
}

const SlidingWindow::Agg& SlidingWindow::window(std::size_t ago) const {
  if (newest_ < 0 || ago >= ring_.size()) return kZeroAgg;
  const std::int64_t idx = newest_ - static_cast<std::int64_t>(ago);
  if (idx < 0) return kZeroAgg;
  return ring_[static_cast<std::size_t>(idx %
                                        static_cast<std::int64_t>(ring_.size()))];
}

double SlidingWindow::quantile(const Agg& a, double q) const {
  if (a.count == 0) return 0.0;
  const double target = q * static_cast<double>(a.count);
  std::uint64_t cum = 0;
  bool first_nonempty = true;
  for (std::size_t i = 0; i < a.buckets.size(); ++i) {
    if (a.buckets[i] == 0) continue;
    const double lo_cum = static_cast<double>(cum);
    cum += a.buckets[i];
    const bool hit = static_cast<double>(cum) >= target;
    if (!hit) {
      first_nonempty = false;
      continue;
    }
    // Interpolate inside bucket i. The true min lives in the first
    // non-empty bucket and the true max in the last, so they tighten the
    // bucket's nominal [lower, upper) where applicable (and give the
    // unbounded overflow bucket a finite upper edge).
    const double lower = first_nonempty ? a.min : bounds_[i - 1];
    const double upper =
        i < bounds_.size() ? std::min(bounds_[i], a.max) : a.max;
    const double frac = (target - lo_cum) / static_cast<double>(a.buckets[i]);
    return lower + (upper - lower) * std::clamp(frac, 0.0, 1.0);
  }
  return a.max;
}

double SlidingWindow::fraction_bad(const Agg& a, double threshold,
                                   bool bad_above) const {
  if (a.count == 0) return 0.0;
  // Fraction of samples strictly above `threshold`, estimated bucket by
  // bucket with the same min/max edge tightening quantile() uses. Exact
  // when the threshold sits on a bucket bound (the recommended spec shape).
  double above = 0.0;
  bool first_nonempty = true;
  for (std::size_t i = 0; i < a.buckets.size(); ++i) {
    const std::uint64_t c = a.buckets[i];
    if (c == 0) continue;
    const double lower = first_nonempty ? a.min : bounds_[i - 1];
    const double upper =
        i < bounds_.size() ? std::min(bounds_[i], a.max) : a.max;
    first_nonempty = false;
    const auto cd = static_cast<double>(c);
    if (upper <= threshold) continue;
    if (lower >= threshold || upper <= lower) {
      above += cd;
    } else {
      above += cd * (upper - threshold) / (upper - lower);
    }
  }
  const double frac = above / static_cast<double>(a.count);
  const double clamped = std::clamp(frac, 0.0, 1.0);
  return bad_above ? clamped : 1.0 - clamped;
}

}  // namespace w11::obs
