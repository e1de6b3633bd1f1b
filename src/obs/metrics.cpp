#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/check.hpp"

namespace w11::obs {

namespace {
std::atomic<std::uint64_t> g_next_registry_id{1};

std::vector<double> default_bounds() {
  // Power-of-two ladder 1, 2, 4, ... 2^20 — a serviceable default for
  // counts, queue depths and microsecond-scale durations.
  std::vector<double> b;
  b.reserve(21);
  for (int i = 0; i <= 20; ++i) b.push_back(static_cast<double>(1u << i));
  return b;
}
}  // namespace

MetricsRegistry::MetricsRegistry()
    : id_(g_next_registry_id.fetch_add(1, std::memory_order_relaxed)) {}

std::uint32_t MetricsRegistry::register_metric(std::string_view name,
                                               Kind kind,
                                               std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::uint32_t i = 0; i < descs_.size(); ++i) {
    if (descs_[i].name == name) {
      if (descs_[i].kind != kind)
        throw std::logic_error("metric '" + std::string(name) +
                               "' re-registered with a different kind");
      return i;
    }
  }
  Desc d;
  d.name = std::string(name);
  d.kind = kind;
  switch (kind) {
    case Kind::kCounter: d.slot = n_counters_++; break;
    case Kind::kGauge: d.slot = n_gauges_++; break;
    case Kind::kHistogram: {
      d.slot = n_hists_++;
      d.hist_bounds = bounds.empty() ? default_bounds() : std::move(bounds);
      for (std::size_t i = 1; i < d.hist_bounds.size(); ++i)
        W11_CHECK_MSG(d.hist_bounds[i] > d.hist_bounds[i - 1],
                      "histogram bounds must be strictly increasing");
      break;
    }
  }
  descs_.push_back(std::move(d));
  return static_cast<std::uint32_t>(descs_.size() - 1);
}

Counter MetricsRegistry::counter(std::string_view name) {
  return Counter(this, register_metric(name, Kind::kCounter, {}));
}

Gauge MetricsRegistry::gauge(std::string_view name) {
  return Gauge(this, register_metric(name, Kind::kGauge, {}));
}

Histogram MetricsRegistry::histogram(std::string_view name,
                                     std::vector<double> bounds) {
  return Histogram(this,
                   register_metric(name, Kind::kHistogram, std::move(bounds)));
}

MetricsRegistry::Shard& MetricsRegistry::local_shard() {
  struct Cache {
    std::uint64_t id = 0;
    Shard* shard = nullptr;
  };
  thread_local Cache cache;
  if (cache.id == id_) return *cache.shard;
  std::lock_guard<std::mutex> lock(mu_);
  shards_.push_back(std::make_unique<Shard>());
  cache = {id_, shards_.back().get()};
  return *cache.shard;
}

void Counter::add(std::uint64_t n) const {
  if (reg_ == nullptr) return;
  MetricsRegistry::Shard& s = reg_->local_shard();
  const MetricsRegistry::Desc& d = reg_->desc_of(id_);
  if (d.slot >= s.counters.size()) s.counters.resize(d.slot + 1, 0);
  s.counters[d.slot] += n;
}

void Gauge::set(double v) const {
  if (reg_ == nullptr) return;
  MetricsRegistry::Shard& s = reg_->local_shard();
  const MetricsRegistry::Desc& d = reg_->desc_of(id_);
  if (d.slot >= s.gauges.size()) {
    s.gauges.resize(d.slot + 1, 0.0);
    s.gauge_stamp.resize(d.slot + 1, 0);
  }
  s.gauges[d.slot] = v;
  s.gauge_stamp[d.slot] =
      reg_->gauge_set_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
}

void Histogram::observe(double v) const {
  if (reg_ == nullptr) return;
  MetricsRegistry::Shard& s = reg_->local_shard();
  const MetricsRegistry::Desc& d = reg_->desc_of(id_);
  if (d.slot >= s.hists.size()) s.hists.resize(d.slot + 1);
  MetricsRegistry::HistShard& h = s.hists[d.slot];
  if (h.counts.empty()) h.counts.assign(d.hist_bounds.size() + 1, 0);
  const auto it =
      std::lower_bound(d.hist_bounds.begin(), d.hist_bounds.end(), v);
  ++h.counts[static_cast<std::size_t>(it - d.hist_bounds.begin())];
  ++h.count;
  h.sum += v;
  h.min = std::min(h.min, v);
  h.max = std::max(h.max, v);
}

std::uint64_t MetricsRegistry::counter_value(const Counter& c) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Desc& d = descs_[c.id_];
  std::uint64_t total = 0;
  for (const auto& s : shards_)
    if (d.slot < s->counters.size()) total += s->counters[d.slot];
  return total;
}

double MetricsRegistry::gauge_value(const Gauge& g) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Desc& d = descs_[g.id_];
  double v = 0.0;
  std::uint64_t best_stamp = 0;
  for (const auto& s : shards_) {
    if (d.slot < s->gauge_stamp.size() && s->gauge_stamp[d.slot] > best_stamp) {
      best_stamp = s->gauge_stamp[d.slot];
      v = s->gauges[d.slot];
    }
  }
  return v;
}

MetricsRegistry::HistogramView MetricsRegistry::merge_histogram(
    const Desc& d) const {
  HistogramView view;
  view.bounds = d.hist_bounds;
  view.counts.assign(d.hist_bounds.size() + 1, 0);
  for (const auto& s : shards_) {
    if (d.slot >= s->hists.size()) continue;
    const HistShard& h = s->hists[d.slot];
    if (h.count == 0) continue;
    for (std::size_t i = 0; i < h.counts.size(); ++i)
      view.counts[i] += h.counts[i];
    view.count += h.count;
    view.sum += h.sum;
    view.min = std::min(view.min, h.min);
    view.max = std::max(view.max, h.max);
  }
  return view;
}

MetricsRegistry::HistogramView MetricsRegistry::histogram_view(
    const Histogram& h) const {
  std::lock_guard<std::mutex> lock(mu_);
  return merge_histogram(descs_[h.id_]);
}

double MetricsRegistry::HistogramView::quantile(double q) const {
  if (count == 0) return 0.0;
  const double target = q * static_cast<double>(count);
  std::uint64_t cum = 0;
  bool first_nonempty = true;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double lo_cum = static_cast<double>(cum);
    cum += counts[i];
    const bool hit = static_cast<double>(cum) >= target;
    if (!hit) {
      first_nonempty = false;
      continue;
    }
    // Interpolate inside bucket i. The true min lives in the first
    // non-empty bucket and the true max in the last, so they tighten the
    // bucket's nominal [lower, upper) where applicable (and give the
    // unbounded overflow bucket a finite upper edge).
    const double lower = first_nonempty ? min : bounds[i - 1];
    const double upper = i < bounds.size() ? std::min(bounds[i], max) : max;
    const double frac = (target - lo_cum) / static_cast<double>(counts[i]);
    return lower + (upper - lower) * std::clamp(frac, 0.0, 1.0);
  }
  return max;
}

std::vector<MetricsRegistry::Sample> MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Sample> out;
  out.reserve(descs_.size());
  for (const Desc& d : descs_) {
    switch (d.kind) {
      case Kind::kCounter: {
        std::uint64_t total = 0;
        for (const auto& s : shards_)
          if (d.slot < s->counters.size()) total += s->counters[d.slot];
        out.push_back({d.name, static_cast<double>(total)});
        break;
      }
      case Kind::kGauge: {
        double v = 0.0;
        std::uint64_t best_stamp = 0;
        for (const auto& s : shards_) {
          if (d.slot < s->gauge_stamp.size() &&
              s->gauge_stamp[d.slot] > best_stamp) {
            best_stamp = s->gauge_stamp[d.slot];
            v = s->gauges[d.slot];
          }
        }
        out.push_back({d.name, v});
        break;
      }
      case Kind::kHistogram: {
        const HistogramView view = merge_histogram(d);
        const double mean =
            view.count > 0 ? view.sum / static_cast<double>(view.count) : 0.0;
        out.push_back({d.name + ".count", static_cast<double>(view.count)});
        out.push_back({d.name + ".sum", view.sum});
        out.push_back({d.name + ".mean", mean});
        out.push_back({d.name + ".p50", view.quantile(0.50)});
        out.push_back({d.name + ".p95", view.quantile(0.95)});
        out.push_back({d.name + ".max", view.count > 0 ? view.max : 0.0});
        break;
      }
    }
  }
  return out;
}

std::size_t MetricsRegistry::metric_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return descs_.size();
}

std::size_t MetricsRegistry::lanes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shards_.size();
}

void MetricsRegistry::reset_values() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& s : shards_) {
    std::fill(s->counters.begin(), s->counters.end(), 0);
    std::fill(s->gauges.begin(), s->gauges.end(), 0.0);
    std::fill(s->gauge_stamp.begin(), s->gauge_stamp.end(), 0);
    for (auto& h : s->hists) {
      std::fill(h.counts.begin(), h.counts.end(), 0);
      h.count = 0;
      h.sum = 0.0;
      h.min = std::numeric_limits<double>::infinity();
      h.max = -std::numeric_limits<double>::infinity();
    }
  }
}

}  // namespace w11::obs
