#pragma once
// Metrics registry (DESIGN.md §12): named counters / gauges / fixed-bucket
// histograms with cheap pre-resolved handles, sharded per recording thread
// ("lane") so TaskPool bodies can record without contention, merged
// deterministically in lane-registration order.
//
// A registry belongs to a run. Components count in their own Stats; a run
// that wants a metrics dump or a flight-ring catalog snapshots those Stats
// into a registry it owns, at the run's edge (Testbed::run under
// W11_TRACE, run_rollout_scenario's flight ring). There is no process-wide
// registry.
//
// Cost model: one thread-local cache probe plus one add into the lane's
// own flat array; no locks, no allocation after the lane's first touch of
// a metric id.
//
// Merge semantics (snapshot()):
//   * counters — summed across lanes (order-free by construction);
//   * histograms — per-bucket counts, sum, count summed; min/max folded;
//   * gauges — single-writer by contract; the *latest* set wins, resolved
//     deterministically by a per-registry set-sequence stamp.
//
// Snapshots are taken at quiescent points (after parallel_for returned, at
// end of run) — the exec layer's barrier gives the happens-before edge.

#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.hpp"

namespace w11::obs {

class MetricsRegistry;

// Pre-resolved handles: one uint32 id into the registry's descriptor table.
// Copyable, trivially destructible, safe to stash in function-local
// statics. A default-constructed handle is inert.
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t n = 1) const;
  [[nodiscard]] bool valid() const { return reg_ != nullptr; }

 private:
  Counter(MetricsRegistry* reg, std::uint32_t id) : reg_(reg), id_(id) {}
  MetricsRegistry* reg_ = nullptr;
  std::uint32_t id_ = 0;
  friend class MetricsRegistry;
};

class Gauge {
 public:
  Gauge() = default;
  void set(double v) const;
  [[nodiscard]] bool valid() const { return reg_ != nullptr; }

 private:
  Gauge(MetricsRegistry* reg, std::uint32_t id) : reg_(reg), id_(id) {}
  MetricsRegistry* reg_ = nullptr;
  std::uint32_t id_ = 0;
  friend class MetricsRegistry;
};

class Histogram {
 public:
  Histogram() = default;
  void observe(double v) const;
  [[nodiscard]] bool valid() const { return reg_ != nullptr; }

 private:
  Histogram(MetricsRegistry* reg, std::uint32_t id) : reg_(reg), id_(id) {}
  MetricsRegistry* reg_ = nullptr;
  std::uint32_t id_ = 0;
  friend class MetricsRegistry;
};

class MetricsRegistry {
 public:
  MetricsRegistry();

  // Register-or-look-up by name; idempotent, mutex-guarded. Registering an
  // existing name with a different metric kind throws.
  [[nodiscard]] Counter counter(std::string_view name);
  [[nodiscard]] Gauge gauge(std::string_view name);
  // Bucket upper bounds must be strictly increasing; an implicit +inf
  // bucket is appended. Empty = the default power-of-two ladder 1..2^20.
  [[nodiscard]] Histogram histogram(std::string_view name,
                                    std::vector<double> bounds = {});

  // Eager registration without keeping the handle. A metric that was
  // never registered is absent from snapshot() — indistinguishable from
  // zero. Rate SLIs over quiet windows need the distinction: declare every
  // metric a health SLI reads up front and a quiet window reads a defined
  // 0, never a missing name (tests/test_obs.cpp pins the zero-valued
  // inclusion).
  void declare_counter(std::string_view name) { (void)counter(name); }
  void declare_gauge(std::string_view name) { (void)gauge(name); }
  void declare_histogram(std::string_view name,
                         std::vector<double> bounds = {}) {
    (void)histogram(name, std::move(bounds));
  }

  // --- merged view (quiescent points only) -------------------------------

  struct HistogramView {
    std::vector<double> bounds;         // upper bounds, +inf implicit
    std::vector<std::uint64_t> counts;  // bounds.size() + 1 entries
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
    // Quantile estimate by linear interpolation within the owning bucket
    // (bucket lower..upper bound; the overflow bucket reports max).
    [[nodiscard]] double quantile(double q) const;
  };

  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

  // One flat sample per metric, histograms expanded into derived samples
  // (name.count/.sum/.mean/.p50/.p95/.max) — the shape LittleTable rows
  // and JSON dumps want. Ordered by metric registration order.
  struct Sample {
    std::string name;
    double value = 0.0;
  };
  [[nodiscard]] std::vector<Sample> snapshot() const;

  [[nodiscard]] std::uint64_t counter_value(const Counter& c) const;
  [[nodiscard]] double gauge_value(const Gauge& g) const;
  [[nodiscard]] HistogramView histogram_view(const Histogram& h) const;

  [[nodiscard]] std::size_t metric_count() const;
  [[nodiscard]] std::size_t lanes() const;

  // Zero every shard's values; registrations (names, ids, handles) survive.
  void reset_values();

 private:
  struct Desc {
    std::string name;
    Kind kind;
    std::uint32_t slot;                 // index within its kind's arrays
    std::vector<double> hist_bounds;    // kHistogram only
  };

  struct HistShard {
    std::vector<std::uint64_t> counts;  // bounds.size() + 1, lazily sized
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
  };

  // One lane = one recording thread. Only the owner writes; vectors grow
  // lazily on the owner so registration never touches foreign shards.
  struct Shard {
    std::vector<std::uint64_t> counters;
    std::vector<double> gauges;
    std::vector<std::uint64_t> gauge_stamp;  // 0 = never set
    std::vector<HistShard> hists;
  };

  [[nodiscard]] std::uint32_t register_metric(std::string_view name, Kind kind,
                                              std::vector<double> bounds);
  Shard& local_shard();
  [[nodiscard]] const Desc& desc_of(std::uint32_t id) const {
    return descs_[id];
  }
  [[nodiscard]] HistogramView merge_histogram(const Desc& d) const;

  std::uint64_t id_;  // process-unique, keys the thread-local shard cache

  mutable std::mutex mu_;  // guards descs_ growth and shard registration
  // deque: a handle's desc_of() read is lock-free, so element references
  // must survive later registrations.
  std::deque<Desc> descs_;
  std::uint32_t n_counters_ = 0;
  std::uint32_t n_gauges_ = 0;
  std::uint32_t n_hists_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Monotone stamp for gauge sets: the merged value is the one with the
  // highest stamp. Atomic because lanes stamp concurrently; per-gauge
  // determinism comes from the single-writer contract, not the counter.
  std::atomic<std::uint64_t> gauge_set_seq_{0};

  friend class Counter;
  friend class Gauge;
  friend class Histogram;
};

}  // namespace w11::obs
