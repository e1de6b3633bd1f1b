#include "telemetry/littletable.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"
#include "common/stats.hpp"

namespace w11::telemetry {

LittleTable::LittleTable(std::string name, std::vector<std::string> columns)
    : name_(std::move(name)), columns_(std::move(columns)) {
  W11_CHECK_MSG(!columns_.empty(), "a table needs at least one column");
}

std::size_t LittleTable::column_index(std::string_view column) const {
  for (std::size_t i = 0; i < columns_.size(); ++i)
    if (columns_[i] == column) return i;
  throw std::logic_error("LittleTable '" + name_ + "': unknown column '" +
                         std::string(column) + "'");
}

void LittleTable::insert(std::uint32_t entity, Time at,
                         std::vector<double> values) {
  W11_CHECK_MSG(values.size() == columns_.size(), "schema width mismatch");
  if (!rows_.empty() && at < rows_.back().at) sorted_ = false;
  oldest_ = rows_.empty() ? at : std::min(oldest_, at);
  rows_.push_back(Row{entity, at, std::move(values)});
  newest_ = std::max(newest_, at);
  maybe_compact();
}

void LittleTable::append(std::vector<Row> batch) { append_reusing(batch); }

void LittleTable::append_reusing(std::vector<Row>& batch) {
  if (batch.empty()) return;
  for (const Row& r : batch)
    W11_CHECK_MSG(r.values.size() == columns_.size(), "schema width mismatch");
  // One sortedness check across the seam plus the batch's own ordering;
  // per-row checks are redundant once the batch is known monotone.
  Time prev = rows_.empty() ? batch.front().at : rows_.back().at;
  for (const Row& r : batch) {
    if (r.at < prev) {
      sorted_ = false;
      break;
    }
    prev = r.at;
  }
  // Grow geometrically: reserving exactly size + batch would reallocate
  // and move the whole table on every batch, O(history) per append.
  const std::size_t need = rows_.size() + batch.size();
  if (need > rows_.capacity())
    rows_.reserve(std::max(need, 2 * rows_.capacity()));
  if (rows_.empty()) oldest_ = batch.front().at;
  for (const Row& r : batch) {
    newest_ = std::max(newest_, r.at);
    oldest_ = std::min(oldest_, r.at);
  }
  std::move(batch.begin(), batch.end(), std::back_inserter(rows_));
  batch.clear();
  maybe_compact();
}

void LittleTable::ensure_sorted() const {
  if (sorted_) return;
  std::stable_sort(rows_.begin(), rows_.end(),
                   [](const Row& a, const Row& b) { return a.at < b.at; });
  sorted_ = true;
}

std::vector<LittleTable::Row> LittleTable::query(
    Time from, Time to, std::optional<std::uint32_t> entity) const {
  ensure_sorted();
  const auto lo = std::lower_bound(
      rows_.begin(), rows_.end(), from,
      [](const Row& r, Time t) { return r.at < t; });
  std::vector<Row> out;
  for (auto it = lo; it != rows_.end() && it->at <= to; ++it) {
    if (entity && it->entity != *entity) continue;
    out.push_back(*it);
  }
  return out;
}

std::vector<std::pair<Time, double>> LittleTable::aggregate(
    std::string_view column, Agg agg, Time from, Time to, Time bucket) const {
  W11_CHECK(bucket > Time{0});
  const std::size_t col = column_index(column);
  ensure_sorted();

  const bool quantile_agg = agg == Agg::kP50 || agg == Agg::kP95;

  std::vector<std::pair<Time, double>> out;
  struct Acc {
    double sum = 0.0;
    double mn = std::numeric_limits<double>::infinity();
    double mx = -std::numeric_limits<double>::infinity();
    std::size_t n = 0;
    Samples vals;  // only filled for quantile aggregates
  };
  Acc acc;
  Time bucket_start = from;

  auto flush = [&] {
    if (acc.n == 0) return;
    double v = 0.0;
    switch (agg) {
      case Agg::kSum: v = acc.sum; break;
      case Agg::kMean: v = acc.sum / static_cast<double>(acc.n); break;
      case Agg::kMin: v = acc.mn; break;
      case Agg::kMax: v = acc.mx; break;
      case Agg::kCount: v = static_cast<double>(acc.n); break;
      case Agg::kP50: v = acc.vals.quantile(0.50); break;
      case Agg::kP95: v = acc.vals.quantile(0.95); break;
    }
    out.emplace_back(bucket_start, v);
    acc = Acc{};
  };

  const auto lo = std::lower_bound(
      rows_.begin(), rows_.end(), from,
      [](const Row& r, Time t) { return r.at < t; });
  for (auto it = lo; it != rows_.end() && it->at <= to; ++it) {
    while (it->at >= bucket_start + bucket) {
      flush();
      bucket_start += bucket;
    }
    const double v = it->values[col];
    acc.sum += v;
    acc.mn = std::min(acc.mn, v);
    acc.mx = std::max(acc.mx, v);
    ++acc.n;
    if (quantile_agg) acc.vals.add(v);
  }
  flush();
  return out;
}

double LittleTable::aggregate_scalar(std::string_view column, Agg agg,
                                     Time from, Time to) const {
  const auto buckets = aggregate(column, agg, from, to, to - from + Time{1});
  if (buckets.empty()) return 0.0;
  return buckets.front().second;
}

void LittleTable::trim_before(Time cutoff) {
  ensure_sorted();
  const auto lo = std::lower_bound(
      rows_.begin(), rows_.end(), cutoff,
      [](const Row& r, Time t) { return r.at < t; });
  rows_trimmed_ += static_cast<std::uint64_t>(lo - rows_.begin());
  rows_.erase(rows_.begin(), lo);
  if (!rows_.empty()) oldest_ = rows_.front().at;  // sorted here
}

void LittleTable::set_retention(Retention r) {
  retention_ = r;
  // Enforce immediately so shrinking the window takes effect without
  // waiting for the next ingest to cross the slack threshold.
  enforce_retention();
}

void LittleTable::maybe_compact() {
  // Amortization: act only once the window is exceeded by slack, so the
  // sort + prefix erase is paid once per ~window/kCompactSlack ingested
  // rows instead of on every insert.
  if (retention_.max_age <= Time{0} || rows_.empty()) return;
  const Time budget =
      retention_.max_age + time::nanos(retention_.max_age.ns() /
                                       static_cast<std::int64_t>(kCompactSlack));
  // The incrementally tracked oldest timestamp, not the sort index: a
  // batch append must not force a sort just to ask "is anything old?".
  if (newest_ - oldest_ > budget) enforce_retention();
}

void LittleTable::enforce_retention() {
  if (retention_.max_age > Time{0} && !rows_.empty())
    trim_before(newest_ - retention_.max_age);
}

}  // namespace w11::telemetry
