#pragma once
// LittleTable-style time-series storage (§2.2, [42]).
//
// The Meraki backend aggregates AP statistics into a clustered time-series
// database; this is an in-memory equivalent with the same usage pattern:
// fixed schema per table, rows keyed by (entity, timestamp), appended in
// (mostly) time order, queried by time range, bucket-aggregated for
// dashboards, and trimmed by retention.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.hpp"

namespace w11::telemetry {

class LittleTable {
 public:
  struct Row {
    std::uint32_t entity = 0;
    Time at{};
    std::vector<double> values;
  };

  // kP50/kP95 compute the bucket's interpolated quantile with
  // common::Samples::quantile, so dashboard numbers and bench summaries
  // agree; they buffer the bucket's values, unlike the streaming aggregates.
  enum class Agg { kSum, kMean, kMin, kMax, kCount, kP50, kP95 };

  LittleTable(std::string name, std::vector<std::string> columns);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<std::string>& columns() const { return columns_; }
  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }
  // Rows the store holds before it must reallocate.
  [[nodiscard]] std::size_t row_capacity() const { return rows_.capacity(); }

  // Insert one row. Values must match the schema width. Out-of-order
  // timestamps are accepted (a sort index is rebuilt lazily).
  void insert(std::uint32_t entity, Time at, std::vector<double> values);

  // Bulk append: moves a whole batch in, validating each row's width and
  // updating sortedness once. Equivalent to insert() per row, but with at
  // most one geometric reallocation and no per-row sorted_ bookkeeping.
  void append(std::vector<Row> batch);

  // Same, for callers that reuse one scratch batch across polls: rows are
  // moved out and `batch` is cleared with its capacity intact, so a
  // steady-state campus poll allocates no outer batch vector at all.
  void append_reusing(std::vector<Row>& batch);

  // All rows in [from, to], optionally restricted to one entity.
  [[nodiscard]] std::vector<Row> query(Time from, Time to,
                                       std::optional<std::uint32_t> entity =
                                           std::nullopt) const;

  // Aggregate `column` over fixed time buckets within [from, to].
  // Returns (bucket start, aggregate) for every non-empty bucket.
  [[nodiscard]] std::vector<std::pair<Time, double>> aggregate(
      std::string_view column, Agg agg, Time from, Time to, Time bucket) const;

  // Single aggregate over the whole range.
  [[nodiscard]] double aggregate_scalar(std::string_view column, Agg agg,
                                        Time from, Time to) const;

  // Retention: drop rows strictly before `cutoff`.
  void trim_before(Time cutoff);

  // Retention window, enforced by amortized compaction at ingest time (the
  // backend's tables are trimmed by the writer, not by readers): rows older
  // than max_age relative to the newest row go; Time{0} disables it.
  // Compaction runs when the window is exceeded by kCompactSlack — one
  // erase per ~slack ingests, not one per row — so steady-state ingest
  // stays amortized O(1) per row. The age probe reads the incrementally
  // tracked oldest resident timestamp, never the sort index: multi-network
  // fleet ingest appends per-campus batches whose timestamps interleave
  // across campuses (every seam is out-of-order), and paying a full table
  // sort per batch just to ask "is anything too old?" would regress ingest
  // to O(n log n) per poll.
  struct Retention {
    Time max_age{0};
  };
  void set_retention(Retention r);
  // Rows dropped by retention so far (trim_before included).
  [[nodiscard]] std::uint64_t rows_trimmed() const { return rows_trimmed_; }

  // Exceed the window by 1/kCompactSlack of its size before compacting.
  static constexpr std::size_t kCompactSlack = 8;

 private:
  [[nodiscard]] std::size_t column_index(std::string_view column) const;
  void ensure_sorted() const;
  void maybe_compact();
  // Trim to the retention window now.
  void enforce_retention();

  std::string name_;
  std::vector<std::string> columns_;
  mutable std::vector<Row> rows_;
  mutable bool sorted_ = true;
  Retention retention_;
  Time newest_{};  // max timestamp ever ingested (age anchor)
  Time oldest_{};  // min timestamp resident (meaningful while !rows_.empty())
  std::uint64_t rows_trimmed_ = 0;
};

}  // namespace w11::telemetry
