#include "flowsim/scan_index.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/fnv.hpp"
#include "exec/task_pool.hpp"

// The aggregate rows feed the planner's bit-for-bit contracts (golden plan
// equivalence, audit/kernel parity); value-unsafe FP breaks them.
#ifdef __FAST_MATH__
#error "flowsim/scan_index.cpp must not be compiled with -ffast-math (determinism)"
#endif

namespace w11::flowsim {

// FNV-1a over the scan fields the aggregate row depends on (the
// external_util and quality fields — compute_stats reads nothing else).
// SpectrumMap iteration is key-ordered, so equal content hashes equally
// regardless of insertion history.
std::uint64_t ScanStatsCache::content_hash(const ApScan& s) {
  std::uint64_t h = fnv::kTruncatedOffsetBasis;
  auto mix_map = [&h](const SpectrumMap<int>& m) {
    fnv::mix_value(h, m.size());
    for (const auto& [k, v] : m) {
      fnv::mix_value(h, k);
      fnv::mix_value(h, v);
    }
  };
  mix_map(s.external_util);
  mix_map(s.quality);
  return h;
}

ScanIndex::ScanIndex(const std::vector<ApScan>& scans,
                     Dbm contender_rssi_floor, exec::TaskPool* pool,
                     ScanStatsCache* stats_cache)
    : scans_(&scans), floor_(contender_rssi_floor) {
  const std::size_t n = scans.size();
  n_ordinals_ = channels::catalog_size();
  by_id_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    by_id_.emplace(scans[i].id, static_cast<std::uint32_t>(i));

  recs_.resize(n);
  stats_.resize(n * n_ordinals_);
  for (std::size_t i = 0; i < n; ++i) {
    const ApScan& s = scans[i];
    ApRecord& r = recs_[i];

    // Adjacency restricted to APs present in this epoch, scan-report order.
    r.nbr_begin = static_cast<std::uint32_t>(nbr_flat_.size());
    for (const NeighborReport& nb : s.neighbors) {
      const auto it = by_id_.find(nb.id);
      if (it == by_id_.end()) continue;
      if (it->second == i) r.self_neighbor = true;
      nbr_flat_.push_back(Neighbor{it->second, !(nb.rssi < floor_)});
    }
    r.nbr_end = static_cast<std::uint32_t>(nbr_flat_.size());

    // load(b) per assigned channel width, accumulated in the same (key)
    // order the reference metric iterates so sums are bit-identical.
    r.total_load = s.total_load();
    for (int cw = 0; cw < 4; ++cw) {
      for (int b = 0; b <= cw; ++b) {
        double load = 0.0;
        for (const auto& [w, l] : s.load_by_width) {
          if (std::min(static_cast<int>(w), cw) == b) load += l;
        }
        r.load_at[b][cw] = load;
      }
    }

    // Candidate set (§4.5.2: an AP with connected clients must not move to
    // a DFS channel; DFS-incapable hardware never can). The current channel
    // is always a candidate.
    const channels::CandidateTable& table = channels::candidate_table(
        s.band, s.max_width, s.dfs_capable && !s.has_clients);
    r.cand_begin = static_cast<std::uint32_t>(cand_.size());
    cand_.insert(cand_.end(), table.channels.begin(), table.channels.end());
    cand_ord_.insert(cand_ord_.end(), table.ordinals.begin(),
                     table.ordinals.end());
    const int current_ord = channels::ordinal(s.current);
    if (!table.contains(current_ord)) {
      cand_.push_back(s.current);
      cand_ord_.push_back(current_ord);
    }
    r.cand_end = static_cast<std::uint32_t>(cand_.size());
  }

  // Term numbering: each catalog candidate owns (width level + 1) terms.
  cand_term_begin_.resize(cand_.size() + 1);
  std::uint32_t term = 0;
  for (std::size_t k = 0; k < cand_.size(); ++k) {
    cand_term_begin_[k] = term;
    if (cand_ord_[k] >= 0)
      term += static_cast<std::uint32_t>(cand_[k].width) + 1;
  }
  cand_term_begin_.back() = term;

  // Cross-epoch aggregate reuse: probe the cache serially (it is not
  // thread-safe), mark and remember per-AP hits, then sweep out every row
  // this build did not hit while the probed nodes are still hot. Fresh rows
  // are inserted after the parallel fill, so the cache ends the build
  // holding exactly this build's rows. Hit rows are copied inside the task
  // — reads of immutable cached rows are race-free. The sweep erases only
  // unhit rows and nothing is inserted before the fill, so the row data
  // pointers stay valid.
  std::vector<const ChannelStats*> cached_row(n, nullptr);
  std::vector<std::uint64_t> row_hash;
  if (stats_cache != nullptr) {
    auto& rows = stats_cache->rows_;
    row_hash.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      row_hash[i] = ScanStatsCache::content_hash(scans[i]);
      const auto it = rows.find(row_hash[i]);
      if (it != rows.end()) {
        cached_row[i] = it->second.row.data();
        it->second.used = true;
        ++stats_cache->stats_.hits;
      } else {
        ++stats_cache->stats_.misses;
      }
    }
    for (auto it = rows.begin(); it != rows.end();) {
      if (it->second.used) {
        it->second.used = false;
        ++it;
      } else {
        it = rows.erase(it);
      }
    }
  }

  // Per-catalog-channel aggregates: the dominant build cost, fanned out
  // one AP per task. Task i writes only row i of stats_, and each cell is
  // a pure function of (scan i, catalog channel), so the fill is race-free
  // and bit-identical at any worker count.
  exec::TaskPool& tp = pool ? *pool : exec::TaskPool::global();
  tp.parallel_for(n, [&, this](std::size_t i) {
    ChannelStats* row = stats_.data() + i * n_ordinals_;
    if (cached_row[i] != nullptr) {
      std::memcpy(row, cached_row[i], n_ordinals_ * sizeof(ChannelStats));
    } else {
      for (std::size_t ord = 0; ord < n_ordinals_; ++ord)
        row[ord] =
            compute_stats(scans[i], channels::by_ordinal(static_cast<int>(ord)));
    }
  });

  if (stats_cache != nullptr) {
    // Retain the fresh rows; two APs with identical spectrum maps collapse
    // to one row.
    for (std::size_t i = 0; i < n; ++i) {
      if (cached_row[i] != nullptr) continue;
      const auto [it, inserted] = stats_cache->rows_.try_emplace(row_hash[i]);
      if (!inserted) continue;
      const auto row =
          stats_.begin() + static_cast<std::ptrdiff_t>(i * n_ordinals_);
      it->second.row.assign(row,
                            row + static_cast<std::ptrdiff_t>(n_ordinals_));
    }
  }

  // Reverse contender edges: dependents(x) = { a : x is a contender-eligible
  // neighbor of a }. Counting sort into one flat array.
  std::vector<std::uint32_t> counts(n, 0);
  for (std::size_t i = 0; i < n; ++i)
    for (const Neighbor& nb : neighbors(i))
      if (nb.contender) ++counts[nb.index];
  dep_flat_.resize(std::accumulate(counts.begin(), counts.end(),
                                   std::size_t{0}));
  std::uint32_t offset = 0;
  for (std::size_t i = 0; i < n; ++i) {
    recs_[i].dep_begin = offset;
    offset += counts[i];
    recs_[i].dep_end = recs_[i].dep_begin;  // fill cursor
  }
  for (std::size_t i = 0; i < n; ++i)
    for (const Neighbor& nb : neighbors(i))
      if (nb.contender) dep_flat_[recs_[nb.index].dep_end++] = static_cast<std::uint32_t>(i);
}

std::optional<std::size_t> ScanIndex::find(ApId id) const {
  const auto it = by_id_.find(id);
  if (it == by_id_.end()) return std::nullopt;
  return it->second;
}

ScanIndex::ChannelStats ScanIndex::compute_stats(const ApScan& a,
                                                 const Channel& sub) {
  // Mirrors the reference metric exactly: worst-component external
  // utilization, mean component quality with missing components counted
  // as clean (1.0). Keep the arithmetic order stable — indexed evaluation
  // must be bit-identical to the reference evaluator.
  ChannelStats st;
  double ext = 0.0;
  double quality = 1.0;
  int comps = 0;
  for (int comp : sub.component_span()) {
    const auto u = a.external_util.find(comp);
    if (u != a.external_util.end()) ext = std::max(ext, u->second);
    const auto q = a.quality.find(comp);
    quality += (q != a.quality.end() ? q->second : 1.0);
    ++comps;
  }
  st.external_util = ext;
  st.quality = (quality - 1.0) / std::max(comps, 1);
  return st;
}

}  // namespace w11::flowsim
