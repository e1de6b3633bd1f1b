#pragma once
// PlanContext: the incremental NetP evaluation layer TurboCA runs on.
//
// A PlanContext binds one ScanIndex (a scan epoch) to one evolving channel
// plan, stored densely by AP index (plan_map.hpp converts at the edges).
// It caches every AP's NodeP term and, on a single-AP move, invalidates
// only the mover and the APs whose contention counts can change (the
// index's reverse contender edges), so the ΔNetP of a move costs O(degree)
// term recomputes instead of a full network rescan. Summation always runs
// over all cached terms in scan order, so results stay bit-for-bit
// identical to the reference evaluator.
//
// Ownership / invalidation rules:
//   * ScanIndex outlives the PlanContext and never changes; a new scan
//     epoch means a new index and a new context (services build one of
//     each per firing and run every hop level of the firing on them).
//   * Only set() mutates the plan; it is the single invalidation point.
//   * ψ (the APs ACC presumes are about to move) is context state too:
//     presume_moving()/settle() add and remove members. NetP terms ignore
//     ψ; only ACC's trial scores read it.
//   * Live contender counts: for every AP i and catalog sub-channel s, the
//     number of i's contender reports (with multiplicity, as dependents()
//     lists them) that are outside ψ and whose planned channel overlaps s.
//     set(), presume_moving() and settle() keep them current by touching
//     only the mover's dependents() rows, so the scoring kernels never
//     walk a neighbor list.
//   * begin_round()/commit_round()/rollback_round() bracket one NBO sweep:
//     rollback restores every channel the sweep touched (and re-dirties
//     exactly those terms), which is how TurboCA::run discards a
//     non-improving proposal without rescoring the network.
//   * The memo of NodeP log terms needs no invalidation: each entry is a
//     pure function of (index, params, term, contender count).

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "core/turboca/turboca.hpp"
#include "flowsim/scan_index.hpp"
#include "obs/audit.hpp"

namespace w11::turboca {

class PlanContext {
 public:
  // A candidate assignment being evaluated but not (yet) committed: ACC
  // scores target-moves-to-c by overriding the target's plan entry without
  // touching the context.
  struct TrialMove {
    std::size_t index;
    Channel channel;
    int ordinal;  // channels::ordinal(channel), -1 if non-catalog
  };

  // `initial` holds one channel per indexed AP, in index order.
  PlanContext(const flowsim::ScanIndex& index, const Params& params,
              std::vector<Channel> initial);

  [[nodiscard]] const flowsim::ScanIndex& index() const { return *index_; }
  [[nodiscard]] const Params& params() const { return params_; }

  [[nodiscard]] const Channel& channel_of(std::size_t i) const {
    return plan_[i];
  }
  // The whole plan, dense by index position.
  [[nodiscard]] const std::vector<Channel>& plan() const { return plan_; }

  // Assign AP i's channel; no-op when unchanged. Marks the mover and every
  // dependent NodeP term dirty, updates the dependents' live counts (unless
  // i is in ψ) and records the first touch per round for rollback.
  void set(std::size_t i, const Channel& c);

  // ψ membership (ACC's "presumed to move" set, §4.4.2). presume_moving(i)
  // takes i's planned channel out of every dependent's live counts and
  // settle(i) puts it back; each is a no-op when i is already in / out.
  void presume_moving(std::size_t i);
  void settle(std::size_t i);
  [[nodiscard]] bool presumed_moving(std::size_t i) const {
    return psi_[i] != 0;
  }

  // log NetP of the current plan: recomputes only dirty terms, then sums
  // all cached terms in scan order (bit-identical to a full rescore). The
  // terms ignore ψ. With ψ empty, a dirty term whose AP is planned on one
  // of its candidates (and does not report itself) is the kernel's own
  // term at the live counts; any other term takes the scalar path.
  [[nodiscard]] double net_p_log();

  // log NodeP of AP i operating on channel c against the current plan,
  // with ψ excluded from contention and an optional uncommitted trial move
  // overriding one AP's planned channel.
  [[nodiscard]] double node_p_log(std::size_t i, const Channel& c,
                                  const TrialMove* trial = nullptr) const;

  // The NetP term of AP i on channel c (ψ ignored, no trial), with the
  // §4.4 per-width term breakdown appended to `out` (when non-null). It is
  // the same loop node_p_log runs — the audit (DESIGN.md §12) sees exactly
  // the numbers the optimizer used. This stays on the scalar path
  // deliberately; the kernel parity suite (tests/test_score_kernel.cpp)
  // pins it against score_candidates.
  [[nodiscard]] double node_p_log_terms(std::size_t i, const Channel& c,
                                        std::vector<obs::NodePTerm>* out) const;

  // ---- batched scoring kernel (DESIGN.md §14) ---------------------------
  // One pass over AP i's candidates evaluating log NodeP for EVERY
  // candidate channel at once: per width term, the contender count of its
  // sub-channel from i's live counts and the memoised log term for that
  // count. out[k] must equal — bit for bit —
  //   node_p_log(i, candidates(i)[k], &TrialMove{i, cand_k, ord_k})
  // (the self-trial is what ACC passes; it only differs from a plain
  // node_p_log when an AP degenerately reports itself as a neighbor, in
  // which case the kernel falls back to the scalar loop). out.size() must
  // be candidates(i).size().
  void score_candidates(std::size_t i, std::span<double> out) const;

  // ACC's objective for every candidate k of `target` (out.size() ==
  // candidates(target).size()): score_candidates, then for each neighbor
  // nb of target outside ψ, in scan-report order,
  //   node_p_log(nb, channel_of(nb), &TrialMove{target, cand_k, ord_k})
  // added in turn — bit-identical to that scalar sum.
  void acc_scores(std::size_t target, std::span<double> out) const;

  void begin_round();
  void commit_round();
  void rollback_round();

 private:
  // node_p_log with ψ honoured or ignored (NetP terms ignore it), appending
  // the per-width breakdown to `terms` when non-null.
  [[nodiscard]] double log_node_p(
      std::size_t i, const Channel& c, bool honor_psi, const TrialMove* trial,
      std::vector<obs::NodePTerm>* terms = nullptr) const;
  [[nodiscard]] double channel_metric(std::size_t i, const Channel& c,
                                      int c_ord, ChannelWidth b,
                                      bool honor_psi, const TrialMove* trial,
                                      obs::NodePTerm* detail = nullptr) const;
  void mark_dirty(std::size_t i);
  // Position of AP i's planned channel among its candidates, -1 if absent.
  [[nodiscard]] std::int32_t candidate_slot(std::size_t i) const;
  // Add `delta` to every dependent's live count of each sub-channel in
  // `mask` (one row update per dependents() entry of i).
  void spread(std::size_t i, std::uint64_t mask, int delta);

  // The ACC neighbor leg, batched over trial channels: adds
  //   node_p_log(nb, channel_of(nb), &TrialMove{target, cand_k, ord_k})
  // to inout[k] for every candidate k of `target`. `t_mult` is how many of
  // nb's contender reports name target. The base contender counts come
  // from nb's live counts with target's share taken out; the ≤4 log terms
  // of nb's planned channel with and without target fold into ≤16 pattern
  // sums, and each candidate adds the one its sub_overlap_patterns() entry
  // selects.
  void add_neighbor_scores(std::size_t nb, std::size_t target, int t_mult,
                           std::span<double> inout) const;

  // Log term number t = term_begin(i)[k] + b of AP i (its candidate k's
  // b-wide sub-channel) under `contenders` contenders: the scalar metric's
  // arithmetic, expression for expression, and +0.0 for a term whose load
  // the scalar loop skips (adding +0.0 to a sum that started at +0.0 leaves
  // its bits unchanged). Counts below kMemoCounts are memoised.
  [[nodiscard]] double term_log(std::size_t i, std::size_t k, std::uint32_t t,
                                int b, int contenders) const {
    if (static_cast<unsigned>(contenders) < kMemoCounts) {
      double& m = memo_[t * kMemoCounts + static_cast<unsigned>(contenders)];
      if (std::isnan(m)) m = compute_term_log(i, k, b, contenders);
      return m;
    }
    return compute_term_log(i, k, b, contenders);
  }
  [[nodiscard]] double compute_term_log(std::size_t i, std::size_t k, int b,
                                        int contenders) const;
  // Log NodeP of AP i on its catalog candidate k, ψ excluded from the
  // counts: one term_log per width term at i's live count of its
  // sub-channel. score_candidates' batched pass and net_p_log's fast path.
  [[nodiscard]] double own_term(std::size_t i, std::size_t k) const {
    const std::int32_t* cnt = live_cnt_.data() + i * n_ord_;
    const std::int16_t* sub =
        sub_table_ +
        static_cast<std::size_t>(index_->candidate_ordinals(i)[k]) *
            sub_stride_;
    const std::uint32_t t0 = index_->term_begin(i)[k];
    const int cw = static_cast<int>(index_->candidates(i)[k].width);
    double log_p = 0.0;
    for (int b = 0; b <= cw; ++b)
      log_p += term_log(i, k, t0 + static_cast<std::uint32_t>(b), b,
                        cnt[sub[b]]);
    return log_p;
  }

  // Contender counts 0..3 cover nearly every term evaluation.
  static constexpr unsigned kMemoCounts = 4;

  const flowsim::ScanIndex* index_;
  Params params_;
  std::vector<Channel> plan_;
  std::vector<int> plan_ord_;
  // Catalog channels overlapping each AP's planned channel (bit s set iff
  // plan_[i].overlaps(by_ordinal(s))), off-catalog plans included.
  std::vector<std::uint64_t> plan_mask_;
  std::vector<char> psi_;
  std::size_t psi_size_ = 0;
  // Live contender counts, row-major [AP][catalog ordinal].
  std::vector<std::int32_t> live_cnt_;
  std::size_t n_ord_ = 0;
  // channels::sub_channel_table() and its stride.
  const std::int16_t* sub_table_ = nullptr;
  std::size_t sub_stride_ = 0;
  // acc_scores scratch: how many of each AP's contender reports name the
  // current target. Zero between calls; a PlanContext is single-threaded.
  mutable std::vector<std::int32_t> t_mult_;
  // Which candidate of AP i its planned channel is, -1 when the plan is
  // outside i's candidate set (the neighbor leg's scalar fallback).
  std::vector<std::int32_t> plan_slot_;
  // Memo of log terms, [term * kMemoCounts + contenders], NaN = not yet
  // computed. Every value is a pure function of (index, params, term,
  // count) — never of the plan or ψ — so it is never invalidated. A NaN
  // result stays NaN and is recomputed on each read.
  mutable std::vector<double> memo_;
  std::vector<double> term_;
  std::vector<char> dirty_;
  std::vector<std::uint32_t> dirty_list_;
  bool round_active_ = false;
  std::vector<std::pair<std::uint32_t, Channel>> undo_;  // first touches
  std::vector<char> touched_;
  std::vector<std::uint32_t> touched_list_;
};

}  // namespace w11::turboca
