#include "core/turboca/plan_context.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.hpp"

// The kernel's bit-for-bit equivalence with the scalar/reference paths
// (golden suites, audit parity) dies under value-unsafe FP.
#ifdef __FAST_MATH__
#error "plan_context.cpp must not be compiled with -ffast-math (determinism)"
#endif

namespace w11::turboca {

namespace {

// The catalog channels `c` overlaps, as a bit set over ordinals. A catalog
// channel reads its precomputed row; any other channel is tested against
// each catalog entry with Channel::overlaps, the scalar path's predicate.
std::uint64_t plan_mask(const Channel& c, int ord) {
  if (ord >= 0) return channels::overlap_masks()[ord];
  std::uint64_t m = 0;
  const int n = static_cast<int>(channels::catalog_size());
  for (int s = 0; s < n; ++s)
    if (c.overlaps(channels::by_ordinal(s))) m |= std::uint64_t{1} << s;
  return m;
}

// What switching AP `a` to `c` disrupts, in NodeP's metric units.
double switch_penalty(const ApScan& a, const Channel& c, const Params& p) {
  if (c == a.current || !a.has_clients) return 0.0;
  double penalty =
      a.band == Band::G2_4 ? p.switch_penalty_24ghz : p.switch_penalty;
  if (a.utilization_current > p.high_util_threshold)
    penalty = std::max(penalty, p.switch_penalty_high_util);
  return penalty;
}

// One width term of log NodeP: the load-weighted log of its metric, with
// non-positive metrics floored.
inline double log_term(double load, double metric) {
  return load * (metric > 1e-12 ? std::log(metric) : kNodePLogFloor);
}

}  // namespace

PlanContext::PlanContext(const flowsim::ScanIndex& index, const Params& params,
                         std::vector<Channel> initial)
    : index_(&index), params_(params), plan_(std::move(initial)) {
  // The contender floor is baked into the index's adjacency; a mismatched
  // pairing would silently mis-count contenders.
  W11_CHECK(index.contender_rssi_floor() == params_.neighbor_rssi_floor);
  W11_CHECK(plan_.size() == index.size());

  const std::size_t n = index.size();
  plan_ord_.reserve(n);
  for (const Channel& c : plan_) plan_ord_.push_back(channels::ordinal(c));

  n_ord_ = channels::catalog_size();
  sub_table_ = channels::sub_channel_table();
  sub_stride_ = channels::sub_channel_stride();
  plan_mask_.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    plan_mask_[i] = plan_mask(plan_[i], plan_ord_[i]);
  psi_.assign(n, 0);
  t_mult_.assign(n, 0);
  live_cnt_.assign(n * n_ord_, 0);
  for (std::size_t i = 0; i < n; ++i) spread(i, plan_mask_[i], +1);

  term_.assign(n, 0.0);
  dirty_.assign(n, 1);
  dirty_list_.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    dirty_list_[i] = static_cast<std::uint32_t>(i);
  touched_.assign(n, 0);

  plan_slot_.resize(n);
  for (std::size_t i = 0; i < n; ++i) plan_slot_[i] = candidate_slot(i);
  memo_.assign(index.term_count() * kMemoCounts,
               std::numeric_limits<double>::quiet_NaN());
}

std::int32_t PlanContext::candidate_slot(std::size_t i) const {
  if (plan_ord_[i] < 0) return -1;
  const std::span<const int> ords = index_->candidate_ordinals(i);
  const auto it = std::find(ords.begin(), ords.end(), plan_ord_[i]);
  return it == ords.end() ? -1 : static_cast<std::int32_t>(it - ords.begin());
}

void PlanContext::mark_dirty(std::size_t i) {
  if (!dirty_[i]) {
    dirty_[i] = 1;
    dirty_list_.push_back(static_cast<std::uint32_t>(i));
  }
}

void PlanContext::set(std::size_t i, const Channel& c) {
  if (plan_[i] == c) return;
  if (round_active_ && !touched_[i]) {
    touched_[i] = 1;
    touched_list_.push_back(static_cast<std::uint32_t>(i));
    undo_.emplace_back(static_cast<std::uint32_t>(i), plan_[i]);
  }
  const std::uint64_t before = plan_mask_[i];
  plan_[i] = c;
  plan_ord_[i] = channels::ordinal(c);
  plan_mask_[i] = plan_mask(c, plan_ord_[i]);
  plan_slot_[i] = candidate_slot(i);
  if (!psi_[i]) {
    spread(i, before & ~plan_mask_[i], -1);
    spread(i, plan_mask_[i] & ~before, +1);
  }
  mark_dirty(i);
  for (std::uint32_t d : index_->dependents(i)) mark_dirty(d);
}

void PlanContext::spread(std::size_t i, std::uint64_t mask, int delta) {
  if (mask == 0) return;
  for (std::uint32_t d : index_->dependents(i)) {
    std::int32_t* row = live_cnt_.data() + d * n_ord_;
    for (std::uint64_t m = mask; m != 0; m &= m - 1)
      row[std::countr_zero(m)] += delta;
  }
}

void PlanContext::presume_moving(std::size_t i) {
  if (psi_[i]) return;
  psi_[i] = 1;
  ++psi_size_;
  spread(i, plan_mask_[i], -1);
}

void PlanContext::settle(std::size_t i) {
  if (!psi_[i]) return;
  psi_[i] = 0;
  --psi_size_;
  spread(i, plan_mask_[i], +1);
}

double PlanContext::net_p_log() {
  // NetP terms ignore ψ, so the live counts (which exclude ψ) serve them
  // only while ψ is empty — true after every sweep and on entry to a level.
  for (std::uint32_t i : dirty_list_) {
    const std::int32_t slot = plan_slot_[i];
    term_[i] = psi_size_ == 0 && slot >= 0 && !index_->has_self_neighbor(i)
                   ? own_term(i, static_cast<std::size_t>(slot))
                   : log_node_p(i, plan_[i], /*honor_psi=*/false, nullptr);
    dirty_[i] = 0;
  }
  dirty_list_.clear();
  double total = 0.0;
  for (double t : term_) total += t;
  return total;
}

double PlanContext::node_p_log(std::size_t i, const Channel& c,
                               const TrialMove* trial) const {
  return log_node_p(i, c, /*honor_psi=*/true, trial);
}

double PlanContext::node_p_log_terms(std::size_t i, const Channel& c,
                                     std::vector<obs::NodePTerm>* out) const {
  return log_node_p(i, c, /*honor_psi=*/false, nullptr, out);
}

double PlanContext::log_node_p(std::size_t i, const Channel& c, bool honor_psi,
                               const TrialMove* trial,
                               std::vector<obs::NodePTerm>* terms) const {
  const int c_ord = channels::ordinal(c);
  const double total_load = index_->total_load(i);
  double log_p = 0.0;
  const int cw = static_cast<int>(c.width);
  for (int b = 0; b <= cw; ++b) {
    double load = index_->load_at(i, static_cast<ChannelWidth>(b), c.width);
    if (total_load <= 0.0) load = params_.empty_ap_load;
    if (load <= 0.0) continue;
    obs::NodePTerm term;
    const double metric =
        channel_metric(i, c, c_ord, static_cast<ChannelWidth>(b), honor_psi,
                       trial, terms != nullptr ? &term : nullptr);
    const double lt = log_term(load, metric);
    log_p += lt;
    if (terms != nullptr) {
      term.width_mhz = width_mhz(static_cast<ChannelWidth>(b));
      term.load = load;
      term.metric = metric;
      term.log_term = lt;
      terms->push_back(term);
    }
  }
  return log_p;
}

double PlanContext::channel_metric(std::size_t i, const Channel& c, int c_ord,
                                   ChannelWidth b, bool honor_psi,
                                   const TrialMove* trial,
                                   obs::NodePTerm* detail) const {
  const flowsim::ScanIndex& index = *index_;
  const ApScan& a = index.scan(i);

  // The b-wide sub-channel of c and its precomputed spectrum aggregates.
  Channel sub;
  int sub_ord;
  if (c_ord >= 0) {
    sub_ord = channels::sub_channel_ordinal(c_ord, b);
    sub = channels::by_ordinal(sub_ord);
  } else {
    sub = channels::sub_channel(c, b);
    sub_ord = channels::ordinal(sub);
  }
  const flowsim::ScanIndex::ChannelStats st =
      sub_ord >= 0 ? index.stats(i, sub_ord)
                   : flowsim::ScanIndex::compute_stats(a, sub);

  // Same-network contenders whose planned channel overlaps the sub-channel.
  int contenders = 0;
  for (const flowsim::ScanIndex::Neighbor& nb : index.neighbors(i)) {
    if (!nb.contender) continue;
    if (honor_psi && psi_[nb.index]) continue;  // ψ: presume they move
    const bool is_trial = trial && nb.index == trial->index;
    const int po = is_trial ? trial->ordinal : plan_ord_[nb.index];
    bool overlaps;
    if (po >= 0 && sub_ord >= 0) {
      overlaps = channels::overlaps_ordinal(po, sub_ord);
    } else {
      const Channel& pc = is_trial ? trial->channel : plan_[nb.index];
      overlaps = pc.overlaps(sub);
    }
    if (overlaps) ++contenders;
  }

  const double airtime =
      std::clamp((1.0 - st.external_util) / (1.0 + contenders), 0.0, 1.0);

  const double penalty = switch_penalty(a, c, params_);

  if (detail != nullptr) {
    detail->airtime = airtime;
    detail->quality = st.quality;
    detail->penalty = penalty;
    detail->contenders = contenders;
  }

  // capacity(c,b) scales with bandwidth (achievable rate ∝ width); keeping
  // the metric rate-like (able to exceed 1) is what makes wider channels
  // win when airtime is available and lose when contention eats the gain.
  return static_cast<double>(width_mhz(b)) * (airtime * st.quality - penalty);
}

double PlanContext::compute_term_log(std::size_t i, std::size_t k, int b,
                                     int contenders) const {
  const flowsim::ScanIndex& index = *index_;
  const Channel& c = index.candidates(i)[k];
  const auto bw = static_cast<ChannelWidth>(b);
  double load = index.load_at(i, bw, c.width);
  if (index.total_load(i) <= 0.0) load = params_.empty_ap_load;
  if (load <= 0.0) return 0.0;
  const int sub = sub_table_[static_cast<std::size_t>(
                                 index.candidate_ordinals(i)[k]) *
                                 sub_stride_ +
                             static_cast<std::size_t>(b)];
  const flowsim::ScanIndex::ChannelStats& st = index.stats(i, sub);
  const double airtime =
      std::clamp((1.0 - st.external_util) / (1.0 + contenders), 0.0, 1.0);
  const double penalty = switch_penalty(index.scan(i), c, params_);
  const double metric =
      static_cast<double>(width_mhz(bw)) * (airtime * st.quality - penalty);
  return log_term(load, metric);
}

void PlanContext::score_candidates(std::size_t i,
                                   std::span<double> out) const {
  const flowsim::ScanIndex& index = *index_;
  const std::span<const Channel> cands = index.candidates(i);
  const std::span<const int> ords = index.candidate_ordinals(i);
  W11_CHECK(out.size() == cands.size());

  // Scalar fallback slots: an AP reporting itself as a neighbor (degenerate
  // input, where the self-trial bites per candidate) and off-catalog
  // candidates.
  const auto scalar = [&](std::size_t k) {
    const TrialMove self{i, cands[k], ords[k]};
    return node_p_log(i, cands[k], &self);
  };
  if (index.has_self_neighbor(i)) {
    for (std::size_t k = 0; k < cands.size(); ++k) out[k] = scalar(k);
    return;
  }

  // The batched pass: per candidate, one memo read per width term, keyed by
  // the term and i's live count of its sub-channel — no neighbor walk, no
  // geometry calls, and bit-identical to the scalar sum (term_log).
  for (std::size_t k = 0; k < cands.size(); ++k)
    out[k] = ords[k] < 0 ? scalar(k) : own_term(i, k);
}

void PlanContext::acc_scores(std::size_t target,
                             std::span<double> out) const {
  const flowsim::ScanIndex& index = *index_;
  score_candidates(target, out);
  // t_mult per neighbor leg from one pass over dependents(target): d is
  // listed once per contender report of d that names target.
  const std::span<const std::uint32_t> deps = index.dependents(target);
  for (std::uint32_t d : deps) ++t_mult_[d];
  for (const flowsim::ScanIndex::Neighbor& nb : index.neighbors(target)) {
    if (psi_[nb.index]) continue;
    add_neighbor_scores(nb.index, target, t_mult_[nb.index], out);
  }
  for (std::uint32_t d : deps) t_mult_[d] = 0;
}

void PlanContext::add_neighbor_scores(std::size_t nb, std::size_t target,
                                      int t_mult,
                                      std::span<double> inout) const {
  const flowsim::ScanIndex& index = *index_;
  const std::span<const Channel> cands = index.candidates(target);
  const std::span<const int> ords = index.candidate_ordinals(target);
  W11_CHECK(inout.size() == cands.size());

  const std::int32_t slot = plan_slot_[nb];
  if (nb == target || slot < 0) {
    // Scalar fallback: a self-affected AP (degenerate self-neighbor input,
    // where the evaluated channel is the trial channel itself) or a plan
    // channel outside nb's candidate set (off-catalog ones included).
    for (std::size_t k = 0; k < cands.size(); ++k) {
      const TrialMove trial{target, cands[k], ords[k]};
      const Channel& nc = nb == target ? cands[k] : plan_[nb];
      inout[k] += node_p_log(nb, nc, &trial);
    }
    return;
  }

  // nb's planned channel is its candidate `slot`: its width terms, and base
  // contender counts from nb's live counts less target's share (a ψ target
  // has none — its trial channel never counts either).
  if (psi_[target]) t_mult = 0;
  const auto k = static_cast<std::size_t>(slot);
  const int nc_ord = plan_ord_[nb];
  const int cw = static_cast<int>(plan_[nb].width);
  const std::int16_t* sub_row =
      sub_table_ + static_cast<std::size_t>(nc_ord) * sub_stride_;
  const std::int32_t* cnt = live_cnt_.data() + nb * n_ord_;
  const std::uint64_t target_mask = plan_mask_[target];
  const std::uint32_t t0 = index.term_begin(nb)[k];

  // Per width term, the two possible log contributions: target's trial
  // channel overlapping this sub-channel (+t_mult contenders) or not.
  double lt_without[4];
  double lt_with[4];
  for (int b = 0; b <= cw; ++b) {
    const int sub = sub_row[b];
    const int base_cnt =
        cnt[sub] - t_mult * static_cast<int>((target_mask >> sub) & 1u);
    const std::uint32_t t = t0 + static_cast<std::uint32_t>(b);
    lt_without[b] = term_log(nb, k, t, b, base_cnt);
    lt_with[b] =
        t_mult > 0 ? term_log(nb, k, t, b, base_cnt + t_mult) : lt_without[b];
  }

  // One sum per overlap pattern (bit b: the trial overlaps sub-channel b),
  // accumulated in width order exactly as a per-candidate loop would. With
  // t_mult == 0 every pattern sums the same terms, so one sum serves all.
  const unsigned n_patterns = t_mult > 0 ? 1u << (cw + 1) : 1u;
  double psum[16];
  for (unsigned p = 0; p < n_patterns; ++p) {
    double sum = 0.0;
    for (int b = 0; b <= cw; ++b)
      sum += ((p >> b) & 1u) != 0 ? lt_with[b] : lt_without[b];
    psum[p] = sum;
  }
  const unsigned pattern_mask = n_patterns - 1;
  const std::uint8_t* pattern = channels::sub_overlap_patterns() +
                                static_cast<std::size_t>(nc_ord) * n_ord_;
  const Channel& nc = plan_[nb];
  for (std::size_t c = 0; c < cands.size(); ++c) {
    const int ord = ords[c];
    if (ord < 0) {
      const TrialMove trial{target, cands[c], ord};
      inout[c] += node_p_log(nb, nc, &trial);
      continue;
    }
    inout[c] += psum[pattern[ord] & pattern_mask];
  }
}

void PlanContext::begin_round() {
  W11_CHECK(!round_active_);
  round_active_ = true;
}

void PlanContext::commit_round() {
  W11_CHECK(round_active_);
  round_active_ = false;
  undo_.clear();
  for (std::uint32_t i : touched_list_) touched_[i] = 0;
  touched_list_.clear();
}

void PlanContext::rollback_round() {
  W11_CHECK(round_active_);
  round_active_ = false;  // cleared first so set() does not re-log
  for (const auto& [i, prev] : undo_) set(i, prev);
  undo_.clear();
  for (std::uint32_t i : touched_list_) touched_[i] = 0;
  touched_list_.clear();
}

}  // namespace w11::turboca
