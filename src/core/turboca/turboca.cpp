#include "core/turboca/turboca.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <span>

#include "common/check.hpp"
#include "core/turboca/plan_context.hpp"
#include "obs/audit.hpp"

namespace w11::turboca {

TurboCA::TurboCA(Params params, Rng rng)
    : params_(params), rng_(std::move(rng)) {}

Channel TurboCA::acc(const PlanContext& ctx, std::size_t target) const {
  const flowsim::ScanIndex& index = ctx.index();
  const ApScan& a = index.scan(target);
  const std::span<const Channel> cands = index.candidates(target);

  // All (channel, width) trials in batched kernel passes (DESIGN.md §14):
  // the target's own term for every candidate at once, then one pass per
  // affected neighbor outside ψ adding its term under each trial. Only
  // target and its neighbors change NodeP when target moves (§4.4.2); the
  // affected sweep deliberately ignores the contender RSSI floor (a
  // sub-floor neighbor's own term can still shift if it hears us). The
  // batched sums accumulate in the exact order the old per-candidate scalar
  // loop did (own term first, then neighbors in scan-report order), so
  // scores — and the selection below — are bit-identical to it.
  std::array<double, channels::kMaxCatalogOrdinals + 1> scores_buf;
  W11_CHECK(cands.size() <= scores_buf.size());
  const std::span<double> scores(scores_buf.data(), cands.size());
  ctx.acc_scores(target, scores);

  Channel best = a.current;
  double best_score = -std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < cands.size(); ++k) {
    // Deterministic tie-break preferring the incumbent channel (stability).
    if (scores[k] > best_score + 1e-9 ||
        (std::abs(scores[k] - best_score) <= 1e-9 && cands[k] == a.current)) {
      best_score = scores[k];
      best = cands[k];
    }
  }
  return best;
}

void TurboCA::plan_sweep(const flowsim::ScanIndex& index, int hop_limit) {
  // Algorithm 1's control flow, drawing the exact RNG sequence of the
  // reference NBO. Group membership and drain order depend only on the
  // epoch's adjacency and loads — never on the evolving plan — so the whole
  // schedule can be fixed up front and the ACC decisions executed after.
  const std::size_t n = index.size();
  order_.clear();
  group_end_.assign(n, 0);

  s_set_.resize(n);  // S <- V
  for (std::size_t i = 0; i < n; ++i) s_set_[i] = static_cast<std::uint32_t>(i);

  // Token-stamped BFS scratch (O(1) reset per group).
  visited_.assign(n, 0);
  std::uint32_t token = 0;

  while (!s_set_.empty()) {
    // line 4: random unassigned AP n.
    const std::size_t pick = rng_.index(s_set_.size());
    const std::uint32_t seed = s_set_[pick];

    // line 5: hop-limited neighborhood of the seed (BFS over the epoch's
    // adjacency; absent neighbor ids can never enter S, so skipping them
    // here matches the id-based reference BFS).
    ++token;
    frontier_.clear();
    visited_[seed] = token;
    frontier_.emplace_back(seed, 0);
    for (std::size_t head = 0; head < frontier_.size(); ++head) {
      const auto [v, depth] = frontier_[head];
      if (depth >= hop_limit) continue;
      for (const flowsim::ScanIndex::Neighbor& nb : index.neighbors(v)) {
        if (visited_[nb.index] != token) {
          visited_[nb.index] = token;
          frontier_.emplace_back(nb.index, depth + 1);
        }
      }
    }

    // line 5/6: S_group = S ∩ hood, S -= S_group (one stable pass).
    group_.clear();
    std::size_t kept = 0;
    for (std::uint32_t i : s_set_) {
      if (visited_[i] == token) {
        group_.push_back(i);
      } else {
        s_set_[kept++] = i;
      }
    }
    s_set_.resize(kept);

    // lines 7-11: fix the group's drain order, load-weighted (§4.4.3:
    // heavily loaded APs pick earlier and get first choice of clean
    // channels — the weights come from the static per-epoch loads).
    const std::size_t gb = order_.size();
    while (!group_.empty()) {
      std::size_t mi;
      if (params_.load_weighted_pick) {
        weights_.clear();
        for (std::uint32_t i : group_)
          weights_.push_back(0.05 + index.total_load(i));
        mi = rng_.weighted_index(weights_);
      } else {
        mi = rng_.index(group_.size());
      }
      order_.push_back(group_[mi]);
      group_.erase(group_.begin() + static_cast<std::ptrdiff_t>(mi));
    }
    for (std::size_t t = gb; t < order_.size(); ++t)
      group_end_[t] = static_cast<std::uint32_t>(order_.size());
  }
}

void TurboCA::nbo_sweep(PlanContext& ctx, int hop_limit, bool settled) {
  // Algorithm 1, applied to `ctx` in place: fix the drain schedule first
  // (all of the sweep's RNG), then execute the ACC decisions in drain
  // order — bit-for-bit identical to the reference sweep.
  const flowsim::ScanIndex& index = ctx.index();
  if (index.size() == 0) return;
  plan_sweep(index, hop_limit);

  if (settled) {
    // The plan is a fixed point of every hop-0 ACC (DESIGN.md §14): each
    // pick would return the AP's own channel, so only its record remains.
    for (std::size_t t = 0; t < order_.size(); ++t) {
      const Channel& kept = ctx.channel_of(order_[t]);
      note_pick(ctx, order_[t], t, kept, kept);
    }
    return;
  }

  // ψ (the still-undrained members of the current group) starts as the
  // whole group and shrinks by one settle per pick; every group is fully
  // settled before the next one forms.
  std::size_t group_until = 0;
  for (std::size_t t = 0; t < order_.size(); ++t) {
    const std::uint32_t ap = order_[t];
    if (t == group_until) {
      group_until = group_end_[t];
      for (std::size_t u = t; u < group_until; ++u)
        ctx.presume_moving(order_[u]);
    }
    ctx.settle(ap);
    const Channel from = ctx.channel_of(ap);
    const Channel to = acc(ctx, ap);
    ctx.set(ap, to);
    note_pick(ctx, ap, t, from, to);
  }
}

void TurboCA::note_pick(const PlanContext& ctx, std::uint32_t ap,
                        std::size_t pick_pos, const Channel& from,
                        const Channel& to) {
  const bool switched = !(from == to);
  ++round_picks_;
  if (switched) ++round_switches_;
  if (audit_ == nullptr) return;
  // Read-only re-evaluation of the committed decision: draws no RNG and
  // mutates nothing, so plans are identical with or without the audit.
  obs::PickRecord r;
  r.round = audit_round_;
  r.pick = static_cast<std::uint32_t>(pick_pos);
  r.ap_index = ap;
  r.ap_id = ctx.index().scan(ap).id.value();
  r.from = from.to_string();
  r.to = to.to_string();
  r.switched = switched;
  r.node_p_to = ctx.node_p_log_terms(ap, to, &r.terms_to);
  if (switched) {
    r.node_p_from = ctx.node_p_log_terms(ap, from, &r.terms_from);
  } else {
    r.node_p_from = r.node_p_to;
    r.terms_from = r.terms_to;
  }
  audit_->add_pick(std::move(r));
}

std::vector<Channel> TurboCA::nbo(const flowsim::ScanIndex& index,
                                  std::vector<Channel> current,
                                  int hop_limit) {
  PlanContext ctx(index, params_, std::move(current));
  nbo_sweep(ctx, hop_limit, false);
  return ctx.plan();
}

TurboCA::RunResult TurboCA::run(const flowsim::ScanIndex& index,
                                std::vector<Channel> current,
                                const std::vector<int>& levels) {
  PlanContext ctx(index, params_, std::move(current));
  RunResult result;
  for (const int level : levels)
    result.improved =
        run_level(ctx, level, result.netp_log, result.settled_rounds) ||
        result.improved;
  result.plan = ctx.plan();
  return result;
}

bool TurboCA::run_level(PlanContext& ctx, int hop_limit, double& netp_log,
                        int& settled_rounds) {
  const int n = static_cast<int>(ctx.index().size());
  const int rounds = std::clamp(n / kRunsDivisor, params_.runs_min,
                                params_.runs_max);

  netp_log = ctx.net_p_log();
  bool improved = false;
  // At hop 0 every group is one AP and ψ is empty at each ACC, so once a
  // round switches nothing the plan is a fixed point of every later pick,
  // whatever the drain order (DESIGN.md §14).
  bool settled = false;
  for (int r = 0; r < rounds; ++r) {
    // §4.4.4: whenever a round improves NetP, the proposal becomes the
    // baseline for following rounds; otherwise it is rolled back in place
    // (only the channels the sweep touched are restored and rescored).
    audit_round_ = static_cast<std::uint32_t>(r);
    round_picks_ = 0;
    round_switches_ = 0;
    const double netp_before = netp_log;
    ctx.begin_round();
    nbo_sweep(ctx, hop_limit, settled);
    if (settled) ++settled_rounds;
    settled = hop_limit == 0 && round_switches_ == 0;
    const double netp = ctx.net_p_log();
    const bool accepted = netp > netp_log + 1e-9;
    if (accepted) {
      ctx.commit_round();
      netp_log = netp;
      improved = true;
    } else {
      ctx.rollback_round();
    }
    if (audit_ != nullptr) {
      obs::RoundRecord rr;
      rr.round = static_cast<std::uint32_t>(r);
      rr.hop_limit = hop_limit;
      rr.netp_before = netp_before;
      rr.netp_after = netp;
      rr.accepted = accepted;
      rr.picks = round_picks_;
      rr.switches = round_switches_;
      audit_->add_round(rr);
    }
  }
  return improved;
}

}  // namespace w11::turboca
