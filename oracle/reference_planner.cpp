#include "oracle/reference_planner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <unordered_map>

// The oracle side of the golden plan-equivalence suite; value-unsafe FP
// breaks the bit-for-bit contract from this end too.
#ifdef __FAST_MATH__
#error "reference_planner.cpp must not be compiled with -ffast-math (determinism)"
#endif

namespace w11::oracle {

using turboca::kNodePLogFloor;
using turboca::kRunsDivisor;

namespace {

// The b-wide channel containing `c`'s primary 20 MHz sub-channel, resolved
// by catalog walk exactly as the original planner did.
Channel sub_channel(const Channel& c, ChannelWidth b) {
  if (b == c.width) return c;
  const Channel prim = c.primary20();
  if (b == ChannelWidth::MHz20) return prim;
  for (const Channel& cand : channels::us_catalog(c.band, b)) {
    for (int comp : cand.components())
      if (comp == prim.number) return cand;
  }
  return prim;  // no bonded container exists; degrade to primary
}

const ApScan* find_scan(const std::vector<ApScan>& scans, ApId id) {
  for (const auto& s : scans)
    if (s.id == id) return &s;
  return nullptr;
}

Channel planned_channel(const ApScan& s, const ChannelPlan& plan) {
  const auto it = plan.find(s.id);
  return it != plan.end() ? it->second : s.current;
}

double channel_metric(const Params& params, const ApScan& a, const Channel& c,
                      ChannelWidth b, const std::vector<ApScan>& scans,
                      const ChannelPlan& plan, const std::set<ApId>& ignore) {
  const Channel sub = sub_channel(c, b);

  // External (non-network) utilization on the sub-channel: worst component.
  double ext = 0.0;
  double quality = 1.0;
  int comps = 0;
  for (int comp : sub.components()) {
    const auto u = a.external_util.find(comp);
    if (u != a.external_util.end()) ext = std::max(ext, u->second);
    const auto q = a.quality.find(comp);
    quality += (q != a.quality.end() ? q->second : 1.0);
    ++comps;
  }
  quality = (quality - 1.0) / std::max(comps, 1);

  // Same-network contenders whose planned channel overlaps the sub-channel.
  int contenders = 0;
  for (const NeighborReport& nb : a.neighbors) {
    if (nb.rssi < params.neighbor_rssi_floor) continue;
    if (ignore.contains(nb.id)) continue;  // ψ: presume they will move
    const ApScan* ns = find_scan(scans, nb.id);
    if (ns == nullptr) continue;
    if (planned_channel(*ns, plan).overlaps(sub)) ++contenders;
  }

  const double airtime =
      std::clamp((1.0 - ext) / (1.0 + contenders), 0.0, 1.0);

  double penalty = 0.0;
  if (c != a.current) {
    penalty = params.switch_penalty;
    if (a.band == Band::G2_4) penalty = params.switch_penalty_24ghz;
    if (a.utilization_current > params.high_util_threshold)
      penalty = std::max(penalty, params.switch_penalty_high_util);
    if (!a.has_clients) penalty = 0.0;  // nothing to disrupt
  }

  return static_cast<double>(width_mhz(b)) * (airtime * quality - penalty);
}

std::vector<Channel> candidates_for(const ApScan& a) {
  // §4.5.2: an AP with connected clients must not move to a DFS channel
  // (the CAC would strand them); DFS-incapable hardware never can.
  const bool allow_dfs = a.dfs_capable && !a.has_clients;
  std::vector<Channel> cands =
      channels::candidate_set(a.band, a.max_width, allow_dfs);
  if (std::find(cands.begin(), cands.end(), a.current) == cands.end())
    cands.push_back(a.current);
  return cands;
}

}  // namespace

double node_p_log(const Params& params, const ApScan& a, const Channel& c,
                  const std::vector<ApScan>& scans, const ChannelPlan& plan,
                  const std::set<ApId>& ignore) {
  double log_p = 0.0;
  for (ChannelWidth b : widths_up_to(c.width)) {
    double load = 0.0;
    for (const auto& [w, l] : a.load_by_width) {
      if (std::min(w, c.width) == b) load += l;
    }
    if (a.total_load() <= 0.0) load = params.empty_ap_load;
    if (load <= 0.0) continue;
    const double metric = channel_metric(params, a, c, b, scans, plan, ignore);
    log_p += load * (metric > 1e-12 ? std::log(metric) : kNodePLogFloor);
  }
  return log_p;
}

double net_p_log(const Params& params, const std::vector<ApScan>& scans,
                 const ChannelPlan& plan) {
  double total = 0.0;
  const std::set<ApId> none;
  for (const ApScan& s : scans)
    total += node_p_log(params, s, planned_channel(s, plan), scans, plan, none);
  return total;
}

Channel acc(const Params& params, const ApScan& target,
            const std::vector<ApScan>& scans, const ChannelPlan& plan,
            const std::set<ApId>& psi) {
  // Only target and its neighbors change NodeP when target moves (§4.4.2).
  std::vector<const ApScan*> affected;
  for (const NeighborReport& nb : target.neighbors) {
    if (psi.contains(nb.id)) continue;
    if (const ApScan* s = find_scan(scans, nb.id)) affected.push_back(s);
  }

  Channel best = target.current;
  double best_score = -std::numeric_limits<double>::infinity();
  ChannelPlan working = plan;
  for (const Channel& c : candidates_for(target)) {
    working[target.id] = c;
    double score = node_p_log(params, target, c, scans, working, psi);
    for (const ApScan* nb : affected)
      score += node_p_log(params, *nb, planned_channel(*nb, working), scans,
                          working, psi);
    // Deterministic tie-break preferring the incumbent channel (stability).
    if (score > best_score + 1e-9 ||
        (std::abs(score - best_score) <= 1e-9 && c == target.current)) {
      best_score = score;
      best = c;
    }
  }
  return best;
}

std::set<ApId> hop_neighborhood(const std::vector<ApScan>& scans, ApId from,
                                int hops) {
  std::unordered_map<ApId, const ApScan*> by_id;
  for (const auto& s : scans) by_id[s.id] = &s;

  std::set<ApId> seen{from};
  std::queue<std::pair<ApId, int>> frontier;
  frontier.push({from, 0});
  while (!frontier.empty()) {
    const auto [id, depth] = frontier.front();
    frontier.pop();
    if (depth >= hops) continue;
    const auto it = by_id.find(id);
    if (it == by_id.end()) continue;
    for (const NeighborReport& nb : it->second->neighbors) {
      if (seen.insert(nb.id).second) frontier.push({nb.id, depth + 1});
    }
  }
  return seen;
}

ChannelPlan ReferenceEvaluator::nbo(const std::vector<ApScan>& scans,
                                    const ChannelPlan& current,
                                    int hop_limit) {
  // Algorithm 1, original shape — including the per-iteration ψ rebuild.
  ChannelPlan pcp = current;

  std::vector<ApId> s_set;  // S <- V
  for (const auto& s : scans) s_set.push_back(s.id);

  std::unordered_map<ApId, const ApScan*> by_id;
  for (const auto& s : scans) by_id[s.id] = &s;

  while (!s_set.empty()) {
    const std::size_t pick = rng_.index(s_set.size());
    const ApId n = s_set[pick];

    const std::set<ApId> hood = hop_neighborhood(scans, n, hop_limit);
    std::vector<ApId> group;
    for (ApId id : s_set)
      if (hood.contains(id)) group.push_back(id);

    std::erase_if(s_set, [&](ApId id) { return hood.contains(id); });

    while (!group.empty()) {
      std::size_t mi;
      if (params_.load_weighted_pick) {
        std::vector<double> weights;
        weights.reserve(group.size());
        for (ApId id : group) {
          const ApScan* s = by_id.at(id);
          weights.push_back(0.05 + s->total_load());
        }
        mi = rng_.weighted_index(weights);
      } else {
        mi = rng_.index(group.size());
      }
      const ApId m = group[mi];
      group.erase(group.begin() + static_cast<std::ptrdiff_t>(mi));

      const std::set<ApId> psi(group.begin(), group.end());
      const ApScan* ms = by_id.at(m);
      pcp[m] = oracle::acc(params_, *ms, scans, pcp, psi);
    }
  }
  return pcp;
}

ReferenceEvaluator::RunResult ReferenceEvaluator::run(
    const std::vector<ApScan>& scans, const ChannelPlan& current,
    int hop_limit) {
  const int n = static_cast<int>(scans.size());
  const int rounds = std::clamp(n / kRunsDivisor, params_.runs_min,
                                params_.runs_max);

  RunResult result;
  result.plan = current;
  result.netp_log = oracle::net_p_log(params_, scans, current);

  for (int r = 0; r < rounds; ++r) {
    const ChannelPlan proposal = nbo(scans, result.plan, hop_limit);
    const double netp = oracle::net_p_log(params_, scans, proposal);
    if (netp > result.netp_log + 1e-9) {
      result.plan = proposal;
      result.netp_log = netp;
      result.improved = true;
    }
  }
  return result;
}

}  // namespace w11::oracle
