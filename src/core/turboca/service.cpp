#include "core/turboca/service.hpp"

#include <algorithm>
#include <limits>
#include <span>

#include "common/check.hpp"
#include "core/turboca/plan_context.hpp"
#include "core/turboca/plan_map.hpp"
#include "flowsim/scan_index.hpp"

namespace w11::turboca {

namespace {

// The one width ReservedCA plans at.
constexpr ChannelWidth kReservedCaWidth = ChannelWidth::MHz40;

// Drop scans whose snapshot is older than `max_age` relative to `now`.
// Unstamped scans (taken_at == 0, e.g. hand-built or recorded data) are
// always kept. Returns how many entries were removed.
std::size_t drop_stale_scans(std::vector<ApScan>& scans, Time now,
                             Time max_age) {
  if (max_age == time::kForever) return 0;
  const std::size_t before = scans.size();
  std::erase_if(scans, [&](const ApScan& s) {
    return s.taken_at != Time{} && now - s.taken_at > max_age;
  });
  return before - scans.size();
}

// The degraded-scan gate both services share: skips (and counts) a firing
// whose census is empty or entirely stale. A partially-fresh census still
// plans for the fresh APs; only an all-stale census (a wedged collector
// replaying its cache) skips. On success `scans` holds the fresh entries.
template <class Stats>
bool usable_scans(std::vector<ApScan>& scans, Time now, Time max_age,
                  Stats& stats) {
  if (scans.empty()) {
    ++stats.empty_scan_skips;
    return false;
  }
  drop_stale_scans(scans, now, max_age);
  if (scans.empty()) {
    ++stats.stale_scan_skips;
    return false;
  }
  return true;
}

// APs whose channel in `plan` differs from `before` (or that `before`
// lacks): the switches applying `plan` costs.
int count_switches(const ChannelPlan& before, const ChannelPlan& plan) {
  int switches = 0;
  for (const auto& [id, ch] : plan) {
    const auto it = before.find(id);
    if (it == before.end() || it->second != ch) ++switches;
  }
  return switches;
}

}  // namespace

TurboCaService::TurboCaService(Params params, Schedule schedule,
                               NetworkHooks hooks, Rng rng)
    : engine_(params, std::move(rng)), schedule_(schedule),
      hooks_(std::move(hooks)) {
  W11_CHECK(hooks_.scan && hooks_.current_plan && hooks_.apply_plan);
}

void TurboCaService::advance_to(Time now) {
  // Clock weirdness (NTP steps, a restarted poller replaying old
  // timestamps): a rewound clock is counted and ignored. Anchors only ever
  // move forward, so fire-once semantics hold across the rewind.
  if (now < now_) {
    ++stats_.clock_anomalies;
    return;
  }
  now_ = now;
  // Slowest tier first; each tier's run already ends in i = 0, so a firing
  // of a slower tier also satisfies the faster ones. A skipped firing
  // (degraded scans) leaves the anchors untouched: the tier retries at the
  // next poll tick instead of silently losing a whole period.
  if (now - last_slow_ >= schedule_.slow) {
    if (run_now({2, 1, 0})) {
      last_slow_ = last_medium_ = last_fast_ = now;
      replan_pending_ = false;  // every tier ends with i = 0
    }
    return;
  }
  if (now - last_medium_ >= schedule_.medium) {
    if (run_now({1, 0})) {
      last_medium_ = last_fast_ = now;
      replan_pending_ = false;
    }
    return;
  }
  if (now - last_fast_ >= schedule_.fast) {
    if (run_now({0})) {
      last_fast_ = now;
      replan_pending_ = false;
    }
    return;
  }
  // Out-of-band request (post-revert): one forced i = 0 pass, off-cadence.
  // Clearing the flag only on success keeps it sticky across degraded-scan
  // skips; the fast anchor also advances so the regular firing does not
  // immediately duplicate the forced one.
  if (replan_pending_) {
    if (run_now({0})) {
      last_fast_ = now;
      replan_pending_ = false;
      ++stats_.requested_replans;
    }
  }
}

bool TurboCaService::run_now(const std::vector<int>& levels) {
  std::vector<ApScan> scans = hooks_.scan();
  if (!usable_scans(scans, now_, schedule_.max_scan_age, stats_)) return false;
  // One index and one plan context per firing, shared across all hop tiers
  // of the schedule; the service-lifetime stats cache carries unchanged
  // spectrum rows between firings.
  const flowsim::ScanIndex index(scans, engine_.params().neighbor_rssi_floor,
                                 engine_.pool(), &stats_cache_);
  const ChannelPlan before = hooks_.current_plan();
  const TurboCA::RunResult r =
      engine_.run(index, dense_plan(index, before), levels);
  ++stats_.runs;
  stats_.settled_rounds += r.settled_rounds;
  stats_.last_netp_log = r.netp_log;
  if (r.improved) {
    // APs outside this firing's census (stale scans) keep their channel.
    const ChannelPlan plan = plan_map(index, r.plan, before);
    stats_.channel_switches += count_switches(before, plan);
    ++stats_.plans_applied;
    hooks_.apply_plan(plan);
  }
  return true;
}

ReservedCaService::ReservedCaService(Config cfg, Params params,
                                     NetworkHooks hooks, Rng rng)
    : cfg_(cfg), engine_(params, std::move(rng)), hooks_(std::move(hooks)) {
  W11_CHECK(hooks_.scan && hooks_.current_plan && hooks_.apply_plan);
}

void ReservedCaService::advance_to(Time now) {
  if (now < now_) {
    ++stats_.clock_anomalies;
    return;
  }
  now_ = now;
  if (now - last_run_ < cfg_.period) return;
  if (run_now()) last_run_ = now;
}

bool ReservedCaService::run_now() {
  std::vector<ApScan> scans = hooks_.scan();
  if (!usable_scans(scans, now_, cfg_.max_scan_age, stats_)) return false;
  const flowsim::ScanIndex index(scans, engine_.params().neighbor_rssi_floor,
                                 engine_.pool(), &stats_cache_);
  const ChannelPlan before = hooks_.current_plan();
  PlanContext ctx(index, engine_.params(), dense_plan(index, before));

  // Sequential sweep: each AP takes its isolated best channel given
  // everyone else's *current* choice — the locally-optimal trap of §4.3.2.
  // Each score is evaluated against the plan *before* the AP's own trial
  // (no TrialMove), matching the isolated-decision model.
  std::vector<Channel> with_current;
  for (std::size_t i = 0; i < index.size(); ++i) {
    const ApScan& s = index.scan(i);
    // Keep the width fixed: candidates at exactly kReservedCaWidth (20 MHz
    // on 2.4 GHz), or the whole set when the DFS rule leaves none at that
    // width. The clamp only shapes candidate generation; NodeP never reads
    // max_width.
    const ChannelWidth fixed_width = std::min(s.max_width, kReservedCaWidth);
    std::span<const Channel> cands =
        channels::candidate_table(s.band, fixed_width,
                                  s.dfs_capable && !s.has_clients)
            .at_width_or_all(fixed_width);
    if (std::find(cands.begin(), cands.end(), s.current) == cands.end()) {
      with_current.assign(cands.begin(), cands.end());
      with_current.push_back(s.current);
      cands = with_current;
    }
    Channel best = s.current;
    double best_score = -std::numeric_limits<double>::infinity();
    for (const Channel& c : cands) {
      const double score = ctx.node_p_log(i, c);
      if (score > best_score + 1e-9) {
        best_score = score;
        best = c;
      }
    }
    ctx.set(i, best);
  }
  const ChannelPlan plan = plan_map(index, ctx.plan(), before);

  stats_.channel_switches += count_switches(before, plan);
  ++stats_.runs;
  hooks_.apply_plan(plan);
  return true;
}

}  // namespace w11::turboca
