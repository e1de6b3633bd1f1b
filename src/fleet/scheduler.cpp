#include "fleet/scheduler.hpp"

#include "common/check.hpp"
#include "common/rng.hpp"

namespace w11::fleet {

const char* to_string(Tier t) {
  switch (t) {
    case Tier::kReplan: return "replan";
    case Tier::kSlow: return "slow";
    case Tier::kMedium: return "medium";
    case Tier::kFast: return "fast";
  }
  return "?";
}

const std::vector<int>& tier_levels(Tier t) {
  static const std::vector<int> fast = {0};
  static const std::vector<int> medium = {1, 0};
  static const std::vector<int> slow = {2, 1, 0};
  switch (t) {
    case Tier::kSlow: return slow;
    case Tier::kMedium: return medium;
    case Tier::kFast:
    case Tier::kReplan: return fast;
  }
  return fast;
}

namespace {

// Campus `key`'s phase within `period` for tier `salt`: a pure function of
// (seed, key), so the stagger grid survives restarts and epoch churn.
Time phase_of(std::uint64_t seed, std::uint32_t key, std::uint64_t salt,
              Time period) {
  const std::uint64_t h =
      rng_detail::mix_seed(seed, (static_cast<std::uint64_t>(key) << 3) | salt);
  return time::nanos(static_cast<std::int64_t>(
      h % static_cast<std::uint64_t>(period.ns())));
}

// The grid point at or before `t` on the phase-shifted grid
// { phase + k * period : k in Z } (euclidean floor, safe for t < phase).
Time grid_align(Time t, Time phase, Time period) {
  std::int64_t d = t.ns() - phase.ns();
  std::int64_t k = d / period.ns();
  if (d % period.ns() < 0) --k;
  return time::nanos(phase.ns() + k * period.ns());
}

}  // namespace

CadenceScheduler::CadenceScheduler(Cadence cadence, std::uint64_t seed)
    : cadence_(cadence), seed_(seed) {
  W11_CHECK(cadence_.fast > Time{0} && cadence_.medium > Time{0} &&
            cadence_.slow > Time{0});
}

void CadenceScheduler::add_campus(std::uint32_t key, Time now) {
  CampusState st;
  // Anchor each tier on the campus's own phase grid so steady-state
  // firings are staggered; the first full pass runs now regardless.
  st.last_fast = grid_align(now, phase_of(seed_, key, 0, cadence_.fast),
                            cadence_.fast);
  st.last_medium = grid_align(now, phase_of(seed_, key, 1, cadence_.medium),
                              cadence_.medium);
  st.last_slow = grid_align(now, phase_of(seed_, key, 2, cadence_.slow),
                            cadence_.slow);
  campuses_.emplace(key, st);
  ++stats_.campuses_added;
}

void CadenceScheduler::apply_delta(const std::vector<std::uint32_t>& added,
                                   const std::vector<std::uint32_t>& dropped,
                                   Time now) {
  for (const std::uint32_t key : dropped) {
    const auto it = campuses_.find(key);
    if (it == campuses_.end()) continue;
    campuses_.erase(it);
    ++stats_.campuses_dropped;
  }
  for (const std::uint32_t key : added) {
    if (campuses_.contains(key)) continue;
    add_campus(key, now);
  }
}

void CadenceScheduler::request_replan(std::uint32_t campus_key) {
  const auto it = campuses_.find(campus_key);
  if (it == campuses_.end()) return;
  if (!it->second.replan_pending) {
    it->second.replan_pending = true;
    ++stats_.replans_requested;
  }
}

std::vector<PlanJob> CadenceScheduler::due(Time now) const {
  std::vector<PlanJob> replans;
  std::vector<PlanJob> cadence;
  for (const auto& [key, st] : campuses_) {
    if (st.replan_pending) {
      replans.push_back(PlanJob{key, Tier::kReplan});
      continue;
    }
    if (st.first_run_pending || now >= st.last_slow + cadence_.slow) {
      cadence.push_back(PlanJob{key, Tier::kSlow});
    } else if (now >= st.last_medium + cadence_.medium) {
      cadence.push_back(PlanJob{key, Tier::kMedium});
    } else if (now >= st.last_fast + cadence_.fast) {
      cadence.push_back(PlanJob{key, Tier::kFast});
    }
  }
  // Map iteration is key-ascending, so each group already is; replans lead.
  replans.insert(replans.end(), cadence.begin(), cadence.end());
  return replans;
}

void CadenceScheduler::fired(const PlanJob& job, Time now) {
  const auto it = campuses_.find(job.campus_key);
  if (it == campuses_.end()) return;
  CampusState& st = it->second;
  // Re-anchor every tier the firing satisfied onto its own phase grid —
  // not onto `now` — so the stagger survives synchronized firings (e.g.
  // the whole fleet's first pass on tick 0).
  const std::uint32_t key = job.campus_key;
  switch (job.tier) {
    case Tier::kSlow:
      st.last_slow = grid_align(now, phase_of(seed_, key, 2, cadence_.slow),
                                cadence_.slow);
      [[fallthrough]];
    case Tier::kMedium:
      st.last_medium = grid_align(now, phase_of(seed_, key, 1, cadence_.medium),
                                  cadence_.medium);
      [[fallthrough]];
    case Tier::kFast:
    case Tier::kReplan:
      st.last_fast = grid_align(now, phase_of(seed_, key, 0, cadence_.fast),
                                cadence_.fast);
      break;
  }
  st.first_run_pending = false;
  st.replan_pending = false;  // every tier's run ends with i = 0
  ++stats_.jobs_fired;
}

}  // namespace w11::fleet
