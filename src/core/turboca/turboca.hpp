#pragma once
// TurboCA: channel-bonding-aware automatic channel assignment (§4.4).
//
// Metrics (log-space to stay numerically sane at 600 APs):
//
//   NodeP(c, cw) = Π_{b=20MHz}^{cw} channel_metric(c, b)^load(b)
//   channel_metric(c, b) = airtime(c, b) × capacity(c, b) − penalty_c
//   NetP = Π_{v ∈ V} NodeP(v)
//
//   airtime(c,b)  — expected airtime share on the b-wide sub-channel of c:
//                   the spectrum left over by external utilization, divided
//                   among this AP and same-network neighbors whose (planned)
//                   channel overlaps it.
//   capacity(c,b) — channel quality (non-WiFi interference) × width scaling.
//   penalty_c     — client disruption cost of switching to c; large on
//                   2.4 GHz and under >90 % utilization (§4.5.1); a DFS
//                   channel is excluded outright while clients are
//                   associated (§4.5.2).
//
// Optimizer: ACC(v, ψ) maximizes NetP over v's candidate channels while
// ignoring the APs in ψ; NBO (Algorithm 1) sweeps the network in random
// groups bounded by hop limit i; the service layer (service.hpp) runs the
// i = 0/1/2 cadence.
//
// Evaluation runs on the PlanContext layer (plan_context.hpp): the caller
// builds one flowsim::ScanIndex per scan epoch and every ACC/NBO/run call
// evaluates NodeP terms incrementally against it. Plans in and out are
// dense: one Channel per indexed AP, in index order (plan_map.hpp converts
// to and from ApId-keyed maps where a plan leaves the planner). The
// pre-index planner lives on as the reference evaluator of the test-only
// oracle/ library; the two are bit-for-bit equivalent
// (tests/test_planner_golden).

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "exec/task_pool.hpp"
#include "flowsim/scan.hpp"
#include "flowsim/scan_index.hpp"
#include "phy/channel.hpp"

namespace w11::obs {
class PlanAudit;
}

namespace w11::turboca {

class PlanContext;

// log of an effectively-zero metric (shared with the oracle's reference
// evaluator — the two must stay bit-identical).
inline constexpr double kNodePLogFloor = -40.0;
// NBO rounds per schedule run: clamp(n_aps / kRunsDivisor, runs_min,
// runs_max) (shared with the oracle's reference evaluator).
inline constexpr int kRunsDivisor = 25;

struct Params {
  // Penalty subtracted from channel_metric when c differs from the current
  // assignment (client disruption on switch).
  double switch_penalty = 0.08;
  // §4.5.1: larger penalty on 2.4 GHz radios (poor client CSA support) and
  // when current-channel utilization exceeds the threshold.
  double switch_penalty_24ghz = 0.35;
  double high_util_threshold = 0.90;
  double switch_penalty_high_util = 0.30;
  // Baseline load for client-less APs so they weakly prefer clean channels.
  double empty_ap_load = 0.1;
  // Neighbors weaker than this RSSI are not counted as contenders.
  Dbm neighbor_rssi_floor = -85.0;
  // Bounds on the NBO rounds per schedule run (see kRunsDivisor).
  int runs_min = 3;
  int runs_max = 12;
  // Algorithm 1 line 8: weight the group-drain pick by AP load so heavily
  // loaded APs choose channels first (ablation D3 sets this false).
  bool load_weighted_pick = true;
};

class TurboCA {
 public:
  TurboCA(Params params, Rng rng);

  struct RunResult {
    std::vector<Channel> plan;  // dense, index order
    double netp_log = 0.0;
    bool improved = false;
    // Hop-0 rounds that ran after a round switched nothing: their drain
    // schedule is drawn, but every pick provably keeps its channel, so no
    // ACC runs (DESIGN.md §14).
    int settled_rounds = 0;
  };

  // Pool for the ScanIndex fill of every index the owning service
  // (service.hpp) builds on this engine's behalf. nullptr (default) =
  // exec::TaskPool::global(). The NBO sweep itself is serial; indices, and
  // so plans, are bit-for-bit identical at every worker count.
  void set_pool(exec::TaskPool* pool) { pool_ = pool; }
  [[nodiscard]] exec::TaskPool* pool() const { return pool_; }

  // Decision audit sink (DESIGN.md §12): when attached, every committed ACC
  // pick records its NodeP term breakdown (chosen vs. incumbent channel) and
  // every NBO round its NetP before/after. Recording is read-only — it
  // re-evaluates already-decided channels at serial commit points, draws no
  // RNG, and the resulting plans are bit-identical with or without it.
  void set_audit(obs::PlanAudit* audit) { audit_ = audit; }
  [[nodiscard]] obs::PlanAudit* audit() const { return audit_; }

  // Callers build one flowsim::ScanIndex per scan epoch (with this
  // engine's neighbor_rssi_floor) and share it across calls.

  // ACC(v, ψ): best channel for the AP at `target` maximizing NetP over it
  // and its neighbors, ignoring the context's ψ (§4.4.2). Evaluates trial
  // moves against `ctx` without changing its plan.
  [[nodiscard]] Channel acc(const PlanContext& ctx, std::size_t target) const;

  // NBO (Algorithm 1): one full sweep with hop limit `i`. `current`
  // supplies channels for APs not yet assigned in the proposed plan.
  [[nodiscard]] std::vector<Channel> nbo(const flowsim::ScanIndex& index,
                                         std::vector<Channel> current,
                                         int hop_limit);

  // One firing (§4.4.4): multiple NBO rounds at each hop limit of `levels`
  // in turn, all on one PlanContext seeded with `current`. Whenever a round
  // improves NetP the proposal becomes the baseline; otherwise it is rolled
  // back in place (only touched NodeP terms are rescored), so the plan
  // equals `current` when no level improved; netp_log is the last level's.
  [[nodiscard]] RunResult run(const flowsim::ScanIndex& index,
                              std::vector<Channel> current,
                              const std::vector<int>& levels);

  [[nodiscard]] const Params& params() const { return params_; }

 private:
  // One NBO sweep applied to `ctx` in place. A `settled` sweep (hop 0,
  // after a round that switched nothing) draws the same schedule but keeps
  // every AP's channel without running ACC.
  void nbo_sweep(PlanContext& ctx, int hop_limit, bool settled);
  // run()'s rounds at one hop limit on the firing's context: returns
  // whether any round was accepted, leaves the level's NetP in `netp_log`
  // and adds its settled rounds to `settled_rounds`.
  bool run_level(PlanContext& ctx, int hop_limit, double& netp_log,
                 int& settled_rounds);

  // Per-commit bookkeeping (trace event, switch counting, audit record).
  // Called after ctx.set(), or with from == to in a settled round;
  // `from` is the channel the AP held before the pick.
  void note_pick(const PlanContext& ctx, std::uint32_t ap,
                 std::size_t pick_pos, const Channel& from, const Channel& to);

  // Algorithm 1's control flow without the ACC calls: draws the exact RNG
  // sequence of the reference sweep and emits the drain schedule.
  // order_[t] is the t-th AP to pick a channel; group_end_[t] is the end
  // (exclusive, as a position in order_) of t's group, so ψ at pick t is
  // order_[t+1 .. group_end_[t]). Groups occupy contiguous position runs.
  void plan_sweep(const flowsim::ScanIndex& index, int hop_limit);

  Params params_;
  Rng rng_;
  exec::TaskPool* pool_ = nullptr;
  obs::PlanAudit* audit_ = nullptr;
  std::uint32_t audit_round_ = 0;   // NBO round within the current run()
  std::uint32_t round_picks_ = 0;   // picks committed in the current round
  std::uint32_t round_switches_ = 0;
  // Sweep buffers, reused across rounds and firings.
  std::vector<std::uint32_t> order_;
  std::vector<std::uint32_t> group_end_;
  std::vector<std::uint32_t> s_set_;
  std::vector<std::uint32_t> visited_;
  std::vector<std::pair<std::uint32_t, int>> frontier_;
  std::vector<std::uint32_t> group_;
  std::vector<double> weights_;
};

}  // namespace w11::turboca
