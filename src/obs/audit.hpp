#pragma once
// Planner decision audit (DESIGN.md §12): per-NBO-round records of the
// NodeP/NetP term breakdown behind every ACC pick — the answer to "why did
// TurboCA put AP 17 on 100/80MHz?".
//
// The audit deliberately depends only on plain types (ints, strings,
// doubles): the planner formats its channels/ids before recording, so this
// header sits below phy/flowsim in the dependency order and the obs library
// stays leaf-level.
//
// Recording is read-only with respect to planning: TurboCA re-evaluates the
// already-chosen and incumbent channels at each serial commit point, which
// draws no RNG and mutates nothing — golden plan equivalence holds with the
// audit attached or not (tests/test_obs.cpp pins this).

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace w11::obs {

// One width level of NodeP(c, cw) = Π_b channel_metric(c, b)^load(b):
// the §4.4 term decomposition for a single b.
struct NodePTerm {
  int width_mhz = 0;       // b
  double load = 0.0;       // load(b), the exponent
  double airtime = 0.0;    // spectrum share left after contention
  double quality = 0.0;    // non-WiFi channel quality scalar
  double penalty = 0.0;    // client-disruption switch penalty
  int contenders = 0;      // same-network overlapping contenders counted
  double metric = 0.0;     // width_mhz * (airtime * quality - penalty)
  double log_term = 0.0;   // load * log(metric) contribution to log NodeP
};

// The log NodeP a term breakdown describes, folded in breakdown order —
// the same b-ascending accumulation node_p_log and the batched kernel
// use, so for a full breakdown the result is bit-for-bit the score the
// optimizer acted on (tests/test_score_kernel.cpp pins all three equal).
// Any other summation order is NOT guaranteed to reproduce the bits.
inline double sum_log_terms(const std::vector<NodePTerm>& terms) {
  double log_p = 0.0;
  for (const NodePTerm& t : terms) log_p += t.log_term;
  return log_p;
}

// One committed ACC decision.
struct PickRecord {
  std::uint32_t round = 0;  // NBO round within the run
  std::uint32_t pick = 0;   // commit position within the round's sweep
  std::uint32_t ap_index = 0;
  std::uint64_t ap_id = 0;
  std::string from;         // channel before the pick (short form)
  std::string to;           // channel chosen
  bool switched = false;
  double node_p_to = 0.0;    // log NodeP of the AP on `to` at commit time
  double node_p_from = 0.0;  // log NodeP had it stayed on `from`
  std::vector<NodePTerm> terms_to;
  std::vector<NodePTerm> terms_from;
};

// One NBO round: proposal accepted (NetP improved) or rolled back.
struct RoundRecord {
  std::uint32_t round = 0;
  int hop_limit = 0;
  double netp_before = 0.0;
  double netp_after = 0.0;
  bool accepted = false;
  std::uint32_t picks = 0;
  std::uint32_t switches = 0;
};

class PlanAudit {
 public:
  // Bound storage: per-pick term breakdowns are the bulky part; past the
  // cap further picks still count in the round records but drop their
  // detail (dropped_picks()).
  explicit PlanAudit(std::size_t max_picks = 4096) : max_picks_(max_picks) {}

  void add_pick(PickRecord r) {
    if (picks_.size() < max_picks_) {
      picks_.push_back(std::move(r));
    } else {
      ++dropped_picks_;
    }
  }
  void add_round(RoundRecord r) { rounds_.push_back(r); }
  void clear() {
    picks_.clear();
    rounds_.clear();
    dropped_picks_ = 0;
  }

  [[nodiscard]] const std::vector<PickRecord>& picks() const { return picks_; }
  [[nodiscard]] const std::vector<RoundRecord>& rounds() const { return rounds_; }
  [[nodiscard]] std::uint64_t dropped_picks() const { return dropped_picks_; }

  // Human-readable decision table: one row per channel switch (optionally
  // every pick), with the NodeP delta and its dominant term movement —
  // "Algorithm 1's choices, explainable".
  void write_table(std::ostream& os, bool switches_only = true) const;

  // Machine form, one record per line, for regression diffing.
  void write_jsonl(std::ostream& os) const;

 private:
  std::size_t max_picks_;
  std::vector<PickRecord> picks_;
  std::vector<RoundRecord> rounds_;
  std::uint64_t dropped_picks_ = 0;
};

}  // namespace w11::obs
