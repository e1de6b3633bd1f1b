#pragma once
// Shared-medium CSMA/CA (EDCA) contention model.
//
// A Medium represents one collision domain: a set of transceivers that all
// carrier-sense each other on overlapping channels (the testbed scenarios of
// §5.6 place every node in one such domain). The DCF abstraction is the
// standard "slotted lottery" approximation:
//
//   * When the medium goes idle and contenders are backlogged, each draws a
//     deferral of AIFS(ac) + slot × U[0, CW]; the earliest draw wins the
//     TXOP. Exact ties transmit simultaneously and collide.
//   * On collision every participant's CW doubles (up to CWmax) and the
//     medium is wasted for the RTS duration (virtual carrier sense, §4.1.2)
//     or the longest frame when RTS/CTS is disabled.
//   * On success the winner's CW resets to CWmin.
//
// This reproduces the properties the paper's results rest on: medium-access
// latency grows with the number of contenders, small frames (TCP ACKs) pay
// the same contention cost as large aggregates, and co-channel APs share
// airtime approximately fairly (§5.6.3).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "mac/edca.hpp"
#include "mac/timing.hpp"
#include "sim/simulator.hpp"

namespace w11::mac {

// What a granted contender puts on the air.
struct TxDescriptor {
  Time duration;     // full exchange airtime incl. SIFS + BlockAck
  int n_mpdus = 1;   // for aggregation statistics
};

// A (station, access category) transmit context. Stations register one
// contender per AC they use.
class Contender {
 public:
  virtual ~Contender() = default;

  // Invoked when this contender wins a TXOP; returns what it transmits.
  // Only called while backlogged. Must not attach or detach contenders:
  // the medium is iterating its winners.
  virtual TxDescriptor begin_txop() = 0;

  // Invoked when the exchange ends. `collided` means the whole transmission
  // failed (simultaneous transmission); otherwise per-MPDU outcomes are the
  // station's business (PER / BlockAck). The contender must re-declare
  // backlog via Medium::set_backlogged if it still has traffic.
  virtual void end_txop(bool collided) = 0;

  [[nodiscard]] virtual AccessCategory access_category() const = 0;

 private:
  friend class Medium;
  std::size_t medium_slot_ = 0;  // its slot in the Medium it is attached to
};

struct MediumConfig {
  bool rts_cts = true;        // virtual carrier sense for data exchanges
  Time slack = time::nanos(0);  // extra inter-TXOP gap (hardware turnaround)
};

class Medium {
 public:
  Medium(Simulator& sim, MediumConfig cfg, Rng rng);
  Medium(const Medium&) = delete;
  Medium& operator=(const Medium&) = delete;

  void attach(Contender* c);
  void detach(Contender* c);

  // Declare whether `c` has frames ready. Setting true while the medium is
  // idle starts a contention round. O(1): `c` knows its slot.
  void set_backlogged(Contender* c, bool backlogged);

  [[nodiscard]] bool busy() const { return busy_; }

  // --- statistics -------------------------------------------------------
  [[nodiscard]] Time total_busy_time() const { return total_busy_; }
  [[nodiscard]] std::uint64_t txop_count() const { return txops_; }
  [[nodiscard]] std::uint64_t collision_count() const { return collisions_; }
  [[nodiscard]] Time airtime_of(const Contender* c) const;
  // Fraction of [since, now] the medium spent busy.
  [[nodiscard]] double utilization(Time since, Time busy_at_since) const;

 private:
  struct Slot {
    Contender* contender = nullptr;
    bool backlogged = false;
    int cw = 15;
    Time airtime{};
  };

  Slot* find(Contender* c);
  void maybe_start_round();
  void resolve_round();
  void grant();
  void end_exchange();

  Simulator& sim_;
  MediumConfig cfg_;
  Rng rng_;
  std::vector<Slot> slots_;  // slots_[c->medium_slot_].contender == c
  // A round is drawn only while no round is pending and nothing is on the
  // air, and an exchange starts only from a round, so there is at most one
  // of each and one list apiece serves (and keeps its capacity). detach()
  // nulls its contender in both.
  std::vector<Contender*> drawn_;   // the pending round's earliest draws
  std::vector<Contender*> on_air_;  // the exchange's participants
  bool on_air_collided_ = false;
  bool busy_ = false;
  bool round_pending_ = false;
  Time total_busy_{};
  std::uint64_t txops_ = 0;
  std::uint64_t collisions_ = 0;
};

}  // namespace w11::mac
