#pragma once
// Channel-hopping baseline (§4.2 category iii — e.g. SSCH, IQ-Hopping).
//
// Each AP hops through a per-AP pseudo-random sequence of channels on a
// fixed period, harvesting channel diversity without any measurement. The
// paper's critique, which the stability bench quantifies: hopping needs
// accurate knowledge of interferers to pick good sequences, and it ignores
// the client-side cost of every switch — "it does not take into account
// the side effects associated with a channel switch" (said of IQ-Hopping).

#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "core/turboca/service.hpp"
#include "flowsim/scan.hpp"

namespace w11::turboca {

class HoppingCaService {
 public:
  struct Config {
    ChannelWidth width = ChannelWidth::MHz20;
    bool allow_dfs = false;
    // Sequence length per AP; every AP permutes the catalog independently.
    int sequence_length = 8;
  };

  struct Stats {
    int hops_executed = 0;
    int channel_switches = 0;
  };

  HoppingCaService(Config cfg, NetworkHooks hooks, Rng rng);

  void advance_to(Time now);
  void hop_now();

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  void build_sequences(const std::vector<ApScan>& scans);

  Config cfg_;
  NetworkHooks hooks_;
  Rng rng_;
  Time last_hop_{time::nanos(-1)};
  std::unordered_map<ApId, std::vector<Channel>> sequences_;
  std::unordered_map<ApId, std::size_t> cursor_;
  Stats stats_;
};

}  // namespace w11::turboca
