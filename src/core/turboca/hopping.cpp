#include "core/turboca/hopping.hpp"

#include <algorithm>
#include <span>

#include "common/check.hpp"

namespace w11::turboca {

namespace {
// Every AP hops on this fixed period (the 15-minute cadence of §4.4.4).
constexpr Time kHopPeriod = time::minutes(15);
}  // namespace

HoppingCaService::HoppingCaService(Config cfg, NetworkHooks hooks, Rng rng)
    : cfg_(cfg), hooks_(std::move(hooks)), rng_(std::move(rng)) {
  W11_CHECK(hooks_.scan && hooks_.current_plan && hooks_.apply_plan);
  W11_CHECK(cfg_.sequence_length >= 1);
}

void HoppingCaService::build_sequences(const std::vector<ApScan>& scans) {
  for (const ApScan& s : scans) {
    if (sequences_.contains(s.id)) continue;
    const std::span<const Channel> fixed =
        channels::candidate_table(s.band, cfg_.width, cfg_.allow_dfs)
            .at_width_or_all(cfg_.width);
    std::vector<Channel> catalog(fixed.begin(), fixed.end());
    std::shuffle(catalog.begin(), catalog.end(), rng_.engine());
    const auto len = std::min<std::size_t>(
        catalog.size(), static_cast<std::size_t>(cfg_.sequence_length));
    sequences_[s.id] = {catalog.begin(),
                        catalog.begin() + static_cast<std::ptrdiff_t>(len)};
    cursor_[s.id] = 0;
  }
}

void HoppingCaService::advance_to(Time now) {
  if (last_hop_ >= Time{0} && now - last_hop_ < kHopPeriod) return;
  last_hop_ = now;
  hop_now();
}

void HoppingCaService::hop_now() {
  // Hopping never scores NodeP, so it reads the scans directly.
  const std::vector<ApScan> scans = hooks_.scan();
  if (scans.empty()) return;
  build_sequences(scans);

  ChannelPlan plan = hooks_.current_plan();
  int switches = 0;
  for (const ApScan& s : scans) {
    auto& seq = sequences_.at(s.id);
    auto& cur = cursor_.at(s.id);
    const Channel next = seq[cur % seq.size()];
    ++cur;
    if (plan[s.id] != next) ++switches;
    plan[s.id] = next;
  }
  ++stats_.hops_executed;
  stats_.channel_switches += switches;
  hooks_.apply_plan(plan);
}

}  // namespace w11::turboca
