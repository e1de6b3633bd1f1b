#pragma once
// Collector: periodically snapshots a flowsim network evaluation into
// LittleTable rows — the shape of the Meraki backend's polling loop (§2.2).

#include "flowsim/network.hpp"
#include "telemetry/littletable.hpp"

namespace w11::telemetry {

class NetworkCollector {
 public:
  NetworkCollector()
      : ap_stats_("ap_stats", {"throughput_mbps", "offered_mbps", "utilization",
                               "airtime_share", "mean_phy_rate_mbps",
                               "bitrate_efficiency", "cochannel_interferers"}),
        net_stats_("network_stats",
                   {"total_throughput_mbps", "total_offered_mbps",
                    "channel_switches", "records_dropped",
                    "records_written"}) {}

  // Drop the next `count` polling intervals on the floor (fault injection:
  // the collection pipeline loses samples; dashboards must tolerate gaps).
  void drop_next(int count) { drop_pending_ += count; }
  [[nodiscard]] std::uint64_t records_dropped() const { return records_dropped_; }
  [[nodiscard]] std::uint64_t records_written() const { return records_written_; }

  // Record one polling interval. Returns false when the interval was lost
  // to an injected collection fault.
  bool record(const flowsim::Network& net, const flowsim::Evaluation& ev,
              Time at) {
    if (drop_pending_ > 0) {
      --drop_pending_;
      ++records_dropped_;
      return false;
    }
    ++records_written_;
    // Batch the interval: build all AP rows, then one bulk append (one
    // reserve + one sortedness check instead of per-AP bookkeeping).
    std::vector<LittleTable::Row> batch;
    batch.reserve(ev.per_ap.size());
    for (const auto& m : ev.per_ap) {
      batch.push_back(LittleTable::Row{
          m.id.value(), at,
          {m.throughput_mbps, m.offered_mbps, m.utilization, m.airtime_share,
           m.mean_phy_rate_mbps, m.mean_bitrate_efficiency,
           static_cast<double>(m.cochannel_interferers)}});
    }
    ap_stats_.append(std::move(batch));
    net_stats_.insert(0, at,
                      {ev.total_throughput_mbps, ev.total_offered_mbps,
                       static_cast<double>(net.total_switches()),
                       static_cast<double>(records_dropped_),
                       static_cast<double>(records_written_)});
    return true;
  }

  [[nodiscard]] const LittleTable& ap_stats() const { return ap_stats_; }
  [[nodiscard]] const LittleTable& net_stats() const { return net_stats_; }
  [[nodiscard]] LittleTable& ap_stats() { return ap_stats_; }
  [[nodiscard]] LittleTable& net_stats() { return net_stats_; }

 private:
  LittleTable ap_stats_;
  LittleTable net_stats_;
  int drop_pending_ = 0;
  std::uint64_t records_dropped_ = 0;
  std::uint64_t records_written_ = 0;
};

}  // namespace w11::telemetry
