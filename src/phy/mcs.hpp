#pragma once
// VHT (802.11ac) MCS rate table and SNR-driven rate selection.
//
// Data rate derivation follows the standard: rate = N_sd * bits_per_sc *
// N_ss / T_sym, with N_sd ∈ {52, 108, 234, 468} data subcarriers for
// 20/40/80/160 MHz and T_sym = 3.6 µs (short GI) or 4.0 µs (long GI).
// A handful of (MCS, width, N_ss) combinations are invalid per the standard
// and excluded here.

#include <climits>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/units.hpp"
#include "phy/channel.hpp"

namespace w11 {

struct McsIndex {
  int mcs = 0;   // VHT MCS 0..9
  int nss = 1;   // spatial streams 1..4 (our hardware models top out at 4)
  friend constexpr auto operator<=>(const McsIndex&, const McsIndex&) = default;
};

namespace mcs {

inline constexpr int kMaxMcs = 9;
inline constexpr int kMaxNss = 4;

// True if the standard defines this (mcs, width, nss) combination.
[[nodiscard]] bool valid(McsIndex idx, ChannelWidth width);

// PHY data rate; std::nullopt for invalid combinations.
[[nodiscard]] std::optional<RateMbps> rate(McsIndex idx, ChannelWidth width,
                                           bool short_gi);

// Minimum SNR (dB) at which `idx` is usable at acceptable error rates.
// Width does not enter: SNR is computed against a width-dependent noise
// floor, so the thresholds are width-invariant.
[[nodiscard]] Db min_snr(McsIndex idx);

// Highest-rate valid MCS supported at `snr` with at most `max_nss` streams
// and MCS at most `max_mcs`; std::nullopt if even MCS0/1ss is not
// sustainable (snr below threshold).
[[nodiscard]] std::optional<McsIndex> select(Db snr, ChannelWidth width,
                                             int max_nss, int max_mcs = kMaxMcs);

// Packet error rate for an MPDU of `mpdu_bytes` sent with `idx` at `snr`.
// Smooth sigmoid in SNR around the MCS threshold, scaled with frame length.
[[nodiscard]] double packet_error_rate(McsIndex idx, Db snr, int mpdu_bytes);

// packet_error_rate in its two steps, for the frames of one TXOP: they share
// one MCS and one faded SNR, so the SNR step (the PER of a 1500 B MPDU, one
// exp) runs once per TXOP, and the length step (one pow) once per run of
// equal frame lengths. Every value is bit-identical to packet_error_rate's.
class PerCurve {
 public:
  PerCurve(McsIndex idx, Db snr);

  [[nodiscard]] double at(int mpdu_bytes) {
    if (mpdu_bytes != last_bytes_) {
      last_bytes_ = mpdu_bytes;
      last_per_ = scale_to_length(mpdu_bytes);
    }
    return last_per_;
  }

 private:
  [[nodiscard]] double scale_to_length(int mpdu_bytes) const;

  double per_1500_;
  int last_bytes_ = INT_MIN;  // no frame length is INT_MIN bytes
  double last_per_ = 0.0;
};

// The maximum PHY rate two peers can use given both sides' capabilities.
struct Capability {
  ChannelWidth max_width = ChannelWidth::MHz80;
  int max_nss = 1;
  int max_mcs = kMaxMcs;
  bool short_gi = true;
};
[[nodiscard]] RateMbps max_rate(const Capability& a, const Capability& b);

}  // namespace mcs

}  // namespace w11
