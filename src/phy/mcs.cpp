#include "phy/mcs.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/check.hpp"

namespace w11::mcs {

namespace {

// Data subcarriers per channel width.
int data_subcarriers(ChannelWidth w) {
  switch (w) {
    case ChannelWidth::MHz20: return 52;
    case ChannelWidth::MHz40: return 108;
    case ChannelWidth::MHz80: return 234;
    case ChannelWidth::MHz160: return 468;
  }
  return 52;
}

// Coded bits per subcarrier × coding rate, i.e. information bits carried by
// one data subcarrier in one symbol, per spatial stream.
double info_bits_per_subcarrier(int mcs_value) {
  switch (mcs_value) {
    case 0: return 0.5;        // BPSK 1/2
    case 1: return 1.0;        // QPSK 1/2
    case 2: return 1.5;        // QPSK 3/4
    case 3: return 2.0;        // 16-QAM 1/2
    case 4: return 3.0;        // 16-QAM 3/4
    case 5: return 4.0;        // 64-QAM 2/3
    case 6: return 4.5;        // 64-QAM 3/4
    case 7: return 5.0;        // 64-QAM 5/6
    case 8: return 6.0;        // 256-QAM 3/4
    case 9: return 20.0 / 3.0; // 256-QAM 5/6
    default: return 0.0;
  }
}

}  // namespace

bool valid(McsIndex idx, ChannelWidth width) {
  if (idx.mcs < 0 || idx.mcs > kMaxMcs) return false;
  if (idx.nss < 1 || idx.nss > kMaxNss) return false;
  // Standard exclusions (802.11ac Table 21-29 ff.) for nss ≤ 4:
  // 20 MHz: MCS9 defined only for nss = 3.
  if (width == ChannelWidth::MHz20 && idx.mcs == 9 && idx.nss != 3) return false;
  // 80 MHz: MCS6 undefined for nss = 3.
  if (width == ChannelWidth::MHz80 && idx.mcs == 6 && idx.nss == 3) return false;
  // 160 MHz: MCS9 undefined for nss = 3.
  if (width == ChannelWidth::MHz160 && idx.mcs == 9 && idx.nss == 3) return false;
  return true;
}

std::optional<RateMbps> rate(McsIndex idx, ChannelWidth width, bool short_gi) {
  if (!valid(idx, width)) return std::nullopt;
  const double symbol_us = short_gi ? 3.6 : 4.0;
  const double bits_per_symbol =
      data_subcarriers(width) * info_bits_per_subcarrier(idx.mcs) * idx.nss;
  return RateMbps{bits_per_symbol / symbol_us};
}

Db min_snr(McsIndex idx) {
  // Representative receiver sensitivity deltas; MIMO streams need extra SNR
  // for stream separation (~3 dB per additional stream).
  static constexpr double kBase[] = {5.0, 8.0, 11.0, 14.0, 17.5,
                                     21.5, 23.0, 24.5, 28.5, 30.5};
  W11_CHECK(idx.mcs >= 0 && idx.mcs <= kMaxMcs);
  return kBase[idx.mcs] + 3.0 * (idx.nss - 1);
}

namespace {

// The exhaustive search: highest-rate valid MCS whose threshold `snr`
// meets (a NaN meets every threshold). Builds the staircases below, and
// serves the MCS-capped selections they do not cover.
std::optional<McsIndex> search(Db snr, ChannelWidth width, int nss_cap,
                               int mcs_cap = kMaxMcs) {
  std::optional<McsIndex> best;
  RateMbps best_rate{0.0};
  for (int nss = 1; nss <= nss_cap; ++nss) {
    for (int m = 0; m <= mcs_cap; ++m) {
      const McsIndex idx{m, nss};
      if (!valid(idx, width)) continue;
      if (snr < min_snr(idx)) continue;
      const auto r = rate(idx, width, /*short_gi=*/true);
      if (r && *r > best_rate) {
        best_rate = *r;
        best = idx;
      }
    }
  }
  return best;
}

// search() is a step function of `snr` that changes only at a min_snr
// threshold, so it is exactly its value at the highest threshold <= snr.
struct Staircase {
  std::vector<Db> thresholds;   // distinct min_snr values, ascending
  std::vector<McsIndex> picks;  // search() at each threshold
};

// [width][nss cap - 1], built once.
const Staircase& staircase(ChannelWidth width, int nss_cap) {
  static const auto tables = [] {
    std::array<std::array<Staircase, kMaxNss>, 4> t;
    for (std::size_t w = 0; w < t.size(); ++w) {
      const auto cw = static_cast<ChannelWidth>(w);
      for (int cap = 1; cap <= kMaxNss; ++cap) {
        Staircase& s = t[w][static_cast<std::size_t>(cap - 1)];
        for (int nss = 1; nss <= cap; ++nss)
          for (int m = 0; m <= kMaxMcs; ++m)
            if (valid({m, nss}, cw)) s.thresholds.push_back(min_snr({m, nss}));
        std::sort(s.thresholds.begin(), s.thresholds.end());
        s.thresholds.erase(
            std::unique(s.thresholds.begin(), s.thresholds.end()),
            s.thresholds.end());
        for (const Db th : s.thresholds) s.picks.push_back(*search(th, cw, cap));
      }
    }
    return t;
  }();
  return tables[static_cast<std::size_t>(width)]
               [static_cast<std::size_t>(nss_cap - 1)];
}

}  // namespace

std::optional<McsIndex> select(Db snr, ChannelWidth width, int max_nss,
                               int max_mcs) {
  const int nss_cap = std::clamp(max_nss, 1, kMaxNss);
  const Staircase& s = staircase(width, nss_cap);
  // First threshold above snr; a NaN compares above none, so it takes the
  // top step, as search() does.
  const auto above =
      std::upper_bound(s.thresholds.begin(), s.thresholds.end(), snr);
  if (above == s.thresholds.begin()) return std::nullopt;
  const McsIndex pick =
      s.picks[static_cast<std::size_t>(above - s.thresholds.begin() - 1)];
  // The uncapped pick is the capped one too when the cap allows it.
  if (pick.mcs <= max_mcs) return pick;
  return search(snr, width, nss_cap, max_mcs);
}

double packet_error_rate(McsIndex idx, Db snr, int mpdu_bytes) {
  return PerCurve(idx, snr).at(mpdu_bytes);
}

PerCurve::PerCurve(McsIndex idx, Db snr) {
  // Sigmoid PER curve centred slightly below the selection threshold: at the
  // threshold a 1500 B MPDU sees ≈8 % PER, improving ~an order of magnitude
  // per 2 dB.
  const double margin = snr - (min_snr(idx) - 1.0);
  per_1500_ = 1.0 / (1.0 + std::exp(1.35 * margin));
}

double PerCurve::scale_to_length(int mpdu_bytes) const {
  // Longer frames are proportionally more exposed.
  const double scale = std::max(1, mpdu_bytes) / 1500.0;
  const double per = 1.0 - std::pow(1.0 - std::min(per_1500_, 0.999), scale);
  return std::clamp(per, 0.0, 1.0);
}

RateMbps max_rate(const Capability& a, const Capability& b) {
  const ChannelWidth width = std::min(a.max_width, b.max_width);
  const int nss = std::min(a.max_nss, b.max_nss);
  const int mcs_cap = std::min(a.max_mcs, b.max_mcs);
  const bool sgi = a.short_gi && b.short_gi;
  RateMbps best{0.0};
  for (int m = 0; m <= mcs_cap; ++m) {
    const auto r = rate(McsIndex{m, nss}, width, sgi);
    if (r && *r > best) best = *r;
  }
  return best;
}

}  // namespace w11::mcs
