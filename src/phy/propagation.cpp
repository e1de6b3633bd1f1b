#include "phy/propagation.hpp"

#include <algorithm>
#include <bit>

#include "common/rng.hpp"

namespace w11 {

namespace {

using rng_detail::splitmix64;

// Deterministic per-link shadowing: hash the unordered endpoint pair into a
// standard-normal-ish value via two rounds of splitmix64 + Box-Muller.
double link_shadow_normal(const Position& a, const Position& b) {
  auto quantize = [](double v) {
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(v * 100.0));
  };
  // Order-independent combination so shadowing is symmetric.
  const std::uint64_t ha = splitmix64(quantize(a.x) * 0x100000001B3ull ^ quantize(a.y));
  const std::uint64_t hb = splitmix64(quantize(b.x) * 0x100000001B3ull ^ quantize(b.y));
  const std::uint64_t h = splitmix64(ha ^ hb);
  const std::uint64_t h2 = splitmix64(h);
  const double u1 = (static_cast<double>(h >> 11) + 0.5) / 9007199254740992.0;
  const double u2 = (static_cast<double>(h2 >> 11) + 0.5) / 9007199254740992.0;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * 3.14159265358979323846 * u2);
}

}  // namespace

Db PropagationModel::path_loss(const Position& a, const Position& b, Band band) const {
  const double d = std::max(distance_m(a, b), 1.0);
  const Db ref = (band == Band::G2_4) ? ref_loss_2g : ref_loss_5g;
  Db loss = ref + 10.0 * exponent * std::log10(d);
  if (shadowing_sigma > 0.0) loss += shadowing_sigma * link_shadow_normal(a, b);
  return std::max(loss, ref);  // never below free-space reference
}

Dbm PropagationModel::rssi(Dbm tx_power, const Position& a, const Position& b,
                           Band band) const {
  return tx_power - path_loss(a, b, band);
}

Dbm PropagationModel::noise_floor(ChannelWidth width) const {
  return noise_floor_20mhz + 10.0 * std::log10(width_mhz(width) / 20.0);
}

Db PropagationModel::snr(Dbm tx_power, const Position& a, const Position& b,
                         Band band, ChannelWidth width) const {
  return rssi(tx_power, a, b, band) - noise_floor(width);
}

}  // namespace w11
