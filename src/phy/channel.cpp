#include "phy/channel.hpp"

#include <algorithm>

#include "common/check.hpp"

// The planner's bit-for-bit contracts (golden plan equivalence, audit/kernel
// parity) do not survive value-unsafe FP transformations.
#ifdef __FAST_MATH__
#error "phy/channel.cpp must not be compiled with -ffast-math (determinism)"
#endif

namespace w11 {

const char* to_string(Band b) {
  return b == Band::G2_4 ? "2.4GHz" : "5GHz";
}

const char* to_string(ChannelWidth w) {
  switch (w) {
    case ChannelWidth::MHz20: return "20MHz";
    case ChannelWidth::MHz40: return "40MHz";
    case ChannelWidth::MHz80: return "80MHz";
    case ChannelWidth::MHz160: return "160MHz";
  }
  return "?";
}

std::vector<ChannelWidth> widths_up_to(ChannelWidth max) {
  std::vector<ChannelWidth> out;
  for (auto w : {ChannelWidth::MHz20, ChannelWidth::MHz40, ChannelWidth::MHz80,
                 ChannelWidth::MHz160}) {
    out.push_back(w);
    if (w == max) break;
  }
  return out;
}

double Channel::center_mhz() const {
  if (band == Band::G2_4) {
    // 2.4 GHz: channel n centre = 2407 + 5n (n = 1..13); ch 14 not used here.
    return 2407.0 + 5.0 * number;
  }
  // 5 GHz: channel n centre = 5000 + 5n.
  return 5000.0 + 5.0 * number;
}

ComponentSpan Channel::component_span() const {
  ComponentSpan out;
  if (band == Band::G2_4 || width == ChannelWidth::MHz20) {
    out.comp[0] = number;
    out.count = 1;
    return out;
  }
  // Bonded 5 GHz channel: 20 MHz components sit at centre ± odd multiples
  // of 2 channel units (10 MHz), i.e. 40 MHz -> {c-2, c+2},
  // 80 MHz -> {c-6, c-2, c+2, c+6}, 160 MHz -> {c-14 ... c+14 step 4}.
  const int half_span = width_mhz(width) / 10;  // in channel units (5 MHz)
  for (int off = -half_span + 2; off <= half_span - 2; off += 4)
    out.comp[out.count++] = number + off;
  return out;
}

std::vector<int> Channel::components() const {
  const ComponentSpan s = component_span();
  return {s.begin(), s.end()};
}

bool Channel::overlaps(const Channel& other) const {
  if (band != other.band) return false;
  const double half_a = width_mhz(width) / 2.0;
  const double half_b = width_mhz(other.width) / 2.0;
  const double gap = std::abs(center_mhz() - other.center_mhz());
  return gap < half_a + half_b;
}

bool Channel::is_dfs() const {
  if (band == Band::G2_4) return false;
  for (int c : component_span())
    if (channels::is_dfs_20mhz(c)) return true;
  return false;
}

Channel Channel::primary20() const {
  return Channel{band, component_span().front(), ChannelWidth::MHz20};
}

std::string Channel::to_string() const {
  std::string s = w11::to_string(band);
  s += " ch";
  s += std::to_string(number);
  s += "/";
  s += w11::to_string(width);
  return s;
}

namespace channels {

bool is_dfs_20mhz(int number) {
  return (number >= 52 && number <= 64) || (number >= 100 && number <= 144);
}

namespace {

// US 5 GHz 20 MHz channels (UNII-1, UNII-2, UNII-2e, UNII-3): 25 channels.
constexpr int k5g20[] = {36, 40, 44, 48, 52, 56, 60, 64, 100, 104, 108, 112,
                         116, 120, 124, 128, 132, 136, 140, 144, 149, 153,
                         157, 161, 165};
// 40 MHz bond centres: 12 channels.
constexpr int k5g40[] = {38, 46, 54, 62, 102, 110, 118, 126, 134, 142, 151, 159};
// 80 MHz bond centres: 6 channels.
constexpr int k5g80[] = {42, 58, 106, 122, 138, 155};
// 160 MHz bond centres: 2 channels.
constexpr int k5g160[] = {50, 114};
// 2.4 GHz non-overlapping channels.
constexpr int k2g20[] = {1, 6, 11};

}  // namespace

std::vector<Channel> us_catalog(Band band, ChannelWidth width) {
  std::vector<Channel> out;
  auto push_all = [&](const int* first, const int* last) {
    for (const int* it = first; it != last; ++it)
      out.push_back(Channel{band, *it, width});
  };
  if (band == Band::G2_4) {
    if (width == ChannelWidth::MHz20) push_all(std::begin(k2g20), std::end(k2g20));
    return out;
  }
  switch (width) {
    case ChannelWidth::MHz20: push_all(std::begin(k5g20), std::end(k5g20)); break;
    case ChannelWidth::MHz40: push_all(std::begin(k5g40), std::end(k5g40)); break;
    case ChannelWidth::MHz80: push_all(std::begin(k5g80), std::end(k5g80)); break;
    case ChannelWidth::MHz160: push_all(std::begin(k5g160), std::end(k5g160)); break;
  }
  return out;
}

std::vector<Channel> candidate_set(Band band, ChannelWidth max_width, bool allow_dfs) {
  std::vector<Channel> out;
  if (band == Band::G2_4) return us_catalog(band, ChannelWidth::MHz20);
  for (ChannelWidth w : widths_up_to(max_width)) {
    for (const Channel& c : us_catalog(band, w)) {
      if (!allow_dfs && c.is_dfs()) continue;
      out.push_back(c);
    }
  }
  return out;
}

std::span<const Channel> CandidateTable::at_width_or_all(ChannelWidth w) const {
  const auto first = std::find_if(channels.begin(), channels.end(),
                                  [w](const Channel& c) { return c.width == w; });
  const auto last = std::find_if(first, channels.end(),
                                 [w](const Channel& c) { return c.width != w; });
  if (first == last) return channels;
  return {first, last};
}

const CandidateTable& candidate_table(Band band, ChannelWidth max_width,
                                      bool allow_dfs) {
  const auto key = [](Band b, ChannelWidth w, bool dfs) {
    return (b == Band::G5 ? 8u : 0u) + static_cast<unsigned>(w) * 2u +
           (dfs ? 1u : 0u);
  };
  // Built on first use; immutable after.
  static const auto tables = [&key] {
    std::array<CandidateTable, 16> out;
    for (Band b : {Band::G2_4, Band::G5})
      for (ChannelWidth w : {ChannelWidth::MHz20, ChannelWidth::MHz40,
                             ChannelWidth::MHz80, ChannelWidth::MHz160})
        for (bool dfs : {false, true}) {
          CandidateTable& t = out[key(b, w, dfs)];
          t.channels = candidate_set(b, w, dfs);
          for (const Channel& c : t.channels) {
            const int o = ordinal(c);
            t.ordinals.push_back(o);
            t.mask |= std::uint64_t{1} << o;
          }
        }
    return out;
  }();
  return tables[key(band, max_width, allow_dfs)];
}

namespace {

constexpr int kMaxNumber = 165;
constexpr int kWidths = 4;

inline int wi(ChannelWidth w) { return static_cast<int>(w); }
inline int bi(Band b) { return b == Band::G2_4 ? 0 : 1; }

// All memoized geometry, built once on first use. Ordinals enumerate the
// catalog band-major, width-minor, in us_catalog order, so lookups that used
// to walk the catalog ("first channel whose components contain x") keep
// their original resolution order.
struct Geometry {
  std::vector<Channel> catalog;
  // (band, width, number) -> ordinal, -1 if absent.
  std::int16_t ord[2][kWidths][kMaxNumber + 1];
  // 5 GHz only: (width, 20 MHz component number) -> ordinal of the first
  // width-wide catalog channel containing that component.
  std::int16_t container[kWidths][kMaxNumber + 1];
  // (ordinal, width) -> ordinal of the width-wide sub-channel container.
  std::vector<std::array<std::int16_t, kWidths>> sub;
  // Pairwise Channel::overlaps, row-major over ordinals.
  std::vector<std::uint8_t> overlap;
  // Same relation as one bit per column: bit b of overlap_bits[a] is
  // overlap[a][b]. The scoring kernel's contender test is one shift+and.
  std::vector<std::uint64_t> overlap_bits;
  // (a, c) -> bit b set when sub[a][b] overlaps c, for b <= a's width.
  std::vector<std::uint8_t> sub_overlap;

  Geometry() {
    std::fill_n(&ord[0][0][0], 2 * kWidths * (kMaxNumber + 1),
                std::int16_t{-1});
    std::fill_n(&container[0][0], kWidths * (kMaxNumber + 1),
                std::int16_t{-1});
    for (Band band : {Band::G2_4, Band::G5}) {
      for (ChannelWidth w : {ChannelWidth::MHz20, ChannelWidth::MHz40,
                             ChannelWidth::MHz80, ChannelWidth::MHz160}) {
        for (const Channel& c : us_catalog(band, w)) {
          ord[bi(band)][wi(w)][c.number] =
              static_cast<std::int16_t>(catalog.size());
          catalog.push_back(c);
        }
      }
    }
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      const Channel& c = catalog[i];
      if (c.band != Band::G5) continue;
      for (int comp : c.component_span()) {
        if (container[wi(c.width)][comp] < 0)
          container[wi(c.width)][comp] = static_cast<std::int16_t>(i);
      }
    }
    sub.resize(catalog.size());
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      const Channel& c = catalog[i];
      const int prim = c.component_span().front();
      for (int w = 0; w < kWidths; ++w) {
        std::int16_t s;
        if (w == wi(c.width)) {
          s = static_cast<std::int16_t>(i);
        } else if (w == wi(ChannelWidth::MHz20)) {
          s = ord[bi(c.band)][w][prim];
        } else if (c.band == Band::G5 && container[w][prim] >= 0) {
          s = container[w][prim];
        } else {
          s = ord[bi(c.band)][wi(ChannelWidth::MHz20)][prim];
        }
        sub[i][static_cast<std::size_t>(w)] = s;
      }
    }
    W11_CHECK(catalog.size() <= kMaxCatalogOrdinals);
    overlap.assign(catalog.size() * catalog.size(), 0);
    overlap_bits.assign(catalog.size(), 0);
    for (std::size_t a = 0; a < catalog.size(); ++a)
      for (std::size_t b = 0; b < catalog.size(); ++b) {
        const bool o = catalog[a].overlaps(catalog[b]);
        overlap[a * catalog.size() + b] = o;
        if (o) overlap_bits[a] |= std::uint64_t{1} << b;
      }
    sub_overlap.assign(catalog.size() * catalog.size(), 0);
    for (std::size_t a = 0; a < catalog.size(); ++a)
      for (std::size_t c = 0; c < catalog.size(); ++c) {
        unsigned p = 0;
        for (int b = 0; b <= wi(catalog[a].width); ++b)
          if ((overlap_bits[static_cast<std::size_t>(sub[a][b])] >> c) & 1u)
            p |= 1u << b;
        sub_overlap[a * catalog.size() + c] = static_cast<std::uint8_t>(p);
      }
  }
};

const Geometry& geo() {
  static const Geometry g;
  return g;
}

}  // namespace

int ordinal(const Channel& c) {
  if (c.number < 0 || c.number > kMaxNumber) return -1;
  return geo().ord[bi(c.band)][wi(c.width)][c.number];
}

std::size_t catalog_size() { return geo().catalog.size(); }

const Channel& by_ordinal(int ord) {
  W11_CHECK(ord >= 0 && static_cast<std::size_t>(ord) < geo().catalog.size());
  return geo().catalog[static_cast<std::size_t>(ord)];
}

Channel sub_channel(const Channel& c, ChannelWidth b) {
  if (b == c.width) return c;
  const int o = ordinal(c);
  if (o >= 0)
    return geo().catalog[static_cast<std::size_t>(
        geo().sub[static_cast<std::size_t>(o)][wi(b)])];
  // Non-catalog channel: resolve directly (same semantics as the table).
  const Channel prim = c.primary20();
  if (b == ChannelWidth::MHz20) return prim;
  if (c.band == Band::G5 && prim.number >= 0 && prim.number <= kMaxNumber) {
    const std::int16_t ct = geo().container[wi(b)][prim.number];
    if (ct >= 0) return geo().catalog[static_cast<std::size_t>(ct)];
  }
  return prim;  // no bonded container exists; degrade to primary
}

int sub_channel_ordinal(int ord, ChannelWidth b) {
  W11_CHECK(ord >= 0 && static_cast<std::size_t>(ord) < geo().catalog.size());
  return geo().sub[static_cast<std::size_t>(ord)][wi(b)];
}

bool overlaps_ordinal(int a, int b) {
  const Geometry& g = geo();
  W11_CHECK(a >= 0 && b >= 0 &&
            static_cast<std::size_t>(a) < g.catalog.size() &&
            static_cast<std::size_t>(b) < g.catalog.size());
  return g.overlap[static_cast<std::size_t>(a) * g.catalog.size() +
                   static_cast<std::size_t>(b)] != 0;
}

std::uint64_t overlap_mask(int ord) {
  const Geometry& g = geo();
  W11_CHECK(ord >= 0 && static_cast<std::size_t>(ord) < g.catalog.size());
  return g.overlap_bits[static_cast<std::size_t>(ord)];
}

const std::uint64_t* overlap_masks() { return geo().overlap_bits.data(); }

const std::int16_t* sub_channel_table() { return geo().sub.front().data(); }

std::size_t sub_channel_stride() { return kWidths; }

const std::uint8_t* sub_overlap_patterns() { return geo().sub_overlap.data(); }

}  // namespace channels

}  // namespace w11
