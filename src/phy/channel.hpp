#pragma once
// 802.11 channelization for the US regulatory domain.
//
// A `Channel` is a (band, IEEE channel number, width) triple. For bonded
// channels the number designates the centre of the bond (e.g. 42 for the
// 80 MHz channel spanning 36–48). The catalog functions reproduce the FCC
// allocation cited in the paper (§4.1.1): twenty-five 20 MHz, twelve 40 MHz,
// six 80 MHz and two 160 MHz channels at 5 GHz, three non-overlapping
// channels at 2.4 GHz, and the DFS subsets of §4.5.2.

#include <array>
#include <cstdint>
#include <compare>
#include <ostream>
#include <span>
#include <string>
#include <vector>

namespace w11 {

enum class Band : std::uint8_t { G2_4, G5 };

enum class ChannelWidth : std::uint8_t { MHz20, MHz40, MHz80, MHz160 };

[[nodiscard]] constexpr int width_mhz(ChannelWidth w) {
  switch (w) {
    case ChannelWidth::MHz20: return 20;
    case ChannelWidth::MHz40: return 40;
    case ChannelWidth::MHz80: return 80;
    case ChannelWidth::MHz160: return 160;
  }
  return 20;
}

[[nodiscard]] const char* to_string(Band b);
[[nodiscard]] const char* to_string(ChannelWidth w);

// Widths from 20 MHz up to and including `max`, in increasing order.
[[nodiscard]] std::vector<ChannelWidth> widths_up_to(ChannelWidth max);

// Allocation-free view of a channel's 20 MHz components; eight slots cover
// the widest bond (160 MHz).
struct ComponentSpan {
  std::array<int, 8> comp{};
  int count = 0;

  [[nodiscard]] const int* begin() const { return comp.data(); }
  [[nodiscard]] const int* end() const { return comp.data() + count; }
  [[nodiscard]] int front() const { return comp[0]; }
  [[nodiscard]] int size() const { return count; }
};

struct Channel {
  Band band = Band::G5;
  int number = 36;  // IEEE channel number of the (bonded) centre
  ChannelWidth width = ChannelWidth::MHz20;

  friend constexpr auto operator<=>(const Channel&, const Channel&) = default;

  // Centre frequency in MHz.
  [[nodiscard]] double center_mhz() const;
  // The 20 MHz component channel numbers of this (possibly bonded) channel.
  [[nodiscard]] std::vector<int> components() const;
  // Same, without the allocation — the planner's hot paths use this.
  [[nodiscard]] ComponentSpan component_span() const;
  // Frequency overlap between two channels (any shared spectrum), which is
  // what matters for contention and corruption on bonded transmissions.
  [[nodiscard]] bool overlaps(const Channel& other) const;
  // True if any 20 MHz component requires Dynamic Frequency Selection.
  [[nodiscard]] bool is_dfs() const;
  // The primary 20 MHz sub-channel (lowest component by convention here).
  [[nodiscard]] Channel primary20() const;

  [[nodiscard]] std::string to_string() const;
  friend std::ostream& operator<<(std::ostream& os, const Channel& c) {
    return os << c.to_string();
  }
};

namespace channels {

// All US channels of the given width on the given band. For 2.4 GHz only
// 20 MHz is returned (the three non-overlapping channels 1/6/11).
[[nodiscard]] std::vector<Channel> us_catalog(Band band, ChannelWidth width);

// Every channel an AP limited to `max_width` may choose from: all widths
// 20..max on 5 GHz, or 1/6/11 on 2.4 GHz. `allow_dfs`=false filters DFS.
[[nodiscard]] std::vector<Channel> candidate_set(Band band, ChannelWidth max_width,
                                                 bool allow_dfs);

// candidate_set interned: one immutable table per (band, max width, DFS
// allowed) key, built once from candidate_set and never changed, so
// planners read a shared table instead of generating a fresh vector per AP.
struct CandidateTable {
  std::vector<Channel> channels;  // candidate_set order (width-ascending)
  std::vector<int> ordinals;      // ordinal() of each channel
  std::uint64_t mask = 0;         // bit o set iff ordinal o is in the table

  [[nodiscard]] bool contains(int ord) const {
    return ord >= 0 && ((mask >> ord) & 1u) != 0;
  }
  // The run of channels exactly `w` wide (contiguous: tables ascend in
  // width), or every channel when none is — the fixed-width planners'
  // candidate rule.
  [[nodiscard]] std::span<const Channel> at_width_or_all(ChannelWidth w) const;
};

[[nodiscard]] const CandidateTable& candidate_table(Band band,
                                                    ChannelWidth max_width,
                                                    bool allow_dfs);

// True if the 20 MHz 5 GHz channel number lies in a DFS range (52–64,
// 100–144 in the US).
[[nodiscard]] bool is_dfs_20mhz(int number);

// ---- memoized channel geometry -----------------------------------------
// The full US catalog (both bands, every width) is small — 48 channels — so
// the geometry the planner re-derives per evaluation (bond membership,
// sub-channel containers, pairwise overlap) is precomputed once into static
// tables and addressed by a dense *ordinal*.

// Dense ordinal of a catalog channel, or -1 if `c` is not in the catalog.
[[nodiscard]] int ordinal(const Channel& c);
// Number of catalog channels (valid ordinals are [0, catalog_size())).
[[nodiscard]] std::size_t catalog_size();
[[nodiscard]] const Channel& by_ordinal(int ord);

// The b-wide channel containing `c`'s primary 20 MHz sub-channel; degrades
// to the primary 20 when no bonded container exists (e.g. 2.4 GHz).
[[nodiscard]] Channel sub_channel(const Channel& c, ChannelWidth b);
// Memoized sub_channel over catalog ordinals (always a valid ordinal).
[[nodiscard]] int sub_channel_ordinal(int ord, ChannelWidth b);

// Precomputed Channel::overlaps over catalog ordinals.
[[nodiscard]] bool overlaps_ordinal(int a, int b);

// ---- flat scoring-kernel tables -----------------------------------------
// The batched NodeP kernel (DESIGN.md §14) walks candidate blocks with no
// per-candidate geometry calls: overlap tests collapse to one bit probe in
// a per-ordinal mask and sub-channel resolution to one row read. The whole
// catalog fits in 64 ordinals by construction (static-checked at build).

// Upper bound on catalog_size(): lets overlap sets live in one uint64 and
// kernel scratch live on the stack.
inline constexpr std::size_t kMaxCatalogOrdinals = 64;

// Bit `b` of overlap_mask(a) is overlaps_ordinal(a, b).
[[nodiscard]] std::uint64_t overlap_mask(int ord);
// The full mask table, indexed by ordinal (size catalog_size()).
[[nodiscard]] const std::uint64_t* overlap_masks();

// Row-major (ordinal, width) -> sub-channel ordinal table with stride
// sub_channel_stride(); sub_channel_table()[ord * stride + w] equals
// sub_channel_ordinal(ord, ChannelWidth(w)).
[[nodiscard]] const std::int16_t* sub_channel_table();
[[nodiscard]] std::size_t sub_channel_stride();

// Row-major (plan ordinal a, candidate ordinal c) -> width pattern, stride
// catalog_size(): bit b (b <= a's width) is set when a's b-wide sub-channel
// overlaps c. A neighbour planned on `a` sees a target moving to `c` as a
// contender on exactly the sub-channels of this pattern.
[[nodiscard]] const std::uint8_t* sub_overlap_patterns();

}  // namespace channels

}  // namespace w11
