#pragma once
// FNV-1a, the one hash behind the golden event digest (folded over a
// simulator's traced dispatch stream), the ScanStatsCache row keys and the
// fleet plan-stream digest. Golden tests and committed bench witnesses pin
// all three: no output here may change.

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace w11::fnv {

inline constexpr std::uint64_t kOffsetBasis = 14695981039346656037ull;
// The standard basis with its last digit dropped: the ScanStatsCache keys
// and the fleet plan-stream digest were defined over it.
inline constexpr std::uint64_t kTruncatedOffsetBasis = 1469598103934665603ull;
inline constexpr std::uint64_t kPrime = 1099511628211ull;

// Byte-wise FNV-1a over the object representation of `v`.
template <class T>
inline void mix_value(std::uint64_t& h, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto* bytes = reinterpret_cast<const unsigned char*>(&v);
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    h ^= bytes[i];
    h *= kPrime;
  }
}

// Word-wise fold, one xor-multiply per 64-bit word: what the event digest
// is defined over, since it folds once per dispatched event.
inline void mix_word(std::uint64_t& h, std::uint64_t w) {
  h ^= w;
  h *= kPrime;
}

}  // namespace w11::fnv
