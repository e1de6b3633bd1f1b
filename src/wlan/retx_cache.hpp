#pragma once
// The AP-side TCP retransmission cache shared by the two accelerators that
// plug into wlan::TcpInterceptor: FastACK (core/fastack) and the TCP-Snoop
// baseline (core/snoop). Both cache downlink segments the client has not
// acknowledged yet and answer its duplicate ACKs by re-injecting cached
// copies over the air; they differ only in how they treat ACKs.
//
// Replays are rate limited. The client dup-ACKs every duplicate arrival,
// and re-injected copies take a while to clear the AP queue and the air, so
// each replay re-injects at most kBurst segments, and a trigger below the
// re-injection horizon within kHoldoff of the last replay re-injects none.

#include <algorithm>
#include <cstdint>
#include <iterator>

#include "common/seq_containers.hpp"
#include "common/time.hpp"
#include "net/tcp_segment.hpp"

namespace w11 {

// Segment start -> cached copy. Stores go through store(), so the ring
// underneath is read-only to owners.
class RetxCache : SeqRing<TcpSegment> {
  using Ring = SeqRing<TcpSegment>;

 public:
  static constexpr std::size_t kCapacity = 4096;  // segments per flow
  static constexpr int kBurst = 64;
  static constexpr Time kHoldoff = time::millis(100);

  using Ring::begin;
  using Ring::clear;
  using Ring::const_iterator;
  using Ring::empty;
  using Ring::end;
  using Ring::size;

  // Caches `seg`, replacing a copy with the same start, unless `capacity`
  // segments are held already; false on that overflow. Out of line, so the
  // ring's insert and growth paths stay out of the datapath handlers.
  bool store(const TcpSegment& seg, std::size_t capacity);

  // Drops the segments that `ack` covers (a prefix) and returns how many.
  std::uint64_t evict_acked(std::uint64_t ack) {
    std::uint64_t n = 0;
    for (; !empty() && front().second.seq_end() <= ack; ++n) pop_front();
    return n;
  }

  // The cached segment holding byte `seq`, or end().
  [[nodiscard]] const_iterator covering(std::uint64_t seq) const {
    const auto it = upper_bound(seq);
    if (it != begin() && std::prev(it)->second.seq_end() > seq)
      return std::prev(it);
    return end();
  }

  // Passes the cached segments from `from` on, in order, to `emit`, at most
  // kBurst of them and none that starts at or past `limit`, and returns how
  // many. A trigger at `seq` below the horizon within kHoldoff of the last
  // replay passes none.
  template <typename Emit>
  int replay(const_iterator from, std::uint64_t seq, std::uint64_t limit,
             Time now, Emit&& emit) {
    if (seq < horizon_ && now - replayed_at_ < kHoldoff) return 0;
    int n = 0;
    for (; from != end() && n < kBurst && from->first < limit; ++from, ++n) {
      horizon_ = std::max(horizon_, from->second.seq_end());
      emit(from->second);
    }
    if (n > 0) replayed_at_ = now;
    return n;
  }

 private:
  std::uint64_t horizon_ = 0;  // end of the highest byte re-injected
  Time replayed_at_{};
};

}  // namespace w11
