#pragma once
// Bounded, counted FIFO for the fleet controller's ingest edge
// (DESIGN.md §15).
//
// The controller runs on one tick thread: producers offer on it and tick()
// drains on it, so the edge needs no locks or atomics. What it does need is
// a bound — a wedged consumer shows up as rejections, never as unbounded
// memory growth. The queue is try-only: a full queue rejects the push (the
// caller decides whether that is a drop or a deferral) and every rejection
// is counted.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>

#include "common/check.hpp"
#include "common/ring.hpp"

namespace w11::fleet {

struct QueueStats {
  std::uint64_t pushed = 0;
  std::uint64_t popped = 0;
  std::uint64_t rejected = 0;   // try_push refusals (full queue)
  std::uint64_t high_water = 0; // max resident size observed at push
};

// The reject-and-count policy on a common::RingFifo of `capacity` slots,
// all allocated up front; push and pop are O(1).
template <class T>
class BoundedFifo {
 public:
  explicit BoundedFifo(std::size_t capacity) {
    W11_CHECK_MSG(capacity > 0, "a bounded queue needs capacity >= 1");
    items_.reserve(capacity);
  }

  [[nodiscard]] std::size_t capacity() const { return items_.capacity(); }
  [[nodiscard]] std::size_t size() const { return items_.size(); }

  // False (and one rejection counted) when full.
  bool try_push(T v) {
    if (items_.size() == items_.capacity()) {
      ++stats_.rejected;
      return false;
    }
    items_.push_back(std::move(v));
    ++stats_.pushed;
    stats_.high_water = std::max<std::uint64_t>(stats_.high_water, size());
    return true;
  }

  [[nodiscard]] std::optional<T> try_pop() {
    if (items_.empty()) return std::nullopt;
    std::optional<T> out(std::move(items_.front()));
    items_.pop_front();
    ++stats_.popped;
    return out;
  }

  [[nodiscard]] QueueStats stats() const { return stats_; }

 private:
  common::RingFifo<T> items_;  // never grows: try_push rejects when full
  QueueStats stats_;
};

}  // namespace w11::fleet
