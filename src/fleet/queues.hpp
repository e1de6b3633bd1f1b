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
#include <vector>

#include "common/check.hpp"

namespace w11::fleet {

struct QueueStats {
  std::uint64_t pushed = 0;
  std::uint64_t popped = 0;
  std::uint64_t rejected = 0;   // try_push refusals (full queue)
  std::uint64_t high_water = 0; // max resident size observed at push
};

// Ring of `capacity` slots; push and pop are O(1).
template <class T>
class BoundedFifo {
 public:
  explicit BoundedFifo(std::size_t capacity) : slots_(capacity) {
    W11_CHECK_MSG(capacity > 0, "a bounded queue needs capacity >= 1");
  }

  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  [[nodiscard]] std::size_t size() const { return size_; }

  // False (and one rejection counted) when full.
  bool try_push(T v) {
    if (size_ == slots_.size()) {
      ++stats_.rejected;
      return false;
    }
    slots_[(head_ + size_) % slots_.size()] = std::move(v);
    ++size_;
    ++stats_.pushed;
    stats_.high_water = std::max<std::uint64_t>(stats_.high_water, size_);
    return true;
  }

  [[nodiscard]] std::optional<T> try_pop() {
    if (size_ == 0) return std::nullopt;
    std::optional<T> out(std::move(slots_[head_]));
    head_ = (head_ + 1) % slots_.size();
    --size_;
    ++stats_.popped;
    return out;
  }

  [[nodiscard]] QueueStats stats() const { return stats_; }

 private:
  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  QueueStats stats_;
};

}  // namespace w11::fleet
