#pragma once
// Slab-allocated event storage and the scheduling heap behind Simulator.
//
// EventArena owns every pending event record in fixed-size chunks. Records
// are recycled through an intrusive free list, so steady-state scheduling
// performs zero allocations; chunk addresses are stable, so records are
// never moved while pending. Each slot carries a generation counter that is
// bumped on release — an EventHandle captures (slot, generation) and a
// stale pair simply fails the check, which makes O(1) cancellation safe
// without a per-event heap-allocated cancel flag.
//
// TimerHeap is a 4-ary implicit min-heap over compact 24-byte keys
// (time, seq, slot). The comparator is the exact strict total order the old
// std::priority_queue used — (time, seq) with unique seq — so the pop
// sequence is bit-for-bit identical to the pre-overhaul engine; the win is
// purely constant-factor (flat keys instead of fat events, and a branch
// factor tuned for the short-horizon MAC/TCP timers that dominate, where a
// shallower tree means fewer cache lines per sift).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "sim/small_fn.hpp"

namespace w11::sim_detail {

inline constexpr std::uint32_t kNullSlot = 0xffffffffu;

struct EventSlot {
  std::uint32_t gen = 0;
  bool cancelled = false;
  std::uint32_t next_free = kNullSlot;
  sim::SmallFn cb;
};

class EventArena {
 public:
  EventArena() = default;
  EventArena(const EventArena&) = delete;
  EventArena& operator=(const EventArena&) = delete;

  ~EventArena() {
    // Only slots below the watermark were ever constructed.
    for (std::uint32_t i = 0; i < watermark_; ++i) slot(i).~EventSlot();
  }

  // Claims a recycled slot, or lazily constructs the next virgin slot at the
  // bump watermark. Chunks are raw storage: a fresh arena never pays a
  // full-chunk value-initialization or free-list threading pass — each slot
  // is placement-constructed exactly once, on first use. The caller installs
  // the callback in place via slot(idx).cb.emplace(...) so the capture is
  // built directly in the slab, with no relocating move in between.
  std::uint32_t acquire() {
    if (free_head_ != kNullSlot) {
      const std::uint32_t idx = free_head_;
      EventSlot& s = slot(idx);
      free_head_ = s.next_free;
      s.next_free = kNullSlot;
      s.cancelled = false;
      return idx;
    }
    if (watermark_ == capacity_) grow();
    const std::uint32_t idx = watermark_++;
    // Default-init, not value-init: NSDMIs set the header fields and null
    // the callback's dispatch pointers, but the 152-byte capture buffer is
    // deliberately left untouched instead of being zeroed.
    ::new (static_cast<void*>(slot_ptr(idx))) EventSlot;
    return idx;
  }

  // Destroys the callback, invalidates outstanding handles via the
  // generation bump, and recycles the slot.
  void release(std::uint32_t idx) {
    EventSlot& s = slot(idx);
    s.cb.reset();
    ++s.gen;
    s.next_free = free_head_;
    free_head_ = idx;
  }

  [[nodiscard]] EventSlot& slot(std::uint32_t idx) {
    return *std::launder(reinterpret_cast<EventSlot*>(slot_ptr(idx)));
  }

  [[nodiscard]] bool live(std::uint32_t idx, std::uint32_t gen) {
    return idx < watermark_ && slot(idx).gen == gen;
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  static constexpr std::uint32_t kChunkShift = 8;  // 256 slots per chunk
  static constexpr std::uint32_t kChunkMask = (1u << kChunkShift) - 1;

  [[nodiscard]] std::byte* slot_ptr(std::uint32_t idx) {
    return chunks_[idx >> kChunkShift].get() +
           std::size_t{idx & kChunkMask} * sizeof(EventSlot);
  }

  void grow() {
    // new std::byte[] is aligned for max_align_t, which covers EventSlot
    // (SmallFn's buffer is alignas(max_align_t)).
    static_assert(alignof(EventSlot) <= alignof(std::max_align_t));
    chunks_.push_back(std::make_unique_for_overwrite<std::byte[]>(
        (std::size_t{1} << kChunkShift) * sizeof(EventSlot)));
    capacity_ += 1u << kChunkShift;
  }

  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::uint32_t free_head_ = kNullSlot;
  std::uint32_t watermark_ = 0;  // slots below this have been constructed
  std::uint32_t capacity_ = 0;
};

// Liveness tag shared by a Simulator and every EventHandle it hands out.
// The refcount is deliberately non-atomic: the engine is single-threaded by
// design (fleet parallelism runs one Simulator per worker), and a plain
// increment replaces the two atomic RMW ops a weak_ptr copy would cost on
// every scheduled event. `arena` is nulled when the Simulator dies, which
// is what makes cancel-after-destruction a safe no-op.
struct ArenaTag {
  EventArena* arena;
  std::uint32_t refs;
};

class TimerHeap {
 public:
  struct Entry {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  [[nodiscard]] bool empty() const { return v_.empty(); }
  [[nodiscard]] std::size_t size() const { return v_.size(); }
  [[nodiscard]] const Entry& top() const { return v_.front(); }

  void push(Entry e) {
    // Hole technique: shift losing parents down and place the new entry
    // once, instead of swapping 24-byte entries at every level.
    std::size_t i = v_.size();
    v_.push_back(e);
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!earlier(e, v_[parent])) break;
      v_[i] = v_[parent];
      i = parent;
    }
    v_[i] = e;
  }

  void pop() {
    const Entry last = v_.back();
    v_.pop_back();
    const std::size_t n = v_.size();
    if (n == 0) return;
    std::size_t i = 0;
    while (true) {
      const std::size_t first_child = (i << 2) + 1;
      if (first_child >= n) break;
      std::size_t best = first_child;
      const std::size_t last_child = std::min(first_child + 4, n);
      for (std::size_t c = first_child + 1; c < last_child; ++c)
        if (earlier(v_[c], v_[best])) best = c;
      if (!earlier(v_[best], last)) break;
      v_[i] = v_[best];
      i = best;
    }
    v_[i] = last;
  }

 private:
  // The determinism contract: strictly (time, seq) — seq is unique, so this
  // is a strict total order and the pop sequence is engine-independent.
  [[nodiscard]] static bool earlier(const Entry& a, const Entry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  std::vector<Entry> v_;
};

}  // namespace w11::sim_detail
