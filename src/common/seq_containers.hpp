#pragma once
// Flat containers for sequence-number-keyed datapath state.
//
// The TCP/FastACK hot paths are dominated by three access patterns that
// node-based std::map/std::set serve with a pointer chase and an allocation
// per entry:
//
//   * append at the tail (sequence numbers arrive mostly in order),
//   * evict a prefix (cumulative ACKs retire the oldest entries),
//   * point/range lookup by sequence number.
//
// SortedRing serves exactly those: a sorted vector with a head offset, so
// prefix eviction is a pointer bump and tail append is a push_back; the
// occasional out-of-order insert (an end-to-end retransmission refreshing
// an evicted range) pays a memmove, which is still cheaper than a rebalance
// for the sizes involved. Storage is compacted lazily once the dead prefix
// outweighs the live entries. Its two faces are SeqRing, keyed by sequence
// number (the retransmission cache, the AP's TCP-latency table), and
// RangeQueue, keyed by the whole range (the FastACK q_seq set).
//
// IntervalVec is the same idea for the TCP receiver's out-of-order
// reassembly map (disjoint merged intervals).

#include <algorithm>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

namespace w11 {

// Entries ordered by the key std::invoke(key_of, entry), unique by key:
// inserting an equal key overwrites the entry. Iterators are vector
// iterators over the live [head, end) window; they invalidate on any
// mutation.
template <typename T, auto key_of = std::identity{}>
class SortedRing {
 public:
  using const_iterator = typename std::vector<T>::const_iterator;
  using Key =
      std::remove_cvref_t<std::invoke_result_t<decltype(key_of), const T&>>;

  [[nodiscard]] std::size_t size() const { return v_.size() - head_; }
  [[nodiscard]] bool empty() const { return head_ == v_.size(); }

  void clear() {
    v_.clear();
    head_ = 0;
  }

  [[nodiscard]] const_iterator begin() const { return v_.begin() + gap(); }
  [[nodiscard]] const_iterator end() const { return v_.end(); }

  [[nodiscard]] const T& front() const { return v_[head_]; }

  void pop_front() {
    ++head_;
    if (head_ >= 64 && head_ * 2 >= v_.size()) {
      v_.erase(v_.begin(), v_.begin() + gap());
      head_ = 0;
    }
  }

  void insert(T e) {
    if (!empty() && key(v_.back()) < key(e)) {  // common case: append
      v_.push_back(std::move(e));
      return;
    }
    const auto it = v_.begin() + (lower_bound(key(e)) - v_.cbegin());
    if (it != v_.end() && !(key(e) < key(*it))) {
      *it = std::move(e);
    } else {
      v_.insert(it, std::move(e));
    }
  }

  // First entry with key > `k` (std::map::upper_bound semantics).
  [[nodiscard]] const_iterator upper_bound(const Key& k) const {
    return std::upper_bound(begin(), end(), k, [](const Key& a, const T& e) {
      return a < key(e);
    });
  }

  [[nodiscard]] const_iterator lower_bound(const Key& k) const {
    return std::lower_bound(begin(), end(), k, [](const T& e, const Key& a) {
      return key(e) < a;
    });
  }

 private:
  static const Key& key(const T& e) { return std::invoke(key_of, e); }
  [[nodiscard]] std::ptrdiff_t gap() const {
    return static_cast<std::ptrdiff_t>(head_);
  }

  std::vector<T> v_;
  std::size_t head_ = 0;
};

// Sorted (sequence -> value) ring.
template <typename V>
class SeqRing : public SortedRing<std::pair<std::uint64_t, V>,
                                  &std::pair<std::uint64_t, V>::first> {
 public:
  using Entry = std::pair<std::uint64_t, V>;

  void insert_or_assign(std::uint64_t key, V val) {
    this->insert(Entry{key, std::move(val)});
  }
};

// Ordered set of unique [start, end) ranges consumed strictly from the
// front — std::set<Range> semantics for the FastACK pending-ack queue.
// Ranges may overlap; an exact duplicate overwrites its equal, a no-op.
template <typename Range>
using RangeQueue = SortedRing<Range>;

// Sorted vector of disjoint byte intervals [start, end), merged on insert —
// the TCP receiver's out-of-order reassembly state. Holes are few at any
// instant, so front erasure by memmove beats per-node allocation.
class IntervalVec {
 public:
  struct Interval {
    std::uint64_t start;
    std::uint64_t end;
  };
  using const_iterator = std::vector<Interval>::const_iterator;

  [[nodiscard]] bool empty() const { return v_.empty(); }
  [[nodiscard]] std::size_t size() const { return v_.size(); }
  [[nodiscard]] const_iterator begin() const { return v_.begin(); }
  [[nodiscard]] const_iterator end() const { return v_.end(); }
  void clear() { v_.clear(); }

  // Merge [start, end) in, coalescing with any overlapping or touching
  // neighbours (same outcome as the former std::map merge loop).
  void insert(std::uint64_t start, std::uint64_t end) {
    auto it = std::lower_bound(
        v_.begin(), v_.end(), start,
        [](const Interval& iv, std::uint64_t s) { return iv.start < s; });
    if (it != v_.begin() && std::prev(it)->end >= start) --it;
    auto last = it;
    while (last != v_.end() && last->start <= end) {
      start = std::min(start, last->start);
      end = std::max(end, last->end);
      ++last;
    }
    if (it == last) {
      v_.insert(it, Interval{start, end});
    } else {
      it->start = start;
      it->end = end;
      v_.erase(it + 1, last);
    }
  }

  // Consume every interval reachable from `cursor` (start <= cursor),
  // advancing it past their ends — the in-order delivery absorb step.
  [[nodiscard]] std::uint64_t absorb(std::uint64_t cursor) {
    auto it = v_.begin();
    while (it != v_.end() && it->start <= cursor) {
      cursor = std::max(cursor, it->end);
      ++it;
    }
    v_.erase(v_.begin(), it);
    return cursor;
  }

  // Total buffered bytes.
  [[nodiscard]] std::uint64_t held_bytes() const {
    std::uint64_t held = 0;
    for (const Interval& iv : v_) held += iv.end - iv.start;
    return held;
  }

 private:
  std::vector<Interval> v_;
};

}  // namespace w11
