#pragma once
// BoundedRing<T>: the tree's one oldest-evicting, drop-counting ring.
//
// Every bounded breadcrumb store (the obs trace recorder's ring, which also
// holds the FastACK debug trace, and the flight recorder's entries and
// retained postmortems) shares one contract:
//
//   * push() never blocks and never fails: once the ring holds `capacity`
//     entries, the oldest is overwritten and counted in dropped();
//   * storage grows lazily with use — nothing is reserved up front and
//     nothing is allocated past `capacity`, so a generous bound on an idle
//     ring costs nothing;
//   * capacity 0 keeps nothing and counts every push as dropped;
//   * traversal (operator[], begin/end, back) runs oldest-first over the
//     live entries without copying them.
//
// Single-writer; iterators and references invalidate on any mutation.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

namespace w11::common {

template <typename T>
class BoundedRing {
 public:
  explicit BoundedRing(std::size_t capacity) : capacity_(capacity) {}

  void push(T v) {
    if (items_.size() < capacity_) {
      if (items_.size() == items_.capacity())
        items_.reserve(std::min(capacity_, std::max<std::size_t>(
                                               1, 2 * items_.size())));
      items_.push_back(std::move(v));
      return;
    }
    ++dropped_;
    if (capacity_ == 0) return;
    items_[head_] = std::move(v);
    if (++head_ == capacity_) head_ = 0;
  }

  // The i-th live entry, oldest first. `head_` is nonzero only once the
  // ring is full, so the wrap is one compare.
  [[nodiscard]] const T& operator[](std::size_t i) const {
    const std::size_t k = head_ + i;
    return items_[k < items_.size() ? k : k - items_.size()];
  }
  [[nodiscard]] const T& back() const { return (*this)[items_.size() - 1]; }

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator() = default;
    reference operator*() const { return (*ring_)[i_]; }
    pointer operator->() const { return &(*ring_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++i_;
      return old;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.i_ == b.i_;
    }

   private:
    friend class BoundedRing;
    const_iterator(const BoundedRing* ring, std::size_t i)
        : ring_(ring), i_(i) {}
    const BoundedRing* ring_ = nullptr;
    std::size_t i_ = 0;
  };

  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, items_.size()}; }

  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  // Drops every entry and resets the eviction count.
  void clear() {
    items_.clear();
    head_ = 0;
    dropped_ = 0;
  }

 private:
  std::size_t capacity_;
  std::vector<T> items_;   // physical slots; oldest live entry at head_
  std::size_t head_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace w11::common
