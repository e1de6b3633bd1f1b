#pragma once
// RingFifo<T>, the tree's one ring storage, is a growable circular FIFO on
// one std::vector. It carries the DES packet queues (the wired link's FIFO,
// the AP's per-client AC queues, a client's uplink), which push and pop one
// ~130 B packet record per frame; std::deque mallocs a 512 B node per three
// such records and allocates even when empty. The ring pushes and pops at
// both ends in O(1), allocates only when full (never when
// default-constructed), and grows by 1.5x or to what reserve() asks, never
// shrinking. A popped entry stays in its slot until a push overwrites it.
// References and iterators invalidate on any push; a moved-from ring may
// only be destroyed or assigned to.
//
// What a full ring does is its owner's policy: grow (RingFifo itself: the
// packet queues, ctrl::PlanStore's history), evict the oldest and count it
// (BoundedRing below), or reject and count (fleet::BoundedFifo).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

namespace w11::common {

template <typename T>
class RingFifo {
 public:
  // Walks the live entries front-first, like operator[].
  struct const_iterator {
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using reference = const T&;

    reference operator*() const { return (*ring)[i]; }
    const T* operator->() const { return &(*ring)[i]; }
    const_iterator& operator++() { return ++i, *this; }
    const_iterator operator++(int) { return {ring, i++}; }
    bool operator==(const const_iterator& o) const { return i == o.i; }

    const RingFifo* ring = nullptr;
    std::size_t i = 0;
  };

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  // Slots allocated: a push grows the ring only once size() reaches this.
  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }

  // The i-th entry from the front.
  [[nodiscard]] T& operator[](std::size_t i) { return buf_[slot(i)]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return buf_[slot(i)]; }
  [[nodiscard]] T& front() { return buf_[head_]; }
  [[nodiscard]] const T& front() const { return buf_[head_]; }
  [[nodiscard]] const T& back() const { return (*this)[size_ - 1]; }
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size_}; }

  // By value: `v` may be an entry of this ring, which growth moves.
  void push_back(T v) {
    if (size_ == buf_.size()) grow();
    buf_[slot(size_)] = std::move(v);
    ++size_;
  }
  void push_front(T v) {
    if (size_ == buf_.size()) grow();
    head_ = (head_ == 0 ? buf_.size() : head_) - 1;
    buf_[head_] = std::move(v);
    ++size_;
  }
  // Both pops require a non-empty ring.
  void pop_front() {
    if (++head_ == buf_.size()) head_ = 0;
    --size_;
  }
  void pop_back() { --size_; }

  // Grows the ring to `n` slots, if that is more than now.
  void reserve(std::size_t n) { if (n > buf_.size()) relay(n); }

 private:
  [[nodiscard]] std::size_t slot(std::size_t i) const {
    const std::size_t k = head_ + i;
    return k < buf_.size() ? k : k - buf_.size();
  }

  void grow() { relay(buf_.size() < 4 ? 4 : buf_.size() + buf_.size() / 2); }
  // Re-lay the entries front-first into a vector of `n` slots.
  void relay(std::size_t n) {
    std::vector<T> buf(n);
    for (std::size_t i = 0; i < size_; ++i) buf[i] = std::move((*this)[i]);
    buf_.swap(buf);
    head_ = 0;
  }

  std::vector<T> buf_;    // every slot, live or not: the capacity
  std::size_t head_ = 0;  // slot of the front entry
  std::size_t size_ = 0;
};

// The oldest-evicting, drop-counting policy, for every bounded breadcrumb
// store (the obs trace ring, which also holds the FastACK debug trace, and
// the flight recorder's entries and retained postmortems). push() never
// blocks or fails: once `capacity` entries are held, the oldest is
// overwritten and counted in dropped(); capacity 0 keeps nothing and counts
// every push. Storage grows lazily and never past `capacity`, so a generous
// bound on an idle ring costs nothing. Traversal (operator[], begin/end,
// back) runs oldest-first without copying. Single-writer.
template <typename T>
class BoundedRing {
 public:
  explicit BoundedRing(std::size_t capacity) : capacity_(capacity) {}

  void push(T v) {
    if (items_.size() == capacity_) {
      ++dropped_;
      if (capacity_ == 0) return;
      items_.pop_front();  // the push below overwrites its slot
    } else if (items_.size() == items_.capacity()) {
      items_.reserve(std::min(capacity_, std::max<std::size_t>(1, 2 * size())));
    }
    items_.push_back(std::move(v));
  }

  [[nodiscard]] const T& operator[](std::size_t i) const { return items_[i]; }
  [[nodiscard]] const T& back() const { return items_.back(); }
  [[nodiscard]] auto begin() const { return items_.begin(); }
  [[nodiscard]] auto end() const { return items_.end(); }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  // Drops every entry and its storage, and resets the eviction count.
  void clear() { *this = BoundedRing(capacity_); }

 private:
  std::size_t capacity_;
  RingFifo<T> items_;  // oldest first
  std::uint64_t dropped_ = 0;
};

}  // namespace w11::common
