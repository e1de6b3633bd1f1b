#pragma once
// RingFifo<T>: a growable circular FIFO for the DES packet queues.
//
// The wired link's FIFO, the AP's per-client access-category queues and a
// client's uplink queue each push and pop one ~130 B packet record per
// frame. std::deque fits three such records in a 512 B node, so a queue
// that cycles mallocs and frees a node on every third push and pop, and
// even an empty deque allocates. RingFifo keeps one std::vector used as a
// ring instead:
//
//   * push and pop at both ends are O(1) and allocate only when the ring is
//     full; a default-constructed ring allocates nothing;
//   * capacity grows by 1.5x and never shrinks, so a queue's footprint is
//     its high-water mark plus at most half again.
//
// Unlike common::BoundedRing it never evicts: it is a queue, not a
// breadcrumb store. A popped entry stays in its slot until a push
// overwrites it. References invalidate on any push, and a moved-from ring
// may only be destroyed or assigned to.

#include <cstddef>
#include <utility>
#include <vector>

namespace w11 {

template <typename T>
class RingFifo {
 public:
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  // The i-th entry from the front.
  [[nodiscard]] T& operator[](std::size_t i) { return buf_[slot(i)]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return buf_[slot(i)]; }
  [[nodiscard]] T& front() { return buf_[head_]; }
  [[nodiscard]] const T& front() const { return buf_[head_]; }
  [[nodiscard]] T& back() { return (*this)[size_ - 1]; }
  [[nodiscard]] const T& back() const { return (*this)[size_ - 1]; }

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

 private:
  [[nodiscard]] std::size_t slot(std::size_t i) const {
    const std::size_t k = head_ + i;
    return k < buf_.size() ? k : k - buf_.size();
  }

  // Re-lay the entries front-first into a vector 1.5x the size.
  void grow() {
    const std::size_t cap = buf_.size();
    std::vector<T> buf(cap < 4 ? 4 : cap + cap / 2);
    for (std::size_t i = 0; i < size_; ++i) buf[i] = std::move((*this)[i]);
    buf_.swap(buf);
    head_ = 0;
  }

  std::vector<T> buf_;    // every slot, live or not: the capacity
  std::size_t head_ = 0;  // slot of the front entry
  std::size_t size_ = 0;
};

}  // namespace w11
