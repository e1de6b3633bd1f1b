#include "net/wired_link.hpp"

#include <algorithm>
#include <ranges>

namespace w11 {

std::size_t WiredLink::queue_depth() const {
  const Time now = sim_.now();
  const auto first_waiting = std::ranges::partition_point(
      std::views::iota(std::size_t{0}, fifo_.size()),
      [now](const Slot& s) { return s.start <= now; },
      [this](std::size_t i) -> const Slot& { return fifo_[i]; });
  return fifo_.size() - *first_waiting;
}

void WiredLink::send(TcpSegment seg) {
  if (!up_) {
    ++outage_drops_;
    ++dropped_;
    return;
  }
  // The front segment has always started, so the depth is at most
  // size - 1 and the search is needed only past `queue_packets`.
  if (cfg_.queue_packets != 0 && fifo_.size() > cfg_.queue_packets &&
      queue_depth() >= cfg_.queue_packets) {
    ++dropped_;
    return;
  }
  // The next segment can begin serializing as soon as the one ahead of it
  // leaves the NIC.
  const Time start = std::max(sim_.now(), free_at_);
  free_at_ = start + transmit_time(seg.wire_size(), cfg_.rate);
  fifo_.push_back({start, free_at_, std::move(seg)});
  if (fifo_.size() == 1) schedule_front();
}

void WiredLink::set_up(bool up) {
  if (up == up_) return;
  up_ = up;
  if (up_) return;
  // Unplugged mid-burst: everything still waiting in the NIC is lost.
  const Time now = sim_.now();
  while (!fifo_.empty() && fifo_.back().start > now) {
    W11_CHECK_MSG(fifo_.size() > 1, "the front segment has always started");
    fifo_.pop_back();
    ++outage_drops_;
    ++dropped_;
  }
  // Serialization resumes once the segments on the wire have left the NIC.
  if (!fifo_.empty()) free_at_ = fifo_.back().done;
}

void WiredLink::schedule_front() {
  sim_.schedule_at(fifo_.front().done + cfg_.propagation,
                   [this] { deliver_front(); });
}

void WiredLink::deliver_front() {
  TcpSegment seg = std::move(fifo_.front().seg);
  fifo_.pop_front();
  if (!fifo_.empty()) schedule_front();
  ++delivered_;
  deliver_(std::move(seg));
}

}  // namespace w11
