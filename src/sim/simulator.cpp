#include "sim/simulator.hpp"

#include <algorithm>

namespace w11 {

Simulator::Simulator()
    : arena_(std::make_unique<sim_detail::EventArena>()),
      tag_(new sim_detail::ArenaTag{arena_.get(), 1}) {}

Simulator::~Simulator() {
#if W11_OBS
  // Unbind the recorder's clock; it points at this simulator's now_.
  if (tracer_ != nullptr) tracer_->bind_clock(nullptr);
#endif
  tag_->arena = nullptr;
  if (--tag_->refs == 0) delete tag_;
}

void EventHandle::free_tag(sim_detail::ArenaTag* tag) noexcept { delete tag; }

void Simulator::enable_event_trace(std::size_t capacity) {
  trace_on_ = true;
  trace_capacity_ = capacity;
  trace_.clear();
  trace_.reserve(std::min<std::size_t>(capacity, 4096));
  digest_ = fnv::kOffsetBasis;
}

}  // namespace w11
