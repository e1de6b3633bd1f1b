#include "sim/simulator.hpp"

namespace w11 {

Simulator::Simulator()
    : arena_(std::make_unique<sim_detail::EventArena>()),
      tag_(new sim_detail::ArenaTag{arena_.get(), 1}) {}

Simulator::~Simulator() {
  // Unbind the recorder's clock; it points at this simulator's now_.
  if (tracer_ != nullptr) tracer_->bind_clock(nullptr);
  tag_->arena = nullptr;
  if (--tag_->refs == 0) delete tag_;
}

void EventHandle::free_tag(sim_detail::ArenaTag* tag) noexcept { delete tag; }

}  // namespace w11
