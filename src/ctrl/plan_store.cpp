#include "ctrl/plan_store.hpp"

#include "common/check.hpp"

namespace w11::ctrl {

PlanStore::PlanStore(std::size_t max_history) : max_history_(max_history) {
  W11_CHECK(max_history_ >= 2);  // a candidate plus its last-known-good
}

std::uint64_t PlanStore::commit(ChannelPlan plan, double netp_log, Time at) {
  const std::uint64_t v = next_++;
  history_.push_back(PlanVersion{v, std::move(plan), netp_log, at});
  evict();
  return v;
}

void PlanStore::mark_good(std::uint64_t version) {
  W11_CHECK_MSG(get(version) != nullptr,
                "mark_good on a version outside the history window");
  good_ = version;
  evict();  // the previous good may now be evictable
}

const PlanVersion* PlanStore::get(std::uint64_t version) const {
  for (const PlanVersion& pv : history_)
    if (pv.version == version) return &pv;
  return nullptr;
}

const PlanVersion* PlanStore::last_known_good() const {
  return good_ == 0 ? nullptr : get(good_);
}

void PlanStore::evict() {
  while (history_.size() > max_history_) {
    // Never evict the last-known-good: auto-revert must always have a
    // target, no matter how many candidates churned past it. A pinned good
    // version takes the slot of the next-oldest entry, the actual victim.
    if (history_.front().version == good_)
      history_[1] = std::move(history_.front());
    history_.front().plan = {};  // now, not when a push reuses the slot
    history_.pop_front();
  }
}

}  // namespace w11::ctrl
