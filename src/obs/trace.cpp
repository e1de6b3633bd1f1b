#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <tuple>

namespace w11::obs {

namespace {
std::atomic<std::uint64_t> g_next_recorder_id{1};
}  // namespace

TraceRecorder::TraceRecorder(std::size_t per_lane_capacity)
    : per_lane_capacity_(per_lane_capacity),
      id_(g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)) {}

TraceRing& TraceRecorder::local_ring() {
  // One-entry thread-local cache keyed by the recorder's process-unique id
  // (not its address — a recorder allocated where a destroyed one lived
  // must not inherit the stale ring pointer). A thread records into one
  // run's recorder at a time, so the cache hits ~always after first record.
  struct Cache {
    std::uint64_t id = 0;
    TraceRing* ring = nullptr;
  };
  thread_local Cache cache;
  if (cache.id == id_) return *cache.ring;
  std::lock_guard<std::mutex> lock(lanes_mu_);
  rings_.push_back(std::make_unique<TraceRing>(per_lane_capacity_));
  cache = {id_, rings_.back().get()};
  return *cache.ring;
}

std::vector<TraceEvent> TraceRecorder::merged() const {
  std::lock_guard<std::mutex> lock(lanes_mu_);
  std::vector<TraceEvent> out;
  std::size_t total = 0;
  for (const auto& r : rings_) total += r->size();
  out.reserve(total);
  for (const auto& r : rings_) out.insert(out.end(), r->begin(), r->end());
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& x, const TraceEvent& y) {
                     return std::tie(x.ts_ns, x.ord, x.kind, x.a, x.b) <
                            std::tie(y.ts_ns, y.ord, y.kind, y.a, y.b);
                   });
  return out;
}

std::size_t TraceRecorder::total_events() const {
  std::lock_guard<std::mutex> lock(lanes_mu_);
  std::size_t total = 0;
  for (const auto& r : rings_) total += r->size();
  return total;
}

std::uint64_t TraceRecorder::total_dropped() const {
  std::lock_guard<std::mutex> lock(lanes_mu_);
  std::uint64_t total = 0;
  for (const auto& r : rings_) total += r->dropped();
  return total;
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> lock(lanes_mu_);
  for (auto& r : rings_) r->clear();
}

bool enable_from_env() {
  const char* v = std::getenv("W11_TRACE");
  return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

const char* trace_out_path(const char* default_path) {
  const char* v = std::getenv("W11_TRACE_OUT");
  return (v != nullptr && *v != '\0') ? v : default_path;
}

}  // namespace w11::obs
