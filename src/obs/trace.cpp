#include "obs/trace.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <tuple>

namespace w11::obs {

void TraceRecorder::push(const TraceEvent& e) { ring_.push(e); }

std::vector<TraceEvent> TraceRecorder::merged() const {
  std::vector<TraceEvent> out(ring_.begin(), ring_.end());
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& x, const TraceEvent& y) {
                     return std::tie(x.ts_ns, x.ord, x.kind, x.a, x.b) <
                            std::tie(y.ts_ns, y.ord, y.kind, y.a, y.b);
                   });
  return out;
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
