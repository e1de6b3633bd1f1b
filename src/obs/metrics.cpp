#include "obs/metrics.hpp"

namespace w11::obs {

void MetricsRegistry::set(std::string_view name, double value) {
  for (Sample& s : samples_) {
    if (s.name == name) {
      s.value = value;
      return;
    }
  }
  samples_.push_back({std::string(name), value});
}

}  // namespace w11::obs
