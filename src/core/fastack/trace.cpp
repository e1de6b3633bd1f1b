#include "core/fastack/trace.hpp"

#include <sstream>

namespace w11::fastack {

std::string TraceRecord::to_string() const {
  std::ostringstream os;
  os << at.ms() << "ms " << flow << " " << fastack::to_string(event)
     << " seq=" << seq;
  if (extra != 0) os << " extra=" << extra;
  return os.str();
}

void dump(const TraceRing& ring, std::ostream& os) {
  for (const TraceRecord& r : ring) os << r.to_string() << "\n";
  if (ring.dropped() > 0)
    os << "(" << ring.dropped() << " older records evicted)\n";
}

}  // namespace w11::fastack
