#include "wlan/retx_cache.hpp"

namespace w11 {

bool RetxCache::store(const TcpSegment& seg, std::size_t capacity) {
  if (size() >= capacity) return false;
  insert_or_assign(seg.seq, seg);
  return true;
}

}  // namespace w11
