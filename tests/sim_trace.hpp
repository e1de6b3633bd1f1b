#pragma once
// A Simulator's dispatch stream read back from an attached obs::TraceRecorder:
// one kSimEvent per dispatched event (ts = time, ord = seq). (time, seq) is
// unique, so merged() order is dispatch order.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/fnv.hpp"
#include "obs/trace.hpp"

namespace w11 {

inline std::vector<obs::TraceEvent> dispatch_stream(
    const obs::TraceRecorder& rec) {
  EXPECT_EQ(rec.total_dropped(), 0u) << "recorder too small for the run";
  std::vector<obs::TraceEvent> out;
  for (const obs::TraceEvent& e : rec.merged())
    if (e.kind == obs::TraceKind::kSimEvent) out.push_back(e);
  return out;
}

// The golden event digest: word-wise FNV-1a over every (ts_ns, seq).
inline std::uint64_t dispatch_digest(const obs::TraceRecorder& rec) {
  std::uint64_t digest = fnv::kOffsetBasis;
  for (const obs::TraceEvent& e : dispatch_stream(rec)) {
    fnv::mix_word(digest, static_cast<std::uint64_t>(e.ts_ns));
    fnv::mix_word(digest, e.ord);
  }
  return digest;
}

}  // namespace w11
