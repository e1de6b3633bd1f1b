// Parity and determinism tests for the batched SoA scoring kernel
// (DESIGN.md §14): PlanContext::score_candidates / acc_scores must be
// bit-for-bit equal to the scalar node_p_log path on every input —
// including the kNodePLogFloor clamp, ψ overlays, trial moves, degenerate
// self-neighbor scans, non-catalog channels and any history of moves the
// live contender counts have to follow — plus the audit term-sum parity,
// the ScanStatsCache reuse contract, and a golden NetP digest pinning
// cross-build FP determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <type_traits>
#include <vector>

#include "core/turboca/plan_context.hpp"
#include "core/turboca/plan_map.hpp"
#include "core/turboca/turboca.hpp"
#include "flowsim/scan_index.hpp"
#include "obs/audit.hpp"
#include "workload/topology.hpp"

namespace w11 {
namespace {

using turboca::dense_plan;
using turboca::Params;
using turboca::PlanContext;

// An index borrows its scans, so building one from a temporary must not
// compile.
static_assert(!std::is_constructible_v<flowsim::ScanIndex, std::vector<ApScan>&&,
                                       Dbm>);
static_assert(!std::is_constructible_v<flowsim::ScanIndex, std::vector<ApScan>>);
static_assert(
    std::is_constructible_v<flowsim::ScanIndex, const std::vector<ApScan>&, Dbm>);

std::vector<ApScan> campus_scans(int n_aps, std::uint64_t seed) {
  workload::CampusConfig cc;
  cc.n_aps = n_aps;
  cc.buildings = std::max(2, n_aps / 10);
  cc.seed = static_cast<std::uint32_t>(seed);
  return workload::make_campus(cc)->scan();
}

// A deliberately hostile random fleet: mixed bands and widths, loads that
// straddle zero (empty-AP rule), qualities/external utils spanning the
// metric floor, RSSIs straddling the contender floor, non-catalog current
// channels, and (optionally) an AP that reports itself as a neighbor and
// NaN, ±inf and negative external utils, qualities and loads — a NaN log
// term must be recomputed on every read, never served as a memo hit.
std::vector<ApScan> hostile_scans(int n_aps, Rng& rng, bool self_neighbor,
                                  bool nonfinite = false) {
  std::vector<ApScan> scans;
  scans.reserve(static_cast<std::size_t>(n_aps));
  const auto cat20 = channels::us_catalog(Band::G5, ChannelWidth::MHz20);
  const auto cat80 = channels::us_catalog(Band::G5, ChannelWidth::MHz80);
  for (int i = 0; i < n_aps; ++i) {
    ApScan s;
    s.id = ApId{static_cast<std::uint32_t>(i)};
    const bool g24 = rng.uniform() < 0.2;
    s.band = g24 ? Band::G2_4 : Band::G5;
    s.max_width = g24 ? ChannelWidth::MHz20
                      : static_cast<ChannelWidth>(rng.uniform_int(0, 3));
    const double r = rng.uniform();
    if (g24) {
      s.current = Channel{Band::G2_4, static_cast<int>(rng.uniform_int(1, 11)),
                          ChannelWidth::MHz20};
    } else if (r < 0.1) {
      // Non-catalog current channel: exercises the ordinal==-1 scalar
      // fallback slot (number 33 is not a US catalog channel).
      s.current = Channel{Band::G5, 33, ChannelWidth::MHz20};
    } else if (r < 0.5) {
      s.current = cat20[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(cat20.size()) - 1))];
    } else {
      s.current = cat80[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(cat80.size()) - 1))];
    }
    s.dfs_capable = rng.uniform() < 0.5;
    s.has_clients = rng.uniform() < 0.8;
    if (s.has_clients) {
      for (int w = 0; w <= static_cast<int>(s.max_width); ++w)
        if (rng.uniform() < 0.7)
          s.load_by_width[static_cast<ChannelWidth>(w)] = rng.uniform(0.0, 4.0);
    }
    s.utilization_current = rng.uniform();
    for (int comp = 1; comp <= 165; comp += 2) {
      if (rng.uniform() < 0.3) s.external_util[comp] = rng.uniform();
      // Qualities down to 0.0 push metrics through the 1e-12 floor.
      if (rng.uniform() < 0.3) s.quality[comp] = rng.uniform(0.0, 1.0);
    }
    const int n_nbrs = static_cast<int>(rng.uniform_int(0, 6));
    for (int k = 0; k < n_nbrs; ++k)
      s.neighbors.push_back(
          NeighborReport{ApId{static_cast<std::uint32_t>(
                             rng.uniform_int(0, n_aps - 1))},
                         rng.uniform(-100.0, -40.0)});
    if (self_neighbor && i == 0)
      s.neighbors.push_back(NeighborReport{s.id, -50.0});
    if (nonfinite && rng.uniform() < 0.5) {
      constexpr double kSpecial[] = {
          std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(), -0.5, -3.0};
      const auto special = [&] { return kSpecial[rng.index(5)]; };
      for (int k = 0; k < 4; ++k) {
        const int comp = 36 + 4 * static_cast<int>(rng.uniform_int(0, 32));
        s.external_util[comp] = special();
        s.quality[comp + 4 * static_cast<int>(rng.uniform_int(0, 3))] =
            special();
      }
      s.load_by_width[static_cast<ChannelWidth>(
          rng.uniform_int(0, static_cast<int>(s.max_width)))] = special();
    }
    scans.push_back(std::move(s));
  }
  return scans;
}

// The scalar oracle for one candidate slot: exactly what the kernel
// contract in plan_context.hpp promises out[k] equals (ψ is the context's).
double scalar_score(const PlanContext& ctx, std::size_t i, std::size_t k) {
  const flowsim::ScanIndex& index = ctx.index();
  const PlanContext::TrialMove trial{i, index.candidates(i)[k],
                                     index.candidate_ordinals(i)[k]};
  return ctx.node_p_log(i, index.candidates(i)[k], &trial);
}

// Every AP's kernel scores against the scalar sums, bit for bit, under the
// context's current plan and ψ.
void expect_ctx_parity(const PlanContext& ctx) {
  const flowsim::ScanIndex& index = ctx.index();
  for (std::size_t i = 0; i < index.size(); ++i) {
    const std::size_t n_cands = index.candidates(i).size();
    std::vector<double> got(n_cands);
    ctx.score_candidates(i, got);
    for (std::size_t k = 0; k < n_cands; ++k) {
      const double want = scalar_score(ctx, i, k);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[k]),
                std::bit_cast<std::uint64_t>(want))
          << "own-term mismatch ap=" << i << " cand=" << k << " got=" << got[k]
          << " want=" << want;
    }

    // Neighbor legs: ACC's full objective against the scalar sum (own +
    // every affected neighbor outside ψ, scan-report order).
    ctx.acc_scores(i, got);
    for (std::size_t k = 0; k < n_cands; ++k) {
      const PlanContext::TrialMove trial{i, index.candidates(i)[k],
                                         index.candidate_ordinals(i)[k]};
      double want = ctx.node_p_log(i, index.candidates(i)[k], &trial);
      for (const flowsim::ScanIndex::Neighbor& nb : index.neighbors(i)) {
        if (ctx.presumed_moving(nb.index)) continue;
        const Channel& nc =
            nb.index == i ? index.candidates(i)[k] : ctx.channel_of(nb.index);
        want += ctx.node_p_log(nb.index, nc, &trial);
      }
      // When two different NaNs meet in one add, x86 keeps the first
      // operand's payload and the compiler may order a commutative add
      // either way, so the payload of a NaN sum is not a property of the
      // arithmetic: any two NaNs match here, every other value to the bit.
      if (std::isnan(got[k]) && std::isnan(want)) continue;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[k]),
                std::bit_cast<std::uint64_t>(want))
          << "acc-sum mismatch ap=" << i << " cand=" << k;
    }
  }
}

// net_p_log() against the scalar sum of every AP's NetP term
// (node_p_log_terms on its planned channel, scan order), bit for bit; any
// two NaNs match (see expect_ctx_parity).
void expect_netp_parity(PlanContext& ctx, const char* where) {
  double want = 0.0;
  for (std::size_t i = 0; i < ctx.index().size(); ++i)
    want += ctx.node_p_log_terms(i, ctx.channel_of(i), nullptr);
  const double got = ctx.net_p_log();
  if (std::isnan(got) && std::isnan(want)) return;
  ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << where << " got=" << got << " want=" << want;
}

void expect_kernel_parity(const flowsim::ScanIndex& index, const Params& params,
                          const ChannelPlan& plan,
                          const std::vector<std::size_t>& psi = {}) {
  PlanContext ctx(index, params, dense_plan(index, plan));
  for (std::size_t i : psi) ctx.presume_moving(i);
  expect_ctx_parity(ctx);
}

TEST(ScoreKernel, MatchesScalarOnCampusFleet) {
  const Params params;
  const std::vector<ApScan> scans = campus_scans(60, 5);
  const flowsim::ScanIndex index(scans, params.neighbor_rssi_floor);
  ChannelPlan plan;
  for (const auto& s : index.scans()) plan[s.id] = s.current;
  expect_kernel_parity(index, params, plan);
}

// Seeds 9-12 add non-finite and negative spectrum values and loads, and
// plan some APs onto catalog channels outside their candidate sets (the
// neighbor leg's scalar fallback).
TEST(ScoreKernel, MatchesScalarOnRandomizedHostileFleets) {
  const std::vector<Channel> outside = {
      Channel{Band::G5, 58, ChannelWidth::MHz80},    // DFS
      Channel{Band::G5, 50, ChannelWidth::MHz160},   // DFS, widest
      Channel{Band::G5, 120, ChannelWidth::MHz20}};  // DFS
  int outside_plans = 0;
  std::ptrdiff_t nan_scores = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed * 977);
    const bool self_nb = seed % 3 == 0;
    const bool nonfinite = seed > 8;
    Params params;
    params.switch_penalty = rng.uniform(0.0, 0.3);
    params.empty_ap_load = rng.uniform(0.0, 0.5);
    params.high_util_threshold = rng.uniform(0.3, 0.95);
    const std::vector<ApScan> scans =
        hostile_scans(24, rng, self_nb, nonfinite);
    const flowsim::ScanIndex index(scans, params.neighbor_rssi_floor);

    // Random plan: most APs stay, some move to a random candidate.
    ChannelPlan plan;
    for (std::size_t i = 0; i < index.size(); ++i) {
      const ApScan& s = index.scan(i);
      const auto& cands = index.candidates(i);
      plan[s.id] = rng.uniform() < 0.5
                       ? s.current
                       : cands[static_cast<std::size_t>(rng.uniform_int(
                             0, static_cast<std::int64_t>(cands.size()) - 1))];
      if (nonfinite && rng.uniform() < 0.3) {
        plan[s.id] = outside[rng.index(outside.size())];
        const auto ords = index.candidate_ordinals(i);
        if (std::find(ords.begin(), ords.end(),
                      channels::ordinal(plan[s.id])) == ords.end())
          ++outside_plans;
      }
    }

    // Random ψ overlay (the in-flight set ACC excludes from contention).
    std::vector<std::size_t> psi;
    for (std::size_t i = 0; i < index.size(); ++i)
      if (rng.uniform() < 0.25) psi.push_back(i);

    expect_kernel_parity(index, params, plan);
    expect_kernel_parity(index, params, plan, psi);

    PlanContext ctx(index, params, dense_plan(index, plan));
    for (std::size_t i = 0; i < index.size(); ++i) {
      std::vector<double> got(index.candidates(i).size());
      ctx.score_candidates(i, got);
      nan_scores += std::count_if(got.begin(), got.end(),
                                  [](double v) { return std::isnan(v); });
    }

    // NetP: every term dirty, then after random moves (ψ empty: the
    // memoised fast path), under ψ (the scalar path), and settled again.
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    expect_netp_parity(ctx, "initial");
    for (int move = 0; move < 8; ++move) {
      const std::size_t i = rng.index(index.size());
      const auto cands = index.candidates(i);
      ctx.set(i, rng.uniform() < 0.2 && nonfinite
                     ? outside[rng.index(outside.size())]
                     : cands[rng.index(cands.size())]);
    }
    expect_netp_parity(ctx, "moved");
    const auto move_one = [&] {
      const std::size_t i = rng.index(index.size());
      ctx.set(i, index.candidates(i).back());
    };
    for (std::size_t i : psi) ctx.presume_moving(i);
    move_one();
    expect_netp_parity(ctx, "psi");
    for (std::size_t i : psi) ctx.settle(i);
    move_one();
    expect_netp_parity(ctx, "settled");
  }
  EXPECT_GT(outside_plans, 0);
  EXPECT_GT(nan_scores, 0);  // the non-finite seeds reach NaN log terms
}

// A fully meshed campus on one channel: every sub-channel has up to 15
// contenders, far past the memo's 4 count slots, so counts above the cap
// take the direct computation. Scoring twice on one context also reads
// back every memoised term.
TEST(ScoreKernel, MatchesScalarPastTheMemoCountCap) {
  std::vector<ApScan> scans;
  for (std::uint32_t i = 0; i < 16; ++i) {
    ApScan s;
    s.id = ApId{i};
    s.max_width = ChannelWidth::MHz80;
    s.current = i % 2 == 0 ? Channel{Band::G5, 36, ChannelWidth::MHz20}
                           : Channel{Band::G5, 42, ChannelWidth::MHz80};
    s.has_clients = i % 3 != 0;
    if (s.has_clients) {
      s.load_by_width[ChannelWidth::MHz20] = 1.0 + i;
      s.load_by_width[ChannelWidth::MHz80] = 0.5 * i;
    }
    s.external_util[36 + 4 * static_cast<int>(i % 4)] = 0.1 * (i % 5);
    for (std::uint32_t j = 0; j < 16; ++j)
      if (j != i) s.neighbors.push_back(NeighborReport{ApId{j}, -60.0});
    scans.push_back(std::move(s));
  }
  const Params params;
  const flowsim::ScanIndex index(scans, params.neighbor_rssi_floor);
  ChannelPlan plan;
  for (const auto& s : scans) plan[s.id] = s.current;
  PlanContext ctx(index, params, dense_plan(index, plan));

  std::vector<obs::NodePTerm> terms;
  (void)ctx.node_p_log_terms(0, scans[0].current, &terms);
  ASSERT_FALSE(terms.empty());
  EXPECT_EQ(terms.front().contenders, 15);

  expect_ctx_parity(ctx);
  expect_ctx_parity(ctx);
  ctx.presume_moving(3);
  ctx.presume_moving(8);
  expect_ctx_parity(ctx);
}

// The live contender counts must follow any history of plan moves, ψ
// presumes/settles and round rollbacks: after every operation, every AP's
// kernel scores still equal the scalar sums (which walk the neighbor lists
// afresh). Plans include off-catalog channels and catalog channels outside
// an AP's candidate set, some fleets hold an AP that reports itself, and
// seeds 7-9 carry non-finite spectrum values and loads.
TEST(ScoreKernel, LiveCountsMatchRecountUnderRandomMoves) {
  const std::vector<Channel> off_catalog = {
      Channel{Band::G5, 33, ChannelWidth::MHz20},
      Channel{Band::G5, 40, ChannelWidth::MHz80},  // not an 80 MHz centre
      Channel{Band::G2_4, 3, ChannelWidth::MHz20},
      Channel{Band::G2_4, 9, ChannelWidth::MHz20},
      Channel{Band::G5, 58, ChannelWidth::MHz80},     // catalog, DFS
      Channel{Band::G5, 50, ChannelWidth::MHz160}};  // catalog, DFS
  for (std::uint64_t seed = 1; seed <= 9; ++seed) {
    Rng rng(seed * 7919);
    const Params params;
    const std::vector<ApScan> scans =
        hostile_scans(24, rng, seed % 2 == 0, /*nonfinite=*/seed > 6);
    const flowsim::ScanIndex index(scans, params.neighbor_rssi_floor);
    ChannelPlan plan;
    for (const auto& s : index.scans()) plan[s.id] = s.current;
    PlanContext ctx(index, params, dense_plan(index, plan));
    const auto pick_ap = [&] {
      return static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(index.size()) - 1));
    };
    bool round = false;
    for (int op = 0; op < 60; ++op) {
      const double r = rng.uniform();
      if (r < 0.45) {
        const std::size_t i = pick_ap();
        const auto& cands = index.candidates(i);
        const Channel c =
            rng.uniform() < 0.15
                ? off_catalog[rng.index(off_catalog.size())]
                : cands[static_cast<std::size_t>(rng.uniform_int(
                      0, static_cast<std::int64_t>(cands.size()) - 1))];
        ctx.set(i, c);
      } else if (r < 0.65) {
        ctx.presume_moving(pick_ap());
      } else if (r < 0.85) {
        ctx.settle(pick_ap());
      } else if (!round) {
        ctx.begin_round();
        round = true;
      } else {
        if (rng.uniform() < 0.7) ctx.rollback_round();
        else ctx.commit_round();
        round = false;
      }
      SCOPED_TRACE(testing::Message() << "seed " << seed << " op " << op);
      expect_ctx_parity(ctx);
      if (testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(ScoreKernel, FloorClampMatchesScalarBitForBit) {
  // Saturate every component: airtime * quality - penalty <= 0 everywhere,
  // so every term takes the kNodePLogFloor branch in both paths.
  std::vector<ApScan> scans = campus_scans(12, 9);
  for (ApScan& s : scans)
    for (int comp = 1; comp <= 165; ++comp) {
      s.external_util[comp] = 1.0;
      s.quality[comp] = 0.0;
    }
  const Params params;
  const flowsim::ScanIndex index(scans, params.neighbor_rssi_floor);
  ChannelPlan plan;
  for (const auto& s : index.scans()) plan[s.id] = s.current;
  const PlanContext ctx(index, params, dense_plan(index, plan));
  for (std::size_t i = 0; i < index.size(); ++i) {
    std::vector<double> got(index.candidates(i).size());
    ctx.score_candidates(i, got);
    for (std::size_t k = 0; k < got.size(); ++k) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[k]),
                std::bit_cast<std::uint64_t>(scalar_score(ctx, i, k)));
      // The clamp actually fired: the score is a ±load·kNodePLogFloor sum.
      EXPECT_LT(got[k], 0.0);
    }
  }
}

TEST(ScoreKernel, AuditTermBreakdownSumsToKernelScore) {
  // The obs PlanAudit breakdown stays on the scalar path; its per-width
  // log_term entries must sum (in order) to exactly the kernel's score for
  // the same (AP, channel) when no trial interferes (no self-neighbors on
  // the campus fleet, and the self-trial is a no-op there).
  const Params params;
  const std::vector<ApScan> scans = campus_scans(40, 11);
  const flowsim::ScanIndex index(scans, params.neighbor_rssi_floor);
  ChannelPlan plan;
  for (const auto& s : index.scans()) plan[s.id] = s.current;
  PlanContext ctx(index, params, dense_plan(index, plan));
  for (std::size_t i = 0; i < index.size(); ++i) {
    ASSERT_FALSE(index.has_self_neighbor(i));
    std::vector<double> got(index.candidates(i).size());
    ctx.score_candidates(i, got);
    for (std::size_t k = 0; k < got.size(); ++k) {
      std::vector<obs::NodePTerm> terms;
      const double scalar =
          ctx.node_p_log_terms(i, index.candidates(i)[k], &terms);
      const double sum = obs::sum_log_terms(terms);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(scalar),
                std::bit_cast<std::uint64_t>(sum));
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[k]),
                std::bit_cast<std::uint64_t>(scalar));
    }
  }
}

TEST(ScoreKernel, StatsCacheHitsAreBitIdentical) {
  const Params params;
  const std::vector<ApScan> scans = campus_scans(30, 13);
  flowsim::ScanStatsCache cache;
  const flowsim::ScanIndex cold(scans, params.neighbor_rssi_floor, nullptr,
                                &cache);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, scans.size());

  const flowsim::ScanIndex warm(scans, params.neighbor_rssi_floor, nullptr,
                                &cache);
  EXPECT_EQ(cache.stats().hits, scans.size());
  const std::size_t n_ords = channels::catalog_size();
  for (std::size_t i = 0; i < scans.size(); ++i)
    for (std::size_t o = 0; o < n_ords; ++o) {
      const auto& a = cold.stats(i, static_cast<int>(o));
      const auto& b = warm.stats(i, static_cast<int>(o));
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a.external_util),
                std::bit_cast<std::uint64_t>(b.external_util));
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a.quality),
                std::bit_cast<std::uint64_t>(b.quality));
    }
}

TEST(ScoreKernel, StatsCacheMissesOnContentChangeOnly) {
  const Params params;
  std::vector<ApScan> scans = campus_scans(20, 17);
  flowsim::ScanStatsCache cache;
  { const flowsim::ScanIndex i0(scans, params.neighbor_rssi_floor, nullptr,
                                &cache); }
  // Mutating fields the aggregates do not read (loads, neighbors) keeps
  // every row a hit; touching one AP's spectrum misses exactly that AP.
  scans[3].load_by_width[ChannelWidth::MHz20] += 1.0;
  scans[5].neighbors.push_back(NeighborReport{scans[0].id, -55.0});
  { const flowsim::ScanIndex i1(scans, params.neighbor_rssi_floor, nullptr,
                                &cache); }
  EXPECT_EQ(cache.stats().hits, scans.size());
  EXPECT_EQ(cache.stats().misses, scans.size());

  scans[7].external_util[36] = 0.77;
  { const flowsim::ScanIndex i2(scans, params.neighbor_rssi_floor, nullptr,
                                &cache); }
  EXPECT_EQ(cache.stats().hits, 2 * scans.size() - 1);
  EXPECT_EQ(cache.stats().misses, scans.size() + 1);
}

TEST(ScoreKernel, StatsCacheKeepsOnlyTheLastBuild) {
  const Params params;
  const Dbm floor = params.neighbor_rssi_floor;
  const auto distinct_hashes = [](const std::vector<ApScan>& scans) {
    std::set<std::uint64_t> h;
    for (const ApScan& s : scans)
      h.insert(flowsim::ScanStatsCache::content_hash(s));
    return h;
  };
  const auto expect_same_rows = [](const flowsim::ScanIndex& x,
                                   const flowsim::ScanIndex& y) {
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t i = 0; i < x.size(); ++i)
      for (std::size_t o = 0; o < channels::catalog_size(); ++o) {
        const auto& a = x.stats(i, static_cast<int>(o));
        const auto& b = y.stats(i, static_cast<int>(o));
        ASSERT_EQ(std::bit_cast<std::uint64_t>(a.external_util),
                  std::bit_cast<std::uint64_t>(b.external_util));
        ASSERT_EQ(std::bit_cast<std::uint64_t>(a.quality),
                  std::bit_cast<std::uint64_t>(b.quality));
      }
  };

  // Two APs with the same spectrum in one epoch share one row: the cache
  // holds exactly the distinct hashes of the build.
  Rng rng(23);
  std::vector<ApScan> dup = hostile_scans(12, rng, false);
  dup[1].external_util = dup[0].external_util;
  dup[1].quality = dup[0].quality;
  flowsim::ScanStatsCache cache;
  { const flowsim::ScanIndex i0(dup, floor, nullptr, &cache); }
  EXPECT_EQ(cache.size(), distinct_hashes(dup).size());
  EXPECT_EQ(cache.size(), dup.size() - 1);

  // Two disjoint hostile epochs that alternate: each build's rows replace
  // the last build's, so every probe misses and the cache never holds more
  // than one epoch's rows. Each return after a gap recomputes the rows the
  // uncached index computes, bit for bit.
  const std::vector<ApScan> a = hostile_scans(20, rng, false);
  const std::vector<ApScan> b = hostile_scans(20, rng, false);
  const std::set<std::uint64_t> ha = distinct_hashes(a);
  const std::set<std::uint64_t> hb = distinct_hashes(b);
  for (const std::uint64_t h : ha) ASSERT_FALSE(hb.contains(h));
  const flowsim::ScanIndex ref_a(a, floor);
  const flowsim::ScanIndex ref_b(b, floor);
  for (int round = 0; round < 3; ++round) {
    {
      const flowsim::ScanIndex ia(a, floor, nullptr, &cache);
      EXPECT_EQ(cache.size(), ha.size());
      expect_same_rows(ia, ref_a);
    }
    {
      const flowsim::ScanIndex ib(b, floor, nullptr, &cache);
      EXPECT_EQ(cache.size(), hb.size());
      expect_same_rows(ib, ref_b);
    }
  }
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, dup.size() + 6 * a.size());

  // Distinct content must hash distinctly (the reuse keys are honest).
  ApScan x = a[0];
  ApScan y = a[0];
  x.external_util[36] = 0.1;
  y.external_util[36] = 0.2;
  EXPECT_NE(flowsim::ScanStatsCache::content_hash(x),
            flowsim::ScanStatsCache::content_hash(y));
}

// Golden NetP digest (determinism guard): the exact bits of net_p_log on a
// fixed fleet. Catches value-unsafe FP creeping into the build (fast-math,
// reassociation) and silent arithmetic drift in refactors. If this fails
// after an INTENTIONAL metric change, regenerate the constant by running
// the test and copying the printed actual digest. Depends on the host
// libm's log() rounding; the CI toolchain pins one implementation.
TEST(ScoreKernel, GoldenNetPDigest) {
  const Params params;
  const std::vector<ApScan> scans = campus_scans(60, 5);
  const flowsim::ScanIndex index(scans, params.neighbor_rssi_floor);
  ChannelPlan plan;
  for (const auto& s : index.scans()) plan[s.id] = s.current;
  PlanContext ctx(index, params, dense_plan(index, plan));
  const double netp = ctx.net_p_log();
  constexpr std::uint64_t kGoldenDigest = 0x4077e0e9ad303ae6ULL;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(netp), kGoldenDigest)
      << "NetP bits changed: actual digest 0x" << std::hex
      << std::bit_cast<std::uint64_t>(netp) << " value " << netp;
}

}  // namespace
}  // namespace w11
