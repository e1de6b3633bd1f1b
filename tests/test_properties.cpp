// Property-based and stress tests: invariants that must hold across
// randomized inputs, seeds and fault injections.

#include <gtest/gtest.h>

#include <map>

#include "core/turboca/turboca.hpp"
#include "mac/medium.hpp"
#include "net/tcp_receiver.hpp"
#include "net/tcp_sender.hpp"
#include "phy/channel.hpp"
#include "plan_epoch.hpp"
#include "scenario/testbed.hpp"
#include "telemetry/littletable.hpp"

namespace w11 {
namespace {

// ------------------------------------------------ TCP integrity sweep ----

// A hostile network between sender and receiver: random loss, reordering
// (random extra delay), and duplication — TCP must still deliver the exact
// byte stream.
class TcpHostileSweep : public ::testing::TestWithParam<int> {};

TEST_P(TcpHostileSweep, ExactDeliveryDespiteLossReorderDuplication) {
  Simulator sim;
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::unique_ptr<TcpSender> sender;
  std::unique_ptr<TcpReceiver> receiver;

  receiver = std::make_unique<TcpReceiver>(
      sim, FlowId{1}, TcpReceiver::Config{}, [&](TcpSegment ack) {
        if (rng.bernoulli(0.05)) return;  // ack loss
        const Time delay{rng.uniform_int(1'000'000, 20'000'000)};
        sim.schedule_after(delay, [&, ack] { sender->on_ack(ack); });
      });
  sender = std::make_unique<TcpSender>(
      sim, FlowId{1}, StationId{1}, TcpSender::Config{}, [&](TcpSegment seg) {
        if (rng.bernoulli(0.08)) return;  // data loss
        const int copies = rng.bernoulli(0.03) ? 2 : 1;  // duplication
        for (int c = 0; c < copies; ++c) {
          const Time delay{rng.uniform_int(1'000'000, 25'000'000)};  // reorder
          sim.schedule_after(delay, [&, seg] { receiver->on_data(seg); });
        }
      });

  constexpr std::uint64_t kTotal = 400'000;
  sender->start(Bytes{static_cast<std::int64_t>(kTotal)});
  sim.run_until(time::seconds(120));

  EXPECT_TRUE(sender->finished()) << "seed " << GetParam();
  EXPECT_EQ(receiver->bytes_delivered(), kTotal);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TcpHostileSweep, ::testing::Range(1, 13));

// ------------------------------------------- medium airtime conservation --

class MediumConservation : public ::testing::TestWithParam<int> {};

namespace {
class CountingContender : public mac::Contender {
 public:
  CountingContender(mac::Medium& m, AccessCategory ac, Time frame, int credit)
      : medium_(m), ac_(ac), frame_(frame), credit_(credit) {}
  void arm() { medium_.set_backlogged(this, credit_ > 0); }
  mac::TxDescriptor begin_txop() override { return {frame_, 1}; }
  void end_txop(bool collided) override {
    if (!collided) --credit_;
    medium_.set_backlogged(this, credit_ > 0);
  }
  [[nodiscard]] AccessCategory access_category() const override { return ac_; }

 private:
  mac::Medium& medium_;
  AccessCategory ac_;
  Time frame_;
  int credit_;
};
}  // namespace

TEST_P(MediumConservation, AirtimeAccountingIsConsistent) {
  Simulator sim;
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  mac::Medium medium(sim, {}, Rng(static_cast<std::uint64_t>(GetParam()) + 1));
  std::vector<std::unique_ptr<CountingContender>> cs;
  const int n = static_cast<int>(rng.uniform_int(2, 12));
  for (int i = 0; i < n; ++i) {
    const auto ac = static_cast<AccessCategory>(rng.uniform_int(0, 3));
    cs.push_back(std::make_unique<CountingContender>(
        medium, ac, Time{rng.uniform_int(100'000, 3'000'000)},
        static_cast<int>(rng.uniform_int(5, 40))));
    medium.attach(cs.back().get());
  }
  for (auto& c : cs) c->arm();
  sim.run_until(time::seconds(30));

  // Busy time can never exceed wall-clock; per-contender airtime sums to at
  // least the busy time (collisions charge every participant) and within a
  // small factor of it.
  EXPECT_LE(medium.total_busy_time(), sim.now());
  Time summed{};
  for (auto& c : cs) summed += medium.airtime_of(c.get());
  EXPECT_GE(summed, medium.total_busy_time());
  EXPECT_LE(summed.ns(), 3 * medium.total_busy_time().ns());
  // Everything drained: no contender still backlogged => medium went idle.
  EXPECT_FALSE(medium.busy());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MediumConservation, ::testing::Range(1, 9));

// -------------------------------------------- FastACK invariants sweep ----

struct StressCase {
  std::uint64_t seed;
  double bad_hints;
  std::size_t wire_queue;
  std::int64_t rx_buffer_kb;
};

class FastAckStressSweep : public ::testing::TestWithParam<StressCase> {};

TEST_P(FastAckStressSweep, FlowsAdvanceAndInvariantsHold) {
  const StressCase& sc = GetParam();
  scenario::TestbedConfig cfg;
  cfg.n_clients_per_ap = 5;
  cfg.duration = time::seconds(4);
  cfg.fastack = {true};
  cfg.seed = sc.seed;
  cfg.bad_hint_rate = sc.bad_hints;
  cfg.wire.queue_packets = sc.wire_queue;
  cfg.receiver.buffer = units::kilobytes(sc.rx_buffer_kb);
  scenario::Testbed tb(cfg);
  tb.run();

  for (int c = 0; c < 5; ++c) {
    const auto flow = FlowId{static_cast<std::uint32_t>(c)};
    const auto* fs = tb.agent(0)->flow_state(flow);
    ASSERT_NE(fs, nullptr);
    // Table 3 invariants.
    EXPECT_LE(fs->seq_tcp, fs->seq_fack);
    EXPECT_LE(fs->seq_fack, fs->seq_exp);
    EXPECT_LE(fs->seq_exp, fs->seq_high);
    // Cache only holds un-client-acked bytes.
    if (!fs->retx_cache.empty()) {
      EXPECT_GE(fs->retx_cache.begin()->second.seq_end(), fs->seq_tcp);
    }
    // Every flow made real progress.
    const auto* rx = tb.client(0, c).receiver(flow);
    ASSERT_NE(rx, nullptr);
    EXPECT_GT(rx->bytes_delivered(), 200'000u)
        << "flow " << c << " seed " << sc.seed << " hints " << sc.bad_hints;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Stress, FastAckStressSweep,
    ::testing::Values(StressCase{1, 0.0, 2048, 1024},
                      StressCase{2, 0.02, 2048, 1024},
                      StressCase{3, 0.0, 96, 1024},
                      StressCase{4, 0.02, 96, 1024},
                      StressCase{5, 0.01, 2048, 256},
                      StressCase{6, 0.03, 256, 512},
                      StressCase{7, 0.05, 2048, 1024},
                      StressCase{8, 0.01, 128, 256}));

// ------------------------------------------------- LittleTable vs model ---

TEST(LittleTableProperty, MatchesReferenceModelUnderRandomOps) {
  Rng rng(42);
  telemetry::LittleTable table("fuzz", {"v"});
  std::multimap<std::int64_t, std::pair<std::uint32_t, double>> model;

  for (int op = 0; op < 5000; ++op) {
    const double r = rng.uniform();
    if (r < 0.7) {
      const auto at = rng.uniform_int(0, 10'000);
      const auto entity = static_cast<std::uint32_t>(rng.uniform_int(0, 5));
      const double v = rng.uniform(-100, 100);
      table.insert(entity, time::seconds(at), {v});
      model.emplace(at, std::pair{entity, v});
    } else if (r < 0.9) {
      const auto lo = rng.uniform_int(0, 9'000);
      const auto hi = lo + rng.uniform_int(0, 2'000);
      const auto rows = table.query(time::seconds(lo), time::seconds(hi));
      std::size_t expected = 0;
      double expected_sum = 0;
      for (auto it = model.lower_bound(lo); it != model.end() && it->first <= hi;
           ++it) {
        ++expected;
        expected_sum += it->second.second;
      }
      ASSERT_EQ(rows.size(), expected);
      if (expected > 0) {
        const double sum = table.aggregate_scalar(
            "v", telemetry::LittleTable::Agg::kSum, time::seconds(lo),
            time::seconds(hi));
        EXPECT_NEAR(sum, expected_sum, 1e-6);
      }
    } else {
      const auto cutoff = rng.uniform_int(0, 5'000);
      table.trim_before(time::seconds(cutoff));
      model.erase(model.begin(), model.lower_bound(cutoff));
      ASSERT_EQ(table.row_count(), model.size());
    }
  }
}

// --------------------------------------------------- channel algebra ------

TEST(ChannelProperty, OverlapIsSymmetricAndReflexive) {
  std::vector<Channel> all;
  for (auto w : {ChannelWidth::MHz20, ChannelWidth::MHz40, ChannelWidth::MHz80,
                 ChannelWidth::MHz160})
    for (const Channel& c : channels::us_catalog(Band::G5, w)) all.push_back(c);
  for (const Channel& c : channels::us_catalog(Band::G2_4, ChannelWidth::MHz20))
    all.push_back(c);

  for (const Channel& a : all) {
    EXPECT_TRUE(a.overlaps(a));
    for (const Channel& b : all) EXPECT_EQ(a.overlaps(b), b.overlaps(a));
  }
}

TEST(ChannelProperty, OverlapMatchesComponentIntersectionAt5GHz) {
  std::vector<Channel> all;
  for (auto w : {ChannelWidth::MHz20, ChannelWidth::MHz40, ChannelWidth::MHz80,
                 ChannelWidth::MHz160})
    for (const Channel& c : channels::us_catalog(Band::G5, w)) all.push_back(c);

  for (const Channel& a : all) {
    for (const Channel& b : all) {
      const auto ca = a.components();
      const auto cb = b.components();
      bool share = false;
      for (int x : ca)
        for (int y : cb) share |= x == y;
      EXPECT_EQ(a.overlaps(b), share)
          << a.to_string() << " vs " << b.to_string();
    }
  }
}

TEST(ChannelProperty, ComponentCountsMatchWidth) {
  for (auto [w, n] : std::vector<std::pair<ChannelWidth, std::size_t>>{
           {ChannelWidth::MHz20, 1},
           {ChannelWidth::MHz40, 2},
           {ChannelWidth::MHz80, 4},
           {ChannelWidth::MHz160, 8}}) {
    for (const Channel& c : channels::us_catalog(Band::G5, w))
      EXPECT_EQ(c.components().size(), n) << c.to_string();
  }
}

// ---------------------------------------------------- NodeP monotonicity --

class NodePMonotone : public ::testing::TestWithParam<int> {};

TEST_P(NodePMonotone, ExternalUtilizationNeverHelps) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));

  ApScan s;
  s.id = ApId{0};
  s.band = Band::G5;
  s.current = Channel{Band::G5, 36, ChannelWidth::MHz20};
  s.max_width = ChannelWidth::MHz80;
  s.has_clients = true;
  s.load_by_width[ChannelWidth::MHz80] = rng.uniform(0.5, 4.0);
  for (const Channel& c : channels::us_catalog(Band::G5, ChannelWidth::MHz20))
    s.quality[c.number] = 1.0;

  const auto cands = channels::candidate_set(Band::G5, ChannelWidth::MHz80, true);
  const Channel c = cands[rng.index(cands.size())];
  const ChannelPlan plan{{s.id, s.current}};

  double prev = PlanEpoch({s}, plan).node_p_log(s.id, c);
  for (double u = 0.1; u <= 0.9; u += 0.1) {
    for (int comp : c.components()) {
      s.external_util[comp] = u;
      s.quality[comp] = 1.0 - 0.6 * u;
    }
    const double now = PlanEpoch({s}, plan).node_p_log(s.id, c);
    EXPECT_LE(now, prev + 1e-9) << "util " << u << " on " << c.to_string();
    prev = now;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NodePMonotone, ::testing::Range(1, 11));

}  // namespace
}  // namespace w11
