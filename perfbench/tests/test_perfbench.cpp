// Tests of the benchmark's own machinery: the tail-percentile rule, span
// self-time arithmetic, the metric catalog against BENCHMARK.json, the
// result line, and witness checking.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <regex>
#include <sstream>
#include <stdexcept>

#include "report.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

TEST(TailRule, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(tail_rule(1000).percentile, 99.0);
  EXPECT_EQ(tail_rule(1000).beyond, 10u);
  EXPECT_EQ(tail_rule(10000).percentile, 99.9);
  EXPECT_EQ(tail_rule(999).percentile, 95.0);  // only 9 beyond p99
  EXPECT_EQ(tail_rule(999).beyond, 49u);
  EXPECT_EQ(tail_rule(100).percentile, 90.0);
  EXPECT_EQ(tail_rule(20).percentile, 50.0);
  EXPECT_EQ(tail_rule(19).percentile, 0.0);  // no tail at all
  EXPECT_EQ(tail_rule(0).beyond, 0u);
}

TEST(TailRule, PrintedLinesCarryTheSampleCount) {
  w11::Samples ms;
  for (int i = 0; i < 1000; ++i) ms.add(i);
  std::ostringstream os;
  print_timing(os, "step_ms", ms);
  EXPECT_NE(os.str().find("p99="), std::string::npos) << os.str();
  EXPECT_NE(os.str().find("n=1000, 10 beyond p99"), std::string::npos) << os.str();

  w11::Samples three;
  three.add_all({1.0, 2.0, 3.0});
  std::ostringstream few;
  print_timing(few, "cycle_ms", three);
  EXPECT_NE(few.str().find("n=3, too few samples for a tail"), std::string::npos)
      << few.str();
}

TEST(SelfTime, DurationMinusDirectChildren) {
  // root [0,100] { a [10,40], b [50,90] { c [60,70] } }
  const std::vector<Span> spans = {
      {"root", 0, 100, -1},
      {"a", 10, 40, 0},
      {"b", 50, 90, 0},
      {"c", 60, 70, 2},
  };
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 30);
  EXPECT_EQ(self[1], 30);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 10);
  std::int64_t sum = 0;
  for (const std::int64_t s : self) sum += s;
  EXPECT_EQ(sum, 100);  // self times partition the root span
}

TEST(SelfTime, RecorderNestsAndAggregatesByName) {
  SpanRecorder rec;
  {
    Scoped root(&rec, "step");
    { Scoped a(&rec, "layer"); }
    { Scoped b(&rec, "layer"); }
  }
  { Scoped none(nullptr, "ignored"); }
  ASSERT_EQ(rec.spans().size(), 3u);
  EXPECT_EQ(rec.spans()[1].parent, 0);
  EXPECT_EQ(rec.spans()[2].parent, 0);
  const std::vector<LayerTime> layers = rec.layer_times();
  const LayerTime& step = find_layer(layers, "step");
  const LayerTime& layer = find_layer(layers, "layer");
  EXPECT_EQ(layer.calls, 2u);
  EXPECT_EQ(step.self_ns, step.total_ns - layer.total_ns);
  EXPECT_EQ(find_layer(layers, "absent").calls, 0u);

  std::ostringstream trace;
  rec.write_chrome_trace(trace, "test");
  EXPECT_NE(trace.str().find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.str().find("\"parent\":0"), std::string::npos);
}

// The "name"/"unit" pairs of one BENCHMARK.json metric array, in order.
std::vector<std::pair<std::string, std::string>> spec_metrics(const std::string& json,
                                                              const std::string& key) {
  const std::size_t at = json.find("\"" + key + "\"");
  if (at == std::string::npos) throw std::runtime_error("no " + key);
  const std::size_t open = json.find('[', at);
  const std::size_t close = json.find(']', open);
  const std::string body = json.substr(open, close - open);
  const std::regex entry(R"re(\{\s*"name"\s*:\s*"([^"]+)"\s*,\s*"unit"\s*:\s*"([^"]+)")re");
  std::vector<std::pair<std::string, std::string>> out;
  for (auto it = std::sregex_iterator(body.begin(), body.end(), entry);
       it != std::sregex_iterator(); ++it)
    out.emplace_back((*it)[1], (*it)[2]);
  return out;
}

TEST(Catalog, MatchesBenchmarkJson) {
  std::ifstream in(PERFBENCH_SPEC);
  ASSERT_TRUE(in) << PERFBENCH_SPEC;
  std::stringstream ss;
  ss << in.rdbuf();
  for (const auto& [key, catalog] :
       {std::pair{std::string("end_to_end"), &end_to_end_catalog()},
        std::pair{std::string("per_layer"), &per_layer_catalog()}}) {
    const auto spec = spec_metrics(ss.str(), key);
    ASSERT_EQ(spec.size(), catalog->size()) << key;
    for (std::size_t i = 0; i < spec.size(); ++i) {
      EXPECT_EQ(spec[i].first, (*catalog)[i].name) << key << " #" << i;
      EXPECT_EQ(spec[i].second, (*catalog)[i].unit) << key << " #" << i;
    }
  }
}

TEST(ResultLine, PrintsExactlyTheCatalog) {
  Ledger ledger;
  ledger.check(true, "ok");
  MetricValues v;
  for (const MetricSpec& m : end_to_end_catalog()) v[m.name] = 1.25;
  std::ostringstream os;
  write_result_json(os, ledger, end_to_end_catalog(), v);
  const std::string line = os.str();
  EXPECT_EQ(line.rfind("{\"correct\": true, \"attempted\": 1, \"failed\": 0, ", 0), 0u)
      << line;
  for (const MetricSpec& m : end_to_end_catalog())
    EXPECT_NE(line.find(std::string("\"") + m.name + "\": {\"value\": 1.25, \"unit\": \"" +
                        m.unit + "\"}"),
              std::string::npos)
        << m.name;

  MetricValues missing = v;
  missing.erase("setup_s");
  EXPECT_THROW(write_result_json(os, ledger, end_to_end_catalog(), missing),
               std::logic_error);
  MetricValues extra = v;
  extra["not_in_catalog"] = 1.0;
  EXPECT_THROW(write_result_json(os, ledger, end_to_end_catalog(), extra),
               std::logic_error);
}

TEST(Witness, TamperedWitnessIsAFailedOperation) {
  Ledger ledger;
  WitnessLog witness(ledger);
  witness.observe("fig16.aggregate_mbps", 812.5);
  witness.observe("plan_digest", std::uint64_t{0xabcdef});
  witness.observe("fig16.aggregate_mbps", 812.5);
  witness.observe("plan_digest", std::uint64_t{0xabcdef});
  EXPECT_EQ(ledger.attempted(), 2u);
  EXPECT_EQ(ledger.failed(), 0u);

  witness.observe("fig16.aggregate_mbps", std::nextafter(812.5, 1e9));  // one ulp off
  witness.observe("plan_digest", std::uint64_t{0xabcdee});
  EXPECT_EQ(ledger.attempted(), 4u);
  EXPECT_EQ(ledger.failed(), 2u);

  std::ostringstream os;
  MetricValues v;
  for (const MetricSpec& m : end_to_end_catalog()) v[m.name] = 1.0;
  write_result_json(os, ledger, end_to_end_catalog(), v);
  EXPECT_EQ(os.str().rfind("{\"correct\": false, \"attempted\": 4, \"failed\": 2, ", 0), 0u)
      << os.str();
}

}  // namespace
}  // namespace perfbench
