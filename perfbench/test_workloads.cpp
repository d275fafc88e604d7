// Tests of the benchmark's own code: workload shapes, the set-up pass,
// and the metric names against BENCHMARK.json.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>

#include "obs/json.h"
#include "workloads.h"

namespace {

using namespace wlanbench;

TEST(CityPer, PlansToHundredShardsWithNoFlowCrossingShards) {
  const City city = make_city_per(1);
  ASSERT_EQ(city.nodes.size(), 3600u);
  ASSERT_EQ(city.flows.size(), 2700u);
  const wlan::net::ShardPlan plan =
      wlan::net::plan_shards(city.config, city.nodes, city.options, &city.flows);
  EXPECT_EQ(plan.shards.size(), 100u);
  for (const wlan::net::Flow& f : city.flows) {
    EXPECT_EQ(plan.shard_of[f.source], plan.shard_of[f.destination]);
  }
}

TEST(CityBorder, ShortRunIsOneComponentWithBorderMessages) {
  const City city = make_city_border(1, 4, 0.01);
  EXPECT_EQ(city.components, 1u);
  const CityPass pass = run_city(city, 0.01, /*audit=*/true);
  EXPECT_GE(pass.shards, 2u);
  EXPECT_GT(pass.result.border.messages, 0u);
  EXPECT_GT(pass.result.total_delivered, 0u);
  EXPECT_EQ(pass.result.lifecycle.breaches, 0u);
  EXPECT_EQ(pass.outcome.attempted, 1u);
  EXPECT_EQ(pass.outcome.failed, 0u);
}

TEST(CitySetup, ZeroDurationRunDeliversNothing) {
  const City city = make_city_border(1, 4, 0.01);
  const CityPass pass = run_city(city, 0.0, /*audit=*/false);
  EXPECT_EQ(pass.result.total_delivered, 0u);
  EXPECT_EQ(pass.result.data_tx_count, 0u);
  EXPECT_EQ(pass.outcome.failed, 0u);
}

TEST(CityRun, SameSeedSameDigest) {
  const City city = make_city_border(7, 4, 0.01);
  EXPECT_EQ(run_city(city, 0.01, false).outcome.digest,
            run_city(city, 0.01, false).outcome.digest);
}

std::map<std::string, std::string> declared(const wlan::obs::JsonValue& spec,
                                            const char* key) {
  std::map<std::string, std::string> names;
  for (const wlan::obs::JsonValue& m : spec.at(key).items()) {
    names[m.at("name").as_string()] = m.at("unit").as_string();
  }
  return names;
}

std::map<std::string, std::string> emitted(const std::vector<Metric>& metrics) {
  std::map<std::string, std::string> names;
  for (const Metric& m : metrics) {
    EXPECT_TRUE(names.emplace(m.name, m.unit).second) << "duplicate " << m.name;
  }
  return names;
}

TEST(Metrics, EmittedNamesEqualBenchmarkJson) {
  std::ifstream in(WLANBENCH_SPEC);
  ASSERT_TRUE(in) << WLANBENCH_SPEC;
  std::stringstream text;
  text << in.rdbuf();
  const wlan::obs::JsonValue spec = wlan::obs::JsonValue::parse(text.str());
  const Report report;
  EXPECT_EQ(emitted(end_to_end_metrics(report)), declared(spec, "end_to_end"));
  EXPECT_EQ(emitted(per_layer_metrics(report)), declared(spec, "per_layer"));

  const std::regex name_re("[A-Za-z0-9_.-]+");
  std::vector<Metric> all = end_to_end_metrics(report);
  for (const Metric& m : per_layer_metrics(report)) all.push_back(m);
  for (const Metric& m : all) {
    EXPECT_TRUE(std::regex_match(m.name, name_re)) << m.name;
  }
  for (const wlan::obs::JsonValue& w : spec.at("workloads").items()) {
    EXPECT_TRUE(parse_workload(w.at("name").as_string()).has_value());
  }
}

}  // namespace
