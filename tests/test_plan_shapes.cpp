// One RNG regime for every netsim plan: the caller-stream contract of
// the three entry points, randomized plan-shape equivalence (component,
// border and unbounded plans against their one-engine reference, across
// jobs counts, auditor clean), and the pool a border run executes on.
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "net/netsim.h"
#include "net/shard.h"
#include "par/montecarlo.h"
#include "par/pool.h"
#include "support/plan_shapes.h"

namespace wlan {
namespace {

using plan_shapes::Scenario;

// --- Caller-stream contract ------------------------------------------

/// Two cells 5 km apart (two components), each an AP with three
/// saturated clients; a 100 m tile splits them into two border tiles.
Scenario two_cells() {
  Scenario s;
  s.config.duration_s = 0.05;
  for (const double x0 : {0.0, 5000.0}) {
    const std::size_t ap = s.nodes.size();
    s.nodes.push_back({{x0, 0.0}});
    for (const double dy : {-10.0, 10.0, 20.0}) {
      s.nodes.push_back({{x0 + 5.0, dy}});
      s.flows.push_back({s.nodes.size() - 1, ap});
    }
  }
  return s;
}

/// The caller's stream after `call(rng)` must sit exactly one
/// next_u64() past its start, however much simulation the call ran.
template <class Call>
void expect_one_draw(std::uint64_t seed, Call&& call) {
  Rng used(seed);
  call(used);
  Rng expected(seed);
  expected.next_u64();
  EXPECT_EQ(used.next_u64(), expected.next_u64());
}

TEST(CallerStream, SimulateNetworkDrawsOneRoot) {
  const Scenario s = two_cells();
  for (const bool per : {false, true}) {
    net::NetworkConfig cfg = s.config;
    if (per) cfg.error_model.model = net::RxModel::kPerModel;
    expect_one_draw(5, [&](Rng& rng) {
      const auto r = net::simulate_network(cfg, s.nodes, s.flows, rng);
      EXPECT_GT(r.total_delivered, 0u);
    });
  }
}

TEST(CallerStream, EveryPlanShapeDrawsOneRoot) {
  const Scenario s = two_cells();
  net::ShardOptions unbounded;
  unbounded.cutoff_margin_db = std::numeric_limits<double>::infinity();
  net::ShardOptions component;
  net::ShardOptions border;
  border.border = true;
  border.border_tile_m = 100.0;
  net::ShardOptions reference = border;
  reference.border_reference = true;
  struct Shape {
    const char* name;
    net::ShardOptions opt;
    std::vector<net::NodeConfig> nodes;
    std::vector<net::Flow> flows;
    std::size_t shards;
  };
  // A single-shard bounded plan: one cell alone.
  const std::vector<net::NodeConfig> cell(s.nodes.begin(),
                                          s.nodes.begin() + 4);
  const std::vector<net::Flow> cell_flows(s.flows.begin(),
                                          s.flows.begin() + 3);
  const std::vector<Shape> shapes = {
      {"unbounded", unbounded, s.nodes, s.flows, 1},
      {"component", component, s.nodes, s.flows, 2},
      {"single shard", component, cell, cell_flows, 1},
      {"border", border, s.nodes, s.flows, 2},
      {"reference", reference, s.nodes, s.flows, 2},
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    ASSERT_EQ(net::plan_shards(s.config, shape.nodes, shape.opt, &shape.flows)
                  .shards.size(),
              shape.shards);
    for (const unsigned jobs : {1u, 4u}) {
      net::ShardOptions opt = shape.opt;
      opt.jobs = jobs;
      expect_one_draw(9, [&](Rng& rng) {
        const auto r = net::simulate_network_sharded(
            s.config, shape.nodes, shape.flows, opt, rng);
        EXPECT_GT(r.total_delivered, 0u);
      });
    }
  }
}

// Run i of a batch is simulate_network under the batch's per-run Rng
// par::derive_seed(root_seed, i, 0): it draws that Rng's first u64 as
// its root and nothing else.
TEST(CallerStream, BatchRunIsOneRootDrawOffItsRunStream) {
  const Scenario s = two_cells();
  net::BatchOptions opt;
  opt.root_seed = 77;
  opt.jobs = 4;
  const auto batch =
      net::simulate_network_batch(s.config, s.nodes, s.flows, 3, opt);
  ASSERT_EQ(batch.size(), 3u);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE("run " + std::to_string(i));
    const std::uint64_t run_seed = par::derive_seed(opt.root_seed, i, 0);
    Rng run_rng(run_seed);
    const auto single =
        net::simulate_network(s.config, s.nodes, s.flows, run_rng);
    plan_shapes::expect_results_bitwise(batch[i], single);
    Rng expected(run_seed);
    expected.next_u64();
    EXPECT_EQ(run_rng.next_u64(), expected.next_u64());
  }
}

// --- Randomized plan shapes ------------------------------------------

/// A seeded random deployment: 2-4 BSSs scattered over a square of
/// 400 m (one component) or 8 km (usually several) a side, 1-3 clients each sending uplink, RTS on or off, saturated or Poisson
/// per flow, SINR threshold or (`per`) the DSSS PER model with 4 dB
/// shadowing. A DSSS fading pool builds in a fraction of the OFDM one's
/// time; OFDM PER with fixed rate and ARF runs on the named 63-node grid
/// fixtures, through the same helper.
Scenario random_scenario(std::uint64_t seed, bool per) {
  Rng rng(seed);
  Scenario s;
  s.seed = seed;
  net::NetworkConfig& cfg = s.config;
  cfg.duration_s = 0.05;
  cfg.rts_cts = rng.bernoulli(0.5);
  if (per) {
    cfg.error_model.model = net::RxModel::kPerModel;
    cfg.error_model.shadowing_sigma_db = 4.0;
    cfg.error_model.realizations = 8;
    cfg.generation = mac::PhyGeneration::kDsss;
    cfg.data_rate_mbps = 2.0;
    cfg.basic_rate_mbps = 1.0;
  }
  const std::size_t n_bss = 2 + rng.uniform_int(3);
  const double side_m = rng.bernoulli(0.5) ? 400.0 : 8000.0;
  for (std::size_t b = 0; b < n_bss; ++b) {
    const std::size_t ap = s.nodes.size();
    const double ax = rng.uniform(0.0, side_m);
    const double ay = rng.uniform(0.0, side_m);
    s.nodes.push_back({{ax, ay}});
    const std::size_t clients = 1 + rng.uniform_int(3);
    for (std::size_t c = 0; c < clients; ++c) {
      const double r = rng.uniform(5.0, 30.0);
      const double a = rng.uniform(0.0, 2.0 * M_PI);
      s.nodes.push_back({{ax + r * std::cos(a), ay + r * std::sin(a)}});
      const double pps = rng.bernoulli(0.5) ? rng.uniform(100.0, 1000.0) : 0.0;
      s.flows.push_back({s.nodes.size() - 1, ap, pps});
    }
  }
  s.border_tile_m = rng.uniform(60.0, 150.0);
  s.unbounded = true;
  return s;
}

TEST(PlanShapes, RandomDeploymentsAgreeAcrossShapesAndJobs) {
  for (std::uint64_t seed = 1000; seed < 1010; ++seed) {
    const bool per = seed % 2 == 1;
    SCOPED_TRACE("seed " + std::to_string(seed) + (per ? " PER" : ""));
    const Scenario s = random_scenario(seed, per);
    const plan_shapes::Runs runs = plan_shapes::expect_plan_shapes_agree(s);
    EXPECT_GT(runs.component.tiled.result.total_delivered, 0u);
  }
}

// --- Pool selection --------------------------------------------------

// ShardOptions::jobs = 0 means the process default pool, for border
// runs as for every other plan.
TEST(BorderPool, JobsZeroRunsOnTheDefaultPool) {
  const Scenario s = two_cells();
  net::ShardOptions opt;
  opt.border = true;
  opt.border_tile_m = 100.0;
  opt.jobs = 0;
  par::set_telemetry_enabled(true);
  par::ThreadPool& pool = par::default_pool();
  pool.reset_telemetry();
  Rng rng(3);
  const auto r =
      net::simulate_network_sharded(s.config, s.nodes, s.flows, opt, rng);
  const std::uint64_t tasks = pool.telemetry().totals().tasks;
  par::set_telemetry_enabled(false);
  EXPECT_EQ(r.border.tiles, 2u);
  EXPECT_GT(r.border.epochs, 1u);
  // Set-up, the rounds' participants and finalize each submit at least
  // one task; a run on a private pool would leave this count at zero.
  EXPECT_GE(tasks, 3u);
}

}  // namespace
}  // namespace wlan
