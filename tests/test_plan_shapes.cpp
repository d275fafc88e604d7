// One RNG regime for every netsim plan: the caller-stream contract of
// the three entry points, randomized plan-shape equivalence (component,
// border and unbounded plans against their one-engine reference, across
// jobs counts, auditor clean), and the pool a border run executes on.
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "net/netsim.h"
#include "net/shard.h"
#include "obs/trace.h"
#include "par/montecarlo.h"
#include "par/pool.h"
#include "support/plan_shapes.h"

namespace wlan {
namespace {

using plan_shapes::Scenario;
using plan_shapes::ShapeRun;

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

/// The DSSS PER model with 4 dB shadowing: a DSSS fading pool builds in
/// a fraction of the OFDM one's time.
void use_dsss_per(net::NetworkConfig& cfg) {
  cfg.error_model.model = net::RxModel::kPerModel;
  cfg.error_model.shadowing_sigma_db = 4.0;
  cfg.error_model.realizations = 8;
  cfg.generation = mac::PhyGeneration::kDsss;
  cfg.data_rate_mbps = 2.0;
  cfg.basic_rate_mbps = 1.0;
}

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
  if (per) use_dsss_per(cfg);
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

// --- Pinned outputs --------------------------------------------------
//
// The shape contracts above compare the engine with itself, so an engine
// change that moves tiled and reference runs the same way passes them.
// These pin the integer outputs of three seeded runs exactly; a change
// that alters the simulated physics must update them on purpose.

/// Per-flow delivered/attempts/retries/drops, then the network counters
/// and the border exchange totals, as one line.
std::string pinned_outputs(const net::NetworkResult& r) {
  std::string out = "flows";
  for (const net::FlowStats& f : r.flows) {
    out += ' ' + std::to_string(f.delivered) + '/' +
           std::to_string(f.attempts) + '/' + std::to_string(f.retries) +
           '/' + std::to_string(f.drops);
  }
  out += " data_tx=" + std::to_string(r.data_tx_count) +
         " data_failures=" + std::to_string(r.data_failures) +
         " rts_tx=" + std::to_string(r.rts_tx_count) +
         " rts_failures=" + std::to_string(r.rts_failures) +
         " simultaneous_starts=" + std::to_string(r.simultaneous_starts) +
         " messages=" + std::to_string(r.border.messages) +
         " epochs=" + std::to_string(r.border.epochs);
  return out;
}

/// Counts the NAV settings that arrived through border influence.
class RemoteNavCounter final : public obs::TraceSink {
 public:
  void record(const obs::TraceEvent& e) override {
    if (e.type == obs::EventType::kNavSet &&
        std::string(e.detail) == "REMOTE")
      ++count;
  }
  std::uint64_t count = 0;
};

/// One cell per 5 km: an AP, two clients 90 m apart on either side of it
/// (hidden from each other), a near client, and a downlink flow from the
/// AP, so an RTS's addressee also contends for the medium.
Scenario hidden_cells() {
  Scenario s;
  s.config.duration_s = 0.1;
  for (const double x0 : {0.0, 5000.0}) {
    const std::size_t ap = s.nodes.size();
    s.nodes.push_back({{x0, 0.0}});
    for (const double dx : {-45.0, 45.0}) {
      s.nodes.push_back({{x0 + dx, 0.0}});
      s.flows.push_back({s.nodes.size() - 1, ap});
    }
    s.nodes.push_back({{x0, 20.0}});
    s.flows.push_back({s.nodes.size() - 1, ap, 400.0});
    s.flows.push_back({ap, s.nodes.size() - 1, 300.0});
  }
  return s;
}

TEST(PinnedOutputs, SinrThresholdWithRtsOnAComponentPlan) {
  Scenario s = hidden_cells();
  s.config.rts_cts = true;
  net::ShardOptions opt;
  opt.jobs = 4;
  const ShapeRun run = plan_shapes::run_sharded(s, opt);
  EXPECT_EQ(pinned_outputs(run.result),
            "flows 83/95/11/0 3/11/8/0 45/45/0/0 26/26/0/0 77/100/23/0 "
            "12/33/21/0 35/36/1/0 26/28/1/0 data_tx=309 data_failures=0 "
            "rts_tx=374 rts_failures=65 simultaneous_starts=15 messages=0 "
            "epochs=0");
}

/// hidden_cells under the OFDM PER model with ARF rate control.
Scenario per_arf_cells() {
  Scenario s = hidden_cells();
  s.config.duration_s = 0.05;
  s.config.error_model.model = net::RxModel::kPerModel;
  s.config.error_model.shadowing_sigma_db = 4.0;
  s.config.error_model.realizations = 8;
  s.config.rate_control = net::RateControlMode::kArf;
  return s;
}

TEST(PinnedOutputs, OfdmPerWithArf) {
  Scenario s = per_arf_cells();
  Rng rng(s.seed);
  const auto r = net::simulate_network(s.config, s.nodes, s.flows, rng);
  EXPECT_EQ(pinned_outputs(r),
            "flows 4/8/4/0 5/8/3/0 12/13/1/0 8/10/2/0 0/5/5/0 0/5/5/0 "
            "13/16/2/0 11/13/2/0 data_tx=78 data_failures=24 rts_tx=0 "
            "rts_failures=0 simultaneous_starts=8 messages=0 epochs=0");
}

/// Cells 50 m apart in one row, one 50 m tile each: neighbors across a
/// tile edge sit inside carrier-sense range, so RTS durations set NAV
/// through border influence.
Scenario remote_nav_cells() {
  Scenario s;
  s.config.duration_s = 0.05;
  s.config.rts_cts = true;
  for (std::size_t c = 0; c < 5; ++c) {
    const double x0 = 25.0 + 50.0 * static_cast<double>(c);
    const std::size_t ap = s.nodes.size();
    s.nodes.push_back({{x0, 25.0}});
    for (const double dy : {-15.0, 15.0}) {
      s.nodes.push_back({{x0 + 10.0, 25.0 + dy}});
      s.flows.push_back({s.nodes.size() - 1, ap});
    }
  }
  return s;
}

TEST(PinnedOutputs, BorderPlanWithRemoteNav) {
  Scenario s = remote_nav_cells();
  RemoteNavCounter remote;
  s.config.trace = &remote;
  net::ShardOptions opt;
  opt.border = true;
  opt.border_tile_m = 50.0;
  opt.jobs = 4;
  const ShapeRun run = plan_shapes::run_sharded(s, opt);
  EXPECT_EQ(run.result.border.tiles, 5u);
  EXPECT_GT(remote.count, 0u);
  EXPECT_EQ(pinned_outputs(run.result),
            "flows 34/42/7/0 25/32/7/0 11/12/1/0 13/14/1/0 25/28/3/0 "
            "24/28/3/0 12/13/1/0 10/11/1/0 32/35/3/0 32/36/3/0 data_tx=221 "
            "data_failures=0 rts_tx=251 rts_failures=30 "
            "simultaneous_starts=26 messages=3648 epochs=2688");
}

// --- Pinned trace order ---------------------------------------------
//
// The pinned outputs above hold end results; these hold the order of
// every event that produced them. Each run's full trace stream is folded
// into one FNV-1a hash over every TraceEvent field, so an engine change
// that reorders same-time work (NAV wakeups, backoff expiries, border
// influence) fails here even when the totals come out equal.

/// FNV-1a over each event's fields, in arrival order.
class TraceHash final : public obs::TraceSink {
 public:
  void record(const obs::TraceEvent& e) override {
    mix(std::bit_cast<std::uint64_t>(e.time_s));
    mix(static_cast<std::uint64_t>(e.type));
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.node)));
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.peer)));
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.flow)));
    mix(static_cast<std::uint64_t>(e.frame));
    mix(std::bit_cast<std::uint64_t>(e.value));
    for (const char* c = e.detail; *c != '\0'; ++c)
      byte(static_cast<unsigned char>(*c));
    byte(0);
    ++events;
    if (e.type == obs::EventType::kNavSet &&
        std::string(e.detail) == "REMOTE")
      ++remote_navs;
  }
  std::uint64_t hash = 0xcbf29ce484222325ull;
  std::uint64_t events = 0;
  std::uint64_t remote_navs = 0;

 private:
  void byte(unsigned char b) {
    hash ^= b;
    hash *= 0x100000001b3ull;
  }
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
};

TEST(PinnedTrace, OfdmPerWithArf) {
  Scenario s = per_arf_cells();
  TraceHash trace;
  s.config.trace = &trace;
  Rng rng(s.seed);
  net::simulate_network(s.config, s.nodes, s.flows, rng);
  EXPECT_EQ(trace.events, 1151u);
  EXPECT_EQ(trace.hash, 11079232009977746343ull);
}

// Tiled at jobs 1, so the tiles' events reach the sink in one order.
TEST(PinnedTrace, BorderPlanWithRemoteNav) {
  Scenario s = remote_nav_cells();
  TraceHash trace;
  s.config.trace = &trace;
  net::ShardOptions opt;
  opt.border = true;
  opt.border_tile_m = 50.0;
  opt.jobs = 1;
  plan_shapes::run_sharded(s, opt);
  EXPECT_GT(trace.remote_navs, 0u);
  EXPECT_EQ(trace.events, 5732u);
  EXPECT_EQ(trace.hash, 8641090920247620404ull);
}

/// Counts TX_STARTs addressed to a node that already has a reception
/// in flight, i.e. receptions that overlap at one receiver.
class OverlappingRxCounter final : public obs::TraceSink {
 public:
  void record(const obs::TraceEvent& e) override {
    if (e.peer < 0) return;
    if (e.type == obs::EventType::kTxStart) {
      if (in_flight_[e.peer]++ > 0) ++count;
    } else if (e.type == obs::EventType::kTxEnd) {
      --in_flight_[e.peer];
    }
  }
  std::uint64_t count = 0;

 private:
  std::map<std::int32_t, int> in_flight_;
};

/// An AP on a tile edge (x = 50 m under 50 m tiles) with three clients
/// 40 m out at 120 degree spacing (69 m apart, so hidden from each
/// other) and a downlink to the first. A one-client cell sits in a tile
/// on either side; their transmissions reach the edge AP only through
/// its tile's inbound rows.
Scenario edge_ap_cells() {
  Scenario s;
  s.config.duration_s = 0.05;
  s.component = false;
  s.border_tile_m = 50.0;
  s.nodes.push_back({{50.0, 25.0}});
  for (const double deg : {0.0, 120.0, 240.0}) {
    const double a = deg * M_PI / 180.0;
    s.nodes.push_back(
        {{50.0 + 40.0 * std::cos(a), 25.0 + 40.0 * std::sin(a)}});
    s.flows.push_back({s.nodes.size() - 1, 0, 120.0});
  }
  s.flows.push_back({0, 1, 120.0});
  for (const double x0 : {140.0, -40.0}) {
    const std::size_t ap = s.nodes.size();
    s.nodes.push_back({{x0, 25.0}});
    s.nodes.push_back({{x0 + (x0 > 0.0 ? 20.0 : -20.0), 25.0}});
    s.flows.push_back({s.nodes.size() - 1, ap});
    s.flows.push_back({ap, s.nodes.size() - 1, 200.0});
  }
  return s;
}

// Overlapping receptions at one receiver, power landing there from
// local and inbound rows, under both reception models.
TEST(PinnedOutputs, BorderApOnATileEdgeWithHiddenClients) {
  struct Case {
    bool per;
    const char* pinned;
  };
  const Case cases[] = {
      {false,
       "flows 4/10/5/0 6/11/4/0 5/12/7/0 0/15/15/1 80/83/2/0 13/15/2/0 "
       "85/87/1/0 10/11/1/0 data_tx=244 data_failures=37 rts_tx=0 "
       "rts_failures=0 simultaneous_starts=4 messages=896 epochs=1720"},
      {true,
       "flows 0/7/7/0 4/14/10/0 0/15/14/1 0/6/6/0 11/13/1/0 29/30/1/0 "
       "29/30/1/0 11/13/1/0 data_tx=128 data_failures=41 rts_tx=0 "
       "rts_failures=0 simultaneous_starts=2 messages=424 epochs=944"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.per ? "PER model" : "SINR threshold");
    Scenario s = edge_ap_cells();
    if (c.per) {
      use_dsss_per(s.config);
      s.config.duration_s = 0.2;  // DSSS frames run 4 ms
    }
    // Tiled at jobs 1 and 4 against the fused reference, auditor clean.
    const plan_shapes::Runs runs = plan_shapes::expect_plan_shapes_agree(s);
    EXPECT_EQ(runs.border.tiled.result.border.tiles, 3u);
    EXPECT_EQ(pinned_outputs(runs.border.tiled.result), c.pinned);

    OverlappingRxCounter overlap;
    s.config.trace = &overlap;
    net::ShardOptions opt;
    opt.border = true;
    opt.border_tile_m = s.border_tile_m;
    opt.jobs = 4;
    const ShapeRun traced = plan_shapes::run_sharded(s, opt);
    EXPECT_GT(overlap.count, 0u);
    EXPECT_EQ(pinned_outputs(traced.result), c.pinned);
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
