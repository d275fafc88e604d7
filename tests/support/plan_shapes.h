// Plan-shape equivalence: runs one deployment under every plan shape
// simulate_network_sharded accepts and checks the engine's determinism
// contracts on it.
//
// Every shape draws one root off the caller's Rng and keys every random
// stream by global node/flow/pair id, so for each shape:
//  - runs at jobs 1 and 4 agree bitwise: flows, counters and the full
//    registry snapshot (merge order is shard order, not thread order);
//  - the one-engine reference (`ShardOptions::border_reference`) agrees
//    bitwise on flows, counters and every physics instrument of the
//    snapshot (see physics_instruments for what a layout may change);
//  - the invariant auditor reports zero breaches.
// The unbounded shape additionally matches `simulate_network` itself,
// snapshot byte for byte.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "net/netsim.h"
#include "net/shard.h"
#include "obs/metrics.h"

namespace wlan::plan_shapes {

/// One deployment plus the shapes to run it under.
struct Scenario {
  net::NetworkConfig config;
  std::vector<net::NodeConfig> nodes;
  std::vector<net::Flow> flows;
  std::uint64_t seed = 1;
  /// Run the component plan (default ShardOptions).
  bool component = true;
  /// Border tile edge (m); 0 skips the border shape.
  double border_tile_m = 0.0;
  /// Run the unbounded (monolithic) plan, also against simulate_network.
  bool unbounded = false;
};

struct ShapeRun {
  net::NetworkResult result;
  std::string snapshot;
};

/// One shape's jobs-4 run and its one-engine reference.
struct ShapeRuns {
  ShapeRun tiled;
  ShapeRun reference;
};

/// What a fixture may make further assertions on (empty when skipped).
struct Runs {
  ShapeRuns component;
  ShapeRuns border;
  ShapeRuns unbounded;
};

inline void expect_results_bitwise(const net::NetworkResult& a,
                                   const net::NetworkResult& b) {
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t f = 0; f < a.flows.size(); ++f) {
    EXPECT_EQ(a.flows[f].delivered, b.flows[f].delivered) << "flow " << f;
    EXPECT_EQ(a.flows[f].attempts, b.flows[f].attempts) << "flow " << f;
    EXPECT_EQ(a.flows[f].retries, b.flows[f].retries) << "flow " << f;
    EXPECT_EQ(a.flows[f].drops, b.flows[f].drops) << "flow " << f;
    EXPECT_EQ(a.flows[f].throughput_mbps, b.flows[f].throughput_mbps)
        << "flow " << f;
    EXPECT_EQ(a.flows[f].mean_delay_s, b.flows[f].mean_delay_s)
        << "flow " << f;
    EXPECT_EQ(a.flows[f].mean_data_rate_mbps, b.flows[f].mean_data_rate_mbps)
        << "flow " << f;
  }
  EXPECT_EQ(a.total_delivered, b.total_delivered);
  EXPECT_EQ(a.aggregate_throughput_mbps, b.aggregate_throughput_mbps);
  EXPECT_EQ(a.data_tx_count, b.data_tx_count);
  EXPECT_EQ(a.data_failures, b.data_failures);
  EXPECT_EQ(a.rts_tx_count, b.rts_tx_count);
  EXPECT_EQ(a.rts_failures, b.rts_failures);
  EXPECT_EQ(a.simultaneous_starts, b.simultaneous_starts);
}

/// The snapshot's instruments as one JSON object each, sorted, without
/// those that describe an engine layout rather than the network: the
/// scheduler's `sim.*` occupancy (one queue per engine) and histograms
/// without a flow label, whose sums add doubles across flows in each
/// engine's event order (equal counts and bins, last-bit sums). Per-flow
/// histograms and every counter stay in.
inline std::vector<std::string> physics_instruments(
    const std::string& snapshot) {
  std::vector<std::string> out;
  int depth = 0;
  std::size_t begin = 0;
  bool histograms = false;
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    const char c = snapshot[i];
    if (c == '{' && ++depth == 2) begin = i;
    if (depth == 1 && snapshot.compare(i, 12, "\"histograms\"") == 0)
      histograms = true;  // the last section
    if (c == '}' && depth-- == 2) {
      std::string obj = snapshot.substr(begin, i + 1 - begin);
      const bool sim = obj.rfind("{\"name\":\"sim.", 0) == 0;
      const bool per_flow = obj.find("\"flow\":") != std::string::npos;
      if (!sim && (per_flow || !histograms)) out.push_back(std::move(obj));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

inline ShapeRun run_sharded(const Scenario& s, const net::ShardOptions& opt) {
  obs::Registry registry;
  net::NetworkConfig cfg = s.config;
  cfg.registry = &registry;
  Rng rng(s.seed);
  ShapeRun run;
  run.result = net::simulate_network_sharded(cfg, s.nodes, s.flows, opt, rng);
  run.snapshot = registry.snapshot_json();
  return run;
}

inline void expect_clean(const ShapeRun& run) {
  EXPECT_EQ(run.result.lifecycle.breaches, 0u)
      << (run.result.lifecycle.breach_messages.empty()
              ? std::string()
              : run.result.lifecycle.breach_messages.front());
}

/// jobs 1 vs 4 and reference vs tiled for one plan shape.
inline ShapeRuns check_shape(const Scenario& s, net::ShardOptions opt) {
  opt.jobs = 1;
  const ShapeRun one = run_sharded(s, opt);
  opt.jobs = 4;
  const ShapeRun four = run_sharded(s, opt);
  opt.border_reference = true;
  const ShapeRun ref = run_sharded(s, opt);
  {
    SCOPED_TRACE("jobs 1 vs 4");
    expect_results_bitwise(one.result, four.result);
    EXPECT_EQ(one.snapshot, four.snapshot);
  }
  {
    SCOPED_TRACE("one-engine reference vs tiled");
    expect_results_bitwise(ref.result, four.result);
    EXPECT_EQ(physics_instruments(ref.snapshot),
              physics_instruments(four.snapshot));
  }
  expect_clean(one);
  expect_clean(four);
  expect_clean(ref);
  return {four, ref};
}

/// Runs `s` under the shapes it selects, with the lifecycle auditor
/// armed, and checks every contract above.
inline Runs expect_plan_shapes_agree(Scenario s) {
  s.config.lifecycle.enabled = true;
  s.config.lifecycle.audit = true;
  Runs runs;
  if (s.component) {
    SCOPED_TRACE("component plan");
    runs.component = check_shape(s, net::ShardOptions{});
  }
  if (s.border_tile_m > 0.0) {
    SCOPED_TRACE("border plan");
    net::ShardOptions opt;
    opt.border = true;
    opt.border_tile_m = s.border_tile_m;
    runs.border = check_shape(s, opt);
  }
  if (s.unbounded) {
    SCOPED_TRACE("unbounded plan");
    net::ShardOptions opt;
    opt.cutoff_margin_db = std::numeric_limits<double>::infinity();
    runs.unbounded = check_shape(s, opt);
    obs::Registry registry;
    net::NetworkConfig cfg = s.config;
    cfg.registry = &registry;
    Rng rng(s.seed);
    const net::NetworkResult mono =
        net::simulate_network(cfg, s.nodes, s.flows, rng);
    expect_results_bitwise(mono, runs.unbounded.tiled.result);
    EXPECT_EQ(registry.snapshot_json(), runs.unbounded.tiled.snapshot);
  }
  return runs;
}

}  // namespace wlan::plan_shapes
