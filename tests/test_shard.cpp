// The spatially sharded network engine: planner geometry, shard-vs-
// monolith bitwise equivalence, thread-count-independent merges, and
// the event-bookkeeping fixes that scaling flushed out.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/abstraction.h"
#include "core/link.h"
#include "mac/timing.h"
#include "mesh/mesh.h"
#include "net/errormodel.h"
#include "net/netsim.h"
#include "net/shard.h"
#include "obs/metrics.h"
#include "support/plan_shapes.h"

namespace wlan {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Deployment {
  std::vector<net::NodeConfig> nodes;
  std::vector<net::Flow> flows;
};

/// The bench_multibss deployment: `bss_grid`^2 APs, `clients` saturated
/// uplink STAs on a ring around each.
Deployment make_grid(std::size_t bss_grid, double spacing_m,
                     std::size_t clients, double radius_m,
                     double origin_x = 0.0) {
  Deployment d;
  for (std::size_t gy = 0; gy < bss_grid; ++gy) {
    for (std::size_t gx = 0; gx < bss_grid; ++gx) {
      const double ax = origin_x + static_cast<double>(gx) * spacing_m;
      const double ay = static_cast<double>(gy) * spacing_m;
      const std::size_t ap = d.nodes.size();
      d.nodes.push_back({{ax, ay}});
      for (std::size_t c = 0; c < clients; ++c) {
        const double angle = 2.0 * M_PI * static_cast<double>(c) /
                             static_cast<double>(clients);
        d.nodes.push_back({{ax + radius_m * std::cos(angle),
                            ay + radius_m * std::sin(angle)}});
        d.flows.push_back({d.nodes.size() - 1, ap});
      }
    }
  }
  return d;
}

/// The 63-node bench_multibss geometry (same physics-driven sizing).
Deployment multibss63(const net::NetworkConfig& cfg) {
  double radius_m = 5.0;
  while (snr_at_distance_db(cfg.pathloss, radius_m * 1.3, 17.0,
                            cfg.bandwidth_hz) > 34.0) {
    radius_m *= 1.3;
  }
  const double noise_dbm =
      -174.0 + 10.0 * std::log10(cfg.bandwidth_hz) + 6.0;
  const double cs_snr_db = -82.0 - noise_dbm;
  double spacing_m = radius_m;
  while (snr_at_distance_db(cfg.pathloss, spacing_m, 17.0, cfg.bandwidth_hz) >
         cs_snr_db) {
    spacing_m *= 1.1;
  }
  return make_grid(3, spacing_m, 6, radius_m);
}

net::ShardOptions monolithic() {
  net::ShardOptions o;
  o.cutoff_margin_db = kInf;
  return o;
}

// --- Planner geometry ------------------------------------------------

TEST(ShardPlan, UnboundedMarginKeepsEveryPairInOneShard) {
  net::NetworkConfig cfg;
  const Deployment d = multibss63(cfg);
  const net::ShardPlan plan = net::plan_shards(cfg, d.nodes, monolithic());
  ASSERT_EQ(plan.shards.size(), 1u);
  EXPECT_EQ(plan.shards[0].size(), d.nodes.size());
  EXPECT_EQ(plan.n_edges(), d.nodes.size() * (d.nodes.size() - 1));
  for (std::size_t i = 0; i < d.nodes.size(); ++i) {
    EXPECT_EQ(plan.degree(i), d.nodes.size() - 1);
    EXPECT_EQ(plan.shard_of[i], 0u);
  }
}

TEST(ShardPlan, DistantClustersFormSeparateShards) {
  net::NetworkConfig cfg;
  Deployment d = make_grid(1, 0.0, 2, 10.0);
  const Deployment far = make_grid(1, 0.0, 2, 10.0, 5000.0);
  const std::size_t offset = d.nodes.size();
  d.nodes.insert(d.nodes.end(), far.nodes.begin(), far.nodes.end());
  for (const net::Flow& f : far.flows) {
    d.flows.push_back({f.source + offset, f.destination + offset});
  }
  const net::ShardPlan plan =
      net::plan_shards(cfg, d.nodes, net::ShardOptions{});
  ASSERT_EQ(plan.shards.size(), 2u);
  EXPECT_EQ(plan.shards[0].size(), offset);
  EXPECT_EQ(plan.shards[1].size(), far.nodes.size());
  // Rows are ascending and symmetric; no edge crosses the clusters.
  for (std::size_t i = 0; i < d.nodes.size(); ++i) {
    for (std::size_t e = plan.row_offset[i]; e < plan.row_offset[i + 1];
         ++e) {
      const std::uint32_t j = plan.nbr[e];
      if (e > plan.row_offset[i]) {
        EXPECT_LT(plan.nbr[e - 1], j);
      }
      EXPECT_EQ(plan.shard_of[i], plan.shard_of[j]);
      bool reverse = false;
      for (std::size_t r = plan.row_offset[j]; r < plan.row_offset[j + 1];
           ++r) {
        reverse |= plan.nbr[r] == i;
      }
      EXPECT_TRUE(reverse) << i << "->" << j;
    }
  }
}

TEST(ShardPlan, WiderMarginCouplesMorePairs) {
  net::NetworkConfig cfg;
  const Deployment d = multibss63(cfg);
  net::ShardOptions narrow;
  narrow.cutoff_margin_db = 0.0;
  net::ShardOptions wide;
  wide.cutoff_margin_db = 30.0;
  const net::ShardPlan pn = net::plan_shards(cfg, d.nodes, narrow);
  const net::ShardPlan pw = net::plan_shards(cfg, d.nodes, wide);
  EXPECT_GE(pw.n_edges(), pn.n_edges());
  EXPECT_GT(pw.cutoff_radius_m, pn.cutoff_radius_m);
  EXPECT_LT(pw.cutoff_rx_dbm, pn.cutoff_rx_dbm);
}

// --- Plan vs an all-pairs reference ----------------------------------

/// One seeded planner input.
struct PlanCase {
  net::NetworkConfig config;
  std::vector<net::NodeConfig> nodes;
  std::vector<net::Flow> flows;
  bool with_flows = false;
  net::ShardOptions options;
};

/// The header's cutoff rule, restated: the weakest level any node cares
/// about, less the margin, and the distance at which the strongest
/// transmitter decays to it.
struct Cutoff {
  double rx_dbm = -kInf;
  double radius_m = kInf;
};

Cutoff reference_cutoff(const PlanCase& c) {
  Cutoff out;
  if (!std::isfinite(c.options.cutoff_margin_db)) return out;
  double floor_dbm = kInf;
  double max_tx_dbm = -kInf;
  for (const net::NodeConfig& node : c.nodes) {
    floor_dbm = std::min(
        floor_dbm,
        std::min(node.cs_threshold_dbm,
                 thermal_noise_dbm(c.config.bandwidth_hz,
                                   node.noise_figure_db)));
    max_tx_dbm = std::max(max_tx_dbm, node.tx_power_dbm);
  }
  out.rx_dbm = floor_dbm - c.options.cutoff_margin_db;
  out.radius_m = std::max(
      c.config.pathloss.distance_for_path_loss(max_tx_dbm - out.rx_dbm), 1.0);
  return out;
}

/// A random layout straddling the origin, about a third of it snapped
/// onto exact multiples of the cutoff radius (the planner's cell
/// boundaries), with mixed transmit powers and carrier-sense levels.
/// Seeds cycle through component and border plans, with and without
/// flows; border tiles are the cutoff radius or a fraction/multiple.
PlanCase random_plan_case(std::uint64_t seed) {
  Rng rng(seed);
  PlanCase c;
  constexpr double kExponents[] = {3.0, 3.5, 5.0};
  constexpr double kMargins[] = {0.0, 6.0, 15.0, 15.0, kInf};
  constexpr double kTxDbm[] = {8.0, 14.0, 17.0, 23.0};
  constexpr double kCsDbm[] = {-62.0, -76.0, -82.0, -90.0};
  c.config.pathloss.exponent_after = kExponents[rng.uniform_int(3)];
  c.options.cutoff_margin_db = kMargins[rng.uniform_int(5)];
  c.options.border = seed % 2 == 1;
  c.with_flows = seed % 4 < 2;
  c.nodes.resize(24 + rng.uniform_int(120));
  for (net::NodeConfig& node : c.nodes) {
    node.tx_power_dbm = kTxDbm[rng.uniform_int(4)];
    node.cs_threshold_dbm = kCsDbm[rng.uniform_int(4)];
  }
  const double radius = reference_cutoff(c).radius_m;
  const double snap = std::isfinite(radius) ? radius : 50.0;
  const double half = snap * rng.uniform(1.0, 2.5);
  for (net::NodeConfig& node : c.nodes) {
    if (rng.bernoulli(0.35)) {
      const double kx = static_cast<double>(rng.uniform_int(7)) - 3.0;
      const double ky = static_cast<double>(rng.uniform_int(7)) - 3.0;
      node.position = {kx * snap, ky * snap};
    } else {
      node.position = {rng.uniform(-half, half), rng.uniform(-half, half)};
    }
  }
  if (c.options.border) {
    constexpr double kTileScale[] = {0.0, 0.6, 1.7};
    c.options.border_tile_m = kTileScale[rng.uniform_int(3)] * snap;
    if (!std::isfinite(radius) && c.options.border_tile_m == 0.0) {
      c.options.border_tile_m = snap;
    }
  }
  const std::size_t n = c.nodes.size();
  for (std::size_t f = 0; f < n / 4; ++f) {
    const std::size_t src = rng.uniform_int(n);
    const std::size_t dst = (src + 1 + rng.uniform_int(n - 1)) % n;
    c.flows.push_back({src, dst});
  }
  return c;
}

/// The plan any correct planner must build for `c`: the cutoff
/// predicate applied to every ordered pair (no grid), components by
/// breadth-first search in node order, border tiles by the smallest
/// member of each flow cluster, and loads, minimum border distance and
/// lookahead counted straight off that CSR.
///
/// The planner's radius reject drops a pair whose squared distance
/// exceeds the squared cutoff radius. That can disagree with the
/// predicate only where rounding leaves a pair one radius apart an ulp
/// on either side (nodes at 2r and 3r on an axis): such pairs are
/// counted in `*trimmed` and left out, and any other pair the
/// predicate keeps beyond the radius fails the test.
net::ShardPlan reference_plan(const PlanCase& c, std::size_t* trimmed) {
  const std::size_t n = c.nodes.size();
  const Cutoff cut = reference_cutoff(c);
  net::ShardPlan ref;
  ref.cutoff_rx_dbm = cut.rx_dbm;
  ref.cutoff_radius_m = cut.radius_m;
  auto dist = [&](std::size_t a, std::size_t b) {
    return std::max(mesh::distance(c.nodes[a].position, c.nodes[b].position),
                    0.5);
  };
  for (std::size_t i = 0; i < n; ++i) {
    ref.row_offset.push_back(ref.nbr.size());
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const double loss = c.config.pathloss.path_loss_db(dist(i, j));
      if (c.nodes[i].tx_power_dbm - loss < cut.rx_dbm &&
          c.nodes[j].tx_power_dbm - loss < cut.rx_dbm) {
        continue;
      }
      const double dx = c.nodes[j].position.x - c.nodes[i].position.x;
      const double dy = c.nodes[j].position.y - c.nodes[i].position.y;
      if (dx * dx + dy * dy > cut.radius_m * cut.radius_m) {
        EXPECT_LE(dist(i, j), cut.radius_m * (1.0 + 1e-12))
            << i << "->" << j << " coupled well beyond the cutoff radius";
        ++*trimmed;
        continue;
      }
      ref.nbr.push_back(static_cast<std::uint32_t>(j));
    }
  }
  ref.row_offset.push_back(ref.nbr.size());

  // Breadth-first labelling from the smallest unlabelled node, over the
  // coupling graph (component mode) or the flow graph (border mode).
  auto label = [n](const std::vector<std::vector<std::size_t>>& adj) {
    std::vector<std::size_t> root(n, n);
    for (std::size_t s = 0; s < n; ++s) {
      if (root[s] != n) continue;
      std::vector<std::size_t> queue{s};
      root[s] = s;
      for (std::size_t q = 0; q < queue.size(); ++q) {
        for (std::size_t v : adj[queue[q]]) {
          if (root[v] == n) {
            root[v] = s;
            queue.push_back(v);
          }
        }
      }
    }
    return root;
  };
  std::vector<std::vector<std::size_t>> adj(n);
  std::vector<std::size_t> root;
  if (!c.options.border) {
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t e = ref.row_offset[i]; e < ref.row_offset[i + 1]; ++e)
        adj[i].push_back(ref.nbr[e]);
    root = label(adj);
  } else {
    if (c.with_flows) {
      for (const net::Flow& f : c.flows) {
        adj[f.source].push_back(f.destination);
        adj[f.destination].push_back(f.source);
      }
    }
    const std::vector<std::size_t> rep = label(adj);
    const double tile = c.options.border_tile_m > 0.0 ? c.options.border_tile_m
                                                      : cut.radius_m;
    // Tiles are keyed on the representative's cell, binned by the same
    // reciprocal multiply the planner documents; numbered by first use.
    const double inv = 1.0 / tile;
    std::vector<std::pair<double, double>> keys;
    root.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const mesh::Point& p = c.nodes[rep[i]].position;
      const std::pair<double, double> key{std::floor(p.x * inv),
                                          std::floor(p.y * inv)};
      const auto it = std::find(keys.begin(), keys.end(), key);
      root[i] = static_cast<std::size_t>(it - keys.begin());
      if (it == keys.end()) keys.push_back(key);
    }
  }
  std::vector<std::size_t> shard_of_root(n, n);
  ref.shard_of.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (shard_of_root[root[i]] == n) {
      shard_of_root[root[i]] = ref.shards.size();
      ref.shards.emplace_back();
    }
    ref.shard_of[i] = static_cast<std::uint32_t>(shard_of_root[root[i]]);
    ref.shards[ref.shard_of[i]].push_back(static_cast<std::uint32_t>(i));
  }

  ref.border = c.options.border;
  double min_border = kInf;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t e = ref.row_offset[i]; e < ref.row_offset[i + 1]; ++e) {
      if (ref.shard_of[ref.nbr[e]] != ref.shard_of[i])
        min_border = std::min(min_border, dist(i, ref.nbr[e]));
    }
  }
  if (ref.border) {
    ref.min_border_m = std::isfinite(min_border) ? min_border : 0.0;
    const double slot_s = mac::mac_timing(c.config.generation).slot_s;
    ref.lookahead_s = std::exp2(
        std::floor(std::log2(slot_s + ref.min_border_m / kSpeedOfLight)));
  }
  return ref;
}

void expect_same_plan(const net::ShardPlan& a, const net::ShardPlan& b) {
  EXPECT_EQ(a.cutoff_rx_dbm, b.cutoff_rx_dbm);
  EXPECT_EQ(a.cutoff_radius_m, b.cutoff_radius_m);
  EXPECT_EQ(a.row_offset, b.row_offset);
  EXPECT_EQ(a.nbr, b.nbr);
  EXPECT_EQ(a.shard_of, b.shard_of);
  EXPECT_EQ(a.shards, b.shards);
  EXPECT_EQ(a.border, b.border);
  EXPECT_EQ(a.lookahead_s, b.lookahead_s);
  EXPECT_EQ(a.min_border_m, b.min_border_m);
}

TEST(ShardPlan, MatchesAllPairsReferenceAtAnyJobs) {
  std::size_t border_with_flows = 0;
  std::size_t trimmed = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const PlanCase c = random_plan_case(seed);
    const std::vector<net::Flow>* flows = c.with_flows ? &c.flows : nullptr;
    net::ShardOptions one = c.options;
    one.jobs = 1;
    net::ShardOptions four = c.options;
    four.jobs = 4;
    const net::ShardPlan p1 = net::plan_shards(c.config, c.nodes, one, flows);
    const net::ShardPlan p4 = net::plan_shards(c.config, c.nodes, four, flows);
    expect_same_plan(p1, p4);
    expect_same_plan(p1, reference_plan(c, &trimmed));
    border_with_flows += c.options.border && c.with_flows;
  }
  EXPECT_GE(border_with_flows, 4u);
  // The snapped layouts do reach the radius boundary.
  EXPECT_GT(trimmed, 0u);
}

// Half of each layout moved a million cutoff radii away: the cell box
// is far too sparse to allocate cell by cell, so the grid merges cells.
TEST(ShardPlan, SparseLayoutMatchesAllPairsReference) {
  std::size_t trimmed = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    PlanCase c = random_plan_case(seed);
    c.options.cutoff_margin_db = 15.0;
    const double radius = reference_cutoff(c).radius_m;
    for (std::size_t i = 0; i < c.nodes.size(); i += 2) {
      c.nodes[i].position.x += 1e6 * radius;
      c.nodes[i].position.y -= 3e5 * radius;
    }
    const std::vector<net::Flow>* flows = c.with_flows ? &c.flows : nullptr;
    c.options.jobs = 4;
    expect_same_plan(net::plan_shards(c.config, c.nodes, c.options, flows),
                     reference_plan(c, &trimmed));
  }
}

// --- Shard vs monolith equivalence ----------------------------------

// The monolith is the unbounded plan's single round: simulate_network
// and simulate_network_sharded on that plan agree bitwise, snapshots
// included, at any jobs count (the plan-shape helper runs jobs 1 and 4,
// the reference and simulate_network itself).
TEST(ShardEquivalence, Multibss63BitwiseIdenticalToMonolith) {
  plan_shapes::Scenario s;
  s.config.duration_s = 0.2;
  s.config.payload_bytes = 1000;
  s.config.rts_cts = true;
  s.config.error_model.model = net::RxModel::kPerModel;
  s.config.error_model.shadowing_sigma_db = 4.0;
  s.config.error_model.realizations = 8;
  s.config.rate_control = net::RateControlMode::kArf;
  const Deployment d = multibss63(s.config);
  s.nodes = d.nodes;
  s.flows = d.flows;
  s.seed = 11;
  s.component = false;
  s.unbounded = true;
  const plan_shapes::Runs runs = plan_shapes::expect_plan_shapes_agree(s);
  EXPECT_GT(runs.unbounded.tiled.result.total_delivered, 0u);
}

TEST(ShardEquivalence, HiddenTerminalTriangleBitwiseIdentical) {
  plan_shapes::Scenario s;
  const auto setup = net::make_hidden_terminal_setup(80.0);
  s.nodes = setup.nodes;
  s.flows = setup.flows;
  s.config.duration_s = 0.5;
  s.config.rts_cts = false;
  s.seed = 7;

  // At 80 m spacing every pair stays above the default cutoff, so even
  // the bounded plan is a single shard and must reproduce the monolith
  // bitwise (same root draw, same per-entity streams, same CSR).
  const net::ShardPlan plan =
      net::plan_shards(s.config, s.nodes, net::ShardOptions{});
  ASSERT_EQ(plan.shards.size(), 1u);
  s.border_tile_m = 40.0;
  s.unbounded = true;
  const plan_shapes::Runs runs = plan_shapes::expect_plan_shapes_agree(s);
  plan_shapes::expect_results_bitwise(runs.unbounded.tiled.result,
                                      runs.component.tiled.result);
  EXPECT_EQ(runs.unbounded.tiled.snapshot, runs.component.tiled.snapshot);
  EXPECT_GT(runs.component.tiled.result.data_failures, 0u);
}

/// Two multibss cells 5 km apart: a genuinely multi-shard run.
Deployment two_cells(const net::NetworkConfig& cfg) {
  Deployment d = multibss63(cfg);
  d.nodes.resize(7);  // one BSS: AP + 6 clients
  d.flows.resize(6);
  const std::size_t offset = d.nodes.size();
  Deployment far = d;
  for (net::NodeConfig& n : far.nodes) n.position.x += 5000.0;
  d.nodes.insert(d.nodes.end(), far.nodes.begin(), far.nodes.end());
  for (const net::Flow& f : far.flows) {
    d.flows.push_back({f.source + offset, f.destination + offset});
  }
  return d;
}

TEST(ShardEquivalence, MultiShardRunIsThreadCountInvariant) {
  net::NetworkConfig cfg;
  cfg.duration_s = 0.2;
  cfg.error_model.model = net::RxModel::kPerModel;
  cfg.error_model.shadowing_sigma_db = 4.0;
  cfg.error_model.realizations = 8;
  cfg.lifecycle.enabled = true;
  cfg.airtime = true;
  const Deployment d = two_cells(cfg);

  net::ShardOptions opt;
  {
    const net::ShardPlan plan = net::plan_shards(cfg, d.nodes, opt);
    ASSERT_EQ(plan.shards.size(), 2u);
  }

  obs::Registry reg1;
  cfg.registry = &reg1;
  opt.jobs = 1;
  Rng rng1(3);
  const auto r1 = net::simulate_network_sharded(cfg, d.nodes, d.flows, opt,
                                                rng1);
  obs::Registry reg8;
  cfg.registry = &reg8;
  opt.jobs = 8;
  Rng rng8(3);
  const auto r8 = net::simulate_network_sharded(cfg, d.nodes, d.flows, opt,
                                                rng8);
  plan_shapes::expect_results_bitwise(r1, r8);
  EXPECT_EQ(reg1.snapshot_json(), reg8.snapshot_json());
  EXPECT_EQ(r1.lifecycle.breaches, 0u);
  EXPECT_EQ(r8.lifecycle.breaches, 0u);
}

/// Shard 0 of a two-cell component run against a monolithic run of its
/// members alone under the same caller seed: bitwise equal per flow.
void expect_shard_zero_matches_monolith(const net::NetworkConfig& cfg) {
  const Deployment d = two_cells(cfg);
  const std::size_t cell_nodes = 7;
  const std::size_t cell_flows = 6;

  net::ShardOptions opt;
  Rng rng(99);
  const auto sharded =
      net::simulate_network_sharded(cfg, d.nodes, d.flows, opt, rng);

  // Both calls draw the same root off a Rng(99) and key every stream by
  // global id. Shard 0's members are exactly cell 0, whose global ids
  // are the subset's own indices, so a monolithic run of that subset
  // draws the identical streams and must agree bitwise.
  Rng replay(99);
  const std::vector<net::NodeConfig> sub_nodes(
      d.nodes.begin(), d.nodes.begin() + cell_nodes);
  const std::vector<net::Flow> sub_flows(d.flows.begin(),
                                         d.flows.begin() + cell_flows);
  const auto mono = simulate_network(cfg, sub_nodes, sub_flows, replay);
  for (std::size_t f = 0; f < cell_flows; ++f) {
    EXPECT_EQ(sharded.flows[f].delivered, mono.flows[f].delivered);
    EXPECT_EQ(sharded.flows[f].attempts, mono.flows[f].attempts);
    EXPECT_EQ(sharded.flows[f].throughput_mbps, mono.flows[f].throughput_mbps);
  }
}

TEST(ShardEquivalence, ShardZeroMatchesMonolithOfItsSubset) {
  net::NetworkConfig cfg;
  cfg.duration_s = 0.2;
  expect_shard_zero_matches_monolith(cfg);
}

// The fading pool is a function of the config alone, so the PER model
// keeps the contract: the sweep's pool and the subset monolith's pool
// hold the same realizations, and each engine draws its link indices
// from the same derived stream.
TEST(ShardEquivalence, ShardZeroMatchesMonolithOfItsSubsetPerModel) {
  net::NetworkConfig cfg;
  cfg.duration_s = 0.2;
  cfg.error_model.model = net::RxModel::kPerModel;
  cfg.error_model.shadowing_sigma_db = 4.0;
  cfg.error_model.realizations = 8;
  expect_shard_zero_matches_monolith(cfg);
}

TEST(ShardEquivalence, CrossShardFlowThrows) {
  net::NetworkConfig cfg;
  Deployment d = two_cells(cfg);
  d.flows.push_back({0, 7});  // spans the 5 km gap
  net::ShardOptions opt;
  Rng rng(1);
  EXPECT_THROW(
      net::simulate_network_sharded(cfg, d.nodes, d.flows, opt, rng),
      ContractError);
}

TEST(ShardEquivalence, CrossShardFlowErrorNamesTheFlowAndTheRemedy) {
  net::NetworkConfig cfg;
  Deployment d = two_cells(cfg);
  d.flows.push_back({0, 7});  // flow 12: spans the 5 km gap
  net::ShardOptions opt;
  Rng rng(1);
  try {
    net::simulate_network_sharded(cfg, d.nodes, d.flows, opt, rng);
    FAIL() << "expected ContractError";
  } catch (const ContractError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("flow 12"), std::string::npos) << msg;
    EXPECT_NE(msg.find("0 -> 7"), std::string::npos) << msg;
    EXPECT_NE(msg.find("ShardOptions::border"), std::string::npos) << msg;
  }
}

TEST(ShardedBooks, MergedLedgersLandInGlobalSlots) {
  net::NetworkConfig cfg;
  cfg.duration_s = 0.2;
  cfg.lifecycle.enabled = true;
  cfg.airtime = true;
  const Deployment d = two_cells(cfg);
  obs::Registry reg;
  cfg.registry = &reg;
  net::ShardOptions opt;
  Rng rng(5);
  const auto r = net::simulate_network_sharded(cfg, d.nodes, d.flows, opt,
                                               rng);
  // Global sizing and conservation across both cells.
  ASSERT_EQ(r.flows.size(), d.flows.size());
  ASSERT_EQ(r.airtime.nodes.size(), d.nodes.size());
  ASSERT_EQ(r.lifecycle.ledger.flows.size(), d.flows.size());
  std::uint64_t delivered = 0;
  for (const auto& f : r.flows) delivered += f.delivered;
  EXPECT_EQ(delivered, r.total_delivered);
  EXPECT_GT(delivered, 0u);
  for (std::size_t f = 0; f < d.flows.size(); ++f)
    EXPECT_EQ(r.lifecycle.ledger.flows[f].delivered, r.flows[f].delivered);
  // The merged channel-time partition closes over both shards' channels.
  EXPECT_NEAR(r.airtime.idle_s + r.airtime.busy_s + r.airtime.collision_s,
              r.airtime.duration_s, 1e-9 * r.airtime.duration_s);
  // Per-flow instruments carry global ids: flows 6.. are the far cell.
  EXPECT_NE(reg.find_counter("net.delivered", {{"flow", "7"}}), nullptr);
  EXPECT_NE(reg.find_counter("lifecycle.delivered", {{"flow", "7"}}),
            nullptr);
  EXPECT_NE(reg.find_counter("airtime.node_tx_frames", {{"node", "13"}}),
            nullptr);
  EXPECT_EQ(r.lifecycle.breaches, 0u);
}

// --- Event-bookkeeping regressions ----------------------------------

// Long-churn soak: hours of simulated saturated contention with RTS/CTS
// exercises millions of interference add/subtract pairs. The engine
// asserts (check) that no running sum ever goes negative beyond FP
// rounding, so drift or double-subtraction aborts the run.
TEST(Bookkeeping, LongChurnKeepsInterferenceSumsNonNegative) {
  // 80 m keeps the senders below each other's CS threshold (hidden)
  // while the 40 m sender->receiver hop still clears the SINR threshold.
  const auto setup = net::make_hidden_terminal_setup(80.0);
  net::NetworkConfig cfg;
  cfg.duration_s = 20.0;
  cfg.rts_cts = true;  // CTS/ACK cross-traffic maximizes add/subtract churn
  Rng rng(17);
  const auto r =
      simulate_network(cfg, setup.nodes, setup.flows, rng);
  EXPECT_GT(r.total_delivered, 0u);
  EXPECT_GT(r.data_failures + r.rts_failures, 0u);  // real contention ran
}

TEST(Bookkeeping, ManyOverlappingTransmissionsTearDownCleanly) {
  // Four isolated BSS clusters in one shard-free monolithic run keep
  // several transmissions in flight at once, exercising the slot arena's
  // id-checked teardown (stale handles would trip "transmission
  // bookkeeping lost").
  net::NetworkConfig cfg;
  cfg.duration_s = 1.0;
  Deployment d;
  for (std::size_t c = 0; c < 4; ++c) {
    const Deployment cell = make_grid(1, 0.0, 3, 10.0, 5000.0 * c);
    const std::size_t offset = d.nodes.size();
    d.nodes.insert(d.nodes.end(), cell.nodes.begin(), cell.nodes.end());
    for (const net::Flow& f : cell.flows) {
      d.flows.push_back({f.source + offset, f.destination + offset});
    }
  }
  Rng rng(23);
  const auto r = simulate_network(cfg, d.nodes, d.flows, rng);
  EXPECT_GT(r.total_delivered, 0u);
  for (const auto& f : r.flows) EXPECT_GT(f.delivered, 0u);
}

// --- Batched EESM ----------------------------------------------------

TEST(EesmGrid, MatchesScalarEvaluationAcrossTheTable) {
  Rng rng(31);
  for (const double beta : {0.9, 1.5, 4.0, 11.0}) {
    RVec gains;
    for (std::size_t k = 0; k < 48; ++k) {
      gains.push_back(rng.gaussian(0.0, 6.0));
    }
    RVec means;
    for (double m = -15.0; m <= 50.0; m += 0.5) means.push_back(m);
    RVec grid(means.size());
    eesm_effective_snr_grid_db(gains, beta, means, grid);
    for (std::size_t i = 0; i < means.size(); ++i) {
      RVec snrs;
      for (const double g : gains) snrs.push_back(means[i] + g);
      EXPECT_NEAR(grid[i], eesm_effective_snr_db(snrs, beta), 1e-6)
          << "beta " << beta << " mean " << means[i];
    }
  }
}

TEST(EesmGrid, PerBatchMatchesScalarLookups) {
  net::ErrorModelConfig cfg;
  cfg.model = net::RxModel::kPerModel;
  cfg.realizations = 8;
  Rng rng(41);
  const net::LinkPerModel model(mac::PhyGeneration::kOfdm, 24.0, 1000, cfg,
                                rng);
  std::vector<double> sinr;
  std::vector<std::uint32_t> real;
  Rng draw(42);
  for (std::size_t i = 0; i < 256; ++i) {
    sinr.push_back(-20.0 + 70.0 * draw.uniform());
    real.push_back(
        static_cast<std::uint32_t>(draw.uniform_int(model.realizations())));
  }
  std::vector<double> batch(sinr.size());
  model.per_batch(sinr, real, batch);
  for (std::size_t i = 0; i < sinr.size(); ++i) {
    EXPECT_EQ(batch[i], model.per(sinr[i], real[i])) << i;
  }
}

}  // namespace
}  // namespace wlan
