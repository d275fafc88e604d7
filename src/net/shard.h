// Spatial sharding for the network simulator.
//
// A city-scale deployment is mostly empty air: at 10k nodes the dense
// gain matrix costs O(n^2) memory (~800 MB) and every medium update
// scans every station, yet a transmitter a kilometre away contributes
// power orders of magnitude below both the carrier-sense threshold and
// the thermal noise floor. `plan_shards` makes that locality explicit:
//
//  1. Cutoff rule. Compute the weakest power level any node could care
//     about — min over nodes of min(cs_threshold_dbm,
//     thermal_noise_dbm(bandwidth, nf)) — and subtract
//     `cutoff_margin_db`. A pair of nodes is *coupled* when either
//     direction's deterministic received power (tx power minus dual-
//     slope path loss, before shadowing) still clears that cutoff.
//     Everything below it is treated as exactly zero. A pair is first
//     rejected by distance alone: when its computed squared distance
//     exceeds the squared cutoff radius, it is uncoupled, even if only
//     rounding puts it past the radius and its power would still clear
//     the cutoff. Such a pair lies at the radius, about
//     `cutoff_margin_db` under the weakest threshold.
//  2. Tiling. One counting sort bins the nodes into a flat grid of
//     square cells over their bounding box. The cell edge is the cutoff
//     radius (the distance at which the strongest transmitter decays
//     to the cutoff), so candidate pairs come from the 3x3 cell
//     neighbourhood — O(n * degree) instead of O(n^2).
//  3. Neighbor lists. The retained pairs form a symmetric CSR
//     adjacency (ascending per row). Chunks of rows are built in
//     parallel on the pool `ShardOptions::jobs` selects and laid out by
//     a prefix sum of row lengths; each row depends on the geometry
//     alone and is sorted, so the plan is identical at any `jobs`. The
//     engine stores gains only for these edges.
//  4. Shards. Connected components of the coupling graph. Two nodes in
//     different components cannot exchange any above-cutoff power, so
//     each component simulates independently: private event queue,
//     private obs::Registry — merged in shard order, bitwise
//     identically for any worker count. Randomness is per entity, not
//     per shard: every node, flow and pair draws from a stream derived
//     from one root and keyed by its global id, so a component plan is
//     a border plan with no cross-tile edges.
//
// `cutoff_margin_db = +infinity` disables the cutoff: every pair is
// coupled, the plan is one shard, and the engine reproduces the
// monolithic simulation exactly — `simulate_network` itself runs on
// that degenerate plan.
//
// Border mode (`ShardOptions::border`) handles the case components
// cannot: one giant connected deployment. Instead of components, nodes
// are tiled into uniform spatial shards whose coupling edges may cross
// tile boundaries. Per-tile engines then run in conservative-time
// lockstep epochs of length `ShardPlan::lookahead_s`, exchanging
// cross-tile influence (ambient power, NAV, interference) through
// border messages applied one epoch later in a canonical order — see
// DESIGN.md "Border exchange & conservative time". The lookahead is the
// minimum cross-border reaction time of a NAV/interference change: one
// slot (the fastest a station can act on new channel state) plus the
// shortest cross-tile coupled distance over the speed of light, rounded
// down to a power of two so epoch boundaries are exact doubles.
#pragma once

#include <cstdint>
#include <vector>

#include "net/netsim.h"

namespace wlan::net {

/// Knobs for `plan_shards` / `simulate_network_sharded`.
struct ShardOptions {
  /// Safety margin below the weakest relevant threshold (carrier sense
  /// or noise floor) before a pair is declared uncoupled. Must cover
  /// the largest plausible shadowing upside (3-4 sigma). +infinity
  /// keeps every pair (monolithic plan).
  double cutoff_margin_db = 15.0;
  /// Worker lanes for the plan's row build, the engines and the call's
  /// fading pool; 0 = the process default pool.
  unsigned jobs = 0;

  /// Border mode: shard by uniform spatial tiles instead of connected
  /// components and run per-tile engines in conservative-time lockstep
  /// epochs with cross-tile influence delayed by the plan's lookahead.
  bool border = false;
  /// Border tile edge length in metres; 0 = the cutoff radius (requires
  /// a finite cutoff).
  double border_tile_m = 0.0;
  /// Override for the cross-tile influence delay; 0 = derive it from
  /// slot time + minimum cross-tile coupled distance. Either way the
  /// value is rounded down to a power of two seconds.
  double border_delay_s = 0.0;
  /// Run the plan on one engine over every node instead of one engine
  /// per shard: same per-entity RNG streams, same CSR, and for a border
  /// plan the same delayed cross-tile influence, looped back locally.
  /// Accepts any plan shape; the reference for bitwise-equivalence
  /// tests.
  bool border_reference = false;
};

/// The precomputed coupling structure of a deployment.
struct ShardPlan {
  /// Received power below this is treated as zero (-inf when the
  /// cutoff is disabled).
  double cutoff_rx_dbm = 0.0;
  /// Distance at which the strongest transmitter decays to the cutoff
  /// (+inf when disabled).
  double cutoff_radius_m = 0.0;

  /// Symmetric CSR adjacency over retained pairs: row i spans
  /// nbr[row_offset[i] .. row_offset[i+1]), ascending, i excluded.
  std::vector<std::size_t> row_offset;
  std::vector<std::uint32_t> nbr;

  /// Component id per node; components are numbered by their smallest
  /// member node, ascending.
  std::vector<std::uint32_t> shard_of;
  /// Member nodes per shard, ascending within each shard.
  std::vector<std::vector<std::uint32_t>> shards;

  /// True when the plan shards by spatial tiles for border exchange.
  bool border = false;
  /// Conservative-time epoch length (s); 0 in component mode.
  double lookahead_s = 0.0;
  /// Shortest cross-tile coupled distance found (m); 0 when none.
  double min_border_m = 0.0;

  std::size_t degree(std::size_t i) const {
    return row_offset[i + 1] - row_offset[i];
  }
  std::size_t n_edges() const { return nbr.size(); }
  double mean_degree() const {
    return row_offset.empty() || row_offset.size() == 1
               ? 0.0
               : static_cast<double>(nbr.size()) /
                     static_cast<double>(row_offset.size() - 1);
  }
  std::size_t max_degree() const {
    std::size_t m = 0;
    for (std::size_t i = 0; i + 1 < row_offset.size(); ++i)
      m = std::max(m, degree(i));
    return m;
  }
};

/// Builds the coupling plan for a deployment (no RNG, pure geometry).
/// `flows` matters only in border mode, where it clusters each flow's
/// endpoints into one tile (every node of a flow-connected cluster
/// adopts the tile of its smallest member), guaranteeing flows never
/// span tiles.
ShardPlan plan_shards(const NetworkConfig& config,
                      const std::vector<NodeConfig>& nodes,
                      const ShardOptions& options,
                      const std::vector<Flow>* flows = nullptr);

/// Runs the network sharded: plans (unless `plan` is supplied), checks
/// every flow's endpoints share a shard (throws ContractError
/// otherwise — widen `cutoff_margin_db` or enable `options.border`),
/// then runs one engine per shard on the worker pool, each with a
/// private registry, and merges results, registries (into
/// `config.registry`), airtime and lifecycle books in shard order.
/// Component shards run one round; border tiles run conservative-time
/// lockstep epochs (see the header comment). A single-shard plan runs
/// one engine on the caller's registry and sink.
///
/// Caller-stream contract: every plan shape advances `rng` by exactly
/// one `next_u64()`, the root of the per-entity streams (see
/// `simulate_network`). So the unbounded plan is bitwise
/// `simulate_network`, and every plan is bitwise identical at any
/// `options.jobs` and to its one-engine reference
/// (`options.border_reference`).
NetworkResult simulate_network_sharded(const NetworkConfig& config,
                                       const std::vector<NodeConfig>& nodes,
                                       const std::vector<Flow>& flows,
                                       const ShardOptions& options, Rng& rng,
                                       const ShardPlan* plan = nullptr);

}  // namespace wlan::net
