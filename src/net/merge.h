// Merges the outputs of a multi-engine netsim run (internal to the net
// library).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "net/netsim.h"
#include "obs/metrics.h"

namespace wlan::net::detail {

/// One shard engine's complete output, ready for shard-order assembly.
struct ShardOutput {
  NetworkResult result;
  std::unique_ptr<obs::Registry> registry;
  std::vector<std::size_t> node_ids;
  std::vector<std::size_t> flow_ids;
};

/// Shard-order assembly of a multi-engine run: scalar sums, global
/// slot placement for per-flow stats, registry merge (merge order — not
/// thread schedule — defines gauges and instrument creation order).
NetworkResult merge_shard_outputs(const NetworkConfig& config,
                                  std::size_t n_nodes, std::size_t n_flows,
                                  const std::vector<ShardOutput>& outputs);

}  // namespace wlan::net::detail
