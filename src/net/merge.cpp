#include "net/merge.h"

#include <algorithm>
#include <string>

namespace wlan::net::detail {
namespace {

/// Folds one shard's airtime ledger into the global report. Channel
/// seconds sum — the merged report describes `n_shards` independent
/// channels, so duration_s grows with each shard and the
/// idle+busy+collision partition still closes against it. Node entries
/// land in their global slots.
void merge_airtime(obs::AirtimeReport& into, const obs::AirtimeReport& part,
                   const std::vector<std::size_t>& node_ids,
                   std::size_t n_nodes) {
  if (into.nodes.empty()) into.nodes.resize(n_nodes);
  into.duration_s += part.duration_s;
  into.idle_s += part.idle_s;
  into.busy_s += part.busy_s;
  into.collision_s += part.collision_s;
  for (std::size_t n = 0; n < part.nodes.size(); ++n)
    into.nodes[node_ids[n]] = part.nodes[n];
}

/// Folds one shard's lifecycle books into the global result: ledger
/// flows land in their global slots and totals sum; series windows sum
/// (collision_rate accumulates here and is averaged by the caller);
/// breach messages are prefixed with their shard.
void merge_lifecycle(NetworkResult::LifecycleResult& into,
                     const NetworkResult::LifecycleResult& part,
                     const std::vector<std::size_t>& flow_ids,
                     std::size_t n_flows, std::size_t shard) {
  obs::LifecycleReport& ledger = into.ledger;
  if (ledger.flows.empty()) ledger.flows.resize(n_flows);
  ledger.duration_s = std::max(ledger.duration_s, part.ledger.duration_s);
  for (std::size_t f = 0; f < part.ledger.flows.size(); ++f)
    ledger.flows[flow_ids[f]] = part.ledger.flows[f];
  ledger.total.accumulate(part.ledger.total);
  ledger.delivered += part.ledger.delivered;
  ledger.dropped += part.ledger.dropped;
  ledger.in_flight += part.ledger.in_flight;

  obs::LifecycleSeries& series = into.series;
  if (series.window_s == 0.0) series.window_s = part.series.window_s;
  const std::size_t n = part.series.t_s.size();
  if (series.t_s.size() < n) {
    series.t_s = part.series.t_s;
    series.goodput_mbps.resize(n, 0.0);
    series.collision_rate.resize(n, 0.0);
    series.in_flight.resize(n, 0.0);
  }
  for (std::size_t w = 0; w < n; ++w) {
    series.goodput_mbps[w] += part.series.goodput_mbps[w];
    series.collision_rate[w] += part.series.collision_rate[w];
    series.in_flight[w] += part.series.in_flight[w];
  }
  series.warmup_windows =
      std::max(series.warmup_windows, part.series.warmup_windows);

  into.breaches += part.breaches;
  for (const std::string& m : part.breach_messages)
    into.breach_messages.push_back("shard " + std::to_string(shard) + ": " +
                                   m);
  if (into.flight_recorder_json.empty())
    into.flight_recorder_json = part.flight_recorder_json;
}

}  // namespace

NetworkResult merge_shard_outputs(const NetworkConfig& config,
                                  std::size_t n_nodes, std::size_t n_flows,
                                  const std::vector<ShardOutput>& outputs) {
  const std::size_t n_shards = outputs.size();
  NetworkResult total;
  total.flows.resize(n_flows);
  for (std::size_t s = 0; s < n_shards; ++s) {
    const ShardOutput& out = outputs[s];
    const NetworkResult& r = out.result;
    for (std::size_t i = 0; i < out.flow_ids.size(); ++i)
      total.flows[out.flow_ids[i]] = r.flows[i];
    total.total_delivered += r.total_delivered;
    total.data_tx_count += r.data_tx_count;
    total.data_failures += r.data_failures;
    total.rts_tx_count += r.rts_tx_count;
    total.rts_failures += r.rts_failures;
    total.simultaneous_starts += r.simultaneous_starts;
    if (config.airtime) {
      merge_airtime(total.airtime, r.airtime, out.node_ids, n_nodes);
    }
    if (config.lifecycle.enabled) {
      merge_lifecycle(total.lifecycle, r.lifecycle, out.flow_ids, n_flows, s);
    }
    if (config.registry) config.registry->merge(*out.registry);
  }
  // Summed in global flow order — the exact FP order a fused engine
  // over the same nodes uses, so border mode matches its reference
  // bitwise (per-shard partial sums would differ in the low bits).
  for (const FlowStats& fs : total.flows)
    total.aggregate_throughput_mbps += fs.throughput_mbps;
  if (config.lifecycle.enabled) {
    // collision_rate accumulated per-shard rates; report the mean. The
    // stationarity hint is recomputed over the merged goodput series.
    obs::LifecycleSeries& series = total.lifecycle.series;
    for (double& c : series.collision_rate)
      c /= static_cast<double>(n_shards);
    const std::size_t n = series.goodput_mbps.size();
    if (n >= 2) {
      const std::size_t half = n / 2;
      double first = 0.0;
      double second = 0.0;
      for (std::size_t w = 0; w < half; ++w) first += series.goodput_mbps[w];
      for (std::size_t w = half; w < n; ++w) second += series.goodput_mbps[w];
      first /= static_cast<double>(half);
      second /= static_cast<double>(n - half);
      series.stationarity_ratio = first > 0.0 ? second / first : 1.0;
    }
  }
  return total;
}

}  // namespace wlan::net::detail
