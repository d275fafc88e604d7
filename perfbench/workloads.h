// wlanbench: inputs, passes and layer probes of the repository benchmark.
//
// Everything here drives the library through its public entry points
// only (core/link.h, phy/*, channel/*, dsp/fft.h, net/shard.h, par/pool.h)
// and times those calls from the outside; nothing adds instrumentation
// inside the library. main.cpp turns these pieces into one timed or
// traced run and prints the result line; README.md explains the
// workloads and the metrics.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/netsim.h"
#include "net/shard.h"
#include "phy/ht.h"

namespace wlanbench {

/// Host facts printed with every result, to flag cross-host comparisons.
struct Host {
  unsigned nproc = 1;
  unsigned lanes = 1;  ///< min(4, nproc): the lanes every pass runs on
  std::string isa;     ///< SIMD ISA the library was compiled for
  std::string compiler;
  std::string build_type;
};
Host detect_host();

enum class Workload { kLink, kCityPer, kCityBorder };
std::optional<Workload> parse_workload(std::string_view name);

/// Checks and seed-determined outputs of one pass. An operation is one
/// runner call (a link cell) or one simulate call; it fails when it
/// throws or its output check fails.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string digest;   ///< seed-determined outputs, one line per group
  double work = 0.0;    ///< packets (link) or simulated node-seconds (city)
  double work_s = 0.0;  ///< wall time of the calls that did `work`
};

/// 64-bit FNV-1a of `text` as 16 hex digits.
std::string fnv1a64_hex(std::string_view text);

// ---------------------------------------------------------------------------
// link: the 802.11a/g ladder through the scalar runner, then 802.11n
// BCC/LDPC through the batched runner.
// ---------------------------------------------------------------------------

struct LinkSweep {
  std::uint64_t seed = 1;
  std::size_t psdu_bytes = 500;
  std::vector<double> ofdm_snrs_db;  ///< AWGN grid, every OFDM MCS
  std::size_t ofdm_packets = 0;      ///< per cell
  std::vector<wlan::phy::HtConfig> ht_configs;
  std::vector<double> ht_snrs_db;    ///< TGn office grid, every HT config
  std::size_t ht_packets = 0;        ///< per cell
  std::size_t ht_batch_lanes = 8;
};
LinkSweep make_link_sweep(std::uint64_t seed);

/// One full sweep. Each cell runs under its own seed-derived Rng, so the
/// per-cell error counts are a pure function of the seed.
Outcome run_link_sweep(const LinkSweep& sweep);

/// Set-up pass: one 1-packet call per OFDM MCS and per HT config (FFT
/// plans, interleavers, LDPC tables, workspace growth).
Outcome run_link_warmup(const LinkSweep& sweep);

// ---------------------------------------------------------------------------
// city-per / city-border: apartment-block cities through plan_shards +
// simulate_network_sharded.
// ---------------------------------------------------------------------------

struct City {
  std::string name;
  std::uint64_t seed = 1;
  wlan::net::NetworkConfig config;  ///< duration_s is the timed duration
  wlan::net::ShardOptions options;
  std::vector<wlan::net::NodeConfig> nodes;
  std::vector<wlan::net::Flow> flows;
  /// Component-mode cities: the shard count the plan must produce.
  std::size_t expect_shards = 0;
  /// Border-mode cities: components of the coupling graph (must be 1).
  std::size_t components = 0;
};

/// 10x10 buildings at 160 m pitch, 3x3 apartments each (3,600 nodes,
/// 2,700 saturated uplinks), under the PER model, component-sharded into
/// 100 shards.
City make_city_per(std::uint64_t seed);

/// `grid` x `grid` buildings at 120 m pitch: one connected component,
/// run as 2x2-building border tiles under the legacy SINR threshold.
City make_city_border(std::uint64_t seed, std::size_t grid,
                      double duration_s);

/// One plan + simulate pass and what it measured.
struct CityPass {
  Outcome outcome;
  wlan::net::NetworkResult result;
  double plan_s = 0.0;
  double simulate_s = 0.0;
  std::size_t shards = 0;
  std::uint64_t events = 0;  ///< registry sim.events_executed
};

/// Plans and simulates `city` for `duration_s` simulated seconds (0 is
/// the set-up pass: engines built, no events). `audit` turns on the
/// frame-lifecycle auditor; a breach fails the operation.
CityPass run_city(const City& city, double duration_s, bool audit);

// ---------------------------------------------------------------------------
// Layer probes: each public layer call timed from the benchmark's side.
// ---------------------------------------------------------------------------

struct LinkLayers {
  double ofdm_link_us = 0.0;    ///< run_ofdm_link per packet, 1 lane
  double ht_link_us = 0.0;      ///< run_ht_link_batched per packet, 1 lane
  double ofdm_tx_us = 0.0;      ///< OfdmPhy::transmit_into
  double ofdm_rx_us = 0.0;      ///< OfdmPhy::receive_into
  double awgn_us = 0.0;         ///< channel::add_awgn_snr on that waveform
  double ht_draw_us = 0.0;      ///< HtPhy::draw_channel
  double viterbi_us = 0.0;      ///< viterbi_decode_into, one 500 B packet
  double ldpc_decode_us = 0.0;  ///< LdpcCode::decode_into, one 648-bit block
  double ldpc_iterations = 0.0; ///< mean returned iterations (seed-set)
  double ht_batch_us = 0.0;     ///< simulate_link_batch_into per packet
  double fft64_ns = 0.0;        ///< dsp::plan_for(64).forward
  /// 1 - (tx + awgn + rx) / ofdm_link: the runner's cost the three
  /// composed layer calls do not explain.
  double unattributed_share() const;
};

/// Times every link-level layer call on seed-derived inputs shaped like
/// the `link` workload. Run it with the default pool at one lane.
LinkLayers probe_link_layers(const LinkSweep& sweep);

struct NetModelLayers {
  double link_model_build_us = 0.0;  ///< LinkPerModel constructor
  double per_lookup_ns = 0.0;        ///< LinkPerModel::per_batch per element
};

/// Times the PER-model dictionary build and lookup at `city`'s config.
NetModelLayers probe_net_model(const City& city);

// ---------------------------------------------------------------------------
// Reported metrics.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Everything one run measured, end to end and per layer.
struct Report {
  double wall_s = 0.0;
  double setup_s = 0.0;
  double work_per_s = 0.0;
  double peak_rss_mb = 0.0;

  LinkLayers link;
  NetModelLayers model;
  double par_utilization = 0.0;
  double par_imbalance = 0.0;
  double par_steal_ratio = 0.0;
  double net_plan_s = 0.0;
  double net_setup_s = 0.0;
  double net_events_s = 0.0;
  double sim_events = 0.0;
  double mac_data_tx = 0.0;
  double mac_data_failure_rate = 0.0;
  double mac_retries_per_tx = 0.0;
  double audit_breaches = 0.0;
  wlan::net::NetworkResult::BorderStats border;
  double trace_overhead_s = 0.0;
};

/// The untraced run's metrics (BENCHMARK.json "end_to_end").
std::vector<Metric> end_to_end_metrics(const Report& report);
/// The traced run's metrics (BENCHMARK.json "per_layer").
std::vector<Metric> per_layer_metrics(const Report& report);

double median(std::vector<double> values);

}  // namespace wlanbench
