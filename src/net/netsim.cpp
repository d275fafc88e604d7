#include "net/netsim.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/units.h"
#include "mac/frames.h"
#include "mac/rate_adapt.h"
#include "net/shard.h"
#include "obs/perf.h"
#include "par/montecarlo.h"
#include "par/pool.h"
#include "phy/ofdm.h"
#include "sim/scheduler.h"
#include "sim/stats.h"

namespace wlan::net {
namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
constexpr std::uint32_t kNil = 0xFFFFFFFFu;

const char* frame_name(mac::FrameType kind) {
  switch (kind) {
    case mac::FrameType::kData: return "DATA";
    case mac::FrameType::kAck: return "ACK";
    case mac::FrameType::kRts: return "RTS";
    case mac::FrameType::kCts: return "CTS";
    case mac::FrameType::kBeacon: return "BEACON";
  }
  return "?";
}

struct Transmission {
  std::size_t id = 0;
  std::size_t tx_node = kNone;  // local (shard) index
  std::size_t dest = kNone;     // addressed node (kNone for none)
  mac::FrameType kind = mac::FrameType::kData;
  std::size_t flow = kNone;    // local flow index
  std::size_t rate_index = 0;  // data-rate ladder index (kData only)
  double start_s = 0.0;
  double end_s = 0.0;
  double nav_until_s = 0.0;  // what the duration field promises
  // Reception tracking at the addressed node.
  double current_interference_w = 0.0;
  double worst_interference_w = 0.0;
  bool rx_was_transmitting = false;
  // Slot-arena bookkeeping: insertion-order intrusive list, so walks
  // see transmissions oldest-first and teardown is O(1) by slot handle.
  bool in_use = false;
  std::uint32_t prev = kNil;
  std::uint32_t next = kNil;
};

enum class WaitKind { kNone, kCts, kAck };

// ---- border exchange (conservative time) ----
//
// Zero propagation delay makes the true lookahead of this model zero,
// so border mode *defines* cross-tile influence — ambient power, NAV,
// interference on ongoing receptions — to act exactly `delay_s` (the
// plan's lookahead) after the transmission event that caused it, while
// intra-tile influence stays immediate. That uniform delay is part of
// the model's semantics, not an approximation knob: the fused reference
// (one engine over every tile, same delayed records) and the per-tile
// lockstep run implement the *same* model and agree bitwise.

/// One transmission's influence on one neighboring tile. Emitted at TX
/// start (the end time is already determined then), routed between
/// epochs, expanded by the receiver into a start record applied at
/// `start_s + delay` and an end record at `(start_s + duration_s) +
/// delay` — the identical floating-point expressions the fused engine
/// evaluates, so both modes schedule the identical apply times.
struct BorderMsg {
  std::uint32_t origin = 0;       // global node id of the transmitter
  std::uint32_t target_tile = 0;  // shard the influence lands in
  double start_s = 0.0;
  double duration_s = 0.0;
  double nav_until_s = 0.0;
};

/// Subtracts an interferer's power from a running sum. Incremental
/// add/subtract leaves rounding residues, so the result can dip below
/// zero legitimately — but only by an amount set by machine epsilon and
/// the scales involved: relative to the term just removed, or to the
/// sum's running peak (a 1e-30 W remote signal folded into a 1e-6 W sum
/// is absorbed entirely by rounding, so removing it can undershoot by
/// ~eps * peak, far more than any multiple of the term itself).
/// Anything beyond that slack means double-subtraction — a bookkeeping
/// bug — and aborts; the legitimate residue clamps to exactly zero.
void subtract_clamped(double& sum_w, double term_w, double peak_w,
                      const char* what) {
  sum_w -= term_w;
  if (sum_w < 0.0) {
    check(sum_w >= -(1e-9 * term_w + 1e-12 * peak_w), what);
    sum_w = 0.0;
  }
}

/// Data-rate ladder: one fixed rate, or the eight OFDM rates for ARF.
std::vector<double> data_rate_ladder(const NetworkConfig& config) {
  if (config.rate_control != RateControlMode::kArf)
    return {config.data_rate_mbps};
  check(config.error_model.model == RxModel::kPerModel,
        "ARF rate control requires the PER error model");
  check(config.generation == mac::PhyGeneration::kOfdm,
        "ARF rate control is implemented for the OFDM generation");
  std::vector<double> rates;
  for (std::size_t i = 0; i < 8; ++i) {
    rates.push_back(
        phy::ofdm_mcs_info(static_cast<phy::OfdmMcs>(i)).data_rate_mbps);
  }
  return rates;
}

/// PER tables the network's frames read, in a fixed layout: data frames
/// at each ladder rate, then RTS, then CTS/ACK. Control frames ride the
/// basic rate; an HT network still sends them as legacy OFDM.
std::vector<PerTableKey> per_table_keys(const NetworkConfig& config) {
  const std::size_t data_mpdu =
      mac::mpdu_size_bytes(mac::FrameType::kData, config.payload_bytes);
  std::vector<PerTableKey> keys;
  for (const double rate : data_rate_ladder(config))
    keys.push_back({config.generation, rate, data_mpdu});
  const mac::PhyGeneration ctrl_gen =
      config.generation == mac::PhyGeneration::kHt ? mac::PhyGeneration::kOfdm
                                                   : config.generation;
  keys.push_back({ctrl_gen, config.basic_rate_mbps, mac::kRtsBytes});
  keys.push_back({ctrl_gen, config.basic_rate_mbps, mac::kAckBytes});
  return keys;
}

/// One shard's simulation: a self-contained event engine over the
/// shard's member nodes, indexed locally (0..n-1). The monolithic
/// `simulate_network` runs the same engine on the single shard of an
/// unbounded plan, so sharded and monolithic execution share every
/// instruction of the hot path — shard-vs-monolith equivalence is by
/// construction, not by parallel maintenance of two code paths.
///
/// Station state is structure-of-arrays: the medium walk touches
/// transmitting/nav/ambient/busy_prev for a handful of neighbors per
/// event, and parallel arrays keep those lines dense instead of
/// striding over cold per-station protocol state.
class Engine {
 public:
  /// A pending cross-tile influence record. Declared up top so
  /// member-function parameter lists can name it.
  struct InfluenceRec {
    std::uint32_t origin;     // global node id of the transmitter
    std::uint32_t tile;       // target tile (sort key; fused spans many)
    std::uint8_t kind;        // 0 = start, 1 = end
    double nav_until_s;       // end records carry the duration promise
  };

  /// Simulates shard `shard` of `plan`, or every node when `shard` is
  /// kNone (the one-engine reference). All randomness comes from
  /// per-entity streams derived from `root` and keyed by global ids —
  /// per-node MAC backoff (1) and reception (2), per-flow arrivals (3)
  /// and fading-pool indices (5), per-pair shadowing (4) — so the draw
  /// sequence does not depend on how the nodes are split into engines.
  Engine(const NetworkConfig& config, const std::vector<NodeConfig>& nodes,
         const std::vector<Flow>& flows, const ShardPlan& plan,
         std::size_t shard, std::uint64_t root, const FadingPool* pool,
         obs::Registry* registry, obs::TraceSink* trace)
      : config_(config),
        // Disjoint frame ids per shard in a merged trace.
        frame_id_base_(shard == kNone ? 0 : std::uint64_t{shard} << 40),
        fused_(shard == kNone),
        delay_s_(plan.lookahead_s) {
    timing_ = mac::mac_timing(config.generation);
    per_model_ = config.error_model.model == RxModel::kPerModel;
    n_tiles_ = plan.shards.size();
    std::vector<std::uint32_t> fused_members;
    if (fused_) {
      fused_members.resize(nodes.size());
      std::iota(fused_members.begin(), fused_members.end(), 0u);
    }
    const std::vector<std::uint32_t>& members =
        fused_ ? fused_members : plan.shards[shard];
    n_ = members.size();
    node_id_.assign(members.begin(), members.end());
    std::vector<std::uint32_t> g2l(nodes.size(), kNil);
    for (std::size_t l = 0; l < n_; ++l)
      g2l[members[l]] = static_cast<std::uint32_t>(l);

    noise_w_.resize(n_);
    cs_w_.resize(n_);
    for (std::size_t l = 0; l < n_; ++l) {
      const NodeConfig& node = nodes[node_id_[l]];
      noise_w_[l] = dbm_to_watt(
          thermal_noise_dbm(config.bandwidth_hz, node.noise_figure_db));
      cs_w_[l] = dbm_to_watt(node.cs_threshold_dbm);
    }

    // Neighbor CSR with deterministic received powers per edge — the
    // sparse replacement for the dense gain matrix. It keeps only
    // same-shard edges, so rx_power_w is exactly zero across tiles;
    // cross-tile power arrives solely through delayed influence
    // records, built from the cross tables below. A component plan has
    // no cross-tile edges, so its tables stay empty. Shadowing factors
    // come from per-pair streams keyed by global ids (large-scale
    // fading is reciprocal), so every engine layout computes the
    // identical factor.
    const std::uint64_t shadow_root = par::derive_seed(root, 4, 0);
    const bool shadowed =
        per_model_ && config.error_model.shadowing_sigma_db > 0.0;
    auto pair_factor = [&](std::uint32_t a, std::uint32_t b) {
      if (!shadowed) return 1.0;
      if (b < a) std::swap(a, b);
      Rng pr(par::derive_seed(shadow_root, a, b));
      return db_to_lin(
          -pr.gaussian(0.0, config.error_model.shadowing_sigma_db));
    };
    auto gain_w = [&](std::uint32_t from_g, std::uint32_t to_g) {
      const double d = std::max(
          mesh::distance(nodes[from_g].position, nodes[to_g].position), 0.5);
      return dbm_to_watt(nodes[from_g].tx_power_dbm -
                         config.pathloss.path_loss_db(d)) *
             pair_factor(from_g, to_g);
    };
    row_off_.assign(n_ + 1, 0);
    out_off_.assign(n_ + 1, 0);
    std::unordered_map<std::uint64_t,
                       std::vector<std::pair<std::uint32_t, double>>>
        inbound_rows;
    std::vector<std::uint32_t> out_scratch;
    for (std::size_t l = 0; l < n_; ++l) {
      row_off_[l] = row_nbr_.size();
      out_off_[l] = out_tile_.size();
      const std::size_t g = node_id_[l];
      const std::uint32_t my_tile = plan.shard_of[g];
      out_scratch.clear();
      for (std::size_t e = plan.row_offset[g]; e < plan.row_offset[g + 1];
           ++e) {
        const std::uint32_t nbr_g = plan.nbr[e];
        const std::uint32_t nbr_tile = plan.shard_of[nbr_g];
        if (nbr_tile == my_tile) {
          const std::uint32_t nbr_l = g2l[nbr_g];
          check(nbr_l != kNil, "same-tile neighbor missing locally");
          row_nbr_.push_back(nbr_l);
          row_gain_.push_back(gain_w(static_cast<std::uint32_t>(g), nbr_g));
        } else {
          // Outbound: l's transmissions influence nbr_tile. Inbound:
          // nbr_g's transmissions deposit power at l (ascending l per
          // origin because the outer loop ascends).
          out_scratch.push_back(nbr_tile);
          inbound_rows[static_cast<std::uint64_t>(nbr_g) * n_tiles_ +
                       my_tile]
              .emplace_back(static_cast<std::uint32_t>(l),
                            gain_w(nbr_g, static_cast<std::uint32_t>(g)));
        }
      }
      std::sort(out_scratch.begin(), out_scratch.end());
      out_scratch.erase(std::unique(out_scratch.begin(), out_scratch.end()),
                        out_scratch.end());
      out_tile_.insert(out_tile_.end(), out_scratch.begin(),
                       out_scratch.end());
    }
    row_off_[n_] = row_nbr_.size();
    out_off_[n_] = out_tile_.size();
    peer_tiles_ = out_tile_;
    std::sort(peer_tiles_.begin(), peer_tiles_.end());
    peer_tiles_.erase(std::unique(peer_tiles_.begin(), peer_tiles_.end()),
                      peer_tiles_.end());
    inbound_flat_.reserve(inbound_rows.size());
    for (auto& [key, row] : inbound_rows) {
      inbound_[key] = Span{inbound_flat_.size(), row.size()};
      inbound_flat_.insert(inbound_flat_.end(), row.begin(), row.end());
    }
    mac_rng_.reserve(n_);
    rx_rng_.reserve(n_);
    for (std::size_t l = 0; l < n_; ++l) {
      mac_rng_.emplace_back(par::derive_seed(root, 1, node_id_[l]));
      rx_rng_.emplace_back(par::derive_seed(root, 2, node_id_[l]));
    }

    // Station state (SoA) and the shard's flows, ascending by global
    // flow index so local order is a subsequence of the global order.
    flow_of_.assign(n_, kNone);
    dest_of_.assign(n_, kNone);
    saturated_.assign(n_, 1);
    queue_.resize(n_);
    cw_.assign(n_, timing_.cw_min);
    retries_count_.assign(n_, 0);
    slots_remaining_.assign(n_, 0);
    counting_.assign(n_, 0);
    count_start_s_.assign(n_, 0.0);
    timer_version_.assign(n_, 0);
    busy_prev_.assign(n_, 0);
    nav_until_.assign(n_, 0.0);
    nav_armed_.assign(n_, 0);
    ambient_w_.assign(n_, 0.0);
    ambient_peak_w_.assign(n_, 0.0);
    transmitting_.assign(n_, 0);
    waiting_.assign(n_, WaitKind::kNone);
    wait_version_.assign(n_, 0);
    sequence_.assign(n_, 0);
    rate_index_.assign(n_, 0);
    arf_.resize(n_);
    for (std::size_t f = 0; f < flows.size(); ++f) {
      const std::uint32_t src = g2l[flows[f].source];
      if (src == kNil) continue;
      const std::uint32_t dst = g2l[flows[f].destination];
      check(dst != kNil, "flow endpoints fall in different shards");
      check(flow_of_[src] == kNone, "each node may source at most one flow");
      const std::size_t lf = flow_id_.size();
      flow_id_.push_back(f);
      flow_src_.push_back(src);
      arrival_rate_.push_back(flows[f].arrival_rate_pps);
      flow_of_[src] = lf;
      dest_of_[src] = dst;
      cw_[src] = timing_.cw_min;
      slots_remaining_[src] = draw_backoff(src);
      saturated_[src] = flows[f].arrival_rate_pps <= 0.0 ? 1 : 0;
    }
    n_flows_ = flow_id_.size();
    result_.flows.resize(n_flows_);
    arrival_rng_.reserve(n_flows_);
    for (std::size_t f = 0; f < n_flows_; ++f)
      arrival_rng_.emplace_back(par::derive_seed(root, 3, flow_id_[f]));

    // All counters live in a metrics registry (the caller's, if given);
    // NetworkResult is populated from it after the run. Per-flow labels
    // carry GLOBAL flow ids, so shard registries hold disjoint per-flow
    // instruments and merge into the same names a monolithic run uses.
    registry_ = registry ? registry : &local_registry_;
    trace_ = trace;
    if (config.airtime) {
      obs::AirtimeAccountant::Config ac;
      ac.n_nodes = n_;
      ac.n_flows = n_flows_;
      ac.window_s = config.airtime_window_s;
      ac.payload_bits = static_cast<double>(config.payload_bytes) * 8.0;
      ac.node_ids = node_id_;
      ac.flow_ids = flow_id_;
      airtime_ = std::make_unique<obs::AirtimeAccountant>(ac);
    }
    if (config.lifecycle.enabled) {
      obs::FrameLedger::Config lc;
      lc.n_flows = n_flows_;
      lc.hist_lo = config.lifecycle.hist_lo_s;
      lc.hist_hi = config.lifecycle.hist_hi_s;
      lc.hist_bins = config.lifecycle.hist_bins;
      lc.registry = registry_;
      lc.flow_ids = flow_id_;
      ledger_ = std::make_unique<obs::FrameLedger>(lc);
      obs::TimeSeriesSampler::Config sc;
      sc.n_flows = n_flows_;
      sc.window_s = config.lifecycle.sample_window_s;
      sc.payload_bits = static_cast<double>(config.payload_bytes) * 8.0;
      sampler_ = std::make_unique<obs::TimeSeriesSampler>(sc);
      if (config.lifecycle.audit) {
        obs::InvariantAuditor::Config auc;
        auc.n_nodes = n_;
        auc.n_flows = n_flows_;
        auc.flight_recorder_capacity =
            config.lifecycle.flight_recorder_capacity;
        auc.dump_path = config.lifecycle.flight_recorder_path;
        if (!auc.dump_path.empty() && !fused_ && plan.shards.size() > 1)
          auc.dump_path += ".shard" + std::to_string(shard);
        auditor_ = std::make_unique<obs::InvariantAuditor>(auc);
        // Created up front so every shard registry has the same entries.
        breaches_counter_ = &registry_->counter("lifecycle.breaches");
      }
    }
    sched_.bind_metrics(*registry_);
    data_tx_ = &registry_->counter("net.data_tx");
    data_failures_ = &registry_->counter("net.data_failures");
    rts_tx_ = &registry_->counter("net.rts_tx");
    rts_failures_ = &registry_->counter("net.rts_failures");
    simultaneous_starts_ = &registry_->counter("net.simultaneous_starts");
    if (plan.border) {
      // One count per (transmission, influenced tile); emitted at the
      // same TX-start instants in fused and per-tile runs, so totals
      // agree across modes and snapshots agree across --jobs.
      border_msgs_ = &registry_->counter("net.border.msgs");
    }
    for (std::size_t f = 0; f < n_flows_; ++f) {
      const std::vector<obs::Label> label{
          {"flow", std::to_string(flow_id_[f])}};
      delivered_.push_back(&registry_->counter("net.delivered", label));
      attempts_.push_back(&registry_->counter("net.attempts", label));
      retries_.push_back(&registry_->counter("net.retries", label));
      drops_.push_back(&registry_->counter("net.drops", label));
      // Queueing delays: 1 us .. 100 s, 8 bins/decade.
      delay_hist_.push_back(
          &registry_->histogram("net.flow_delay_s", 1e-6, 100.0, 64, label));
    }

    data_rates_ = data_rate_ladder(config);
    if (config.rate_control == RateControlMode::kArf) {
      for (std::size_t f = 0; f < n_flows_; ++f) {
        const std::uint32_t src = flow_src_[f];
        arf_[src].emplace(data_rates_.size());
        rate_index_[src] = arf_[src]->current();
      }
    }

    // Frame airtimes.
    const std::size_t data_mpdu =
        mac::mpdu_size_bytes(mac::FrameType::kData, config.payload_bytes);
    for (const double rate : data_rates_) {
      t_data_by_rate_.push_back(
          mac::data_ppdu_duration_s(config.generation, rate, data_mpdu));
    }
    t_ack_ = mac::control_duration_s(config.generation, mac::kAckBytes,
                                     config.basic_rate_mbps);
    t_rts_ = mac::control_duration_s(config.generation, mac::kRtsBytes,
                                     config.basic_rate_mbps);
    t_cts_ = mac::control_duration_s(config.generation, mac::kCtsBytes,
                                     config.basic_rate_mbps);

    // PER-model links: each flow draws its realization indices into the
    // call's shared pool from its own stream (data rates, then RTS, then
    // CTS/ACK), so every engine layout picks identical realizations.
    rate_stats_.resize(n_flows_);
    if (per_model_) {
      check(pool != nullptr, "the PER model needs the call's fading pool");
      const std::vector<PerTableKey> keys = per_table_keys(config);
      const std::size_t n_rates = data_rates_.size();
      models_.reserve(n_flows_);
      const std::uint64_t flow_root = par::derive_seed(root, 5, 0);
      for (std::size_t f = 0; f < n_flows_; ++f) {
        Rng mrng(par::derive_seed(flow_root, flow_id_[f], 0));
        FlowErrorModels m;
        m.data.reserve(n_rates);
        for (std::size_t r = 0; r < n_rates; ++r)
          m.data.push_back(pool->link(keys[r], mrng));
        m.ctrl_fwd = pool->link(keys[n_rates], mrng);
        m.ctrl_rev = pool->link(keys[n_rates + 1], mrng);
        models_.push_back(std::move(m));
      }
    }
  }

  /// Global flow index per local flow (ascending).
  const std::vector<std::size_t>& flow_ids() const { return flow_id_; }
  /// Global node index per local node (ascending).
  const std::vector<std::size_t>& node_ids() const { return node_id_; }

  // ---- driver surface (run_plan composes these phases for every plan) ----

  /// Seeds arrivals and initial countdowns without running the clock.
  void start() {
    // Poisson arrival processes for non-saturated flows.
    for (std::size_t f = 0; f < n_flows_; ++f) {
      if (arrival_rate_[f] > 0.0) {
        schedule_arrival(flow_src_[f], arrival_rate_[f]);
      }
    }
    for (std::size_t n = 0; n < n_; ++n) {
      maybe_start_countdown(n);
    }
  }

  /// Runs events strictly before `t` (one epoch's private horizon).
  std::size_t run_before(double t) { return sched_.run_before(t); }
  /// Runs the final, inclusive round up to `t`.
  std::size_t run_final(double t) { return sched_.run_until(t); }
  /// Earliest pending event (+inf when drained); for epoch skipping.
  double next_time() const { return sched_.next_time(); }
  /// Border messages generated since the last drain (epoch driver only).
  std::vector<BorderMsg>& outbox() { return outbox_; }
  /// Tiles coupled to this one, ascending. Coupling is symmetric, so
  /// these are both the tiles its messages go to and the only tiles
  /// whose messages can target it.
  const std::vector<std::uint32_t>& peer_tiles() const { return peer_tiles_; }

  /// Expands a routed border message into its start/end records. Called
  /// by the epoch driver at the start of the engine's next round; the
  /// apply times land at or after that round's epoch boundary by the
  /// lookahead's power-of-two rounding guarantee, so they are always in
  /// this engine's future.
  void inject_border(const BorderMsg& msg) {
    add_influence(msg.start_s + delay_s_,
                  InfluenceRec{msg.origin, msg.target_tile, 0, 0.0});
    add_influence((msg.start_s + msg.duration_s) + delay_s_,
                  InfluenceRec{msg.origin, msg.target_tile, 1,
                               msg.nav_until_s});
  }

  NetworkResult finalize() {
    // Populate the result struct from the registry.
    result_.data_tx_count = data_tx_->value();
    result_.data_failures = data_failures_->value();
    result_.rts_tx_count = rts_tx_->value();
    result_.rts_failures = rts_failures_->value();
    result_.simultaneous_starts = simultaneous_starts_->value();
    for (std::size_t f = 0; f < n_flows_; ++f) {
      FlowStats& fs = result_.flows[f];
      fs.delivered = delivered_[f]->value();
      fs.attempts = attempts_[f]->value();
      fs.retries = retries_[f]->value();
      fs.drops = drops_[f]->value();
      fs.mean_delay_s = delay_hist_[f]->mean();
      fs.mean_data_rate_mbps =
          rate_stats_[f].attempts
              ? rate_stats_[f].rate_sum_mbps /
                    static_cast<double>(rate_stats_[f].attempts)
              : data_rates_.front();
      fs.throughput_mbps = static_cast<double>(fs.delivered) *
                           static_cast<double>(config_.payload_bytes) * 8.0 /
                           config_.duration_s / 1e6;
      result_.total_delivered += fs.delivered;
      result_.aggregate_throughput_mbps += fs.throughput_mbps;
    }
    if (airtime_) {
      result_.airtime = airtime_->finalize(config_.duration_s);
      airtime_->publish(*registry_);
    }
    if (ledger_) {
      result_.lifecycle.ledger = ledger_->finalize(config_.duration_s);
      ledger_->publish(*registry_);
      result_.lifecycle.series = sampler_->finalize(config_.duration_s);
      if (auditor_) {
        auditor_->audit(result_.lifecycle.ledger);
        if (airtime_) auditor_->audit(result_.airtime);
        result_.lifecycle.breaches = auditor_->finalize(config_.duration_s);
        result_.lifecycle.breach_messages = auditor_->breach_messages();
        result_.lifecycle.flight_recorder_json =
            auditor_->flight_recorder_json();
        breaches_counter_->add(result_.lifecycle.breaches);
      }
    }
    return result_;
  }

 private:
  /// One pointer test per site when all observers are off (the lifecycle
  /// sinks only exist when ledger_ does, so three tests cover them all).
  /// Internal analyzers index their arrays by the event's node/flow ids,
  /// so they receive LOCAL ids (they are sized for this shard); the
  /// user's trace sink gets a copy remapped to global ids.
  void emit(obs::EventType type, std::size_t node, std::size_t peer,
            std::size_t flow, double value, const char* detail = "",
            std::size_t frame = kNone) {
    if (!trace_ && !airtime_ && !ledger_) return;
    obs::TraceEvent e;
    e.time_s = sched_.now();
    e.type = type;
    e.node = node == kNone ? -1 : static_cast<std::int32_t>(node);
    e.peer = peer == kNone ? -1 : static_cast<std::int32_t>(peer);
    e.flow = flow == kNone ? -1 : static_cast<std::int32_t>(flow);
    e.frame = frame == kNone
                  ? -1
                  : static_cast<std::int64_t>(frame_id_base_ + frame);
    e.value = value;
    e.detail = detail;
    if (trace_) {
      obs::TraceEvent g = e;
      if (node != kNone) g.node = static_cast<std::int32_t>(node_id_[node]);
      if (peer != kNone) g.peer = static_cast<std::int32_t>(node_id_[peer]);
      if (flow != kNone) g.flow = static_cast<std::int32_t>(flow_id_[flow]);
      trace_->record(g);
    }
    if (airtime_) airtime_->record(e);
    if (ledger_) ledger_->record(e);
    if (sampler_) sampler_->record(e);
    if (auditor_) auditor_->record(e);
  }

  unsigned draw_backoff(std::size_t n) {
    return static_cast<unsigned>(mac_rng_[n].uniform_int(cw_[n] + 1));
  }

  /// Data-frame airtime at station `n`'s current rate.
  double t_data(std::size_t n) const { return t_data_by_rate_[rate_index_[n]]; }

  void record_data_rate(std::size_t flow, std::size_t rate_index) {
    rate_stats_[flow].rate_sum_mbps += data_rates_[rate_index];
    ++rate_stats_[flow].attempts;
  }

  /// PER model governing a transmission's reception. CTS and ACK
  /// frames are addressed to the station that sourced the exchange, so
  /// their flow is recovered from the destination.
  const LinkPerModel& model_for(const Transmission& t) const {
    switch (t.kind) {
      case mac::FrameType::kData:
        return models_[t.flow].data[t.rate_index];
      case mac::FrameType::kRts:
        return models_[t.flow].ctrl_fwd;
      case mac::FrameType::kCts:
      case mac::FrameType::kAck:
        return models_[flow_of_[t.dest]].ctrl_rev;
      case mac::FrameType::kBeacon:
        break;
    }
    check(false, "no PER model for this frame type");
    return models_.front().ctrl_rev;
  }

  /// Edge index of neighbor `to` in `from`'s row (rows are ascending);
  /// kNil when the pair is uncoupled.
  std::uint32_t edge_index(std::size_t from, std::uint32_t to) const {
    const auto begin = row_nbr_.begin() + row_off_[from];
    const auto end = row_nbr_.begin() + row_off_[from + 1];
    const auto it = std::lower_bound(begin, end, to);
    if (it == end || *it != to) return kNil;
    return static_cast<std::uint32_t>(it - row_nbr_.begin());
  }

  /// Received power at `to` from `from`; exactly zero for uncoupled
  /// pairs (the cutoff's definition of negligible).
  double rx_power_w(std::size_t from, std::size_t to) const {
    const std::uint32_t e = edge_index(from, static_cast<std::uint32_t>(to));
    return e == kNil ? 0.0 : row_gain_[e];
  }

  bool medium_busy(std::size_t n) const {
    if (transmitting_[n]) return true;
    if (sched_.now() < nav_until_[n]) return true;
    return ambient_w_[n] >= cs_w_[n];
  }

  // ---- contention ----

  // Freezes a counting station. Returns true when the station's counter
  // had already reached zero at this exact instant — i.e. it transmits
  // simultaneously with whatever made the medium busy (a real collision),
  // because it cannot sense a transmission that starts in the same slot.
  [[nodiscard]] bool freeze(std::size_t n) {
    if (!counting_[n]) return false;
    const double elapsed = sched_.now() - count_start_s_[n] - timing_.difs_s();
    if (elapsed > 0.0) {
      const auto used =
          static_cast<unsigned>(std::floor(elapsed / timing_.slot_s + 1e-9));
      slots_remaining_[n] -= std::min(used, slots_remaining_[n]);
    }
    counting_[n] = 0;
    ++timer_version_[n];
    emit(obs::EventType::kBackoffFreeze, n, kNone, flow_of_[n],
         static_cast<double>(slots_remaining_[n]));
    return slots_remaining_[n] == 0 && elapsed >= -1e-12;
  }

  bool has_traffic(std::size_t n) const {
    return flow_of_[n] != kNone && (saturated_[n] || !queue_[n].empty());
  }

  void schedule_arrival(std::size_t n, double rate_pps) {
    sched_.schedule(arrival_rng_[flow_of_[n]].exponential(1.0 / rate_pps),
                    [this, n, rate_pps] {
      queue_[n].push_back(sched_.now());
      emit(obs::EventType::kArrival, n, kNone, flow_of_[n],
           static_cast<double>(queue_[n].size()));
      maybe_start_countdown(n);
      schedule_arrival(n, rate_pps);
    });
  }

  void maybe_start_countdown(std::size_t n) {
    if (!has_traffic(n) || counting_[n] || transmitting_[n] ||
        waiting_[n] != WaitKind::kNone) {
      return;
    }
    if (medium_busy(n)) return;
    counting_[n] = 1;
    count_start_s_[n] = sched_.now();
    emit(obs::EventType::kBackoffStart, n, kNone, flow_of_[n],
         static_cast<double>(slots_remaining_[n]));
    const std::uint64_t version = ++timer_version_[n];
    const double delay =
        timing_.difs_s() +
        static_cast<double>(slots_remaining_[n]) * timing_.slot_s;
    sched_.schedule(delay, [this, n, version] {
      if (!counting_[n] || timer_version_[n] != version) return;
      counting_[n] = 0;
      slots_remaining_[n] = 0;
      begin_exchange(n);
    });
    // If the NAV is what ends later, it was already accounted: medium_busy
    // checked NAV; NAV can only start via frame ends which re-evaluate.
  }

  /// Re-evaluates the medium at `center` and its neighbors, ascending —
  /// the only stations whose carrier-sense inputs an event at `center`
  /// can have changed. On the unbounded plan this is every station, in
  /// the same order the dense engine scanned them.
  void update_medium_set(std::size_t center) {
    const std::size_t depth = fire_depth_++;
    if (fire_pool_.size() <= depth) fire_pool_.emplace_back();
    fire_pool_[depth].clear();
    bool center_done = false;
    for (std::size_t e = row_off_[center]; e < row_off_[center + 1]; ++e) {
      const std::size_t m = row_nbr_[e];
      if (!center_done && center < m) {
        visit_medium(center, depth);
        center_done = true;
      }
      visit_medium(m, depth);
    }
    if (!center_done) visit_medium(center, depth);
    // Stations whose counters expired in the very slot the medium went
    // busy transmit anyway — the collision DCF is built around.
    simultaneous_starts_->add(fire_pool_[depth].size());
    for (const std::uint32_t n : fire_pool_[depth]) {
      emit(obs::EventType::kCollision, n, kNone, flow_of_[n], 0.0);
      begin_exchange(n);
    }
    --fire_depth_;
  }

  void visit_medium(std::size_t n, std::size_t depth) {
    const bool busy = medium_busy(n);
    if (busy && !busy_prev_[n]) {
      if (freeze(n)) fire_pool_[depth].push_back(static_cast<std::uint32_t>(n));
    } else if (!busy) {
      // Idle (or just became idle): an eligible station may (re)start.
      maybe_start_countdown(n);
    }
    busy_prev_[n] = busy;
  }

  /// Single-node re-evaluation for NAV expiry: only `n`'s own medium
  /// view changed, so no neighbor walk is needed.
  void update_medium_node(std::size_t n) {
    const bool busy = medium_busy(n);
    const bool rising = busy && !busy_prev_[n];
    busy_prev_[n] = busy;
    if (rising) {
      if (freeze(n)) {
        simultaneous_starts_->add(1);
        emit(obs::EventType::kCollision, n, kNone, flow_of_[n], 0.0);
        begin_exchange(n);
      }
    } else if (!busy) {
      maybe_start_countdown(n);
    }
  }

  /// One pending NAV wakeup per node, however many NAV_SETs pile up: a
  /// later extension just lets the armed wakeup fire early and re-arm
  /// at the new expiry, instead of scheduling one event per NAV_SET
  /// (which grew the queue quadratically under dense overhearing).
  void arm_nav_wakeup(std::size_t n) {
    if (nav_armed_[n]) return;
    nav_armed_[n] = 1;
    sched_.schedule_at(nav_until_[n], [this, n] {
      nav_armed_[n] = 0;
      if (sched_.now() < nav_until_[n]) {
        arm_nav_wakeup(n);  // NAV was extended meanwhile
        return;
      }
      update_medium_node(n);
    });
  }

  // ---- border influence (cross-tile edges only) ----

  /// Queues one influence unit per tile this transmission couples into.
  /// Fused: the start/end records go straight onto the local influence
  /// map. Per-tile: a BorderMsg goes to the outbox for the epoch driver
  /// to route; the receiver expands it into the same two records with
  /// the same floating-point apply times.
  void queue_influence(std::size_t n, double duration_s, double end_s,
                       double nav_until_s) {
    const std::size_t b = out_off_[n];
    const std::size_t e = out_off_[n + 1];
    if (b == e) return;
    const auto g = static_cast<std::uint32_t>(node_id_[n]);
    for (std::size_t i = b; i < e; ++i) {
      const std::uint32_t tile = out_tile_[i];
      border_msgs_->add();
      if (fused_) {
        add_influence(sched_.now() + delay_s_,
                      InfluenceRec{g, tile, 0, 0.0});
        add_influence(end_s + delay_s_,
                      InfluenceRec{g, tile, 1, nav_until_s});
      } else {
        outbox_.push_back(
            BorderMsg{g, tile, sched_.now(), duration_s, nav_until_s});
      }
    }
  }

  void add_influence(double w, const InfluenceRec& rec) {
    auto [it, inserted] = influence_.try_emplace(w);
    it->second.push_back(rec);
    // One urgent apply event per distinct time: influence lands before
    // any normal event at the same instant, in every execution mode.
    if (inserted) {
      sched_.schedule_at_urgent(w, [this, w] { apply_influence(w); });
    }
  }

  /// Applies every influence record stamped `w` in the canonical
  /// (origin, kind, tile) order — a strict total order, since a node's
  /// transmissions never share a start or an end instant — so ambient
  /// and interference sums see the identical operation sequence in the
  /// fused and per-tile runs. Affected nodes then re-evaluate their
  /// medium ascending, with the same fire discipline as
  /// update_medium_set.
  void apply_influence(double w) {
    const auto found = influence_.find(w);
    check(found != influence_.end(), "influence records lost");
    std::vector<InfluenceRec> recs = std::move(found->second);
    influence_.erase(found);
    std::sort(recs.begin(), recs.end(),
              [](const InfluenceRec& a, const InfluenceRec& b) {
                if (a.origin != b.origin) return a.origin < b.origin;
                if (a.kind != b.kind) return a.kind < b.kind;
                return a.tile < b.tile;
              });
    affected_.clear();
    for (const InfluenceRec& rec : recs) {
      const auto span = inbound_.find(
          static_cast<std::uint64_t>(rec.origin) * n_tiles_ + rec.tile);
      check(span != inbound_.end(), "border influence without inbound edges");
      const std::size_t off = span->second.off;
      const std::size_t len = span->second.len;
      if (rec.kind == 0) {
        for (std::size_t i = off; i < off + len; ++i) {
          const auto [m, gain] = inbound_flat_[i];
          ambient_w_[m] += gain;
          ambient_peak_w_[m] = std::max(ambient_peak_w_[m], ambient_w_[m]);
        }
      } else {
        for (std::size_t i = off; i < off + len; ++i) {
          const auto [m, gain] = inbound_flat_[i];
          subtract_clamped(ambient_w_[m], gain, ambient_peak_w_[m],
                           "remote ambient power went negative");
        }
      }
      // Ongoing receptions addressed inside the span gain or lose the
      // remote interference (insertion-order walk, like the local one).
      for (std::uint32_t s = head_; s != kNil; s = slots_[s].next) {
        Transmission& other = slots_[s];
        if (other.dest == kNone) continue;
        const double gain = span_gain(off, len, other.dest);
        if (gain <= 0.0) continue;
        if (rec.kind == 0) {
          other.current_interference_w += gain;
          other.worst_interference_w = std::max(other.worst_interference_w,
                                                other.current_interference_w);
        } else {
          subtract_clamped(other.current_interference_w, gain,
                           std::max(other.worst_interference_w,
                                    ambient_peak_w_[other.dest]),
                           "remote reception interference went negative");
        }
      }
      // Remote NAV from the transmission's duration field, applied at
      // the end record like the local overhear path. Already-expired
      // promises are skipped (deterministically — the record carries
      // the same values in both modes).
      if (rec.kind == 1 && rec.nav_until_s > w) {
        for (std::size_t i = off; i < off + len; ++i) {
          const auto [m, gain] = inbound_flat_[i];
          if (gain >= cs_w_[m] && rec.nav_until_s > nav_until_[m]) {
            nav_until_[m] = rec.nav_until_s;
            emit(obs::EventType::kNavSet, m, kNone, kNone, rec.nav_until_s,
                 "REMOTE");
            arm_nav_wakeup(m);
          }
        }
      }
      for (std::size_t i = off; i < off + len; ++i)
        affected_.push_back(inbound_flat_[i].first);
    }
    std::sort(affected_.begin(), affected_.end());
    affected_.erase(std::unique(affected_.begin(), affected_.end()),
                    affected_.end());
    const std::size_t depth = fire_depth_++;
    if (fire_pool_.size() <= depth) fire_pool_.emplace_back();
    fire_pool_[depth].clear();
    for (const std::uint32_t m : affected_) visit_medium(m, depth);
    simultaneous_starts_->add(fire_pool_[depth].size());
    for (const std::uint32_t m : fire_pool_[depth]) {
      emit(obs::EventType::kCollision, m, kNone, flow_of_[m], 0.0);
      begin_exchange(m);
    }
    --fire_depth_;
  }

  /// Binary search of an inbound span (ascending local node) for `dest`.
  double span_gain(std::size_t off, std::size_t len, std::size_t dest) const {
    const auto begin = inbound_flat_.begin() + static_cast<std::ptrdiff_t>(off);
    const auto end = begin + static_cast<std::ptrdiff_t>(len);
    const auto it = std::lower_bound(
        begin, end, dest,
        [](const std::pair<std::uint32_t, double>& p, std::size_t d) {
          return p.first < d;
        });
    if (it == end || it->first != dest) return 0.0;
    return it->second;
  }

  // ---- transmissions ----

  void start_transmission(std::size_t n, std::size_t dest,
                          mac::FrameType kind, std::size_t flow,
                          double duration_s, double nav_until_s) {
    transmitting_[n] = 1;
    Transmission t;
    t.id = next_id_++;
    t.tx_node = n;
    t.dest = dest;
    t.kind = kind;
    t.flow = flow;
    if (kind == mac::FrameType::kData) t.rate_index = rate_index_[n];
    t.start_s = sched_.now();
    t.end_s = sched_.now() + duration_s;
    t.nav_until_s = nav_until_s;
    if (dest != kNone) {
      // This frame's power is not yet in the ambient sums, so the
      // ambient at the destination is exactly the interference it will
      // see.
      t.current_interference_w = ambient_w_[dest];
      // A destination that is itself transmitting cannot receive.
      if (transmitting_[dest]) t.rx_was_transmitting = true;
      t.worst_interference_w = t.current_interference_w;
    }
    // This transmission interferes with every other ongoing reception.
    for (std::uint32_t s = head_; s != kNil; s = slots_[s].next) {
      Transmission& other = slots_[s];
      if (other.dest == kNone || other.dest == n) continue;
      other.current_interference_w += rx_power_w(n, other.dest);
      other.worst_interference_w =
          std::max(other.worst_interference_w, other.current_interference_w);
    }
    // And if any ongoing reception is addressed to us, it is now lost.
    for (std::uint32_t s = head_; s != kNil; s = slots_[s].next) {
      if (slots_[s].dest == n) slots_[s].rx_was_transmitting = true;
    }
    emit(obs::EventType::kTxStart, n, dest, flow, duration_s,
         frame_name(kind), t.id);
    queue_influence(n, duration_s, t.end_s, nav_until_s);
    const std::size_t id = t.id;
    const std::uint32_t slot = push_active(t);
    // Fold this signal into the running ambient sums of every neighbor
    // (the peak calibrates the teardown clamp's rounding slack).
    for (std::size_t e = row_off_[n]; e < row_off_[n + 1]; ++e) {
      const std::size_t m = row_nbr_[e];
      ambient_w_[m] += row_gain_[e];
      ambient_peak_w_[m] = std::max(ambient_peak_w_[m], ambient_w_[m]);
    }
    update_medium_set(n);
    sched_.schedule(duration_s, [this, slot, id] {
      end_transmission(slot, id);
    });
  }

  void end_transmission(std::uint32_t slot, std::size_t id) {
    check(slot < slots_.size() && slots_[slot].in_use &&
              slots_[slot].id == id,
          "transmission bookkeeping lost");
    const Transmission t = slots_[slot];
    unlink(slot);
    transmitting_[t.tx_node] = 0;
    // Remove this signal from the neighbors' ambient sums and from
    // other ongoing receptions' interference.
    for (std::size_t e = row_off_[t.tx_node]; e < row_off_[t.tx_node + 1];
         ++e) {
      const std::size_t m = row_nbr_[e];
      subtract_clamped(ambient_w_[m], row_gain_[e], ambient_peak_w_[m],
                       "ambient power went negative");
    }
    for (std::uint32_t s = head_; s != kNil; s = slots_[s].next) {
      Transmission& other = slots_[s];
      if (other.dest == kNone || other.dest == t.tx_node) continue;
      const double g = rx_power_w(t.tx_node, other.dest);
      if (g > 0.0) {
        // The sum was seeded from a snapshot of the destination's
        // ambient sum, so it inherits that sum's rounding residue —
        // scaled by the ambient's historical peak, which can dwarf this
        // frame's own interference.
        subtract_clamped(other.current_interference_w, g,
                         std::max(other.worst_interference_w,
                                  ambient_peak_w_[other.dest]),
                         "reception interference went negative");
      }
    }

    emit(obs::EventType::kTxEnd, t.tx_node, t.dest, t.flow,
         t.end_s - t.start_s, frame_name(t.kind), t.id);

    // Reception outcome at the addressed node.
    bool delivered = false;
    double sinr_db = -std::numeric_limits<double>::infinity();
    if (t.dest != kNone && !t.rx_was_transmitting &&
        !transmitting_[t.dest]) {
      const double signal = rx_power_w(t.tx_node, t.dest);
      const double sinr =
          signal / (noise_w_[t.dest] + t.worst_interference_w);
      sinr_db = lin_to_db(sinr);
      if (per_model_) {
        // Preamble acquisition first: the PER curves model payload
        // decoding and scale with payload length, so on their own a
        // short control frame would ride out an equal-power collision.
        // Below the capture SINR the receiver never syncs and no RNG is
        // consumed.
        if (sinr_db < config_.error_model.preamble_capture_db) {
          delivered = false;
        } else {
          // Block fading per frame: pick one of the link's realizations,
          // look up its PER at the worst-case SINR (the table is already
          // scaled to this frame type's PSDU size), survive a Bernoulli
          // draw.
          const LinkPerModel& model = model_for(t);
          Rng& rx_rng = rx_rng_[t.dest];
          const auto realization = static_cast<std::size_t>(
              rx_rng.uniform_int(model.realizations()));
          delivered = !rx_rng.bernoulli(model.per(sinr_db, realization));
        }
      } else {
        const double required = t.kind == mac::FrameType::kData
                                    ? db_to_lin(config_.sinr_threshold_db)
                                    : db_to_lin(config_.control_sinr_db);
        delivered = sinr >= required;
      }
    }
    if (t.dest != kNone) {
      emit(delivered ? obs::EventType::kRxOk : obs::EventType::kRxFail,
           t.dest, t.tx_node, t.flow, sinr_db, frame_name(t.kind), t.id);
    }

    // Overhearing neighbors set their NAV from the duration field (a
    // non-neighbor's received power is below the cutoff, hence below
    // every carrier-sense threshold by construction).
    for (std::size_t e = row_off_[t.tx_node]; e < row_off_[t.tx_node + 1];
         ++e) {
      const std::size_t n = row_nbr_[e];
      if (n == t.dest) continue;
      if (row_gain_[e] >= cs_w_[n]) {
        if (t.nav_until_s > nav_until_[n]) {
          nav_until_[n] = t.nav_until_s;
          emit(obs::EventType::kNavSet, n, t.tx_node, kNone, t.nav_until_s,
               frame_name(t.kind));
          // Re-evaluate this node when its NAV expires (coalesced: at
          // most one pending wakeup per node).
          arm_nav_wakeup(n);
        }
      }
    }

    handle_frame_outcome(t, delivered);
    update_medium_set(t.tx_node);
  }

  std::uint32_t push_active(const Transmission& t) {
    std::uint32_t s;
    if (!free_.empty()) {
      s = free_.back();
      free_.pop_back();
      slots_[s] = t;
    } else {
      s = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(t);
    }
    Transmission& slot = slots_[s];
    slot.in_use = true;
    slot.prev = tail_;
    slot.next = kNil;
    if (tail_ != kNil) {
      slots_[tail_].next = s;
    } else {
      head_ = s;
    }
    tail_ = s;
    return s;
  }

  void unlink(std::uint32_t s) {
    Transmission& t = slots_[s];
    if (t.prev != kNil) {
      slots_[t.prev].next = t.next;
    } else {
      head_ = t.next;
    }
    if (t.next != kNil) {
      slots_[t.next].prev = t.prev;
    } else {
      tail_ = t.prev;
    }
    t.in_use = false;
    free_.push_back(s);
  }

  // ---- protocol ----

  void begin_exchange(std::size_t n) {
    const std::size_t flow = flow_of_[n];
    check(flow != kNone, "contention won by a node without traffic");
    attempts_[flow]->add();
    const double td = t_data(n);
    if (config_.rts_cts) {
      const double nav = sched_.now() + t_rts_ + 3.0 * timing_.sifs_s +
                         t_cts_ + td + t_ack_;
      rts_tx_->add();
      start_transmission(n, dest_of_[n], mac::FrameType::kRts, flow, t_rts_,
                         nav);
      arm_timeout(n, WaitKind::kCts,
                  t_rts_ + timing_.sifs_s + t_cts_ + timing_.slot_s);
    } else {
      const double nav = sched_.now() + td + timing_.sifs_s + t_ack_;
      data_tx_->add();
      record_data_rate(flow, rate_index_[n]);
      start_transmission(n, dest_of_[n], mac::FrameType::kData, flow, td,
                         nav);
      arm_timeout(n, WaitKind::kAck,
                  td + timing_.sifs_s + t_ack_ + timing_.slot_s);
    }
  }

  void arm_timeout(std::size_t n, WaitKind kind, double delay_s) {
    waiting_[n] = kind;
    const std::uint64_t version = ++wait_version_[n];
    sched_.schedule(delay_s, [this, n, version, kind] {
      if (wait_version_[n] != version || waiting_[n] == WaitKind::kNone)
        return;
      waiting_[n] = WaitKind::kNone;
      on_exchange_failed(n, kind);
    });
  }

  void on_exchange_failed(std::size_t n, WaitKind kind) {
    if (kind == WaitKind::kAck) {
      data_failures_->add();
      // Only a lost data frame is a rate-control signal; a missed CTS
      // says nothing about the data rate.
      if (arf_[n]) {
        arf_[n]->on_failure();
        rate_index_[n] = arf_[n]->current();
      }
    } else {
      rts_failures_->add();
    }
    const std::size_t flow = flow_of_[n];
    ++retries_count_[n];
    retries_[flow]->add();
    if (retries_count_[n] > config_.retry_limit) {
      drops_[flow]->add();
      emit(obs::EventType::kDrop, n, dest_of_[n], flow,
           static_cast<double>(retries_count_[n]));
      retries_count_[n] = 0;
      cw_[n] = timing_.cw_min;
      if (!saturated_[n] && !queue_[n].empty()) queue_[n].pop_front();
    } else {
      cw_[n] = std::min(2 * cw_[n] + 1, timing_.cw_max);
    }
    slots_remaining_[n] = draw_backoff(n);
    maybe_start_countdown(n);
  }

  void on_exchange_succeeded(std::size_t n) {
    if (arf_[n]) {
      arf_[n]->on_success();
      rate_index_[n] = arf_[n]->current();
    }
    const std::size_t flow = flow_of_[n];
    delivered_[flow]->add();
    emit(obs::EventType::kStateChange, n, dest_of_[n], flow, 0.0,
         "DELIVERED");
    if (!saturated_[n] && !queue_[n].empty()) {
      delay_hist_[flow]->record(sched_.now() - queue_[n].front());
      queue_[n].pop_front();
    }
    retries_count_[n] = 0;
    cw_[n] = timing_.cw_min;
    ++sequence_[n];
    slots_remaining_[n] = draw_backoff(n);  // next packet, if any
    maybe_start_countdown(n);
  }

  void handle_frame_outcome(const Transmission& t, bool delivered) {
    switch (t.kind) {
      case mac::FrameType::kRts: {
        if (!delivered) return;  // source's CTS timeout handles it
        // Destination answers CTS after SIFS.
        const std::size_t rx = t.dest;
        const std::size_t src = t.tx_node;
        const double nav = t.nav_until_s;
        sched_.schedule(timing_.sifs_s, [this, rx, src, nav] {
          start_transmission(rx, src, mac::FrameType::kCts, kNone, t_cts_,
                            nav);
        });
        break;
      }
      case mac::FrameType::kCts: {
        // The CTS is addressed to the data source; on reception it sends
        // the data frame after SIFS.
        const std::size_t src = t.dest;
        if (!delivered || waiting_[src] != WaitKind::kCts) return;
        waiting_[src] = WaitKind::kNone;
        ++wait_version_[src];
        const double nav = t.nav_until_s;
        sched_.schedule(timing_.sifs_s, [this, src, nav] {
          const double td = t_data(src);
          data_tx_->add();
          record_data_rate(flow_of_[src], rate_index_[src]);
          start_transmission(src, dest_of_[src], mac::FrameType::kData,
                             flow_of_[src], td, nav);
          arm_timeout(src, WaitKind::kAck,
                      td + timing_.sifs_s + t_ack_ + timing_.slot_s);
        });
        break;
      }
      case mac::FrameType::kData: {
        if (!delivered) return;  // ACK timeout at the source handles it
        const std::size_t rx = t.dest;
        const std::size_t src = t.tx_node;
        sched_.schedule(timing_.sifs_s, [this, rx, src] {
          start_transmission(rx, src, mac::FrameType::kAck, kNone, t_ack_,
                             sched_.now() + t_ack_);
        });
        break;
      }
      case mac::FrameType::kAck: {
        const std::size_t src = t.dest;
        if (!delivered || waiting_[src] != WaitKind::kAck) return;
        waiting_[src] = WaitKind::kNone;
        ++wait_version_[src];
        on_exchange_succeeded(src);
        break;
      }
      case mac::FrameType::kBeacon:
        break;
    }
  }

  NetworkConfig config_;
  std::uint64_t frame_id_base_ = 0;
  mac::MacTiming timing_{};
  sim::Scheduler sched_;
  std::size_t n_ = 0;        // shard size
  std::size_t n_flows_ = 0;  // flows sourced inside the shard
  std::vector<std::size_t> node_id_;  // local -> global node
  std::vector<std::size_t> flow_id_;  // local -> global flow
  std::vector<std::uint32_t> flow_src_;  // local flow -> local source
  std::vector<double> arrival_rate_;     // per local flow
  // Neighbor CSR with per-edge received power (W).
  std::vector<std::size_t> row_off_;
  std::vector<std::uint32_t> row_nbr_;
  std::vector<double> row_gain_;
  std::vector<double> noise_w_;
  std::vector<double> cs_w_;
  // Station state, structure-of-arrays.
  std::vector<std::size_t> flow_of_;
  std::vector<std::size_t> dest_of_;
  std::vector<std::uint8_t> saturated_;
  std::vector<std::deque<double>> queue_;
  std::vector<unsigned> cw_;
  std::vector<unsigned> retries_count_;
  std::vector<unsigned> slots_remaining_;
  std::vector<std::uint8_t> counting_;
  std::vector<double> count_start_s_;
  std::vector<std::uint64_t> timer_version_;
  std::vector<std::uint8_t> busy_prev_;
  std::vector<double> nav_until_;
  std::vector<std::uint8_t> nav_armed_;
  std::vector<double> ambient_w_;  // running sum of neighbor tx power
  std::vector<double> ambient_peak_w_;  // run max; clamp-slack scale
  std::vector<std::uint8_t> transmitting_;
  std::vector<WaitKind> waiting_;
  std::vector<std::uint64_t> wait_version_;
  std::vector<std::uint16_t> sequence_;
  std::vector<std::size_t> rate_index_;
  std::vector<std::optional<mac::ArfController>> arf_;
  // Active transmissions: slot arena + insertion-order intrusive list.
  std::vector<Transmission> slots_;
  std::vector<std::uint32_t> free_;
  std::uint32_t head_ = kNil;
  std::uint32_t tail_ = kNil;
  std::size_t next_id_ = 0;
  // Per-recursion-depth scratch for update_medium_set's fire list.
  std::vector<std::vector<std::uint32_t>> fire_pool_;
  std::size_t fire_depth_ = 0;
  // Observability: counters/histograms live in `*registry_`; trace may
  // be null.
  obs::Registry local_registry_;
  obs::Registry* registry_ = nullptr;
  obs::TraceSink* trace_ = nullptr;
  std::unique_ptr<obs::AirtimeAccountant> airtime_;
  std::unique_ptr<obs::FrameLedger> ledger_;
  std::unique_ptr<obs::TimeSeriesSampler> sampler_;
  std::unique_ptr<obs::InvariantAuditor> auditor_;
  obs::Counter* breaches_counter_ = nullptr;
  obs::Counter* data_tx_ = nullptr;
  obs::Counter* data_failures_ = nullptr;
  obs::Counter* rts_tx_ = nullptr;
  obs::Counter* rts_failures_ = nullptr;
  obs::Counter* simultaneous_starts_ = nullptr;
  std::vector<obs::Counter*> delivered_;
  std::vector<obs::Counter*> attempts_;
  std::vector<obs::Counter*> retries_;
  std::vector<obs::Counter*> drops_;
  std::vector<obs::Histogram*> delay_hist_;
  std::vector<double> data_rates_;      // ladder (1 entry when fixed)
  std::vector<double> t_data_by_rate_;  // airtime per ladder entry
  double t_ack_ = 0.0;
  double t_rts_ = 0.0;
  double t_cts_ = 0.0;
  // PER reception model (per_model_ only).
  bool per_model_ = false;
  struct FlowErrorModels {
    std::vector<LinkPerModel> data;  // source -> destination, per rate
    LinkPerModel ctrl_fwd;           // RTS, source -> destination
    LinkPerModel ctrl_rev;           // CTS/ACK, destination -> source
  };
  std::vector<FlowErrorModels> models_;
  struct RateStats {
    double rate_sum_mbps = 0.0;
    std::uint64_t attempts = 0;
  };
  std::vector<RateStats> rate_stats_;
  NetworkResult result_;
  // ---- border exchange (empty without cross-tile edges) ----
  bool fused_ = false;   // one engine simulates every tile (reference)
  double delay_s_ = 0.0;  // cross-tile influence delay = plan lookahead
  std::size_t n_tiles_ = 0;
  struct Span {
    std::size_t off = 0;
    std::size_t len = 0;
  };
  /// (origin global id * n_tiles + target tile) -> span of
  /// (local node, received power W), ascending by local node.
  std::unordered_map<std::uint64_t, Span> inbound_;
  std::vector<std::pair<std::uint32_t, double>> inbound_flat_;
  /// Per local node: the tiles its transmissions influence (CSR).
  std::vector<std::size_t> out_off_;
  std::vector<std::uint32_t> out_tile_;
  std::vector<std::uint32_t> peer_tiles_;  // distinct out_tile_, ascending
  /// Pending influence by apply time; one urgent event armed per key.
  std::map<double, std::vector<InfluenceRec>> influence_;
  std::vector<BorderMsg> outbox_;
  std::vector<std::uint32_t> affected_;  // apply-time scratch
  // Per-entity RNG streams (see the constructor).
  std::vector<Rng> mac_rng_;
  std::vector<Rng> rx_rng_;
  std::vector<Rng> arrival_rng_;
  obs::Counter* border_msgs_ = nullptr;
};

void validate_network(const std::vector<NodeConfig>& nodes,
                      const std::vector<Flow>& flows) {
  check(nodes.size() >= 2, "network needs at least two nodes");
  check(!flows.empty(), "network needs at least one flow");
  for (const Flow& f : flows) {
    check(f.source < nodes.size() && f.destination < nodes.size(),
          "flow endpoints out of range");
  }
}

/// Folds one shard's airtime ledger into the global report. Channel
/// seconds sum — the merged report describes `n_shards` independent
/// channels, so duration_s grows with each shard and the
/// idle+busy+collision partition still closes against it. Node and flow
/// entries land in their global slots.
void merge_airtime(obs::AirtimeReport& into, const obs::AirtimeReport& part,
                   const std::vector<std::size_t>& node_ids,
                   const std::vector<std::size_t>& flow_ids,
                   std::size_t n_nodes, std::size_t n_flows) {
  if (into.nodes.empty() && into.flows.empty()) {
    into.nodes.resize(n_nodes);
    into.flows.resize(n_flows);
    into.window_s = part.window_s;
  }
  into.duration_s += part.duration_s;
  into.idle_s += part.idle_s;
  into.busy_s += part.busy_s;
  into.collision_s += part.collision_s;
  for (std::size_t n = 0; n < part.nodes.size(); ++n)
    into.nodes[node_ids[n]] = part.nodes[n];
  for (std::size_t f = 0; f < part.flows.size(); ++f)
    into.flows[flow_ids[f]] = part.flows[f];
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
      merge_airtime(total.airtime, r.airtime, out.node_ids, out.flow_ids,
                    n_nodes, n_flows);
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

/// The one driver every plan runs through: engines set up on the pool,
/// conservative-time lockstep rounds, finalize on the pool, merge in
/// shard order.
///
/// The rounds run on `par::run_rounds`: persistent participants, one
/// per pool lane up to the tile count, cross every round on one atomic
/// gate. Each per-tile engine simulates its private horizon [t, t+L)
/// after routing its own inbox: the messages the previous executed
/// round left in the outboxes of its peer tiles (double-buffered by
/// round parity), taken in ascending source-tile order and generation
/// order within each outbox. L is the plan's lookahead: influence
/// stamped inside round k applies at or after boundary (k+1)*L, so
/// everything a round needs was generated by the round before, and the
/// message order seen by any engine is a pure function of the plan —
/// bitwise identical at any jobs count, and identical to the fused
/// reference engine (`fused`) that queues the same records locally.
/// The thread ending a round records its stats, counts its messages,
/// skips idle epochs and publishes the next. A plan without cross-tile
/// edges (components, one shard, the unbounded monolith plan) or a
/// single engine is just one final round with no messages, whose tasks
/// build, run and finalize their engines.
NetworkResult run_plan(const NetworkConfig& config,
                       const std::vector<NodeConfig>& nodes,
                       const std::vector<Flow>& flows, const ShardPlan& plan,
                       unsigned jobs, bool fused, std::uint64_t root,
                       const FadingPool* fading) {
  const std::size_t n_engines = fused ? 1 : plan.shards.size();
  const bool single = n_engines == 1;
  const bool lockstep = !single && plan.border;
  check(!lockstep || plan.lookahead_s > 0.0,
        "border plan carries no lookahead");

  // One engine writes straight into the caller's registry and sink;
  // several get private registries (merged in shard order) and share
  // one synchronized sink, so the caller's is never raced.
  std::optional<obs::SynchronizedTraceSink> synced;
  if (config.trace && !single) synced.emplace(*config.trace);
  obs::TraceSink* trace = synced ? &*synced : config.trace;

  par::SweepOptions pool_opt;
  pool_opt.jobs = single ? 1 : jobs;
  std::unique_ptr<par::ThreadPool> owned;
  par::ThreadPool& pool = par::detail::select_pool(pool_opt, owned);
  const unsigned lanes = pool.size();

  // Every stream is per-entity, so construction and finalize commute.
  std::vector<ShardOutput> outputs(n_engines);
  std::vector<std::unique_ptr<Engine>> engines(n_engines);
  const auto build = [&](std::size_t s) {
    obs::Registry* registry = config.registry;
    if (!single) {
      outputs[s].registry = std::make_unique<obs::Registry>();
      registry = outputs[s].registry.get();
    }
    engines[s] = std::make_unique<Engine>(config, nodes, flows, plan,
                                          fused ? kNone : s, root, fading,
                                          registry, trace);
    engines[s]->start();
  };
  const auto finish = [&](std::size_t s) {
    outputs[s].result = engines[s]->finalize();
    outputs[s].node_ids = engines[s]->node_ids();
    outputs[s].flow_ids = engines[s]->flow_ids();
    engines[s].reset();
  };
  const auto phase = [&](const char* name, const auto& fn) {
    const obs::perf::ScopedSpan span(name);
    const std::uint64_t t0 = par::detail::monotonic_ns();
    pool.parallel_for(n_engines, 1, [&](std::size_t b, std::size_t e) {
      for (std::size_t s = b; s < e; ++s) fn(s);
    });
    return static_cast<double>(par::detail::monotonic_ns() - t0) * 1e-9;
  };

  // Lockstep tiles all live across rounds, so they are built and
  // finalized in phases of their own. Without lockstep nothing crosses
  // engines, and the single round builds, runs and finalizes each
  // engine in one task: only the engines in flight hold memory, not
  // every shard of a city at once.
  const double setup_s = lockstep ? phase("net.setup", build) : 0.0;
  par::EpochStats epochs;
  std::vector<double> busy_s(n_engines, 0.0);
  std::uint64_t messages = 0;
  {
    const obs::perf::ScopedSpan span("net.events");
    const double lookahead = plan.lookahead_s;
    const std::size_t n_full =
        lockstep ? static_cast<std::size_t>(
                       std::floor(config.duration_s / lookahead))
                 : 0;
    // Written only by the thread ending a round, read by the tasks of
    // the next: run_rounds orders the two.
    std::size_t k = 0;  // epoch of the round in flight
    bool final_round = n_full == 0;
    double bound = final_round ? config.duration_s : lookahead;
    // Per tile, written by the task running it: the messages it sent,
    // by executed-round parity, and its earliest pending event.
    struct alignas(64) TileSlot {
      std::array<std::vector<BorderMsg>, 2> sent;
      double next_s = 0.0;
    };
    std::vector<TileSlot> slots(n_engines);
    std::uint64_t round0 = par::detail::monotonic_ns();

    const auto tile = [&](std::uint32_t r, std::size_t s) {
      if (!lockstep) build(s);
      const std::uint64_t t0 = par::detail::monotonic_ns();
      Engine& engine = *engines[s];
      if (r > 0) {
        for (const std::uint32_t src : engine.peer_tiles())
          for (const BorderMsg& msg : slots[src].sent[(r - 1) & 1])
            if (msg.target_tile == s) engine.inject_border(msg);
      }
      if (final_round) {
        engine.run_final(bound);
      } else {
        engine.run_before(bound);
      }
      std::vector<BorderMsg>& sent = slots[s].sent[r & 1];
      sent.clear();
      sent.swap(engine.outbox());
      slots[s].next_s = engine.next_time();
      busy_s[s] = static_cast<double>(par::detail::monotonic_ns() - t0) * 1e-9;
      if (!lockstep) finish(s);
    };
    const auto end_round = [&](std::uint32_t r) {
      const std::uint64_t now = par::detail::monotonic_ns();
      epochs.record_round(static_cast<double>(now - round0) * 1e-9,
                          busy_s.data(), n_engines);
      round0 = now;
      if (final_round) return false;
      std::size_t sent = 0;
      for (const TileSlot& slot : slots) sent += slot.sent[r & 1].size();
      messages += sent;
      if (sent > 0) {
        ++k;
      } else {
        // Idle skip: nothing is in flight and run_before drained every
        // event below the boundary, so the earliest pending event
        // bounds the next epoch that can do work. Messages travel
        // exactly one epoch, so skipping empty ones reorders nothing.
        double min_next = std::numeric_limits<double>::infinity();
        for (const TileSlot& slot : slots)
          min_next = std::min(min_next, slot.next_s);
        std::size_t k_next = n_full;
        if (std::isfinite(min_next)) {
          const double e = std::floor(min_next / lookahead);
          if (e < static_cast<double>(n_full))
            k_next = std::max(k + 1, static_cast<std::size_t>(e));
        }
        k = k_next;
      }
      final_round = k >= n_full;
      bound = final_round ? config.duration_s
                          : static_cast<double>(k + 1) * lookahead;
      return true;
    };
    par::run_rounds(pool, n_engines, tile, end_round);
  }
  const double finalize_s = lockstep ? phase("net.finalize", finish) : 0.0;

  const std::uint64_t merge0 = par::detail::monotonic_ns();
  NetworkResult total =
      single ? std::move(outputs[0].result)
             : merge_shard_outputs(config, nodes.size(), flows.size(),
                                   outputs);
  if (plan.border) {
    total.border.tiles = plan.shards.size();
    total.border.epochs = epochs.rounds;
    total.border.messages = messages;
    total.border.lookahead_s = plan.lookahead_s;
    total.border.wall_s = epochs.wall_s;
    total.border.utilization = epochs.utilization(lanes);
    total.border.imbalance = epochs.imbalance();
    total.border.setup_s = setup_s;
    total.border.busy_s = epochs.busy_s;
    total.border.critical_path_s = epochs.max_busy_s;
    total.border.finalize_s = finalize_s;
    total.border.merge_s =
        static_cast<double>(par::detail::monotonic_ns() - merge0) * 1e-9;
  }
  return total;
}

/// One engine over every node: the monolithic simulation, as the
/// single round of the unbounded plan.
NetworkResult run_monolith(const NetworkConfig& config,
                           const std::vector<NodeConfig>& nodes,
                           const std::vector<Flow>& flows, std::uint64_t root,
                           const FadingPool* fading) {
  ShardPlan plan;
  {
    const obs::perf::ScopedSpan span("net.plan");
    ShardOptions monolithic;
    monolithic.cutoff_margin_db = std::numeric_limits<double>::infinity();
    plan = plan_shards(config, nodes, monolithic);
  }
  return run_plan(config, nodes, flows, plan, 1, false, root, fading);
}

/// The fading pool every engine of one simulate call reads, profiled as
/// its own row under net.setup. PER model only: a threshold run builds
/// none and draws nothing.
std::optional<FadingPool> call_fading_pool(const NetworkConfig& config,
                                           unsigned jobs) {
  if (config.error_model.model != RxModel::kPerModel) return std::nullopt;
  const obs::perf::ScopedSpan setup("net.setup");
  const obs::perf::ScopedSpan span("net.fading_pool");
  return FadingPool(per_table_keys(config), config.error_model, jobs);
}

}  // namespace

NetworkResult simulate_network(const NetworkConfig& config,
                               const std::vector<NodeConfig>& nodes,
                               const std::vector<Flow>& flows, Rng& rng) {
  validate_network(nodes, flows);
  const std::optional<FadingPool> fading = call_fading_pool(config, 0);
  return run_monolith(config, nodes, flows, rng.next_u64(),
                      fading ? &*fading : nullptr);
}

NetworkResult simulate_network_sharded(const NetworkConfig& config,
                                       const std::vector<NodeConfig>& nodes,
                                       const std::vector<Flow>& flows,
                                       const ShardOptions& options, Rng& rng,
                                       const ShardPlan* plan) {
  validate_network(nodes, flows);
  ShardPlan local_plan;
  if (!plan) {
    const obs::perf::ScopedSpan span("net.plan");
    local_plan = plan_shards(config, nodes, options, &flows);
    plan = &local_plan;
  }
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const Flow& flow = flows[f];
    check(plan->shard_of[flow.source] == plan->shard_of[flow.destination],
          "flow " + std::to_string(f) + " (" + std::to_string(flow.source) +
              " -> " + std::to_string(flow.destination) +
              ") spans shards " +
              std::to_string(plan->shard_of[flow.source]) + " and " +
              std::to_string(plan->shard_of[flow.destination]) +
              (plan->border
                   ? "; pass the flows to plan_shards so endpoint "
                     "clusters share a tile"
                   : "; component sharding cannot couple them — widen "
                     "cutoff_margin_db or enable ShardOptions::border"));
  }
  const std::optional<FadingPool> pool = call_fading_pool(config, options.jobs);
  return run_plan(config, nodes, flows, *plan, options.jobs,
                  options.border_reference, rng.next_u64(),
                  pool ? &*pool : nullptr);
}

std::vector<NetworkResult> simulate_network_batch(
    const NetworkConfig& config, const std::vector<NodeConfig>& nodes,
    const std::vector<Flow>& flows, std::size_t n_runs,
    const BatchOptions& options) {
  check(n_runs > 0, "simulate_network_batch requires at least one run");
  validate_network(nodes, flows);
  const std::optional<FadingPool> pool = call_fading_pool(config, options.jobs);
  const FadingPool* fading = pool ? &*pool : nullptr;

  // One synchronized wrapper shared by every run; the caller's sink is
  // never touched from two threads at once.
  std::optional<obs::SynchronizedTraceSink> synced;
  if (config.trace) synced.emplace(*config.trace);

  struct RunOutput {
    NetworkResult result;
    std::unique_ptr<obs::Registry> registry;
  };

  par::SweepOptions opt;
  opt.root_seed = options.root_seed;
  opt.jobs = options.jobs;
  std::vector<RunOutput> outputs =
      par::map(n_runs, opt, [&](std::size_t, Rng& run_rng) {
        NetworkConfig run_config = config;
        RunOutput out;
        out.registry = std::make_unique<obs::Registry>();
        run_config.registry = out.registry.get();
        if (synced) run_config.trace = &*synced;
        out.result = run_monolith(run_config, nodes, flows,
                                  run_rng.next_u64(), fading);
        return out;
      });

  std::vector<NetworkResult> results;
  results.reserve(n_runs);
  for (RunOutput& out : outputs) {
    if (options.registry) options.registry->merge(*out.registry);
    results.push_back(std::move(out.result));
  }
  return results;
}

HiddenTerminalSetup make_hidden_terminal_setup(double sender_spacing_m) {
  HiddenTerminalSetup setup;
  // Senders at the ends, receiver in the middle. With enough spacing the
  // senders fall below each other's CS threshold while both still reach
  // the receiver.
  NodeConfig a;
  a.position = {0.0, 0.0};
  NodeConfig b;
  b.position = {sender_spacing_m, 0.0};
  NodeConfig ap;
  ap.position = {sender_spacing_m / 2.0, 0.0};
  setup.nodes = {a, b, ap};
  setup.flows = {{0, 2}, {1, 2}};
  return setup;
}

}  // namespace wlan::net
