#include "net/engine.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "common/check.h"
#include "common/units.h"
#include "par/montecarlo.h"
#include "phy/ofdm.h"

namespace wlan::net::detail {
namespace {

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

}  // namespace

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

Engine::Engine(const NetworkConfig& config,
               const std::vector<NodeConfig>& nodes,
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

  // Power rows with deterministic received powers per edge: one local
  // CSR row per node over its same-shard neighbors, then one inbound
  // row per (remote origin, this tile). Local rows hold no cross-tile
  // receiver: cross-tile power arrives solely through delayed
  // influence records, which apply the inbound rows; a component plan
  // has none. Shadowing factors come from per-pair streams keyed by
  // global ids (large-scale fading is reciprocal), so every engine
  // layout computes the identical factor.
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
  // Each plan edge of a member lands in exactly one power row, local or
  // inbound; reserving them all keeps the appended inbound rows from
  // doubling the arrays (border cities hold every tile's rows at once).
  std::size_t edges = 0;
  for (const std::size_t g : node_id_)
    edges += plan.row_offset[g + 1] - plan.row_offset[g];
  row_nbr_.reserve(edges);
  row_gain_.reserve(edges);
  // Inbound edges, appended in ascending local receiver order.
  struct InboundEdge {
    std::uint32_t origin;  // global id of the remote transmitter
    std::uint32_t tile;    // the receiver's tile
    std::uint32_t rx;      // local receiver
    double gain_w;
  };
  std::vector<InboundEdge> inbound;
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
        // nbr_g's transmissions deposit power at l.
        out_scratch.push_back(nbr_tile);
        inbound.push_back({nbr_g, my_tile, static_cast<std::uint32_t>(l),
                           gain_w(nbr_g, static_cast<std::uint32_t>(g))});
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
  // Inbound rows follow the local ones in key order (origin, then
  // tile), so inbound_row finds a row by binary search on its key. Two
  // stable counting passes, by tile and then by origin, put them there
  // in linear time and keep each row's receivers ascending.
  auto counting_pass = [&inbound](std::size_t buckets, auto bucket_of) {
    std::vector<std::size_t> at(buckets + 1, 0);
    for (const InboundEdge& e : inbound) ++at[bucket_of(e) + 1];
    std::partial_sum(at.begin(), at.end(), at.begin());
    std::vector<InboundEdge> sorted(inbound.size());
    for (const InboundEdge& e : inbound) sorted[at[bucket_of(e)]++] = e;
    inbound.swap(sorted);
  };
  counting_pass(n_tiles_, [](const InboundEdge& e) { return e.tile; });
  counting_pass(nodes.size(), [](const InboundEdge& e) { return e.origin; });
  for (const InboundEdge& e : inbound) {
    const std::uint64_t key =
        static_cast<std::uint64_t>(e.origin) * n_tiles_ + e.tile;
    if (inbound_key_.empty() || inbound_key_.back() != key) {
      inbound_key_.push_back(key);
      inbound_off_.push_back(row_nbr_.size());
    }
    row_nbr_.push_back(e.rx);
    row_gain_.push_back(e.gain_w);
  }
  inbound_off_.push_back(row_nbr_.size());
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
  backoff_timer_.assign(n_, {});
  busy_prev_.assign(n_, 0);
  nav_until_.assign(n_, 0.0);
  nav_armed_.assign(n_, 0);
  nav_next_.assign(n_, kNil);
  ambient_w_.assign(n_, 0.0);
  ambient_peak_w_.assign(n_, 0.0);
  transmitting_.assign(n_, 0);
  waiting_.assign(n_, WaitKind::kNone);
  response_timer_.assign(n_, {});
  rate_index_.assign(n_, 0);
  arf_.resize(n_);
  rx_head_.assign(n_, kNil);
  affected_mark_.assign(n_, 0);
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
    ac.node_ids = node_id_;
    airtime_ = std::make_unique<obs::AirtimeAccountant>(ac);
  }
  if (config.lifecycle.enabled) {
    obs::FrameLedger::Config lc;
    lc.n_flows = n_flows_;
    lc.registry = registry_;
    lc.flow_ids = flow_id_;
    ledger_ = std::make_unique<obs::FrameLedger>(lc);
    obs::TimeSeriesSampler::Config sc;
    sc.n_flows = n_flows_;
    sc.payload_bits = static_cast<double>(config.payload_bytes) * 8.0;
    sampler_ = std::make_unique<obs::TimeSeriesSampler>(sc);
    if (config.lifecycle.audit) {
      obs::InvariantAuditor::Config auc;
      auc.n_nodes = n_;
      auc.n_flows = n_flows_;
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
  nav_wakeups_ = &registry_->counter("net.nav_wakeups");
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

void Engine::start() {
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

NetworkResult Engine::finalize() {
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

// ---- observability and traffic ----

void Engine::record_event(obs::EventType type, std::size_t node,
                          std::size_t peer, std::size_t flow, double value,
                          const char* detail, std::size_t frame) {
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

void Engine::schedule_arrival(std::size_t n, double rate_pps) {
  sched_.schedule(arrival_rng_[flow_of_[n]].exponential(1.0 / rate_pps),
                  [this, n, rate_pps] {
    queue_[n].push_back(sched_.now());
    emit(obs::EventType::kArrival, n, kNone, flow_of_[n],
         static_cast<double>(queue_[n].size()));
    maybe_start_countdown(n);
    schedule_arrival(n, rate_pps);
  });
}

// ---- protocol ----

void Engine::begin_exchange(std::size_t n) {
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
    send_data(n, sched_.now() + td + timing_.sifs_s + t_ack_);
  }
}

/// Sends station `n`'s data frame at its current rate, with the
/// exchange's NAV promise, and arms the ACK timeout.
void Engine::send_data(std::size_t n, double nav_until_s) {
  const std::size_t flow = flow_of_[n];
  const double td = t_data(n);
  data_tx_->add();
  rate_stats_[flow].rate_sum_mbps += data_rates_[rate_index_[n]];
  ++rate_stats_[flow].attempts;
  start_transmission(n, dest_of_[n], mac::FrameType::kData, flow, td,
                     nav_until_s);
  arm_timeout(n, WaitKind::kAck,
              td + timing_.sifs_s + t_ack_ + timing_.slot_s);
}

void Engine::arm_timeout(std::size_t n, WaitKind kind, double delay_s) {
  waiting_[n] = kind;
  response_timer_[n] = sched_.schedule(delay_s, [this, n, kind] {
    waiting_[n] = WaitKind::kNone;
    on_exchange_failed(n, kind);
  });
}

void Engine::on_exchange_failed(std::size_t n, WaitKind kind) {
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

void Engine::on_exchange_succeeded(std::size_t n) {
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
  slots_remaining_[n] = draw_backoff(n);  // next packet, if any
  maybe_start_countdown(n);
}

void Engine::handle_frame_outcome(const Transmission& t, bool delivered) {
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
      sched_.cancel(response_timer_[src]);
      const double nav = t.nav_until_s;
      sched_.schedule(timing_.sifs_s,
                      [this, src, nav] { send_data(src, nav); });
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
      sched_.cancel(response_timer_[src]);
      on_exchange_succeeded(src);
      break;
    }
    case mac::FrameType::kBeacon:
      break;
  }
}

}  // namespace wlan::net::detail
