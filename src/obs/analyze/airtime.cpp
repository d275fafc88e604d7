#include "obs/analyze/airtime.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "common/check.h"

namespace wlan::obs {

double AirtimeReport::jain_fairness_airtime() const {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const NodeAirtime& n : nodes) {
    sum += n.tx_s;
    sum_sq += n.tx_s * n.tx_s;
  }
  if (sum_sq <= 0.0) return 1.0;
  return sum * sum / (static_cast<double>(nodes.size()) * sum_sq);
}

AirtimeAccountant::AirtimeAccountant(const Config& config) : config_(config) {
  check(config.n_nodes >= 1, "AirtimeAccountant needs at least one node");
  report_.nodes.resize(config.n_nodes);
  transmitting_.assign(config.n_nodes, false);
  state_.assign(config.n_nodes, NodeState::kIdle);
  state_since_.assign(config.n_nodes, 0.0);
}

void AirtimeAccountant::advance(double t) {
  const double dt = t - last_t_;
  if (dt <= 0.0) return;
  if (active_tx_ == 0) {
    report_.idle_s += dt;
  } else if (active_tx_ == 1) {
    report_.busy_s += dt;
  } else {
    report_.collision_s += dt;
  }
  if (active_tx_ > 0) {
    for (std::size_t n = 0; n < transmitting_.size(); ++n) {
      if (!transmitting_[n]) continue;
      report_.nodes[n].tx_s += dt;
      if (active_tx_ >= 2) report_.nodes[n].tx_overlap_s += dt;
    }
  }
  last_t_ = t;
}

void AirtimeAccountant::settle_node(std::size_t n, double t) {
  const double dt = t - state_since_[n];
  if (dt > 0.0) {
    switch (state_[n]) {
      case NodeState::kBackoff: report_.nodes[n].backoff_s += dt; break;
      case NodeState::kDefer: report_.nodes[n].defer_s += dt; break;
      case NodeState::kIdle:
      case NodeState::kTx: break;  // tx time is accrued by advance()
    }
  }
  state_since_[n] = t;
}

void AirtimeAccountant::record(const TraceEvent& e) {
  if (finalized_) return;
  advance(e.time_s);
  const bool has_node =
      e.node >= 0 && static_cast<std::size_t>(e.node) < report_.nodes.size();
  const std::size_t n = has_node ? static_cast<std::size_t>(e.node) : 0;
  switch (e.type) {
    case EventType::kTxStart: {
      if (!has_node) break;
      settle_node(n, e.time_s);  // a completed countdown ends here
      state_[n] = NodeState::kTx;
      if (!transmitting_[n]) {
        transmitting_[n] = true;
        ++active_tx_;
      }
      NodeAirtime& ledger = report_.nodes[n];
      ++ledger.tx_frames;
      if (e.detail != nullptr) {
        if (std::strcmp(e.detail, "DATA") == 0) ++ledger.data_frames;
        else if (std::strcmp(e.detail, "RTS") == 0) ++ledger.rts_frames;
      }
      break;
    }
    case EventType::kTxEnd: {
      if (!has_node) break;
      if (transmitting_[n]) {
        transmitting_[n] = false;
        --active_tx_;
      }
      settle_node(n, e.time_s);
      state_[n] = NodeState::kIdle;
      break;
    }
    case EventType::kBackoffStart: {
      if (!has_node) break;
      settle_node(n, e.time_s);  // closes a deferral (or a restart)
      state_[n] = NodeState::kBackoff;
      break;
    }
    case EventType::kBackoffFreeze: {
      if (!has_node) break;
      settle_node(n, e.time_s);
      state_[n] = NodeState::kDefer;
      break;
    }
    case EventType::kCollision:
      if (has_node) ++report_.nodes[n].same_slot_collisions;
      break;
    case EventType::kStateChange:
    case EventType::kDrop:
    case EventType::kRxOk:
    case EventType::kRxFail:
    case EventType::kNavSet:
    case EventType::kArrival:
      break;  // no airtime consequence beyond what TX events carry
  }
}

const AirtimeReport& AirtimeAccountant::finalize(double end_s) {
  if (finalized_) return report_;
  finalized_ = true;
  const double end = std::max(end_s, last_t_);
  advance(end);
  for (std::size_t n = 0; n < report_.nodes.size(); ++n) {
    settle_node(n, end);
  }
  report_.duration_s = end;
  return report_;
}

void AirtimeAccountant::publish(Registry& registry) const {
  const AirtimeReport& r = report_;
  registry.gauge("airtime.duration_s").set(r.duration_s);
  registry.gauge("airtime.idle_fraction").set(r.idle_fraction());
  registry.gauge("airtime.busy_fraction").set(r.busy_fraction());
  registry.gauge("airtime.collision_fraction").set(r.collision_fraction());
  registry.gauge("airtime.jain_airtime").set(r.jain_fairness_airtime());
  for (std::size_t n = 0; n < r.nodes.size(); ++n) {
    const NodeAirtime& node = r.nodes[n];
    const std::size_t id = n < config_.node_ids.size() ? config_.node_ids[n] : n;
    const std::vector<Label> label{{"node", std::to_string(id)}};
    registry.gauge("airtime.node_tx_s", label).set(node.tx_s);
    registry.gauge("airtime.node_tx_overlap_s", label).set(node.tx_overlap_s);
    registry.gauge("airtime.node_backoff_s", label).set(node.backoff_s);
    registry.gauge("airtime.node_defer_s", label).set(node.defer_s);
    registry.counter("airtime.node_tx_frames", label).add(node.tx_frames);
    registry.counter("airtime.node_data_frames", label).add(node.data_frames);
    registry.counter("airtime.node_rts_frames", label).add(node.rts_frames);
    registry.counter("airtime.node_collisions", label)
        .add(node.same_slot_collisions);
  }
}

}  // namespace wlan::obs
