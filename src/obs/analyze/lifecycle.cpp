#include "obs/analyze/lifecycle.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/check.h"
#include "obs/json.h"

namespace wlan::obs {
namespace {

constexpr double kTimeSlack = 1e-9;
// Breach descriptions kept verbatim; beyond this only the count grows.
constexpr std::size_t kMaxBreachMessages = 32;
// Delay/component histograms: 64 log bins over 1 us .. 100 s.
constexpr double kHistLoS = 1e-6;
constexpr double kHistHiS = 100.0;
constexpr std::size_t kHistBins = 64;
// TimeSeriesSampler window.
constexpr double kSampleWindowS = 10e-3;
// Last-N events kept for the breach post-mortem.
constexpr std::size_t kFlightRecorderCapacity = 256;
// Relative slack for the airtime-closure check.
constexpr double kAirtimeTolerance = 1e-9;

std::vector<Label> flow_label(std::size_t flow) {
  return {{"flow", std::to_string(flow)}};
}

bool is_delivery(const TraceEvent& e) {
  return e.type == EventType::kStateChange && e.flow >= 0 && e.detail &&
         std::string_view(e.detail) == "DELIVERED";
}

}  // namespace

const char* delay_component_name(std::size_t i) {
  switch (i) {
    case 0: return "queueing";
    case 1: return "contention";
    case 2: return "airtime";
    case 3: return "retry";
    default: return "unknown";
  }
}

// ---------------------------------------------------------------------------
// FrameLedger

FrameLedger::FrameLedger(const Config& config)
    : config_(config), flows_(config.n_flows) {
  check(config_.registry != nullptr, "FrameLedger requires a Registry");
  Registry& reg = *config_.registry;
  // Every instrument is created here, before any event, in a fixed
  // order: shard registries built by parallel runs then hold identical
  // entry lists and Registry::merge folds them exactly.
  delay_all_ =
      &reg.histogram("lifecycle.delay_s", kHistLoS, kHistHiS, kHistBins);
  delay_flow_.resize(config_.n_flows);
  for (std::size_t f = 0; f < config_.n_flows; ++f) {
    delay_flow_[f] = &reg.histogram("lifecycle.delay_s", kHistLoS, kHistHiS,
                                    kHistBins, flow_label(flow_id(f)));
  }
  component_all_.resize(kDelayComponentCount);
  component_flow_.resize(kDelayComponentCount);
  for (std::size_t c = 0; c < kDelayComponentCount; ++c) {
    component_all_[c] = &reg.histogram(
        "lifecycle.component_s", kHistLoS, kHistHiS, kHistBins,
        {{"component", delay_component_name(c)}});
    component_flow_[c].resize(config_.n_flows);
    for (std::size_t f = 0; f < config_.n_flows; ++f) {
      component_flow_[c][f] = &reg.histogram(
          "lifecycle.component_s", kHistLoS, kHistHiS, kHistBins,
          {{"component", delay_component_name(c)},
           {"flow", std::to_string(flow_id(f))}});
    }
  }
}

void FrameLedger::close_segment(FlowState& f, double t) {
  Journey& j = f.journey;
  const double dt = t - j.last_t;
  if (dt > 0.0) {
    if (j.mode == Mode::kContention) {
      j.contention_s += dt;
    } else {
      j.attempt_s += dt;
    }
  }
  j.last_t = t;
}

void FrameLedger::open_journey(FlowState& f, double t) {
  f.journey = Journey{};
  Journey& j = f.journey;
  j.open = true;
  // A queue-backed journey serves the head-of-line packet, so its clock
  // started at that packet's arrival; a saturated source has a frame
  // materialize the moment the MAC turns to it.
  j.arrival_s = f.queue.empty() ? t : f.queue.front();
  j.service_start_s = t;
  j.last_t = t;
  j.mode = Mode::kContention;
  if (!f.saw_arrival) ++f.stats.arrivals;  // synthetic saturated arrival
}

void FrameLedger::finish_journey(std::size_t flow, FlowState& f, double t,
                                 bool delivered) {
  Journey& j = f.journey;
  if (j.open) {
    close_segment(f, t);
    if (delivered) {
      DelayBreakdown b;
      b.queueing_s = j.service_start_s - j.arrival_s;
      b.contention_s = j.contention_s;
      b.airtime_s = j.attempt_s;  // the undecided attempt just succeeded
      b.retry_s = j.retry_s;
      f.stats.total.accumulate(b);
      const double total = b.total_s();
      delay_all_->record(total);
      delay_flow_[flow]->record(total);
      const double parts[kDelayComponentCount] = {
          b.queueing_s, b.contention_s, b.airtime_s, b.retry_s};
      for (std::size_t c = 0; c < kDelayComponentCount; ++c) {
        component_all_[c]->record(parts[c]);
        component_flow_[c][flow]->record(parts[c]);
      }
    }
  }
  if (delivered) {
    ++f.stats.delivered;
  } else {
    ++f.stats.dropped;
  }
  if (!f.queue.empty()) f.queue.pop_front();
  f.journey = Journey{};
  // A saturated source always has a next frame; a queue-backed one only
  // when the queue is non-empty — the MAC turns to it immediately.
  if (!f.saw_arrival || !f.queue.empty()) open_journey(f, t);
}

void FrameLedger::record(const TraceEvent& e) {
  if (finalized_) return;
  if (e.flow < 0 || static_cast<std::size_t>(e.flow) >= flows_.size()) return;
  const auto flow = static_cast<std::size_t>(e.flow);
  FlowState& f = flows_[flow];
  Journey& j = f.journey;
  switch (e.type) {
    case EventType::kArrival:
      f.saw_arrival = true;
      ++f.stats.arrivals;
      f.queue.push_back(e.time_s);
      if (!j.open) open_journey(f, e.time_s);
      break;
    case EventType::kBackoffStart:
      if (!j.open) {
        open_journey(f, e.time_s);  // saturated source's first frame
      } else {
        close_segment(f, e.time_s);
        if (j.mode == Mode::kExchange) {
          // The attempt ended back in contention: everything it took —
          // the frame's airtime, the wait for a response that never
          // decoded, the timeout — is retry time.
          j.retry_s += j.attempt_s;
          j.attempt_s = 0.0;
          ++f.stats.failed_attempts;
        }
        j.mode = Mode::kContention;
      }
      break;
    case EventType::kBackoffFreeze:
      if (j.open) close_segment(f, e.time_s);
      break;
    case EventType::kTxStart:
      // TX events carrying a flow id are the source's own DATA/RTS
      // frames (control responses are emitted with flow = -1).
      if (!j.open) open_journey(f, e.time_s);
      close_segment(f, e.time_s);
      j.mode = Mode::kExchange;
      ++f.stats.tx_attempts;
      break;
    case EventType::kTxEnd:
      if (j.open) close_segment(f, e.time_s);
      break;
    case EventType::kStateChange:
      if (is_delivery(e)) finish_journey(flow, f, e.time_s, true);
      break;
    case EventType::kDrop:
      finish_journey(flow, f, e.time_s, false);
      break;
    default:
      break;  // RX_OK/RX_FAIL (receiver side), COLLISION, NAV_SET
  }
}

const LifecycleReport& FrameLedger::finalize(double end_s) {
  if (finalized_) return report_;
  finalized_ = true;
  report_ = LifecycleReport{};
  report_.duration_s = end_s;
  report_.flows.resize(flows_.size());
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    FlowState& f = flows_[i];
    FlowLifecycle& out = report_.flows[i];
    out = f.stats;
    // Queue-backed in-flight frames are exactly the queued packets (the
    // head is the one in service); a saturated source's open journey is
    // its single in-flight frame.
    out.in_flight = f.queue.size() +
                    ((f.journey.open && f.queue.empty()) ? 1u : 0u);
    out.mean_delay_s = out.delivered > 0
                           ? out.total.total_s() /
                                 static_cast<double>(out.delivered)
                           : 0.0;
    report_.total.accumulate(out.total);
    report_.delivered += out.delivered;
    report_.dropped += out.dropped;
    report_.in_flight += out.in_flight;
  }
  return report_;
}

void FrameLedger::publish(Registry& registry) const {
  check(finalized_, "FrameLedger::publish requires finalize() first");
  auto add = [&registry](const char* name, std::vector<Label> labels,
                         std::uint64_t v) {
    registry.counter(name, std::move(labels)).add(v);
  };
  add("lifecycle.delivered", {}, report_.delivered);
  add("lifecycle.dropped", {}, report_.dropped);
  add("lifecycle.in_flight", {}, report_.in_flight);
  for (std::size_t f = 0; f < report_.flows.size(); ++f) {
    const FlowLifecycle& fl = report_.flows[f];
    const std::size_t id = flow_id(f);
    add("lifecycle.arrivals", flow_label(id), fl.arrivals);
    add("lifecycle.delivered", flow_label(id), fl.delivered);
    add("lifecycle.dropped", flow_label(id), fl.dropped);
    add("lifecycle.in_flight", flow_label(id), fl.in_flight);
    add("lifecycle.tx_attempts", flow_label(id), fl.tx_attempts);
    add("lifecycle.failed_attempts", flow_label(id), fl.failed_attempts);
  }
}

// ---------------------------------------------------------------------------
// TimeSeriesSampler

TimeSeriesSampler::TimeSeriesSampler(const Config& config)
    : config_(config), outstanding_(config.n_flows, 0) {
  series_.window_s = kSampleWindowS;
}

void TimeSeriesSampler::window_at(double t) {
  const auto w = static_cast<std::size_t>(
      std::max(0.0, std::floor(t / kSampleWindowS)));
  while (current_window_ < w) {
    in_flight_at_end_.push_back(static_cast<double>(in_flight_now_));
    ++current_window_;
  }
  if (deliveries_.size() <= w) {
    deliveries_.resize(w + 1, 0);
    tx_starts_.resize(w + 1, 0);
    collisions_.resize(w + 1, 0);
  }
}

void TimeSeriesSampler::record(const TraceEvent& e) {
  if (finalized_) return;
  window_at(e.time_s);
  const std::size_t w = current_window_;
  const bool flow_ok =
      e.flow >= 0 && static_cast<std::size_t>(e.flow) < outstanding_.size();
  switch (e.type) {
    case EventType::kArrival:
      if (flow_ok) {
        ++outstanding_[static_cast<std::size_t>(e.flow)];
        ++in_flight_now_;
      }
      break;
    case EventType::kTxStart:
      ++tx_starts_[w];
      break;
    case EventType::kCollision:
      ++collisions_[w];
      break;
    case EventType::kStateChange:
    case EventType::kDrop: {
      const bool delivery = is_delivery(e);
      if (e.type == EventType::kDrop || delivery) {
        if (delivery) ++deliveries_[w];
        // Only frames that entered through kArrival count as in flight
        // (saturated sources have no meaningful backlog).
        if (flow_ok && outstanding_[static_cast<std::size_t>(e.flow)] > 0) {
          --outstanding_[static_cast<std::size_t>(e.flow)];
          --in_flight_now_;
        }
      }
      break;
    }
    default:
      break;
  }
}

const LifecycleSeries& TimeSeriesSampler::finalize(double end_s) {
  if (finalized_) return series_;
  finalized_ = true;
  // Windows cover [0, end_s); a final partial window is kept (its
  // goodput is normalized by the full window).
  const auto n = static_cast<std::size_t>(
      std::ceil(std::max(0.0, end_s) / kSampleWindowS - kTimeSlack));
  deliveries_.resize(std::max(n, deliveries_.size()), 0);
  tx_starts_.resize(deliveries_.size(), 0);
  collisions_.resize(deliveries_.size(), 0);
  while (in_flight_at_end_.size() < deliveries_.size()) {
    in_flight_at_end_.push_back(static_cast<double>(in_flight_now_));
  }
  const std::size_t windows = deliveries_.size();
  series_.t_s.resize(windows);
  series_.goodput_mbps.resize(windows);
  series_.collision_rate.resize(windows);
  series_.in_flight.resize(windows);
  for (std::size_t w = 0; w < windows; ++w) {
    series_.t_s[w] = static_cast<double>(w + 1) * kSampleWindowS;
    series_.goodput_mbps[w] = static_cast<double>(deliveries_[w]) *
                              config_.payload_bits / kSampleWindowS / 1e6;
    series_.collision_rate[w] =
        static_cast<double>(collisions_[w]) /
        static_cast<double>(std::max<std::uint64_t>(1, tx_starts_[w]));
    series_.in_flight[w] = in_flight_at_end_[w];
  }
  // Steady state estimated from the second half; warmup is the shortest
  // prefix whose removal brings the remaining mean within 10% of it.
  const std::vector<double>& g = series_.goodput_mbps;
  double first_half = 0.0;
  double second_half = 0.0;
  const std::size_t half = windows / 2;
  for (std::size_t w = 0; w < windows; ++w) {
    (w < half ? first_half : second_half) += g[w];
  }
  const std::size_t tail = windows - half;
  const double steady =
      tail > 0 ? second_half / static_cast<double>(tail) : 0.0;
  const double head =
      half > 0 ? first_half / static_cast<double>(half) : 0.0;
  series_.stationarity_ratio = head > 0.0 ? steady / head : 1.0;
  series_.warmup_windows = 0;
  if (steady > 0.0 && windows > 0) {
    double suffix = first_half + second_half;
    for (std::size_t w = 0; w < windows; ++w) {
      const double mean = suffix / static_cast<double>(windows - w);
      if (std::abs(mean - steady) <= 0.10 * steady) {
        series_.warmup_windows = w;
        break;
      }
      suffix -= g[w];
      series_.warmup_windows = w + 1;
    }
  }
  return series_;
}

// ---------------------------------------------------------------------------
// InvariantAuditor

InvariantAuditor::InvariantAuditor(const Config& config)
    : config_(config),
      ring_(kFlightRecorderCapacity),
      transmitting_(config.n_nodes, false),
      flows_(config.n_flows) {}

void InvariantAuditor::breach(double t, const std::string& message) {
  ++breaches_;
  if (messages_.size() < kMaxBreachMessages) {
    std::ostringstream msg;
    msg << "t=" << t << ": " << message;
    messages_.push_back(msg.str());
  }
  // First breach snapshots the flight recorder immediately (so a crash
  // right after still leaves a post-mortem); finalize() rewrites it with
  // the full context.
  if (!config_.dump_path.empty() && !dumped_) {
    dumped_ = true;
    std::ofstream out(config_.dump_path);
    if (out.is_open()) out << flight_recorder_json();
  }
}

void InvariantAuditor::record(const TraceEvent& e) {
  if (finalized_) return;
  ring_.record(e);  // first, so the dump includes the offending event
  if (e.time_s + kTimeSlack < last_t_) {
    std::ostringstream msg;
    msg << event_name(e.type) << " at " << e.time_s
        << " arrived after t=" << last_t_ << " (time went backwards)";
    breach(e.time_s, msg.str());
  }
  last_t_ = std::max(last_t_, e.time_s);
  const bool node_ok =
      e.node >= 0 && static_cast<std::size_t>(e.node) < transmitting_.size();
  if (e.node >= 0 && !transmitting_.empty() && !node_ok) {
    breach(e.time_s, std::string(event_name(e.type)) + " node " +
                         std::to_string(e.node) + " out of range");
  }
  const bool flow_ok =
      e.flow >= 0 && static_cast<std::size_t>(e.flow) < flows_.size();
  if (e.flow >= 0 && !flows_.empty() && !flow_ok) {
    breach(e.time_s, std::string(event_name(e.type)) + " flow " +
                         std::to_string(e.flow) + " out of range");
  }
  switch (e.type) {
    case EventType::kTxStart:
      if (node_ok) {
        const auto n = static_cast<std::size_t>(e.node);
        if (transmitting_[n]) {
          breach(e.time_s, "TX_START at node " + std::to_string(e.node) +
                               " while a transmission is already open");
        }
        transmitting_[n] = true;
      }
      break;
    case EventType::kTxEnd:
      if (node_ok) {
        const auto n = static_cast<std::size_t>(e.node);
        if (!transmitting_[n]) {
          breach(e.time_s, "TX_END at node " + std::to_string(e.node) +
                               " without a matching TX_START");
        }
        transmitting_[n] = false;
      }
      break;
    case EventType::kArrival:
      if (flow_ok) ++flows_[static_cast<std::size_t>(e.flow)].arrivals;
      break;
    case EventType::kStateChange:
      if (is_delivery(e) && flow_ok) {
        FlowAudit& f = flows_[static_cast<std::size_t>(e.flow)];
        ++f.delivered;
        if (f.arrivals > 0 && f.delivered + f.dropped > f.arrivals) {
          breach(e.time_s, "flow " + std::to_string(e.flow) +
                               " delivered+dropped exceeds arrivals (" +
                               std::to_string(f.delivered + f.dropped) + " > " +
                               std::to_string(f.arrivals) + ")");
        }
      }
      break;
    case EventType::kDrop:
      if (flow_ok) {
        FlowAudit& f = flows_[static_cast<std::size_t>(e.flow)];
        ++f.dropped;
        if (f.arrivals > 0 && f.delivered + f.dropped > f.arrivals) {
          breach(e.time_s, "flow " + std::to_string(e.flow) +
                               " delivered+dropped exceeds arrivals (" +
                               std::to_string(f.delivered + f.dropped) + " > " +
                               std::to_string(f.arrivals) + ")");
        }
      }
      break;
    default:
      break;
  }
}

void InvariantAuditor::audit(const AirtimeReport& airtime) {
  const double covered =
      airtime.idle_s + airtime.busy_s + airtime.collision_s;
  const double tol =
      kAirtimeTolerance * std::max(1.0, airtime.duration_s);
  if (std::abs(covered - airtime.duration_s) > tol) {
    std::ostringstream msg;
    msg << "airtime partition does not close: idle+busy+collision = "
        << covered << " vs duration " << airtime.duration_s;
    breach(airtime.duration_s, msg.str());
  }
  const double fracs[3] = {airtime.idle_fraction(), airtime.busy_fraction(),
                           airtime.collision_fraction()};
  const char* names[3] = {"idle", "busy", "collision"};
  for (int i = 0; i < 3; ++i) {
    if (fracs[i] < -kAirtimeTolerance ||
        fracs[i] > 1.0 + kAirtimeTolerance) {
      std::ostringstream msg;
      msg << "airtime " << names[i] << " fraction " << fracs[i]
          << " outside [0, 1]";
      breach(airtime.duration_s, msg.str());
    }
  }
}

void InvariantAuditor::audit(const LifecycleReport& ledger) {
  for (std::size_t f = 0; f < ledger.flows.size(); ++f) {
    const FlowLifecycle& fl = ledger.flows[f];
    if (fl.arrivals != fl.delivered + fl.dropped + fl.in_flight) {
      std::ostringstream msg;
      msg << "flow " << f << " conservation broken: arrivals " << fl.arrivals
          << " != delivered " << fl.delivered << " + dropped " << fl.dropped
          << " + in-flight " << fl.in_flight;
      breach(ledger.duration_s, msg.str());
    }
  }
}

std::uint64_t InvariantAuditor::finalize(double end_s) {
  if (finalized_) return breaches_;
  finalized_ = true;
  // Per-flow conservation online already guarantees
  // delivered + dropped <= arrivals; the remainder is in flight by
  // definition, so the only end-of-run residue to check is the cross
  // against a closed ledger (audit(LifecycleReport), when available).
  (void)end_s;
  if (breaches_ > 0 && !config_.dump_path.empty()) {
    std::ofstream out(config_.dump_path);
    if (out.is_open()) out << flight_recorder_json();
    dumped_ = true;
  }
  return breaches_;
}

std::string InvariantAuditor::flight_recorder_json() const {
  if (breaches_ == 0) return "";
  std::ostringstream out;
  out << "{\"schema\":\"holtwlan-flight-recorder-v1\",\"breaches\":"
      << breaches_ << ",\"messages\":[";
  for (std::size_t i = 0; i < messages_.size(); ++i) {
    if (i) out << ',';
    out << '"' << json_escape(messages_[i]) << '"';
  }
  out << "],\"events\":[";
  bool first = true;
  for (const TraceEvent& e : ring_.events()) {
    if (!first) out << ',';
    first = false;
    write_event_json(out, e);
  }
  out << "]}";
  return out.str();
}

}  // namespace wlan::obs
