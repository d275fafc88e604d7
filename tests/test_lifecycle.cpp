// Tests for the frame-lifecycle layer (obs/analyze/lifecycle.h):
// FrameLedger delay attribution, TimeSeriesSampler windows, the
// InvariantAuditor's conservation checks and flight recorder, ledger
// vs. netsim-counter reconciliation, and bitwise shard-merge identity
// across --jobs settings.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/netsim.h"
#include "obs/analyze/lifecycle.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace wlan::obs {
namespace {

TraceEvent ev(double t, EventType type, std::int32_t node,
              std::int32_t flow = -1, const char* detail = "",
              double value = 0.0) {
  TraceEvent e;
  e.time_s = t;
  e.type = type;
  e.node = node;
  e.flow = flow;
  e.value = value;
  e.detail = detail;
  return e;
}

// ---------------------------------------------------------------------------
// FrameLedger
// ---------------------------------------------------------------------------

TEST(FrameLedger, ComponentsTileTheEndToEndDelayExactly) {
  Registry reg;
  FrameLedger::Config cfg;
  cfg.n_flows = 1;
  cfg.registry = &reg;
  FrameLedger ledger(cfg);

  // Frame A arrives at 0, frame B at 1 ms; A needs two attempts.
  ledger.record(ev(0.0, EventType::kArrival, 0, 0));
  ledger.record(ev(0.001, EventType::kArrival, 0, 0));
  ledger.record(ev(0.002, EventType::kTxStart, 0, 0, "DATA"));
  ledger.record(ev(0.003, EventType::kTxEnd, 0, 0, "DATA"));
  ledger.record(ev(0.004, EventType::kBackoffStart, 0, 0));  // attempt failed
  ledger.record(ev(0.006, EventType::kTxStart, 0, 0, "DATA"));
  ledger.record(ev(0.007, EventType::kTxEnd, 0, 0, "DATA"));
  ledger.record(ev(0.0075, EventType::kStateChange, 0, 0, "DELIVERED"));
  // Frame B: one clean attempt.
  ledger.record(ev(0.008, EventType::kTxStart, 0, 0, "DATA"));
  ledger.record(ev(0.009, EventType::kTxEnd, 0, 0, "DATA"));
  ledger.record(ev(0.0095, EventType::kStateChange, 0, 0, "DELIVERED"));

  const LifecycleReport& rep = ledger.finalize(0.01);
  ASSERT_EQ(rep.flows.size(), 1u);
  const FlowLifecycle& f = rep.flows[0];
  EXPECT_EQ(f.arrivals, 2u);
  EXPECT_EQ(f.delivered, 2u);
  EXPECT_EQ(f.dropped, 0u);
  EXPECT_EQ(f.in_flight, 0u);
  EXPECT_EQ(f.tx_attempts, 3u);
  EXPECT_EQ(f.failed_attempts, 1u);

  // Frame A: arrival 0 -> delivery 0.0075; frame B: 0.001 -> 0.0095.
  // The components tile both journeys, so their sum is the end-to-end
  // delay (up to segment-summation rounding).
  constexpr double kUlp = 1e-15;
  const double total_delay = (0.0075 - 0.0) + (0.0095 - 0.001);
  EXPECT_NEAR(f.total.total_s(), total_delay, kUlp);
  // A was served immediately (queueing 0); B waited from its arrival at
  // 0.001 until A finished at 0.0075.
  EXPECT_DOUBLE_EQ(f.total.queueing_s, 0.0075 - 0.001);
  // A's failed attempt spans its TX_START (0.002) to the backoff restart
  // (0.004): airtime + post-TX wait both count as retry time.
  EXPECT_NEAR(f.total.retry_s, 0.004 - 0.002, kUlp);
  // Successful exchanges: A 0.006->0.0075, B 0.008->0.0095.
  EXPECT_NEAR(f.total.airtime_s, 0.0015 + 0.0015, kUlp);
  // Contention: A [0, 0.002] and [0.004, 0.006]; B [0.0075, 0.008].
  EXPECT_NEAR(f.total.contention_s, 0.002 + 0.002 + 0.0005, kUlp);

  // The registry histograms saw both deliveries.
  const Histogram* h = reg.find_histogram("lifecycle.delay_s");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 2u);
  EXPECT_NEAR(h->sum(), total_delay, kUlp);
  const Histogram* hq = reg.find_histogram(
      "lifecycle.component_s", {{"component", "queueing"}, {"flow", "0"}});
  ASSERT_NE(hq, nullptr);
  EXPECT_EQ(hq->count(), 2u);
  EXPECT_DOUBLE_EQ(hq->sum(), f.total.queueing_s);
}

TEST(FrameLedger, SaturatedFlowSynthesizesArrivalsAndTracksInFlight) {
  Registry reg;
  FrameLedger::Config cfg;
  cfg.n_flows = 1;
  cfg.registry = &reg;
  FrameLedger ledger(cfg);

  // No kArrival ever: the first BACKOFF_START opens the first journey.
  ledger.record(ev(0.0, EventType::kBackoffStart, 0, 0));
  ledger.record(ev(0.001, EventType::kTxStart, 0, 0, "DATA"));
  ledger.record(ev(0.002, EventType::kStateChange, 0, 0, "DELIVERED"));
  // Delivery immediately opens the next head-of-line journey.
  ledger.record(ev(0.003, EventType::kTxStart, 0, 0, "DATA"));
  ledger.record(ev(0.004, EventType::kBackoffStart, 0, 0));
  ledger.record(ev(0.005, EventType::kDrop, 0, 0));

  const LifecycleReport& rep = ledger.finalize(0.006);
  const FlowLifecycle& f = rep.flows[0];
  // Three journeys opened: delivered, dropped, and the one still open.
  EXPECT_EQ(f.arrivals, 3u);
  EXPECT_EQ(f.delivered, 1u);
  EXPECT_EQ(f.dropped, 1u);
  EXPECT_EQ(f.in_flight, 1u);
  EXPECT_EQ(f.arrivals, f.delivered + f.dropped + f.in_flight);
}

// ---------------------------------------------------------------------------
// TimeSeriesSampler
// ---------------------------------------------------------------------------

TEST(TimeSeriesSampler, WindowsCoverTheRunAndCountDeliveries) {
  TimeSeriesSampler::Config cfg;
  cfg.n_flows = 1;
  cfg.payload_bits = 8000.0;
  TimeSeriesSampler sampler(cfg);

  sampler.record(ev(0.001, EventType::kArrival, 0, 0));
  sampler.record(ev(0.002, EventType::kTxStart, 0, 0));
  sampler.record(ev(0.005, EventType::kStateChange, 0, 0, "DELIVERED"));
  sampler.record(ev(0.012, EventType::kArrival, 0, 0));
  sampler.record(ev(0.013, EventType::kTxStart, 0, 0));
  sampler.record(ev(0.014, EventType::kCollision, 0, 0));

  const LifecycleSeries& s = sampler.finalize(0.05);
  EXPECT_DOUBLE_EQ(s.window_s, 0.01);
  ASSERT_EQ(s.t_s.size(), 5u);
  // Window 0: one delivery of 8000 bits over 10 ms = 0.8 Mbps.
  EXPECT_DOUBLE_EQ(s.goodput_mbps[0], 0.8);
  EXPECT_DOUBLE_EQ(s.goodput_mbps[1], 0.0);
  // Window 1: one TX start, one collision.
  EXPECT_DOUBLE_EQ(s.collision_rate[1], 1.0);
  // The window-1 arrival is still outstanding at every later window end.
  EXPECT_DOUBLE_EQ(s.in_flight[0], 0.0);
  EXPECT_DOUBLE_EQ(s.in_flight[4], 1.0);
}

// ---------------------------------------------------------------------------
// InvariantAuditor
// ---------------------------------------------------------------------------

TEST(InvariantAuditor, CleanStreamHasNoBreaches) {
  InvariantAuditor::Config cfg;
  cfg.n_nodes = 2;
  cfg.n_flows = 1;
  InvariantAuditor auditor(cfg);
  auditor.record(ev(0.0, EventType::kArrival, 0, 0));
  auditor.record(ev(0.001, EventType::kTxStart, 0, 0, "DATA"));
  auditor.record(ev(0.002, EventType::kTxEnd, 0, 0, "DATA"));
  auditor.record(ev(0.003, EventType::kStateChange, 0, 0, "DELIVERED"));
  EXPECT_EQ(auditor.finalize(0.01), 0u);
  EXPECT_TRUE(auditor.flight_recorder_json().empty());
}

TEST(InvariantAuditor, CorruptedTraceTriggersBreachWithFlightRecorder) {
  const std::string dump_path =
      testing::TempDir() + "/lifecycle_flight_recorder.json";
  std::remove(dump_path.c_str());
  InvariantAuditor::Config cfg;
  cfg.n_nodes = 2;
  cfg.n_flows = 1;
  cfg.dump_path = dump_path;
  InvariantAuditor auditor(cfg);

  auditor.record(ev(0.001, EventType::kTxStart, 0, 0, "DATA"));
  // Corruption 1: a second TX_START at the same node with no TX_END.
  auditor.record(ev(0.002, EventType::kTxStart, 0, 0, "DATA"));
  // Corruption 2: time runs backwards.
  auditor.record(ev(0.001, EventType::kTxEnd, 0, 0, "DATA"));
  // Corruption 3: delivery without any arrival is fine (saturated), but
  // more completions than arrivals on an arrival-backed flow is not.
  auditor.record(ev(0.003, EventType::kArrival, 1, 0));
  auditor.record(ev(0.004, EventType::kStateChange, 1, 0, "DELIVERED"));
  auditor.record(ev(0.005, EventType::kStateChange, 1, 0, "DELIVERED"));

  EXPECT_GE(auditor.finalize(0.01), 3u);
  ASSERT_FALSE(auditor.breach_messages().empty());

  // The in-memory post-mortem parses as JSON and carries the events.
  const std::string json = auditor.flight_recorder_json();
  ASSERT_FALSE(json.empty());
  const JsonValue v = JsonValue::parse(json);
  EXPECT_EQ(v.at("schema").as_string(), "holtwlan-flight-recorder-v1");
  EXPECT_GE(v.at("breaches").as_number(), 3.0);
  EXPECT_FALSE(v.at("messages").items().empty());
  EXPECT_FALSE(v.at("events").items().empty());

  // And the same document landed at the configured dump path.
  std::ifstream in(dump_path);
  ASSERT_TRUE(in.is_open());
  std::stringstream file_contents;
  file_contents << in.rdbuf();
  EXPECT_FALSE(file_contents.str().empty());
  EXPECT_NO_THROW(JsonValue::parse(file_contents.str()));
  std::remove(dump_path.c_str());
}

TEST(InvariantAuditor, AirtimePartitionMustClose) {
  InvariantAuditor::Config cfg;
  cfg.n_nodes = 1;
  cfg.n_flows = 1;
  InvariantAuditor auditor(cfg);
  AirtimeReport report;
  report.duration_s = 1.0;
  report.idle_s = 0.5;
  report.busy_s = 0.3;
  report.collision_s = 0.1;  // 0.1 s of channel time unaccounted
  auditor.audit(report);
  EXPECT_GE(auditor.breaches(), 1u);
}

TEST(InvariantAuditor, LedgerConservationCrossCheck) {
  InvariantAuditor::Config cfg;
  cfg.n_nodes = 1;
  cfg.n_flows = 1;
  InvariantAuditor auditor(cfg);
  LifecycleReport ledger;
  ledger.flows.resize(1);
  ledger.flows[0].arrivals = 10;
  ledger.flows[0].delivered = 6;
  ledger.flows[0].dropped = 1;
  ledger.flows[0].in_flight = 3;
  auditor.audit(ledger);
  EXPECT_EQ(auditor.breaches(), 0u);
  ledger.flows[0].in_flight = 2;  // one frame vanished
  auditor.audit(ledger);
  EXPECT_EQ(auditor.breaches(), 1u);
}

// ---------------------------------------------------------------------------
// Netsim integration: reconciliation and shard-merge identity
// ---------------------------------------------------------------------------

net::NetworkConfig lifecycle_config() {
  net::NetworkConfig cfg;
  cfg.duration_s = 0.2;
  cfg.lifecycle.enabled = true;
  return cfg;
}

std::vector<net::NodeConfig> three_nodes() {
  std::vector<net::NodeConfig> nodes(3);
  nodes[1].position = {20.0, 0.0};
  nodes[2].position = {10.0, 10.0};
  return nodes;
}

TEST(LifecycleNetsim, LedgerReconcilesWithSimulatorCounters) {
  // One saturated and one Poisson flow into a shared receiver.
  const net::NetworkConfig cfg = lifecycle_config();
  const std::vector<net::Flow> flows = {{0, 2, 0.0}, {1, 2, 2000.0}};
  Rng rng(42);
  obs::Registry reg;
  net::NetworkConfig run_cfg = cfg;
  run_cfg.registry = &reg;
  const auto result = net::simulate_network(run_cfg, three_nodes(), flows, rng);

  EXPECT_EQ(result.lifecycle.breaches, 0u) << [&] {
    std::string all;
    for (const auto& m : result.lifecycle.breach_messages) all += m + "\n";
    return all;
  }();
  ASSERT_EQ(result.lifecycle.ledger.flows.size(), 2u);
  for (std::size_t f = 0; f < 2; ++f) {
    const FlowLifecycle& lf = result.lifecycle.ledger.flows[f];
    const net::FlowStats& fs = result.flows[f];
    // The ledger reconstructs delivery/drop counts purely from events;
    // they must agree with the simulator's own counters.
    EXPECT_EQ(lf.delivered, fs.delivered) << "flow " << f;
    EXPECT_EQ(lf.dropped, fs.drops) << "flow " << f;
    EXPECT_EQ(lf.arrivals, lf.delivered + lf.dropped + lf.in_flight)
        << "flow " << f;
  }
  // The Poisson flow's ledger delay must agree with the simulator's own
  // queue-timestamp bookkeeping (same quantity, independent pipelines;
  // only floating-point segment summation separates them).
  const FlowLifecycle& poisson = result.lifecycle.ledger.flows[1];
  ASSERT_GT(poisson.delivered, 0u);
  EXPECT_NEAR(poisson.mean_delay_s, result.flows[1].mean_delay_s,
              1e-9 * std::max(1.0, result.flows[1].mean_delay_s));
  // Delivered-frame count in the delay histogram matches the ledger.
  const Histogram* h = reg.find_histogram("lifecycle.delay_s");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), result.lifecycle.ledger.delivered);
}

// Compares every lifecycle histogram of two registries bitwise.
void expect_histograms_identical(const Registry& a, const Registry& b,
                                 std::size_t n_flows) {
  std::vector<std::vector<Label>> keys;
  keys.push_back({});
  for (std::size_t f = 0; f < n_flows; ++f) {
    keys.push_back({{"flow", std::to_string(f)}});
  }
  for (const auto& labels : keys) {
    SCOPED_TRACE(labels.empty() ? "aggregate" : "flow " + labels[0].value);
    const Histogram* ha = a.find_histogram("lifecycle.delay_s", labels);
    const Histogram* hb = b.find_histogram("lifecycle.delay_s", labels);
    ASSERT_NE(ha, nullptr);
    ASSERT_NE(hb, nullptr);
    EXPECT_EQ(ha->count(), hb->count());
    // Bitwise: merge order is run order in both batches, so even the
    // floating-point sums must agree exactly.
    EXPECT_EQ(ha->sum(), hb->sum());
    EXPECT_EQ(ha->min(), hb->min());
    EXPECT_EQ(ha->max(), hb->max());
    EXPECT_EQ(ha->underflow(), hb->underflow());
    EXPECT_EQ(ha->overflow(), hb->overflow());
    ASSERT_EQ(ha->bins(), hb->bins());
    for (std::size_t i = 0; i < ha->bins(); ++i) {
      EXPECT_EQ(ha->bin_count(i), hb->bin_count(i)) << "bin " << i;
    }
  }
}

TEST(LifecycleNetsim, BatchHistogramsBitwiseIdenticalAcrossJobCounts) {
  const net::NetworkConfig cfg = lifecycle_config();
  const std::vector<net::Flow> flows = {{0, 2, 0.0}, {1, 2, 2000.0}};
  constexpr std::size_t kRuns = 6;

  Registry reg_serial;
  net::BatchOptions serial;
  serial.jobs = 1;
  serial.registry = &reg_serial;
  const auto runs_serial = net::simulate_network_batch(cfg, three_nodes(),
                                                      flows, kRuns, serial);

  Registry reg_parallel;
  net::BatchOptions parallel;
  parallel.jobs = 8;
  parallel.registry = &reg_parallel;
  const auto runs_parallel = net::simulate_network_batch(
      cfg, three_nodes(), flows, kRuns, parallel);

  ASSERT_EQ(runs_serial.size(), runs_parallel.size());
  for (std::size_t r = 0; r < kRuns; ++r) {
    EXPECT_EQ(runs_serial[r].lifecycle.breaches, 0u);
    EXPECT_EQ(runs_parallel[r].lifecycle.breaches, 0u);
    EXPECT_EQ(runs_serial[r].lifecycle.ledger.delivered,
              runs_parallel[r].lifecycle.ledger.delivered);
  }
  expect_histograms_identical(reg_serial, reg_parallel, flows.size());
  // The whole snapshot (counters, gauges, every histogram) must match
  // textually too — instrument entry order is creation order, which the
  // upfront registration in FrameLedger keeps schedule-independent.
  EXPECT_EQ(reg_serial.snapshot_json(), reg_parallel.snapshot_json());
}

TEST(LifecycleNetsim, DisabledLifecycleLeavesResultEmpty) {
  net::NetworkConfig cfg;
  cfg.duration_s = 0.05;
  Rng rng(7);
  const auto result =
      net::simulate_network(cfg, three_nodes(), {{0, 2, 0.0}}, rng);
  EXPECT_TRUE(result.lifecycle.ledger.flows.empty());
  EXPECT_EQ(result.lifecycle.breaches, 0u);
  EXPECT_TRUE(result.lifecycle.flight_recorder_json.empty());
}

}  // namespace
}  // namespace wlan::obs
