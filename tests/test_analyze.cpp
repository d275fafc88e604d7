// Tests for the analysis layer: JSON parsing, airtime accounting, the
// Chrome trace exporter, PHY link-quality probes, sink drop counters,
// and the bench regression gate.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "mac/frames.h"
#include "mac/timing.h"
#include "net/netsim.h"
#include "obs/analyze/airtime.h"
#include "obs/analyze/chrome_trace.h"
#include "obs/json.h"
#include "obs/probe.h"
#include "obs/regress.h"
#include "phy/ofdm.h"

namespace wlan::obs {
namespace {

// ---------------------------------------------------------------------------
// JSON parser
// ---------------------------------------------------------------------------

TEST(JsonParse, ScalarsAndNesting) {
  const JsonValue v = JsonValue::parse(
      R"({"a": 1.5, "b": [true, false, null, "x"], "c": {"d": -2e3}})");
  EXPECT_DOUBLE_EQ(v.at("a").as_number(), 1.5);
  const auto& arr = v.at("b").items();
  ASSERT_EQ(arr.size(), 4u);
  EXPECT_TRUE(arr[0].as_bool());
  EXPECT_FALSE(arr[1].as_bool());
  EXPECT_TRUE(arr[2].is_null());
  EXPECT_EQ(arr[3].as_string(), "x");
  EXPECT_DOUBLE_EQ(v.at("c").at("d").as_number(), -2000.0);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonParse, StringEscapes) {
  const JsonValue v =
      JsonValue::parse(R"(["a\"b", "\\\n\t", "A", "é"])");
  const auto& arr = v.items();
  EXPECT_EQ(arr[0].as_string(), "a\"b");
  EXPECT_EQ(arr[1].as_string(), "\\\n\t");
  EXPECT_EQ(arr[2].as_string(), "A");
  EXPECT_EQ(arr[3].as_string(), "\xc3\xa9");  // UTF-8 e-acute
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW(JsonValue::parse("{"), ContractError);
  EXPECT_THROW(JsonValue::parse("[1,]"), ContractError);
  EXPECT_THROW(JsonValue::parse("tru"), ContractError);
  EXPECT_THROW(JsonValue::parse("1 x"), ContractError);
  EXPECT_THROW(JsonValue::parse("\"unterminated"), ContractError);
  EXPECT_THROW(JsonValue::parse(""), ContractError);
}

TEST(JsonParse, RoundTripsSinkOutput) {
  // What write_event_json emits must be what JsonValue::parse reads.
  TraceEvent e;
  e.time_s = 1.25;
  e.type = EventType::kTxStart;
  e.node = 3;
  e.peer = 1;
  e.flow = 0;
  e.value = 2e-3;
  e.detail = "DATA";
  std::ostringstream out;
  write_event_json(out, e);
  const JsonValue v = JsonValue::parse(out.str());
  EXPECT_DOUBLE_EQ(v.at("t").as_number(), 1.25);
  EXPECT_EQ(v.at("ev").as_string(), "TX_START");
  EXPECT_DOUBLE_EQ(v.at("node").as_number(), 3.0);
  EXPECT_EQ(v.at("detail").as_string(), "DATA");
}

// ---------------------------------------------------------------------------
// Sink drop counters
// ---------------------------------------------------------------------------

TEST(TraceSinks, RingReportsEvictedEvents) {
  RingTraceSink ring(4);
  TraceEvent e;
  for (int i = 0; i < 10; ++i) {
    e.time_s = i;
    ring.record(e);
  }
  EXPECT_EQ(ring.total(), 10u);
  EXPECT_EQ(ring.events().size(), 4u);
  EXPECT_EQ(ring.dropped(), 6u);
}

TEST(TraceSinks, JsonlReportsWriteFailures) {
  std::ostringstream out;
  JsonlTraceSink sink(out);
  TraceEvent e;
  sink.record(e);
  EXPECT_EQ(sink.lines(), 1u);
  EXPECT_EQ(sink.dropped(), 0u);
  out.setstate(std::ios::badbit);
  sink.record(e);
  sink.record(e);
  EXPECT_EQ(sink.lines(), 1u);
  EXPECT_EQ(sink.dropped(), 2u);
}

// ---------------------------------------------------------------------------
// Airtime accountant on a hand-built stream
// ---------------------------------------------------------------------------

TraceEvent tx_event(EventType type, double t, std::int32_t node,
                    const char* detail = "DATA") {
  TraceEvent e;
  e.time_s = t;
  e.type = type;
  e.node = node;
  e.detail = detail;
  return e;
}

TEST(AirtimeAccountant, PartitionsOverlappingTransmissions) {
  AirtimeAccountant::Config cfg;
  cfg.n_nodes = 2;
  AirtimeAccountant acc(cfg);
  // node 0 transmits [0, 2), node 1 transmits [1, 3); run ends at 4.
  acc.record(tx_event(EventType::kTxStart, 0.0, 0));
  acc.record(tx_event(EventType::kTxStart, 1.0, 1));
  acc.record(tx_event(EventType::kTxEnd, 2.0, 0));
  acc.record(tx_event(EventType::kTxEnd, 3.0, 1));
  const AirtimeReport& r = acc.finalize(4.0);
  EXPECT_DOUBLE_EQ(r.duration_s, 4.0);
  EXPECT_DOUBLE_EQ(r.busy_s, 2.0);       // [0,1) and [2,3)
  EXPECT_DOUBLE_EQ(r.collision_s, 1.0);  // [1,2)
  EXPECT_DOUBLE_EQ(r.idle_s, 1.0);       // [3,4)
  EXPECT_DOUBLE_EQ(r.nodes[0].tx_s, 2.0);
  EXPECT_DOUBLE_EQ(r.nodes[0].tx_overlap_s, 1.0);
  EXPECT_DOUBLE_EQ(r.nodes[1].tx_s, 2.0);
  EXPECT_DOUBLE_EQ(r.nodes[1].tx_overlap_s, 1.0);
  EXPECT_EQ(r.nodes[0].data_frames, 1u);
  EXPECT_NEAR(r.idle_fraction() + r.busy_fraction() + r.collision_fraction(),
              1.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Airtime ledger against the network simulator
// ---------------------------------------------------------------------------

struct StarSim {
  net::NetworkResult result;
  Registry registry;
};

// n_senders stations in a ring around one AP, all saturated downlink to
// the AP, everyone in carrier-sense range.
void run_star(StarSim& sim, std::size_t n_senders, double duration_s,
              unsigned seed) {
  std::vector<net::NodeConfig> nodes(n_senders + 1);
  std::vector<net::Flow> flows;
  for (std::size_t i = 0; i < n_senders; ++i) {
    const double angle =
        6.2832 * static_cast<double>(i) / static_cast<double>(n_senders);
    nodes[i].position = {10.0 * std::cos(angle), 10.0 * std::sin(angle)};
    flows.push_back({i, n_senders});
  }
  net::NetworkConfig cfg;
  cfg.duration_s = duration_s;
  cfg.airtime = true;
  cfg.registry = &sim.registry;
  Rng rng(seed);
  sim.result = net::simulate_network(cfg, nodes, flows, rng);
}

TEST(AirtimeNetSim, FiveNodeLedgerReconcilesWithRegistryCounters) {
  StarSim sim;
  run_star(sim, 4, 0.5, 11);
  const AirtimeReport& a = sim.result.airtime;
  ASSERT_EQ(a.nodes.size(), 5u);

  // Data frames in the ledger == the simulator's own net.data_tx counter.
  std::uint64_t ledger_data = 0;
  std::uint64_t ledger_rts = 0;
  for (const NodeAirtime& n : a.nodes) {
    ledger_data += n.data_frames;
    ledger_rts += n.rts_frames;
  }
  EXPECT_GT(ledger_data, 0u);
  EXPECT_EQ(ledger_data, sim.registry.counter("net.data_tx").value());
  EXPECT_EQ(ledger_rts, sim.registry.counter("net.rts_tx").value());

  // The published gauges mirror the report.
  EXPECT_DOUBLE_EQ(sim.registry.gauge("airtime.busy_fraction").value(),
                   a.busy_fraction());
  EXPECT_DOUBLE_EQ(sim.registry.gauge("airtime.jain_airtime").value(),
                   a.jain_fairness_airtime());
}

TEST(AirtimeNetSim, TenNodeDcfPartitionSumsToOneAndTxAirtimeReconciles) {
  StarSim sim;
  run_star(sim, 9, 1.0, 42);
  const AirtimeReport& a = sim.result.airtime;
  ASSERT_EQ(a.nodes.size(), 10u);

  // The channel-time partition is exact by construction.
  EXPECT_NEAR(a.idle_fraction() + a.busy_fraction() + a.collision_fraction(),
              1.0, 1e-9);
  EXPECT_NEAR(a.idle_s + a.busy_s + a.collision_s, a.duration_s, 1e-9);
  EXPECT_GT(a.busy_s, 0.0);
  EXPECT_GT(a.collision_s, 0.0);  // 9 saturated contenders do collide

  // Per-node transmit airtime reconciles against the per-node frame
  // counters: every data frame occupies exactly one data-PPDU airtime
  // (a frame still in flight at the end may be truncated).
  const std::size_t mpdu =
      mac::mpdu_size_bytes(mac::FrameType::kData, 1000);
  const double t_data =
      mac::data_ppdu_duration_s(mac::PhyGeneration::kOfdm, 24.0, mpdu);
  for (std::size_t n = 0; n < 9; ++n) {
    const std::vector<Label> label{{"node", std::to_string(n)}};
    const std::uint64_t frames =
        sim.registry.counter("airtime.node_tx_frames", label).value();
    EXPECT_EQ(frames, a.nodes[n].tx_frames);
    EXPECT_GT(frames, 0u);
    const double expected =
        static_cast<double>(a.nodes[n].data_frames) * t_data;
    EXPECT_NEAR(a.nodes[n].tx_s, expected, t_data + 1e-9);
  }

  // Exact cross-ledger identity: every busy second has exactly one
  // non-overlapping transmitter, so sum(tx_s) - sum(tx_overlap_s) is
  // the channel's single-transmitter (busy) time.
  double node_tx = 0.0;
  double node_overlap = 0.0;
  for (const NodeAirtime& n : a.nodes) {
    node_tx += n.tx_s;
    node_overlap += n.tx_overlap_s;
  }
  EXPECT_NEAR(node_tx - node_overlap, a.busy_s, 1e-9);
}

// ---------------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------------

TEST(ChromeTrace, NetworkRunProducesValidBalancedJson) {
  std::ostringstream out;
  {
    ChromeTraceSink sink(out);
    std::vector<net::NodeConfig> nodes(5);
    std::vector<net::Flow> flows;
    for (std::size_t i = 0; i < 4; ++i) {
      nodes[i].position = {5.0 + static_cast<double>(i), 0.0};
      flows.push_back({i, 4});
    }
    net::NetworkConfig cfg;
    cfg.duration_s = 0.05;
    cfg.rts_cts = true;  // exercise NAV ("X") events too
    cfg.trace = &sink;
    Rng rng(3);
    net::simulate_network(cfg, nodes, flows, rng);
    sink.close();
    EXPECT_EQ(sink.dropped(), 0u);
    EXPECT_GT(sink.events_written(), 100u);
  }

  const JsonValue doc = JsonValue::parse(out.str());
  const auto& events = doc.at("traceEvents").items();
  ASSERT_GT(events.size(), 100u);

  std::map<std::pair<int, int>, int> depth;  // (pid, tid) -> open B count
  bool saw_nav = false;
  bool saw_meta = false;
  for (const JsonValue& e : events) {
    const std::string ph = e.at("ph").as_string();
    if (ph == "M") {
      saw_meta = true;
      continue;
    }
    const auto key = std::make_pair(
        static_cast<int>(e.at("pid").as_number()),
        static_cast<int>(e.at("tid").as_number()));
    if (ph == "B") {
      ++depth[key];
    } else if (ph == "E") {
      --depth[key];
      ASSERT_GE(depth[key], 0) << "unmatched E on pid/tid " << key.first
                               << "/" << key.second;
    } else if (ph == "X") {
      saw_nav = true;
      EXPECT_GE(e.at("dur").as_number(), 0.0);
    }
  }
  for (const auto& [key, d] : depth) {
    EXPECT_EQ(d, 0) << "unclosed B on pid/tid " << key.first << "/"
                    << key.second;
  }
  EXPECT_TRUE(saw_nav);
  EXPECT_TRUE(saw_meta);
}

TEST(ChromeTrace, CountsUnmatchableEventsAsDropped) {
  std::ostringstream out;
  ChromeTraceSink sink(out);
  sink.record(tx_event(EventType::kTxEnd, 1.0, 0));   // E with no B
  sink.record(tx_event(EventType::kTxStart, 2.0, -1));  // no node id
  sink.close();
  EXPECT_EQ(sink.dropped(), 2u);
  sink.record(tx_event(EventType::kTxStart, 3.0, 0));  // after close
  EXPECT_EQ(sink.dropped(), 3u);
  EXPECT_NO_THROW(JsonValue::parse(out.str()));
}

// ---------------------------------------------------------------------------
// PHY link-quality probes
// ---------------------------------------------------------------------------

TEST(PhyProbes, DisabledByDefault) {
  EXPECT_EQ(probe_histogram(Probe::kOfdmEvm), nullptr);
}

TEST(PhyProbes, NoiselessQam64EvmMatchesAnalyticZero) {
  Registry reg;
  enable_phy_probes(reg);
  const phy::OfdmPhy phy(phy::OfdmMcs::k54Mbps);  // 64-QAM 3/4
  std::vector<std::uint8_t> psdu(200);
  for (std::size_t i = 0; i < psdu.size(); ++i) {
    psdu[i] = static_cast<std::uint8_t>(37 * i + 11);
  }
  const auto wave = phy.transmit(psdu);
  phy.receive(wave, psdu.size(), 1e-12);
  disable_phy_probes();

  const std::vector<Label> label{{"chain", "ofdm"}};
  const Histogram* evm = reg.find_histogram("probe.evm", label);
  ASSERT_NE(evm, nullptr);
  EXPECT_GT(evm->count(), 0u);
  // A clean loopback's EVM is analytically zero; all that remains is
  // FFT round-off, many orders below any real impairment.
  EXPECT_LT(evm->max(), 1e-9);
}

TEST(PhyProbes, AwgnEvmMatchesNoiseLevel) {
  Registry reg;
  enable_phy_probes(reg);
  const phy::OfdmPhy phy(phy::OfdmMcs::k54Mbps);
  std::vector<std::uint8_t> psdu(400);
  for (std::size_t i = 0; i < psdu.size(); ++i) {
    psdu[i] = static_cast<std::uint8_t>(91 * i + 3);
  }
  auto wave = phy.transmit(psdu);
  const double noise_var = 1e-6;
  Rng rng(5);
  for (auto& s : wave) s += rng.cgaussian(noise_var);
  phy.receive(wave, psdu.size(), noise_var);
  disable_phy_probes();

  const std::vector<Label> label{{"chain", "ofdm"}};
  const Histogram* evm = reg.find_histogram("probe.evm", label);
  ASSERT_NE(evm, nullptr);
  // Per-tone post-FFT noise variance is Nfft * noise_var (unnormalized
  // forward FFT); the two-symbol LTF average leaves half a bin of
  // channel-estimation noise on top, so the equalized error variance is
  // 1.5 * Nfft * noise_var and RMS EVM = sqrt(1.5 * 64e-6) ~ 9.8e-3.
  const double analytic = std::sqrt(1.5 * 64.0 * noise_var);
  EXPECT_NEAR(evm->mean(), analytic, 0.15 * analytic);
  // And the post-eq SNR probe should sit near -10*log10(64e-6) ~ 42 dB.
  const Histogram* snr = reg.find_histogram("probe.post_eq_snr_db", label);
  ASSERT_NE(snr, nullptr);
  EXPECT_NEAR(snr->mean(), -10.0 * std::log10(64.0 * noise_var), 3.0);
}

// ---------------------------------------------------------------------------
// Bench regression gate
// ---------------------------------------------------------------------------

constexpr const char* kAggregate =
    R"({"schema":"holtwlan-bench-aggregate-v1","reports":[
         {"id":"C2","verdict":"REPRODUCED",
          "metrics":{"gain_db":10.4,"crossing":null}},
         {"id":"C11","verdict":"REPRODUCED",
          "metrics":{"papr_db":9.8}}]})";

TEST(BenchDiff, BaselineRoundTripIsClean) {
  const JsonValue agg = JsonValue::parse(kAggregate);
  const JsonValue base =
      JsonValue::parse(make_baseline_json(agg, 0.25, 1e-9));
  EXPECT_EQ(base.at("schema").as_string(), "holtwlan-bench-baseline-v1");
  const DiffResult r = diff_against_baseline(agg, base, false);
  EXPECT_TRUE(r.ok()) << [&] {
    std::ostringstream out;
    write_diff_report(out, r);
    return out.str();
  }();
  EXPECT_EQ(r.compared, 3u);  // NaN pins NaN ("no crossing" stays none)
}

// Kernel shares and EXT-ABS's timed lookup are wall-clock readings: a
// baseline leaves them unpinned, so a run on a slower or busier host
// still passes the gate, and the diff lists them as unpinned rows.
TEST(BenchDiff, BaselineLeavesKernelSharesUnpinned) {
  const JsonValue agg = JsonValue::parse(
      R"({"schema":"holtwlan-bench-aggregate-v1","reports":[
           {"id":"C2","verdict":"REPRODUCED",
            "metrics":{"gain_db":10.4,"kernel_share.fft":0.02}},
           {"id":"EXT-ABS","verdict":"REPRODUCED",
            "metrics":{"rms_per_error":0.046,"per_lookup_ns":6.2,
                       "speedup_vs_waveform":130000}}]})");
  const std::string base_json = make_baseline_json(agg, 0.25, 1e-9);
  EXPECT_EQ(base_json.find("kernel_share"), std::string::npos);
  EXPECT_EQ(base_json.find("per_lookup_ns"), std::string::npos);
  EXPECT_EQ(base_json.find("speedup_vs_waveform"), std::string::npos);
  const JsonValue noisy = JsonValue::parse(
      R"({"schema":"holtwlan-bench-aggregate-v1","reports":[
           {"id":"C2","verdict":"REPRODUCED",
            "metrics":{"gain_db":10.4,"kernel_share.fft":0.08}},
           {"id":"EXT-ABS","verdict":"REPRODUCED",
            "metrics":{"rms_per_error":0.046,"per_lookup_ns":12.4,
                       "speedup_vs_waveform":65000}}]})");
  const DiffResult r =
      diff_against_baseline(noisy, JsonValue::parse(base_json), false);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.compared, 2u);
  std::size_t unpinned = 0;
  for (const MetricDiff& row : r.rows) {
    if (row.status == MetricDiff::Status::kNew) ++unpinned;
  }
  EXPECT_EQ(unpinned, 3u);
}

TEST(BenchDiff, FailsOnPerturbedMetric) {
  const JsonValue base = JsonValue::parse(
      make_baseline_json(JsonValue::parse(kAggregate), 0.25, 1e-9));
  // gain_db drifts from 10.4 to 14.0: |delta| = 3.6 > 0.25 * 10.4 = 2.6.
  const JsonValue perturbed = JsonValue::parse(
      R"({"schema":"holtwlan-bench-aggregate-v1","reports":[
           {"id":"C2","verdict":"REPRODUCED",
            "metrics":{"gain_db":14.0,"crossing":null}},
           {"id":"C11","verdict":"REPRODUCED",
            "metrics":{"papr_db":9.8}}]})");
  const DiffResult r = diff_against_baseline(perturbed, base, false);
  EXPECT_FALSE(r.ok());  // <- what makes bench_diff exit nonzero
  ASSERT_EQ(r.failures(), 1u);
  bool found = false;
  for (const MetricDiff& row : r.rows) {
    if (row.status == MetricDiff::Status::kDrift) {
      found = true;
      EXPECT_EQ(row.bench, "C2");
      EXPECT_EQ(row.name, "gain_db");
    }
  }
  EXPECT_TRUE(found);
}

TEST(BenchDiff, FailsOnRegressedVerdictMissingBenchAndMissingMetric) {
  const JsonValue base = JsonValue::parse(
      make_baseline_json(JsonValue::parse(kAggregate), 0.25, 1e-9));
  const JsonValue degraded = JsonValue::parse(
      R"({"schema":"holtwlan-bench-aggregate-v1","reports":[
           {"id":"C2","verdict":"MISMATCH","metrics":{"gain_db":10.4}}]})");
  const DiffResult r = diff_against_baseline(degraded, base, false);
  std::size_t verdicts = 0;
  std::size_t missing_bench = 0;
  std::size_t missing_metric = 0;
  for (const MetricDiff& row : r.rows) {
    verdicts += row.status == MetricDiff::Status::kVerdictRegressed;
    missing_bench += row.status == MetricDiff::Status::kMissingBench;
    missing_metric += row.status == MetricDiff::Status::kMissingMetric;
  }
  EXPECT_EQ(verdicts, 1u);        // C2 REPRODUCED -> MISMATCH
  EXPECT_EQ(missing_bench, 1u);   // C11 vanished
  EXPECT_EQ(missing_metric, 1u);  // C2 lost "crossing"
  EXPECT_EQ(r.failures(), 3u);

  // --subset mode forgives the missing bench but nothing else.
  const DiffResult subset = diff_against_baseline(degraded, base, true);
  EXPECT_EQ(subset.failures(), 2u);
}

TEST(BenchDiff, NewMetricsAreReportedButNeverFail) {
  const JsonValue base = JsonValue::parse(
      make_baseline_json(JsonValue::parse(kAggregate), 0.25, 1e-9));
  const JsonValue grown = JsonValue::parse(
      R"({"schema":"holtwlan-bench-aggregate-v1","reports":[
           {"id":"C2","verdict":"REPRODUCED",
            "metrics":{"gain_db":10.4,"crossing":null,"extra":1.0}},
           {"id":"C11","verdict":"REPRODUCED",
            "metrics":{"papr_db":9.8}}]})");
  const DiffResult r = diff_against_baseline(grown, base, false);
  EXPECT_TRUE(r.ok());
  bool saw_new = false;
  for (const MetricDiff& row : r.rows) {
    saw_new |= row.status == MetricDiff::Status::kNew && row.name == "extra";
  }
  EXPECT_TRUE(saw_new);
}

TEST(BenchDiff, DuplicateIdsDisambiguatedByTitle) {
  // Two reports sharing an id: the title keeps their baseline entries
  // from binding to the same report.
  const JsonValue agg = JsonValue::parse(
      R"({"schema":"holtwlan-bench-aggregate-v1","reports":[
           {"id":"EXT","title":"EXT: rate adaptation",
            "verdict":"REPRODUCED","metrics":{"genie_gap_mbps":2.0}},
           {"id":"EXT","title":"EXT: hidden terminals",
            "verdict":"REPRODUCED","metrics":{"rts_loss":0.01}}]})");
  const JsonValue base =
      JsonValue::parse(make_baseline_json(agg, 0.25, 1e-9));
  const DiffResult r = diff_against_baseline(agg, base, false);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.compared, 2u);  // each entry matched its own report
  for (const MetricDiff& row : r.rows) {
    EXPECT_NE(row.status, MetricDiff::Status::kNew)
        << row.bench << "." << row.name
        << " cross-matched the wrong EXT report";
  }
}

TEST(BenchDiff, PerMetricToleranceOverridesDefault) {
  const JsonValue agg = JsonValue::parse(
      R"({"schema":"holtwlan-bench-aggregate-v1","reports":[
           {"id":"C2","verdict":"REPRODUCED","metrics":{"gain_db":10.5}}]})");
  const JsonValue base = JsonValue::parse(
      R"({"schema":"holtwlan-bench-baseline-v1",
          "default_rel_tol":0.25,"default_abs_tol":1e-9,
          "benches":[{"id":"C2","verdict":"REPRODUCED",
            "metrics":[{"name":"gain_db","value":10.4,"rel_tol":0.001}]}]})");
  // Default 25% would pass; the pinned 0.1% must fail.
  EXPECT_FALSE(diff_against_baseline(agg, base, false).ok());
}

}  // namespace
}  // namespace wlan::obs
