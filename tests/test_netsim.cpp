// Tests for the event-driven network simulator.
#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "core/link.h"
#include "mac/bianchi.h"
#include "mac/dcf.h"
#include "net/netsim.h"
#include "net/shard.h"
#include "obs/perf.h"

namespace wlan::net {
namespace {

NetworkConfig base_config() {
  NetworkConfig cfg;
  cfg.duration_s = 0.5;
  return cfg;
}

std::vector<NodeConfig> pair_topology(double separation_m) {
  std::vector<NodeConfig> nodes(2);
  nodes[0].position = {0.0, 0.0};
  nodes[1].position = {separation_m, 0.0};
  return nodes;
}

TEST(NetSim, SingleFlowApproachesAnalyticDcfBound) {
  Rng rng(1);
  const auto r =
      simulate_network(base_config(), pair_topology(10.0), {{0, 1}}, rng);
  // 24 Mbps PHY, 1000-byte payloads, DIFS+backoff+data+SIFS+ACK cycle:
  // ~15-16 Mbps of MAC goodput.
  EXPECT_GT(r.aggregate_throughput_mbps, 13.0);
  EXPECT_LT(r.aggregate_throughput_mbps, 18.0);
  EXPECT_EQ(r.data_failures, 0u);
  EXPECT_GT(r.total_delivered, 500u);
}

TEST(NetSim, OutOfRangeLinkDeliversNothing) {
  Rng rng(2);
  const auto r =
      simulate_network(base_config(), pair_topology(2000.0), {{0, 1}}, rng);
  EXPECT_EQ(r.total_delivered, 0u);
}

TEST(NetSim, TwoVisibleContendersShareAndCollide) {
  Rng rng(3);
  std::vector<NodeConfig> nodes(3);
  nodes[0].position = {0.0, 0.0};
  nodes[1].position = {5.0, 0.0};
  nodes[2].position = {2.5, 4.0};
  NetworkConfig cfg = base_config();
  cfg.duration_s = 2.0;
  const auto r = simulate_network(cfg, nodes, {{0, 2}, {1, 2}}, rng);
  // Both flows get a fair share.
  const double t0 = r.flows[0].throughput_mbps;
  const double t1 = r.flows[1].throughput_mbps;
  EXPECT_GT(t0, 0.3 * t1);
  EXPECT_GT(t1, 0.3 * t0);
  // Same-slot collisions occur at roughly 1/(CWmin+1) of attempts and
  // fail both frames.
  EXPECT_GT(r.simultaneous_starts, 10u);
  EXPECT_GT(r.data_failures, r.simultaneous_starts);
  EXPECT_GT(r.flows[0].retries + r.flows[1].retries, 10u);
}

TEST(NetSim, HiddenTerminalsCollideWithoutRtsCts) {
  Rng rng(4);
  const auto setup = make_hidden_terminal_setup(120.0);
  NetworkConfig cfg = base_config();
  cfg.duration_s = 2.0;
  const auto r = simulate_network(cfg, setup.nodes, setup.flows, rng);
  // The senders cannot hear each other: data frames overlap and die at
  // the receiver far more often than CSMA would ever allow.
  EXPECT_GT(r.data_failure_rate(), 0.1);
}

TEST(NetSim, RtsCtsProtectsHiddenTerminals) {
  Rng rng(5);
  const auto setup = make_hidden_terminal_setup(120.0);
  NetworkConfig cfg = base_config();
  cfg.duration_s = 2.0;
  cfg.rts_cts = true;
  const auto r = simulate_network(cfg, setup.nodes, setup.flows, rng);
  // Collisions move to the cheap RTS frames; the data frames survive.
  EXPECT_LT(r.data_failure_rate(), 0.05);
  EXPECT_GT(r.rts_failures, 0u);
  EXPECT_GT(r.aggregate_throughput_mbps, 5.0);
}

TEST(NetSim, VisibleContendersDontNeedRts) {
  // When everyone hears everyone, RTS/CTS only adds overhead.
  std::vector<NodeConfig> nodes(3);
  nodes[0].position = {0.0, 0.0};
  nodes[1].position = {5.0, 0.0};
  nodes[2].position = {2.5, 4.0};
  NetworkConfig basic = base_config();
  basic.duration_s = 2.0;
  NetworkConfig rts = basic;
  rts.rts_cts = true;
  Rng r1(6);
  Rng r2(6);
  const auto rb = simulate_network(basic, nodes, {{0, 2}, {1, 2}}, r1);
  const auto rr = simulate_network(rts, nodes, {{0, 2}, {1, 2}}, r2);
  EXPECT_GT(rb.aggregate_throughput_mbps, rr.aggregate_throughput_mbps);
}

TEST(NetSim, HigherPhyRateRaisesThroughput) {
  Rng rng(7);
  NetworkConfig slow = base_config();
  slow.data_rate_mbps = 6.0;
  slow.sinr_threshold_db = 3.0;
  NetworkConfig fast = base_config();
  fast.data_rate_mbps = 54.0;
  fast.sinr_threshold_db = 20.0;
  const auto rs = simulate_network(slow, pair_topology(10.0), {{0, 1}}, rng);
  const auto rf = simulate_network(fast, pair_topology(10.0), {{0, 1}}, rng);
  EXPECT_GT(rf.aggregate_throughput_mbps, 1.5 * rs.aggregate_throughput_mbps);
}

TEST(NetSim, ManyContendersStillDeliver) {
  Rng rng(8);
  // Eight stations around an AP, all within carrier sense.
  std::vector<NodeConfig> nodes(9);
  nodes[8].position = {0.0, 0.0};
  std::vector<Flow> flows;
  for (std::size_t i = 0; i < 8; ++i) {
    const double angle = static_cast<double>(i) * 0.785;
    nodes[i].position = {8.0 * std::cos(angle), 8.0 * std::sin(angle)};
    flows.push_back({i, 8});
  }
  NetworkConfig cfg = base_config();
  cfg.duration_s = 1.0;
  const auto r = simulate_network(cfg, nodes, flows, rng);
  EXPECT_GT(r.aggregate_throughput_mbps, 8.0);
  // Every flow makes progress (no starvation).
  for (const auto& f : r.flows) {
    EXPECT_GT(f.delivered, 10u) << "a flow starved";
  }
}

TEST(NetSim, CaptureLetsTheStrongFrameSurvive) {
  // One sender is much closer to the receiver: even with overlap its
  // frame clears the SINR threshold and captures.
  Rng rng(9);
  std::vector<NodeConfig> nodes(3);
  nodes[0].position = {197.0, 0.0};  // near the receiver
  nodes[1].position = {0.0, 0.0};    // far (hidden from node 0)
  nodes[2].position = {200.0, 0.0};  // receiver
  NetworkConfig cfg = base_config();
  cfg.duration_s = 2.0;
  const auto r = simulate_network(cfg, nodes, {{0, 2}, {1, 2}}, rng);
  // The near flow rides over the far one's interference.
  EXPECT_GT(r.flows[0].throughput_mbps, 10.0 * std::max(r.flows[1].throughput_mbps, 0.01));
}

TEST(NetSim, FairnessIndexNearOneForSymmetricContenders) {
  Rng rng(31);
  std::vector<NodeConfig> nodes(5);
  std::vector<Flow> flows;
  for (std::size_t i = 0; i < 4; ++i) {
    const double angle = 1.5708 * static_cast<double>(i);
    nodes[i].position = {9.0 * std::cos(angle), 9.0 * std::sin(angle)};
    flows.push_back({i, 4});
  }
  NetworkConfig cfg = base_config();
  cfg.duration_s = 2.0;
  const auto r = simulate_network(cfg, nodes, flows, rng);
  EXPECT_GT(r.jain_fairness(), 0.9);
}

TEST(NetSim, FairnessCollapsesUnderCapture) {
  Rng rng(32);
  std::vector<NodeConfig> nodes(3);
  nodes[0].position = {197.0, 0.0};
  nodes[1].position = {0.0, 0.0};
  nodes[2].position = {200.0, 0.0};
  NetworkConfig cfg = base_config();
  cfg.duration_s = 2.0;
  const auto r = simulate_network(cfg, nodes, {{0, 2}, {1, 2}}, rng);
  EXPECT_LT(r.jain_fairness(), 0.75);
}

// The event-driven engine collapses to classic single-cell DCF when all
// stations are in carrier-sense range of each other and saturated: its
// aggregate throughput and data-frame failure rate must sit on both the
// slotted contention model and Bianchi's fixed point, on the same 24/6
// Mbps, 1000-byte setup. Over seeds 1-24 at every n below, all three
// agree within 2.5% on throughput and within 0.03 on collision
// probability; the bounds leave twice that.
class NetSimOneCell : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NetSimOneCell, AgreesWithSlottedDcfAndBianchi) {
  const std::size_t n_sta = GetParam();
  std::vector<NodeConfig> nodes(n_sta + 1);
  std::vector<Flow> flows;
  for (std::size_t i = 0; i < n_sta; ++i) {
    const double angle = 6.2832 * static_cast<double>(i) / n_sta;
    nodes[i].position = {8.0 * std::cos(angle), 8.0 * std::sin(angle)};
    flows.push_back({i, n_sta});
  }
  NetworkConfig cfg = base_config();
  cfg.duration_s = 2.0;
  Rng rng(n_sta);
  const auto engine = simulate_network(cfg, nodes, flows, rng);

  mac::DcfConfig slotted_cfg;
  slotted_cfg.data_rate_mbps = cfg.data_rate_mbps;
  slotted_cfg.basic_rate_mbps = cfg.basic_rate_mbps;
  slotted_cfg.stations.assign(n_sta,
                              {mac::AccessCategory::kDcf, cfg.payload_bytes});
  slotted_cfg.duration_s = cfg.duration_s;
  Rng slotted_rng(n_sta);
  const auto slotted = mac::simulate_dcf(slotted_cfg, slotted_rng);

  mac::BianchiInput model;
  model.n_stations = n_sta;
  model.data_rate_mbps = cfg.data_rate_mbps;
  model.basic_rate_mbps = cfg.basic_rate_mbps;
  model.payload_bytes = cfg.payload_bytes;
  const auto theory = mac::bianchi_saturation(model);

  EXPECT_NEAR(engine.aggregate_throughput_mbps, slotted.throughput_mbps,
              0.05 * slotted.throughput_mbps);
  EXPECT_NEAR(engine.aggregate_throughput_mbps, theory.throughput_mbps,
              0.05 * theory.throughput_mbps);
  EXPECT_NEAR(engine.data_failure_rate(), slotted.collision_probability,
              0.05);
  EXPECT_NEAR(engine.data_failure_rate(), theory.collision_probability,
              0.05);
}

INSTANTIATE_TEST_SUITE_P(StationCounts, NetSimOneCell,
                         ::testing::Values(2, 3, 5, 8, 12, 16, 20));

TEST(NetSim, PoissonFlowDeliversItsOfferedLoad) {
  Rng rng(20);
  NetworkConfig cfg = base_config();
  cfg.duration_s = 4.0;
  const auto r = simulate_network(cfg, pair_topology(10.0),
                                  {{0, 1, 200.0}}, rng);
  // 200 pkt/s of 1000 B = 1.6 Mbps offered on a ~15 Mbps link: nearly all
  // delivered, with small queueing delay.
  EXPECT_GT(r.flows[0].delivered, 600u);
  EXPECT_NEAR(r.flows[0].throughput_mbps, 1.6, 0.4);
  EXPECT_GT(r.flows[0].mean_delay_s, 1e-4);
  EXPECT_LT(r.flows[0].mean_delay_s, 5e-3);
}

TEST(NetSim, QueueingDelayGrowsWithLoad) {
  NetworkConfig cfg = base_config();
  cfg.duration_s = 4.0;
  Rng r1(21);
  const auto light = simulate_network(cfg, pair_topology(10.0),
                                      {{0, 1, 100.0}}, r1);
  Rng r2(21);
  const auto heavy = simulate_network(cfg, pair_topology(10.0),
                                      {{0, 1, 1500.0}}, r2);
  EXPECT_GT(heavy.flows[0].mean_delay_s, light.flows[0].mean_delay_s);
}

TEST(NetSim, OverloadedPoissonFlowSaturates) {
  Rng rng(22);
  NetworkConfig cfg = base_config();
  cfg.duration_s = 2.0;
  // Offer 10x what the link can carry: throughput pins at the saturation
  // rate and delay blows up.
  const auto r = simulate_network(cfg, pair_topology(10.0),
                                  {{0, 1, 20000.0}}, rng);
  EXPECT_GT(r.flows[0].throughput_mbps, 13.0);
  EXPECT_LT(r.flows[0].throughput_mbps, 18.0);
  EXPECT_GT(r.flows[0].mean_delay_s, 0.05);
}

TEST(NetSim, LightPoissonCoexistsWithSaturatedNeighbor) {
  Rng rng(23);
  std::vector<NodeConfig> nodes(3);
  nodes[0].position = {0.0, 0.0};
  nodes[1].position = {5.0, 0.0};
  nodes[2].position = {2.5, 4.0};
  NetworkConfig cfg = base_config();
  cfg.duration_s = 3.0;
  const auto r = simulate_network(cfg, nodes,
                                  {{0, 2, 0.0}, {1, 2, 50.0}}, rng);
  // The light flow should still get essentially all its packets through.
  const double offered = 50.0 * 1000.0 * 8.0 / 1e6;
  EXPECT_GT(r.flows[1].throughput_mbps, 0.8 * offered);
}

NetworkConfig per_model_config() {
  NetworkConfig cfg;
  cfg.duration_s = 0.5;
  cfg.error_model.model = RxModel::kPerModel;
  return cfg;
}

TEST(NetSimPerModel, CleanLinkStillDelivers) {
  // At 10 m the SINR sits far above every waterfall: the PER model must
  // agree with the threshold model that the link is essentially perfect.
  Rng rng(40);
  const auto r =
      simulate_network(per_model_config(), pair_topology(10.0), {{0, 1}}, rng);
  EXPECT_GT(r.aggregate_throughput_mbps, 13.0);
  EXPECT_LT(r.data_failure_rate(), 0.02);
}

TEST(NetSimPerModel, GracefulDegradationInsteadOfCliff) {
  // The threshold model is a cliff: 100% of frames deliver one metre,
  // 0% the next. The PER model must produce a partial-loss regime where
  // frames both succeed AND fail at the same distance.
  NetworkConfig cfg = per_model_config();
  double d = 20.0;
  while (snr_at_distance_db(cfg.pathloss, d, 17.0, cfg.bandwidth_hz) > 12.0) {
    d *= 1.1;
  }
  Rng rng(41);
  const auto r = simulate_network(cfg, pair_topology(d), {{0, 1}}, rng);
  EXPECT_GT(r.total_delivered, 50u);
  EXPECT_GT(r.data_failures, 20u);
  // And loss grows monotonically with distance.
  Rng rng2(41);
  const auto far = simulate_network(cfg, pair_topology(1.6 * d), {{0, 1}}, rng2);
  EXPECT_LT(far.total_delivered, r.total_delivered);
}

TEST(NetSimPerModel, LongerPayloadsFailMoreOften) {
  // Payload-length PER scaling must reach the simulator: at a marginal
  // SNR a 1500-byte frame dies more often than a 200-byte frame.
  NetworkConfig cfg = per_model_config();
  double d = 20.0;
  while (snr_at_distance_db(cfg.pathloss, d, 17.0, cfg.bandwidth_hz) > 13.0) {
    d *= 1.1;
  }
  cfg.payload_bytes = 200;
  Rng r1(42);
  const auto small = simulate_network(cfg, pair_topology(d), {{0, 1}}, r1);
  cfg.payload_bytes = 1500;
  Rng r2(42);
  const auto large = simulate_network(cfg, pair_topology(d), {{0, 1}}, r2);
  EXPECT_GT(large.data_failure_rate(), small.data_failure_rate());
}

TEST(NetSimPerModel, DeterministicForSeed) {
  NetworkConfig cfg = per_model_config();
  cfg.error_model.shadowing_sigma_db = 6.0;
  cfg.duration_s = 0.3;
  Rng r1(43);
  Rng r2(43);
  const auto setup = make_hidden_terminal_setup(150.0);
  const auto a = simulate_network(cfg, setup.nodes, setup.flows, r1);
  const auto b = simulate_network(cfg, setup.nodes, setup.flows, r2);
  EXPECT_EQ(a.total_delivered, b.total_delivered);
  EXPECT_EQ(a.data_failures, b.data_failures);
  EXPECT_EQ(a.flows[0].retries, b.flows[0].retries);
  EXPECT_DOUBLE_EQ(a.aggregate_throughput_mbps, b.aggregate_throughput_mbps);
}

TEST(NetSimPerModel, ShadowingSpreadsLinkBudgets) {
  // With 8 dB shadowing some seeds draw a much worse link than the
  // deterministic path loss: outcomes across seeds must differ.
  NetworkConfig cfg = per_model_config();
  cfg.error_model.shadowing_sigma_db = 8.0;
  cfg.duration_s = 0.3;
  double d = 20.0;
  while (snr_at_distance_db(cfg.pathloss, d, 17.0, cfg.bandwidth_hz) > 15.0) {
    d *= 1.1;
  }
  std::uint64_t min_del = UINT64_MAX, max_del = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const auto r = simulate_network(cfg, pair_topology(d), {{0, 1}}, rng);
    min_del = std::min(min_del, r.total_delivered);
    max_del = std::max(max_del, r.total_delivered);
  }
  EXPECT_LT(min_del, max_del);
}

TEST(NetSimPerModel, DsssGenerationIsSupported) {
  NetworkConfig cfg = per_model_config();
  cfg.generation = mac::PhyGeneration::kDsss;
  cfg.data_rate_mbps = 2.0;
  cfg.basic_rate_mbps = 1.0;
  cfg.payload_bytes = 400;
  cfg.duration_s = 0.3;
  Rng rng(44);
  const auto r = simulate_network(cfg, pair_topology(10.0), {{0, 1}}, rng);
  EXPECT_GT(r.total_delivered, 20u);
}

TEST(NetSimPerModel, CollisionsStillDestroyFramesViaCaptureGate) {
  // The PER curves scale with payload length, so a 20-byte RTS at the
  // ~0 dB SINR of an equal-power collision would survive most draws on
  // its own; the preamble-capture gate must kill it like the threshold
  // model does. With RTS/CTS protecting the data, collision losses then
  // land on cheap RTS retries, not on data frames.
  NetworkConfig cfg = per_model_config();
  cfg.rts_cts = true;
  cfg.duration_s = 0.5;
  std::vector<NodeConfig> nodes(7);
  std::vector<Flow> flows;
  nodes[0].position = {0.0, 0.0};
  for (std::size_t c = 1; c < nodes.size(); ++c) {
    nodes[c].position = {c % 2 ? 14.0 : -14.0, 3.0 * static_cast<double>(c)};
    flows.push_back({c, 0});
  }
  Rng rng(48);
  const auto r = simulate_network(cfg, nodes, flows, rng);
  EXPECT_GT(r.rts_tx_count, 100u);
  // Six saturated stations collide often...
  EXPECT_GT(static_cast<double>(r.rts_failures) /
                static_cast<double>(r.rts_tx_count),
            0.05);
  // ...but protected data frames on clean links almost never fail.
  EXPECT_LT(r.data_failure_rate(), 0.02);
}

TEST(NetSimPerModel, ArfClimbsTheLadderOnACleanLink) {
  NetworkConfig cfg = per_model_config();
  cfg.rate_control = RateControlMode::kArf;
  Rng rng(45);
  const auto good =
      simulate_network(cfg, pair_topology(10.0), {{0, 1}}, rng);
  // ARF starts at 6 Mbps and must climb: mean attempted rate well above
  // the base, and throughput beyond anything 6 Mbps could carry.
  EXPECT_GT(good.flows[0].mean_data_rate_mbps, 30.0);
  EXPECT_GT(good.aggregate_throughput_mbps, 10.0);
}

TEST(NetSimPerModel, ArfBacksOffOnAMarginalLink) {
  NetworkConfig cfg = per_model_config();
  cfg.rate_control = RateControlMode::kArf;
  double d = 20.0;
  while (snr_at_distance_db(cfg.pathloss, d, 17.0, cfg.bandwidth_hz) > 12.0) {
    d *= 1.1;
  }
  Rng rng(46);
  const auto marginal = simulate_network(cfg, pair_topology(d), {{0, 1}}, rng);
  Rng rng2(46);
  const auto good = simulate_network(cfg, pair_topology(10.0), {{0, 1}}, rng2);
  EXPECT_LT(marginal.flows[0].mean_data_rate_mbps,
            good.flows[0].mean_data_rate_mbps);
  EXPECT_GT(marginal.total_delivered, 0u);
}

TEST(NetSimPerModel, FixedRateReportsConfiguredRate) {
  Rng rng(47);
  const auto r =
      simulate_network(base_config(), pair_topology(10.0), {{0, 1}}, rng);
  EXPECT_DOUBLE_EQ(r.flows[0].mean_data_rate_mbps, 24.0);
}

TEST(NetSimPerModel, ArfValidation) {
  Rng rng(48);
  // ARF without the PER model is rejected.
  NetworkConfig cfg = base_config();
  cfg.rate_control = RateControlMode::kArf;
  EXPECT_THROW(simulate_network(cfg, pair_topology(10.0), {{0, 1}}, rng),
               ContractError);
  // ARF outside the OFDM generation is rejected.
  NetworkConfig dsss = per_model_config();
  dsss.rate_control = RateControlMode::kArf;
  dsss.generation = mac::PhyGeneration::kDsss;
  dsss.data_rate_mbps = 2.0;
  dsss.basic_rate_mbps = 1.0;
  EXPECT_THROW(simulate_network(dsss, pair_topology(10.0), {{0, 1}}, rng),
               ContractError);
  // A fixed rate that matches no calibrated curve is rejected up front.
  NetworkConfig odd = per_model_config();
  odd.data_rate_mbps = 17.0;
  EXPECT_THROW(simulate_network(odd, pair_topology(10.0), {{0, 1}}, rng),
               ContractError);
}

// Every simulate call builds one fading pool, profiled as its own row
// under net.setup; a threshold-model call builds none.
TEST(NetSimPerModel, ProfileShowsOneFadingPoolPerCall) {
  const auto pool_rows = [](const NetworkConfig& cfg, bool sharded) {
    obs::perf::SpanProfile profile;
    obs::perf::enable_span_profiling(profile);
    const auto setup = make_hidden_terminal_setup(100.0);
    Rng rng(49);
    if (sharded) {
      simulate_network_sharded(cfg, setup.nodes, setup.flows, ShardOptions{},
                               rng);
    } else {
      simulate_network(cfg, setup.nodes, setup.flows, rng);
    }
    obs::perf::disable_span_profiling();
    const auto rows = profile.spans();
    const auto it = rows.find("net.setup;net.fading_pool");
    return it == rows.end() ? std::uint64_t{0} : it->second.calls;
  };
  NetworkConfig cfg = per_model_config();
  cfg.duration_s = 0.01;
  EXPECT_EQ(pool_rows(cfg, false), 1u);
  EXPECT_EQ(pool_rows(cfg, true), 1u);
  cfg.error_model.model = RxModel::kSinrThreshold;
  EXPECT_EQ(pool_rows(cfg, false), 0u);
  EXPECT_EQ(pool_rows(cfg, true), 0u);
}

TEST(NetSim, Validation) {
  Rng rng(10);
  const NetworkConfig cfg = base_config();
  EXPECT_THROW(simulate_network(cfg, {NodeConfig{}}, {{0, 0}}, rng),
               ContractError);
  EXPECT_THROW(
      simulate_network(cfg, pair_topology(10.0), std::vector<Flow>{}, rng),
      ContractError);
  EXPECT_THROW(simulate_network(cfg, pair_topology(10.0), {{0, 5}}, rng),
               ContractError);
  // Two flows from the same source are rejected.
  std::vector<NodeConfig> nodes(3);
  nodes[1].position = {5.0, 0.0};
  nodes[2].position = {0.0, 5.0};
  EXPECT_THROW(simulate_network(cfg, nodes, {{0, 1}, {0, 2}}, rng),
               ContractError);
}

TEST(NetSim, HiddenSetupGeometry) {
  const auto setup = make_hidden_terminal_setup(100.0);
  ASSERT_EQ(setup.nodes.size(), 3u);
  ASSERT_EQ(setup.flows.size(), 2u);
  EXPECT_DOUBLE_EQ(mesh::distance(setup.nodes[0].position,
                                  setup.nodes[1].position), 100.0);
  EXPECT_DOUBLE_EQ(mesh::distance(setup.nodes[0].position,
                                  setup.nodes[2].position), 50.0);
}

}  // namespace
}  // namespace wlan::net
