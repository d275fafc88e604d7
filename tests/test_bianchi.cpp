// Tests for the Bianchi analytic DCF model and its agreement with the
// slotted simulator.
#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "mac/bianchi.h"
#include "mac/dcf.h"

namespace wlan::mac {
namespace {

TEST(Bianchi, SingleStationNeverCollides) {
  BianchiInput input;
  input.n_stations = 1;
  const auto r = bianchi_saturation(input);
  EXPECT_NEAR(r.collision_probability, 0.0, 1e-9);
  EXPECT_GT(r.tau, 0.05);
  EXPECT_GT(r.throughput_mbps, 20.0);
}

TEST(Bianchi, CollisionProbabilityGrowsWithStations) {
  double prev = 0.0;
  for (const std::size_t n : {2u, 5u, 10u, 20u, 50u}) {
    BianchiInput input;
    input.n_stations = n;
    const auto r = bianchi_saturation(input);
    EXPECT_GT(r.collision_probability, prev);
    prev = r.collision_probability;
  }
  EXPECT_GT(prev, 0.3);
  EXPECT_LT(prev, 0.9);
}

TEST(Bianchi, TauDecreasesWithStations) {
  BianchiInput a;
  a.n_stations = 2;
  BianchiInput b;
  b.n_stations = 40;
  EXPECT_GT(bianchi_saturation(a).tau, bianchi_saturation(b).tau);
}

TEST(Bianchi, ThroughputDegradesSlowlyLikeTheClassicCurve) {
  BianchiInput input;
  const auto few = [&] {
    input.n_stations = 5;
    return bianchi_saturation(input).throughput_mbps;
  }();
  const auto many = [&] {
    input.n_stations = 50;
    return bianchi_saturation(input).throughput_mbps;
  }();
  EXPECT_GT(many, 0.5 * few);  // famous flat-ish saturation curve
  EXPECT_LT(many, few);
}

TEST(Bianchi, RtsCtsWinsAtLargeN) {
  BianchiInput basic;
  basic.n_stations = 50;
  basic.payload_bytes = 2000;
  BianchiInput rts = basic;
  rts.rts_cts = true;
  EXPECT_GT(bianchi_saturation(rts).throughput_mbps,
            bianchi_saturation(basic).throughput_mbps);
}

class BianchiVsSimulator : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BianchiVsSimulator, ThroughputAgreesWithin20Percent) {
  const std::size_t n = GetParam();
  BianchiInput input;
  input.n_stations = n;
  input.data_rate_mbps = 54.0;
  const auto model = bianchi_saturation(input);

  DcfConfig cfg;
  cfg.stations.resize(n);
  cfg.data_rate_mbps = 54.0;
  cfg.duration_s = 3.0;
  Rng rng(100 + n);
  const auto sim = simulate_dcf(cfg, rng);

  EXPECT_NEAR(sim.throughput_mbps, model.throughput_mbps,
              0.2 * model.throughput_mbps)
      << "n = " << n;
}

TEST_P(BianchiVsSimulator, CollisionProbabilityAgrees) {
  const std::size_t n = GetParam();
  if (n < 2) GTEST_SKIP();
  BianchiInput input;
  input.n_stations = n;
  const auto model = bianchi_saturation(input);

  DcfConfig cfg;
  cfg.stations.resize(n);
  cfg.duration_s = 3.0;
  Rng rng(200 + n);
  const auto sim = simulate_dcf(cfg, rng);
  EXPECT_NEAR(sim.collision_probability, model.collision_probability,
              std::max(0.05, 0.3 * model.collision_probability))
      << "n = " << n;
}

INSTANTIATE_TEST_SUITE_P(StationCounts, BianchiVsSimulator,
                         ::testing::Values(1, 2, 5, 10, 25));

TEST(Bianchi, Validation) {
  BianchiInput input;
  input.n_stations = 0;
  EXPECT_THROW(bianchi_saturation(input), ContractError);
}

}  // namespace
}  // namespace wlan::mac
