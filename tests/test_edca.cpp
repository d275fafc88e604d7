// Tests for 802.11e EDCA prioritized access in the slotted contention model.
#include <gtest/gtest.h>

#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "mac/dcf.h"

namespace wlan::mac {
namespace {

// The 24/6 Mbps OFDM setup the EDCA tests were written for.
DcfConfig edca_config() {
  DcfConfig cfg;
  cfg.data_rate_mbps = 24.0;
  cfg.basic_rate_mbps = 6.0;
  return cfg;
}

TEST(EdcaDefaults, PrioritiesOrderedByParameters) {
  const PhyGeneration ofdm = PhyGeneration::kOfdm;
  const EdcaParams vo = edca_defaults(AccessCategory::kVoice, ofdm);
  const EdcaParams vi = edca_defaults(AccessCategory::kVideo, ofdm);
  const EdcaParams be = edca_defaults(AccessCategory::kBestEffort, ofdm);
  const EdcaParams bk = edca_defaults(AccessCategory::kBackground, ofdm);
  EXPECT_LT(vo.cw_min, be.cw_min);
  EXPECT_LT(vi.cw_min, be.cw_min);
  EXPECT_LE(vo.aifsn, be.aifsn);
  EXPECT_LT(be.aifsn, bk.aifsn);
  EXPECT_GT(vo.txop_s, 0.0);
  EXPECT_DOUBLE_EQ(be.txop_s, 0.0);
}

TEST(EdcaDefaults, DcfIsDifsWithThePhyContentionWindow) {
  for (const PhyGeneration gen : {PhyGeneration::kDsss, PhyGeneration::kOfdm,
                                  PhyGeneration::kHt}) {
    const MacTiming t = mac_timing(gen);
    const EdcaParams dcf = edca_defaults(AccessCategory::kDcf, gen);
    EXPECT_EQ(dcf.aifsn, 2u);
    EXPECT_EQ(dcf.cw_min, t.cw_min);
    EXPECT_EQ(dcf.cw_max, t.cw_max);
    EXPECT_DOUBLE_EQ(dcf.txop_s, 0.0);
  }
  EXPECT_STREQ(access_category_name(AccessCategory::kDcf), "DCF");
}

TEST(EdcaDefaults, WindowsFollowThePhyContentionWindow) {
  // DSSS: aCWmin 31, so AC_VO 7/15 and AC_VI 15/31.
  for (const PhyGeneration gen :
       {PhyGeneration::kDsss, PhyGeneration::kHrDsss}) {
    const EdcaParams vo = edca_defaults(AccessCategory::kVoice, gen);
    const EdcaParams vi = edca_defaults(AccessCategory::kVideo, gen);
    const EdcaParams be = edca_defaults(AccessCategory::kBestEffort, gen);
    EXPECT_EQ(vo.aifsn, 2u);
    EXPECT_EQ(vo.cw_min, 7u);
    EXPECT_EQ(vo.cw_max, 15u);
    EXPECT_DOUBLE_EQ(vo.txop_s, 3.264e-3);
    EXPECT_EQ(vi.aifsn, 2u);
    EXPECT_EQ(vi.cw_min, 15u);
    EXPECT_EQ(vi.cw_max, 31u);
    EXPECT_DOUBLE_EQ(vi.txop_s, 6.016e-3);
    EXPECT_EQ(be.cw_min, 31u);
    EXPECT_EQ(be.cw_max, 1023u);
  }
  // OFDM and HT (aCWmin 15): the rows the EDCA results were pinned on.
  struct Row {
    AccessCategory ac;
    unsigned aifsn, cw_min, cw_max;
    double txop_s;
  };
  const Row ofdm_rows[] = {
      {AccessCategory::kVoice, 2, 3, 7, 1.504e-3},
      {AccessCategory::kVideo, 2, 7, 15, 3.008e-3},
      {AccessCategory::kBestEffort, 3, 15, 1023, 0.0},
      {AccessCategory::kBackground, 7, 15, 1023, 0.0},
  };
  for (const PhyGeneration gen : {PhyGeneration::kOfdm, PhyGeneration::kHt}) {
    for (const Row& row : ofdm_rows) {
      const EdcaParams p = edca_defaults(row.ac, gen);
      EXPECT_EQ(p.aifsn, row.aifsn);
      EXPECT_EQ(p.cw_min, row.cw_min);
      EXPECT_EQ(p.cw_max, row.cw_max);
      EXPECT_EQ(p.txop_s, row.txop_s);
    }
  }
}

TEST(Edca, SingleStationDeliversContinuously) {
  Rng rng(1);
  DcfConfig cfg = edca_config();
  cfg.stations = {{AccessCategory::kBestEffort, 1000}};
  const auto r = simulate_dcf(cfg, rng);
  EXPECT_GT(r.throughput_mbps, 10.0);
  EXPECT_EQ(r.stations[0].collisions, 0u);
}

TEST(Edca, VoiceBeatsBestEffortUnderContention) {
  Rng rng(2);
  DcfConfig cfg = edca_config();
  std::vector<EdcaStation> stations;
  stations.push_back({AccessCategory::kVoice, 200});
  for (int i = 0; i < 6; ++i) {
    stations.push_back({AccessCategory::kBestEffort, 1000});
  }
  cfg.stations = stations;
  const auto r = simulate_dcf(cfg, rng);
  // Voice accesses the channel far faster than the best-effort crowd.
  double be_delay = 0.0;
  for (std::size_t i = 1; i < stations.size(); ++i) {
    be_delay += r.stations[i].mean_access_delay_s;
  }
  be_delay /= 6.0;
  EXPECT_GT(be_delay, 0.0);
  EXPECT_LT(r.stations[0].mean_access_delay_s, 0.5 * be_delay);
  EXPECT_GT(r.stations[0].delivered, 100u);
}

TEST(Edca, SaturatedVoiceStarvesBackground) {
  // A documented EDCA pathology this model reproduces exactly: voice's
  // worst case wait (AIFSN 2 + CW 3 = 5 slots) undercuts background's
  // best case (AIFSN 7), so a saturated voice queue starves background
  // completely.
  Rng rng(3);
  DcfConfig cfg = edca_config();
  cfg.stations = {{AccessCategory::kVoice, 500},
                  {AccessCategory::kBackground, 1000}};
  const auto r = simulate_dcf(cfg, rng);
  EXPECT_GT(r.stations[0].delivered, 500u);
  EXPECT_EQ(r.stations[1].delivered, 0u);
}

TEST(Edca, VideoTxopBurstsRaiseItsThroughput) {
  Rng rng(3);
  DcfConfig cfg = edca_config();
  cfg.stations = {{AccessCategory::kVideo, 1000},
                  {AccessCategory::kBestEffort, 1000}};
  const auto r = simulate_dcf(cfg, rng);
  // Video has both a shorter CW and a 3 ms TXOP: it should carry clearly
  // more traffic than the best-effort peer.
  EXPECT_GT(r.stations[0].throughput_mbps,
            1.5 * r.stations[1].throughput_mbps);
}

TEST(Edca, EqualCategoriesShareFairly) {
  Rng rng(4);
  DcfConfig cfg = edca_config();
  cfg.stations.assign(4, {AccessCategory::kBestEffort, 1000});
  const auto r = simulate_dcf(cfg, rng);
  double mn = 1e300;
  double mx = 0.0;
  for (const auto& s : r.stations) {
    mn = std::min(mn, s.throughput_mbps);
    mx = std::max(mx, s.throughput_mbps);
  }
  EXPECT_LT(mx / mn, 1.5);
}

TEST(Edca, CollisionsHappenBetweenPeers) {
  Rng rng(5);
  DcfConfig cfg = edca_config();
  cfg.duration_s = 4.0;
  cfg.stations.assign(8, {AccessCategory::kBestEffort, 500});
  const auto r = simulate_dcf(cfg, rng);
  std::uint64_t collisions = 0;
  for (const auto& s : r.stations) collisions += s.collisions;
  EXPECT_GT(collisions, 20u);
}

TEST(Edca, AggregateMatchesSumOfStations) {
  Rng rng(6);
  DcfConfig cfg = edca_config();
  cfg.stations = {{AccessCategory::kVoice, 200},
                  {AccessCategory::kVideo, 1000},
                  {AccessCategory::kBestEffort, 1000}};
  const auto r = simulate_dcf(cfg, rng);
  double sum = 0.0;
  for (const auto& s : r.stations) sum += s.throughput_mbps;
  EXPECT_NEAR(r.throughput_mbps, sum, 1e-9);
}

TEST(Edca, Validation) {
  Rng rng(7);
  DcfConfig cfg = edca_config();
  cfg.stations.clear();
  EXPECT_THROW(simulate_dcf(cfg, rng), ContractError);
  cfg.duration_s = 0.0;
  cfg.stations = {{AccessCategory::kVoice, 100}};
  EXPECT_THROW(simulate_dcf(cfg, rng), ContractError);
}

}  // namespace
}  // namespace wlan::mac
