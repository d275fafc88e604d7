// Tests for MAC timing, the DCF simulator, and power-save mode.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "mac/dcf.h"
#include "mac/psm.h"
#include "mac/timing.h"

namespace wlan::mac {
namespace {

TEST(Timing, IfsValues) {
  const MacTiming dsss = mac_timing(PhyGeneration::kDsss);
  EXPECT_DOUBLE_EQ(dsss.sifs_s, 10e-6);
  EXPECT_DOUBLE_EQ(dsss.slot_s, 20e-6);
  EXPECT_DOUBLE_EQ(dsss.difs_s(), 50e-6);
  const MacTiming ofdm = mac_timing(PhyGeneration::kOfdm);
  EXPECT_DOUBLE_EQ(ofdm.sifs_s, 16e-6);
  EXPECT_DOUBLE_EQ(ofdm.difs_s(), 34e-6);
  EXPECT_EQ(ofdm.cw_min, 15u);
  EXPECT_EQ(dsss.cw_min, 31u);
}

TEST(Timing, DsssPpduDuration) {
  // 1500+28 bytes at 1 Mbps + 192 us preamble.
  const double t = dsss_ppdu_duration_s(1.0, 1528);
  EXPECT_NEAR(t, 192e-6 + 1528 * 8e-6, 1e-12);
  EXPECT_NEAR(dsss_ppdu_duration_s(11.0, 1528, true),
              96e-6 + 1528 * 8.0 / 11e6, 1e-12);
}

TEST(Timing, OfdmPpduMatchesPhyExample) {
  // Same example as the PHY test: 1000 bytes at 54 Mbps = 172 us, with
  // MAC header 28 bytes -> 1028 bytes: ceil(8246/216) = 39 symbols.
  EXPECT_NEAR(ofdm_ppdu_duration_s(54.0, 1028), 20e-6 + 39 * 4e-6, 1e-12);
}

TEST(Timing, HtPreambleGrowsWithStreams) {
  const double one = ht_ppdu_duration_s(65.0, 1000, 1, false);
  const double four = ht_ppdu_duration_s(260.0, 1000, 4, false);
  // 3 extra HT-LTFs = 12 us more preamble (data part shrinks with rate).
  EXPECT_GT(four, 32e-6 + 16e-6);
  EXPECT_GT(one, 32e-6 + 4e-6);
}

TEST(Timing, ControlFrameUsesLegacyOfdm) {
  const double ack = control_duration_s(PhyGeneration::kHt, kAckBytes, 24.0);
  // 14 bytes at 24 Mbps: 20 + ceil(134/96)*4 = 28 us.
  EXPECT_NEAR(ack, 28e-6, 1e-12);
}

TEST(Dcf, SingleStationMatchesAnalyticBound) {
  DcfConfig cfg;
  cfg.stations.resize(1);
  cfg.duration_s = 4.0;
  Rng rng(1);
  const DcfResult r = simulate_dcf(cfg, rng);
  const double bound = dcf_single_station_goodput_mbps(cfg);
  EXPECT_NEAR(r.throughput_mbps, bound, bound * 0.03);
  EXPECT_EQ(r.collisions, 0u);
  EXPECT_EQ(r.dropped, 0u);
}

TEST(Dcf, MacEfficiencyWellBelowPhyRate) {
  // The classic result: 54 Mbps PHY yields roughly 25-30 Mbps of MAC
  // goodput for 1500-byte frames.
  DcfConfig cfg;
  cfg.stations.resize(1);
  cfg.duration_s = 4.0;
  Rng rng(2);
  const DcfResult r = simulate_dcf(cfg, rng);
  EXPECT_GT(r.throughput_mbps, 20.0);
  EXPECT_LT(r.throughput_mbps, 35.0);
}

TEST(Dcf, CollisionProbabilityGrowsWithStations) {
  Rng rng(3);
  double prev = 0.0;
  for (const std::size_t n : {2u, 5u, 15u, 40u}) {
    DcfConfig cfg;
    cfg.stations.resize(n);
    cfg.duration_s = 2.0;
    const DcfResult r = simulate_dcf(cfg, rng);
    EXPECT_GT(r.collision_probability, prev);
    prev = r.collision_probability;
  }
  EXPECT_GT(prev, 0.15);
}

TEST(Dcf, AggregateThroughputDegradesGracefully) {
  Rng rng(4);
  DcfConfig one;
  one.stations.resize(1);
  one.duration_s = 2.0;
  DcfConfig many = one;
  many.stations.resize(30);
  const double t1 = simulate_dcf(one, rng).throughput_mbps;
  const double t30 = simulate_dcf(many, rng).throughput_mbps;
  EXPECT_LT(t30, t1);
  EXPECT_GT(t30, t1 * 0.5);  // DCF degrades but does not collapse
}

TEST(Dcf, RtsCtsHelpsWhenCollisionsAreExpensive) {
  Rng rng(5);
  DcfConfig base;
  base.stations.assign(40, {AccessCategory::kDcf, 2000});
  base.duration_s = 2.0;
  DcfConfig rts = base;
  rts.rts_cts = true;
  const DcfResult r_base = simulate_dcf(base, rng);
  const DcfResult r_rts = simulate_dcf(rts, rng);
  // With many stations and large frames, RTS/CTS throughput should be at
  // least competitive (collisions cost a 20-byte RTS, not a 2 KB frame).
  EXPECT_GT(r_rts.throughput_mbps, r_base.throughput_mbps * 0.9);
}

TEST(Dcf, PacketErrorsReduceThroughputAndCauseRetries) {
  Rng rng(6);
  DcfConfig clean;
  clean.stations.resize(1);
  clean.duration_s = 2.0;
  DcfConfig lossy = clean;
  lossy.packet_error_rate = 0.3;
  const DcfResult r_clean = simulate_dcf(clean, rng);
  const DcfResult r_lossy = simulate_dcf(lossy, rng);
  EXPECT_LT(r_lossy.throughput_mbps, r_clean.throughput_mbps * 0.85);
}

TEST(Dcf, HeavyLossCausesDrops) {
  Rng rng(7);
  DcfConfig cfg;
  cfg.stations.resize(1);
  cfg.packet_error_rate = 0.95;
  cfg.retry_limit = 4;
  cfg.duration_s = 2.0;
  const DcfResult r = simulate_dcf(cfg, rng);
  EXPECT_GT(r.dropped, 0u);
}

TEST(Dcf, AmpduAggregationRecoversMacEfficiency) {
  // The 802.11n insight: at high PHY rates, per-frame overhead dominates;
  // aggregating 16 MPDUs must raise goodput dramatically.
  Rng rng(8);
  DcfConfig single;
  single.generation = PhyGeneration::kHt;
  single.data_rate_mbps = 300.0;
  single.n_ss = 2;
  single.short_gi = true;
  single.stations.resize(1);
  single.duration_s = 2.0;
  DcfConfig aggregated = single;
  aggregated.ampdu_frames = 16;
  const double t1 = simulate_dcf(single, rng).throughput_mbps;
  const double t16 = simulate_dcf(aggregated, rng).throughput_mbps;
  EXPECT_GT(t16, 2.0 * t1);
  EXPECT_GT(t16, 100.0);
}

TEST(Dcf, AmpduPartialLossConservesFrames) {
  // Regression: MPDUs lost inside a partially-delivered A-MPDU used to
  // vanish — neither retried nor counted as dropped. Every offered MPDU
  // must end up delivered, dropped, or still pending.
  // Station mixes: two DCF peers; voice, video (both with TXOP bursts)
  // and best effort; DCF beside background.
  const std::vector<std::vector<EdcaStation>> mixes = {
      std::vector<EdcaStation>(2),
      {{AccessCategory::kVoice, 200},
       {AccessCategory::kVideo, 1000},
       {AccessCategory::kBestEffort, 1000}},
      {{AccessCategory::kDcf, 1500}, {AccessCategory::kBackground, 1500}},
  };
  for (std::size_t mix = 0; mix < mixes.size(); ++mix) {
    for (const double per : {0.0, 0.1, 0.3, 0.6, 0.95}) {
      for (const std::size_t ampdu : {std::size_t{1}, std::size_t{8},
                                      std::size_t{16}}) {
        Rng rng(77);
        DcfConfig cfg;
        cfg.generation = PhyGeneration::kHt;
        cfg.data_rate_mbps = 300.0;
        cfg.n_ss = 2;
        cfg.stations = mixes[mix];
        cfg.ampdu_frames = ampdu;
        cfg.packet_error_rate = per;
        cfg.retry_limit = 4;
        cfg.duration_s = 1.0;
        const DcfResult r = simulate_dcf(cfg, rng);
        EXPECT_EQ(r.offered_frames,
                  r.delivered_frames + r.dropped + r.pending_frames)
            << "mix=" << mix << " per=" << per << " ampdu=" << ampdu;
        if (per > 0.0 && ampdu > 1) {
          // The partial-loss regime actually exercises retransmission.
          EXPECT_GT(r.delivered_frames, 0u);
        }
      }
    }
  }
}

TEST(Dcf, AmpduLossesAreRetriedNotSwallowed) {
  // At 30% subframe loss with block ack, lost MPDUs retry and mostly
  // make it through eventually: the drop count stays far below the
  // number of first-attempt losses, and throughput beats the naive
  // "ok-subframes-only, rest forgotten" accounting which understates
  // delivered frames at high aggregation.
  Rng rng(78);
  DcfConfig cfg;
  cfg.generation = PhyGeneration::kHt;
  cfg.data_rate_mbps = 300.0;
  cfg.n_ss = 2;
  cfg.stations.resize(1);
  cfg.ampdu_frames = 16;
  cfg.packet_error_rate = 0.3;
  cfg.retry_limit = 7;
  cfg.duration_s = 2.0;
  const DcfResult r = simulate_dcf(cfg, rng);
  EXPECT_EQ(r.offered_frames,
            r.delivered_frames + r.dropped + r.pending_frames);
  // With 7 retries at 30% PER the drop probability per MPDU is ~0.3^8.
  EXPECT_LT(static_cast<double>(r.dropped),
            0.01 * static_cast<double>(r.offered_frames));
  EXPECT_GT(static_cast<double>(r.delivered_frames),
            0.95 * static_cast<double>(r.offered_frames -
                                       r.pending_frames));
}

// Exact outputs of six seeded runs spanning every PHY generation, RTS/CTS,
// channel errors, A-MPDU and n = 1 ... 40. A change to the contention loop
// that claims to leave plain DCF untouched must keep every field.
struct PinnedCase {
  const char* name;
  PhyGeneration generation;
  double data_rate_mbps;
  double basic_rate_mbps;
  std::size_t n_stations;
  std::size_t payload_bytes;
  bool rts_cts;
  double packet_error_rate;
  std::size_t ampdu_frames;
  std::size_t n_ss;
  bool short_gi;
  unsigned retry_limit;
  double duration_s;
  std::uint64_t seed;
  DcfResult expected;
};

DcfConfig pinned_config(const PinnedCase& c) {
  DcfConfig cfg;
  cfg.generation = c.generation;
  cfg.data_rate_mbps = c.data_rate_mbps;
  cfg.basic_rate_mbps = c.basic_rate_mbps;
  cfg.stations.assign(c.n_stations, {AccessCategory::kDcf, c.payload_bytes});
  cfg.rts_cts = c.rts_cts;
  cfg.packet_error_rate = c.packet_error_rate;
  cfg.ampdu_frames = c.ampdu_frames;
  cfg.n_ss = c.n_ss;
  cfg.short_gi = c.short_gi;
  cfg.retry_limit = c.retry_limit;
  cfg.duration_s = c.duration_s;
  return cfg;
}

DcfResult pinned(double throughput_mbps, double collision_probability,
                 double mean_access_delay_s, double busy_airtime_fraction,
                 std::uint64_t delivered, std::uint64_t attempts,
                 std::uint64_t collisions, std::uint64_t dropped,
                 std::uint64_t offered, std::uint64_t pending) {
  DcfResult r;
  r.throughput_mbps = throughput_mbps;
  r.collision_probability = collision_probability;
  r.mean_access_delay_s = mean_access_delay_s;
  r.busy_airtime_fraction = busy_airtime_fraction;
  r.delivered_frames = delivered;
  r.attempts = attempts;
  r.collisions = collisions;
  r.dropped = dropped;
  r.offered_frames = offered;
  r.pending_frames = pending;
  return r;
}

TEST(Dcf, PinnedOutputs) {
  const PinnedCase cases[] = {
      {"DSSS n=5", PhyGeneration::kDsss, 2.0, 1.0, 5, 1500, false, 0.0, 1, 1,
       false, 7, 2.0, 101,
       pinned(1.5589414787359499, 0.21921921921921922, 0.037913669230768943,
              0.98619437402004062, 260, 333, 73, 0, 262, 2)},
      {"OFDM n=10 PER 0.1", PhyGeneration::kOfdm, 54.0, 24.0, 10, 1500, false,
       0.1, 1, 1, false, 7, 1.0, 102,
       pinned(25.134520674491167, 0.33780313837375181, 0.0044913465393797919,
              0.93802351087462077, 2095, 3505, 1184, 1, 2105, 9)},
      {"HT A-MPDU 16 PER 0.3", PhyGeneration::kHt, 300.0, 24.0, 2, 1500,
       false, 0.3, 16, 2, true, 7, 1.0, 103,
       pinned(154.67021520759607, 0.10827532869296211, 0.0017345559410234439,
              0.95016061999236978, 12894, 1293, 140, 4, 12909, 11)},
      {"RTS/CTS n=40", PhyGeneration::kOfdm, 54.0, 24.0, 40, 2000, true, 0.0,
       1, 1, false, 7, 1.0, 104,
       pinned(27.867847690693431, 0.58365200764818359, 0.018238428243398754,
              0.96187468067256565, 1742, 4184, 2442, 13, 1792, 37)},
      {"n=1 PER 0.3", PhyGeneration::kOfdm, 54.0, 24.0, 1, 1500, false, 0.3, 1,
       1, false, 4, 1.0, 105,
       pinned(19.233153493282135, 0.0, 0.00061446537741736897,
              0.74479976963409045, 1603, 2285, 0, 4, 1607, 0)},
      {"n=25", PhyGeneration::kOfdm, 54.0, 24.0, 25, 1500, false, 0.0, 1, 1,
       false, 7, 1.0, 106,
       pinned(24.320035834157245, 0.50585080448561681, 0.010168588061174795,
              0.95404649042205192, 2027, 4102, 2075, 7, 2055, 21)},
  };
  for (const PinnedCase& c : cases) {
    SCOPED_TRACE(c.name);
    Rng rng(c.seed);
    const DcfResult r = simulate_dcf(pinned_config(c), rng);
    const DcfResult& e = c.expected;
    EXPECT_EQ(r.delivered_frames, e.delivered_frames);
    EXPECT_EQ(r.attempts, e.attempts);
    EXPECT_EQ(r.collisions, e.collisions);
    EXPECT_EQ(r.dropped, e.dropped);
    EXPECT_EQ(r.offered_frames, e.offered_frames);
    EXPECT_EQ(r.pending_frames, e.pending_frames);
    EXPECT_DOUBLE_EQ(r.throughput_mbps, e.throughput_mbps);
    EXPECT_DOUBLE_EQ(r.collision_probability, e.collision_probability);
    EXPECT_DOUBLE_EQ(r.mean_access_delay_s, e.mean_access_delay_s);
    EXPECT_DOUBLE_EQ(r.busy_airtime_fraction, e.busy_airtime_fraction);
  }
}

TEST(Dcf, BusyAirtimeFractionSaneAndSaturated) {
  Rng rng(9);
  DcfConfig cfg;
  cfg.stations.resize(10);
  cfg.duration_s = 1.0;
  const DcfResult r = simulate_dcf(cfg, rng);
  EXPECT_GT(r.busy_airtime_fraction, 0.7);
  EXPECT_LE(r.busy_airtime_fraction, 1.0 + 1e-9);
}

TEST(Psm, CamIsAlwaysAwake) {
  PsmConfig cfg;
  cfg.psm_enabled = false;
  cfg.duration_s = 10.0;
  Rng rng(10);
  const PsmResult r = simulate_psm(cfg, rng);
  EXPECT_DOUBLE_EQ(r.time_doze_s, 0.0);
  EXPECT_NEAR(r.time_rx_s + r.time_tx_s + r.time_idle_s, 10.0, 1e-6);
}

TEST(Psm, PsmDozesMostOfTheTimeAtLightLoad) {
  PsmConfig cfg;
  cfg.psm_enabled = true;
  cfg.arrival_rate_pps = 5.0;
  cfg.duration_s = 20.0;
  Rng rng(11);
  const PsmResult r = simulate_psm(cfg, rng);
  EXPECT_GT(r.time_doze_s / cfg.duration_s, 0.9);
  EXPECT_GT(r.delivered, 50u);
}

TEST(Psm, DelayBoundedByBeaconInterval) {
  PsmConfig cfg;
  cfg.psm_enabled = true;
  cfg.arrival_rate_pps = 2.0;
  cfg.duration_s = 30.0;
  Rng rng(12);
  const PsmResult r = simulate_psm(cfg, rng);
  EXPECT_LE(r.max_delay_s, cfg.beacon_interval_s * 1.2);
  EXPECT_GT(r.mean_delay_s, 0.01);  // buffering costs tens of ms
}

TEST(Psm, CamDeliversNearInstantly) {
  PsmConfig cfg;
  cfg.psm_enabled = false;
  cfg.arrival_rate_pps = 2.0;
  cfg.duration_s = 30.0;
  Rng rng(13);
  const PsmResult r = simulate_psm(cfg, rng);
  EXPECT_LT(r.mean_delay_s, 1e-3);
}

TEST(Psm, ListenIntervalTradesDelayForDoze) {
  Rng rng(14);
  PsmConfig every;
  every.psm_enabled = true;
  every.arrival_rate_pps = 1.0;
  every.duration_s = 40.0;
  PsmConfig sparse = every;
  sparse.listen_interval = 4;
  const PsmResult r1 = simulate_psm(every, rng);
  const PsmResult r4 = simulate_psm(sparse, rng);
  EXPECT_GT(r4.mean_delay_s, r1.mean_delay_s);
  EXPECT_GT(r4.time_doze_s, r1.time_doze_s);
}

TEST(Psm, DeliveryCountsTrackArrivals) {
  PsmConfig cfg;
  cfg.psm_enabled = true;
  cfg.arrival_rate_pps = 20.0;
  cfg.duration_s = 20.0;
  Rng rng(15);
  const PsmResult r = simulate_psm(cfg, rng);
  // ~400 expected; allow generous Poisson + tail slack.
  EXPECT_GT(r.delivered, 300u);
  EXPECT_LT(r.delivered, 500u);
}

}  // namespace
}  // namespace wlan::mac
