// Unit tests for path loss, fading, MIMO channels, AWGN, interference.
#include <gtest/gtest.h>

#include <cmath>

#include "channel/awgn.h"
#include "channel/fading.h"
#include "channel/mimo.h"
#include "channel/pathloss.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/units.h"
#include "dsp/fft.h"
#include "dsp/ops.h"
#include "linalg/decompose.h"

namespace wlan::channel {
namespace {

TEST(PathLoss, FreeSpaceKnownValue) {
  // 2.4 GHz at 1 m: 20 log10(4 pi / lambda) ~ 40.05 dB.
  EXPECT_NEAR(free_space_path_loss_db(1.0, 2.4e9), 40.05, 0.1);
  // 5.2 GHz at 1 m: ~46.8 dB.
  EXPECT_NEAR(free_space_path_loss_db(1.0, 5.2e9), 46.77, 0.1);
}

TEST(PathLoss, FreeSpaceSlope20DbPerDecade) {
  const double l10 = free_space_path_loss_db(10.0, 5.2e9);
  const double l100 = free_space_path_loss_db(100.0, 5.2e9);
  EXPECT_NEAR(l100 - l10, 20.0, 1e-9);
}

TEST(PathLoss, DualSlopeContinuousAtBreakpoint) {
  PathLossModel m;
  m.breakpoint_m = 5.0;
  const double just_before = m.path_loss_db(4.999);
  const double just_after = m.path_loss_db(5.001);
  EXPECT_NEAR(just_before, just_after, 0.02);
}

TEST(PathLoss, SteeperSlopeAfterBreakpoint) {
  PathLossModel m;
  m.breakpoint_m = 5.0;
  m.exponent_after = 3.5;
  const double l10 = m.path_loss_db(10.0);
  const double l100 = m.path_loss_db(100.0);
  EXPECT_NEAR(l100 - l10, 35.0, 1e-9);
}

TEST(PathLoss, DistanceInversionRoundTrip) {
  PathLossModel m;
  for (const double d : {1.0, 3.0, 5.0, 20.0, 80.0, 300.0}) {
    const double loss = m.path_loss_db(d);
    EXPECT_NEAR(m.distance_for_path_loss(loss), d, 1e-6 * d) << "d=" << d;
  }
}

TEST(PathLoss, ShadowingHasRequestedSigma) {
  PathLossModel m;
  m.shadowing_sigma_db = 6.0;
  Rng rng(1);
  const double base = m.path_loss_db(30.0);
  double sum = 0.0;
  double sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double dev = m.path_loss_db(30.0, rng) - base;
    sum += dev;
    sum2 += dev * dev;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.15);
  EXPECT_NEAR(std::sqrt(sum2 / n), 6.0, 0.15);
}

TEST(PathLoss, RejectsNonPositiveDistance) {
  PathLossModel m;
  EXPECT_THROW(m.path_loss_db(0.0), ContractError);
  EXPECT_THROW(m.path_loss_db(-1.0), ContractError);
}

TEST(LinkBudget, TypicalWlanNumbers) {
  // 17 dBm TX, 80 dB path loss, 20 MHz, NF 6: SNR = 17 - 80 + 95 = 32 dB.
  EXPECT_NEAR(link_snr_db(17.0, 80.0, 20e6, 6.0), 32.0, 0.1);
}

TEST(Fading, RayleighUnitVariance) {
  Rng rng(2);
  double power = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) power += std::norm(flat_fading_coefficient(rng));
  EXPECT_NEAR(power / n, 1.0, 0.03);
}

TEST(Fading, HighRicianKApproachesLineOfSight) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const Cplx h = flat_fading_coefficient(rng, 40.0);  // K = 40 dB
    EXPECT_NEAR(std::abs(h), 1.0, 0.05);
  }
}

TEST(Fading, RicianStillUnitMeanPower) {
  Rng rng(4);
  double power = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    power += std::norm(flat_fading_coefficient(rng, 6.0));
  }
  EXPECT_NEAR(power / n, 1.0, 0.03);
}

TEST(Tdl, FlatProfileIsSingleTap) {
  Rng rng(5);
  const Tdl tdl = make_tdl(rng, DelayProfile::kFlat, 20e6);
  EXPECT_EQ(tdl.taps.size(), 1u);
}

TEST(Tdl, EnergyNormalizedOnAverage) {
  Rng rng(6);
  double energy = 0.0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    const Tdl tdl = make_tdl(rng, DelayProfile::kOffice, 20e6);
    for (const auto& tap : tdl.taps) energy += std::norm(tap);
  }
  EXPECT_NEAR(energy / n, 1.0, 0.05);
}

TEST(Tdl, LongerSpreadMeansMoreTaps) {
  Rng rng(7);
  const Tdl res = make_tdl(rng, DelayProfile::kResidential, 20e6);
  const Tdl open = make_tdl(rng, DelayProfile::kLargeOpen, 20e6);
  EXPECT_GT(open.taps.size(), res.taps.size());
  // All within the 802.11a cyclic prefix (16 samples at 20 MHz).
  EXPECT_LE(open.taps.size(), 16u);
}

TEST(Tdl, LosFirstTapReducesFadeDepth) {
  // With a strong Rician first tap (TGn LOS), deep fades of the dominant
  // arrival are rare: the variance of the first-tap power shrinks.
  Rng rng(20);
  double var_nlos = 0.0;
  double var_los = 0.0;
  double mean_nlos = 0.0;
  double mean_los = 0.0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const Tdl nlos = make_tdl(rng, DelayProfile::kResidential, 20e6);
    const Tdl los = make_tdl(rng, DelayProfile::kResidential, 20e6, 10.0);
    const double p_nlos = std::norm(nlos.taps[0]);
    const double p_los = std::norm(los.taps[0]);
    mean_nlos += p_nlos;
    mean_los += p_los;
    var_nlos += p_nlos * p_nlos;
    var_los += p_los * p_los;
  }
  mean_nlos /= n;
  mean_los /= n;
  var_nlos = var_nlos / n - mean_nlos * mean_nlos;
  var_los = var_los / n - mean_los * mean_los;
  // Same mean power share for the first tap, far smaller fluctuation.
  EXPECT_NEAR(mean_los, mean_nlos, 0.15 * mean_nlos);
  EXPECT_LT(var_los, 0.5 * var_nlos);
}

TEST(Tdl, LosEnergyStillNormalized) {
  Rng rng(21);
  double energy = 0.0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const Tdl tdl = make_tdl(rng, DelayProfile::kOffice, 20e6, 6.0);
    for (const auto& tap : tdl.taps) energy += std::norm(tap);
  }
  EXPECT_NEAR(energy / n, 1.0, 0.05);
}

TEST(Tdl, FrequencyResponseOfSingleTapIsFlat) {
  Tdl tdl;
  tdl.taps = {Cplx{0.5, 0.5}};
  const CVec h = tdl.frequency_response(64);
  for (const auto& v : h) {
    EXPECT_NEAR(std::abs(v - Cplx(0.5, 0.5)), 0.0, 1e-12);
  }
}

TEST(Tdl, ApplyConvolves) {
  Tdl tdl;
  tdl.taps = {Cplx{1, 0}, Cplx{0.5, 0}};
  const CVec x = {Cplx{1, 0}, Cplx{0, 0}};
  const CVec y = tdl.apply(x);
  ASSERT_EQ(y.size(), 3u);
  EXPECT_NEAR(y[0].real(), 1.0, 1e-14);
  EXPECT_NEAR(y[1].real(), 0.5, 1e-14);
}

TEST(Mimo, IidMatrixUnitVarianceEntries) {
  Rng rng(8);
  double power = 0.0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const auto h = iid_rayleigh_matrix(rng, 2, 2);
    for (std::size_t r = 0; r < 2; ++r) {
      for (std::size_t c = 0; c < 2; ++c) power += std::norm(h(r, c));
    }
  }
  EXPECT_NEAR(power / (4.0 * n), 1.0, 0.05);
}

TEST(Mimo, ExponentialCorrelationStructure) {
  const auto r = exponential_correlation(4, 0.5);
  EXPECT_NEAR(r(0, 0).real(), 1.0, 1e-14);
  EXPECT_NEAR(r(0, 1).real(), 0.5, 1e-14);
  EXPECT_NEAR(r(0, 3).real(), 0.125, 1e-14);
  EXPECT_NEAR(r(3, 1).real(), 0.25, 1e-14);
}

TEST(Mimo, KroneckerCorrelationReducesCapacity) {
  // Spatial correlation should lower ergodic MIMO capacity.
  Rng rng(9);
  const double snr = 100.0;
  const int trials = 800;
  double c_iid = 0.0;
  double c_corr = 0.0;
  for (int t = 0; t < trials; ++t) {
    c_iid += linalg::mimo_capacity_bps_hz(kronecker_channel(rng, 4, 4, 0.0, 0.0), snr);
    c_corr += linalg::mimo_capacity_bps_hz(kronecker_channel(rng, 4, 4, 0.9, 0.9), snr);
  }
  EXPECT_GT(c_iid, c_corr * 1.15);
}

TEST(Mimo, OfdmChannelDimensions) {
  Rng rng(10);
  const auto tones = mimo_ofdm_channel(rng, 2, 3, DelayProfile::kOffice, 20e6, 64);
  ASSERT_EQ(tones.size(), 64u);
  EXPECT_EQ(tones[0].rows(), 2u);
  EXPECT_EQ(tones[0].cols(), 3u);
}

TEST(Mimo, OfdmChannelUnitMeanGainPerEntry) {
  // A realization's mean gain spreads with sd 0.0125 over seeds at 1,000
  // draws (0.054 at 50), so the 0.05 bound sits 4 sd out.
  Rng rng(11);
  double power = 0.0;
  int count = 0;
  for (int i = 0; i < 1000; ++i) {
    const auto tones = mimo_ofdm_channel(rng, 2, 2, DelayProfile::kOffice, 20e6, 64);
    for (const auto& h : tones) {
      for (std::size_t r = 0; r < 2; ++r) {
        for (std::size_t c = 0; c < 2; ++c) {
          power += std::norm(h(r, c));
          ++count;
        }
      }
    }
  }
  EXPECT_NEAR(power / count, 1.0, 0.05);
}

TEST(Awgn, VarianceAsRequested) {
  Rng rng(12);
  CVec x(100000, Cplx{0.0, 0.0});
  add_awgn(x, rng, 3.0);
  EXPECT_NEAR(dsp::mean_power(x), 3.0, 0.05);
}

TEST(Awgn, SnrSetRelativeToSignal) {
  Rng rng(13);
  CVec x(50000, Cplx{2.0, 0.0});  // power 4
  const double nv = add_awgn_snr(x, rng, 10.0);
  EXPECT_NEAR(nv, 0.4, 1e-12);
}

TEST(Awgn, ZeroVarianceIsNoOp) {
  CVec x(10, Cplx{1.0, 0.0});
  Rng rng(14);
  add_awgn(x, rng, 0.0);
  for (const auto& v : x) EXPECT_EQ(v, Cplx(1.0, 0.0));
}

TEST(Interference, TonePowerAsRequested) {
  Rng rng(15);
  CVec x(100000, Cplx{0.0, 0.0});
  add_tone_interferer(x, rng, 2.5, 0.13);
  EXPECT_NEAR(dsp::mean_power(x), 2.5, 0.01);
}

TEST(Interference, ToneIsNarrowband) {
  Rng rng(16);
  CVec x(1024, Cplx{0.0, 0.0});
  add_tone_interferer(x, rng, 1.0, 32.0 / 1024.0);
  // All energy should land in one FFT bin.
  const CVec spec = dsp::fft(x);
  std::size_t peak = 0;
  for (std::size_t k = 1; k < spec.size(); ++k) {
    if (std::abs(spec[k]) > std::abs(spec[peak])) peak = k;
  }
  EXPECT_EQ(peak, 32u);
}

}  // namespace
}  // namespace wlan::channel
