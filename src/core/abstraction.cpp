#include "core/abstraction.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/units.h"
#include "dsp/simd.h"
#include "phy/ht.h"
#include "phy/workspace.h"

namespace wlan {
namespace {

/// Logistic reference waterfall: 1 / (1 + exp(slope * (snr - mid))).
double logistic_per(double snr_db, double midpoint_db, double slope) {
  const double x = slope * (snr_db - midpoint_db);
  // exp overflows gracefully to +inf (PER -> 0) but protect the other
  // tail explicitly so deeply negative SNRs return exactly 1.
  if (x < -700.0) return 1.0;
  return 1.0 / (1.0 + std::exp(x));
}

/// Per-tone power gains (dB) sampled from a TDL frequency response.
RVec tone_gains_over_bins(const channel::Tdl& tdl, std::span<const int> tones,
                          std::size_t n_fft) {
  const CVec freq = tdl.frequency_response(n_fft);
  RVec gains;
  gains.reserve(tones.size());
  for (const int tone : tones) {
    const auto bin = static_cast<std::size_t>(
        (tone + static_cast<int>(n_fft)) % static_cast<int>(n_fft));
    gains.push_back(lin_to_db(std::max(std::norm(freq[bin]), 1e-12)));
  }
  return gains;
}

/// EESM over tone SNRs = frozen per-tone gains + a mean SNR.
double eesm_over_gains(std::span<const double> gains_db, double mean_snr_db,
                       double beta) {
  RVec snrs;
  snrs.reserve(gains_db.size());
  for (const double g : gains_db) snrs.push_back(mean_snr_db + g);
  return eesm_effective_snr_db(snrs, beta);
}

}  // namespace

double eesm_effective_snr_db(std::span<const double> tone_snrs_db, double beta) {
  check(!tone_snrs_db.empty(), "EESM requires at least one tone");
  check(beta > 0.0, "EESM beta must be positive");
  // Log-sum-exp shift by the worst tone: with s_min = min_k snr_k,
  //   -beta * ln( mean_k exp(-s_k/beta) )
  //     = s_min - beta * ln( mean_k exp(-(s_k - s_min)/beta) )
  // where every shifted exponent is <= 0 and the worst tone contributes
  // exactly 1, so the sum can neither underflow to 0 nor overflow. The
  // naive form underflows already at ~31 dB tone SNRs for beta = 1.5.
  double min_lin = db_to_lin(tone_snrs_db[0]);
  for (const double snr_db : tone_snrs_db) {
    min_lin = std::min(min_lin, db_to_lin(snr_db));
  }
  double acc = 0.0;
  for (const double snr_db : tone_snrs_db) {
    acc += std::exp(-(db_to_lin(snr_db) - min_lin) / beta);
  }
  acc /= static_cast<double>(tone_snrs_db.size());
  return lin_to_db(min_lin - beta * std::log(acc));
}

void eesm_effective_snr_grid_db(std::span<const double> gains_db, double beta,
                                std::span<const double> mean_snrs_db,
                                std::span<double> out_db) {
  namespace simd = dsp::simd;
  check(!gains_db.empty(), "EESM requires at least one tone");
  check(beta > 0.0, "EESM beta must be positive");
  check(out_db.size() == mean_snrs_db.size(),
        "EESM grid output size must match the mean-SNR grid");
  // Tone SNR at mean m is s * lin(g_k) with s = lin(m). db_to_lin is
  // monotone, so the log-sum-exp shift anchor (the worst tone) is the
  // smallest gain for every mean, and the shifted exponent is
  // -(s * q_k) with q_k = (lin(g_k) - g_min) / beta computed once per
  // tone. The worst tone's term is exactly exp(-0) = 1.
  auto q_lease = phy::tls_workspace().rvec(gains_db.size());
  RVec& q = *q_lease;
  for (std::size_t k = 0; k < q.size(); ++k) q[k] = db_to_lin(gains_db[k]);
  const double g_min = *std::min_element(q.begin(), q.end());
  for (double& qk : q) qk = (qk - g_min) / beta;
  const double inv_n = 1.0 / static_cast<double>(q.size());
  const auto finish = [&](double s, double acc) {
    return lin_to_db(s * g_min - beta * std::log(acc * inv_n));
  };
  // Lanes are consecutive grid points; each sums its tones in index
  // order, exactly as the scalar tail does, so the two paths agree
  // bitwise.
  const std::size_t n = mean_snrs_db.size();
  const std::size_t n_vec =
      simd::vector_enabled() ? n - n % simd::kWidth : 0;
  for (std::size_t i = 0; i < n_vec; i += simd::kWidth) {
    std::array<double, simd::kWidth> s{};
    std::array<double, simd::kWidth> acc{};
    for (std::size_t w = 0; w < s.size(); ++w) {
      s[w] = db_to_lin(mean_snrs_db[i + w]);
    }
    const simd::DVec sv = simd::DVec::load(s.data());
    simd::DVec av = simd::DVec::splat(0.0);
    for (const double qk : q) {
      av = av + simd::exp_nonpositive(
                    simd::negate(sv * simd::DVec::splat(qk)));
    }
    av.store(acc.data());
    for (std::size_t w = 0; w < s.size(); ++w) {
      out_db[i + w] = finish(s[w], acc[w]);
    }
  }
  for (std::size_t i = n_vec; i < n; ++i) {
    const double s = db_to_lin(mean_snrs_db[i]);
    double acc = 0.0;
    for (const double qk : q) acc += simd::exp_nonpositive(-(s * qk));
    out_db[i] = finish(s, acc);
  }
}

double eesm_beta(phy::OfdmMcs mcs) {
  // Least-squares fit of realization-averaged predicted PER against the
  // waveform simulator (fresh TDL per packet, residential + office
  // profiles, three SNRs per MCS). The low-order MCS land below the
  // textbook per-modulation values because the waveform receiver's LTF
  // channel estimate degrades in spectral notches, which a smaller beta
  // (more weight on the worst tones) absorbs.
  static constexpr std::array<double, 8> kBeta = {0.6,  0.8,  0.45, 2.5,
                                                  5.0,  10.0, 45.0, 45.0};
  return kBeta[static_cast<std::size_t>(mcs)];
}

double ht_eesm_beta(unsigned mcs) {
  check(mcs < 8, "HT AWGN curves are calibrated for base MCS 0..7");
  // Same least-squares fit as eesm_beta(), against the HT link simulator
  // (20 MHz, long GI, BCC, MMSE equalizer).
  static constexpr std::array<double, 8> kBeta = {0.6,  1.5,  1.5,  5.0,
                                                  7.0,  22.0, 22.0, 30.0};
  return kBeta[mcs];
}

double scale_per_to_length(double per_ref, std::size_t psdu_bytes,
                           std::size_t ref_bytes) {
  check(psdu_bytes > 0 && ref_bytes > 0,
        "PER length scaling requires positive sizes");
  if (psdu_bytes == ref_bytes) return per_ref;
  const double p = std::clamp(per_ref, 0.0, 1.0);
  if (p >= 1.0) return 1.0;
  const double ratio =
      static_cast<double>(psdu_bytes) / static_cast<double>(ref_bytes);
  // 1 - (1 - p)^ratio, accurate for tiny p.
  return -std::expm1(ratio * std::log1p(-p));
}

double ofdm_awgn_per(phy::OfdmMcs mcs, double snr_db, std::size_t psdu_bytes) {
  // Logistic fits to bench_c4's measured 500-byte waterfalls.
  static constexpr std::array<double, 8> kMidpoints = {
      1.2, 3.1, 3.1, 6.8, 9.2, 12.9, 17.0, 18.6};
  constexpr double kSlope = 1.6;
  const double mid = kMidpoints[static_cast<std::size_t>(mcs)];
  return scale_per_to_length(logistic_per(snr_db, mid, kSlope), psdu_bytes);
}

double dsss_awgn_per(DsssCckRate rate, double snr_db, std::size_t psdu_bytes) {
  // Logistic fits to the Barker/CCK modem AWGN waterfalls at 4000-bit
  // (500-byte) packets: DBPSK/DQPSK despread (bench_c1's modems) and the
  // CCK ML correlation receiver (bench_c3).
  static constexpr std::array<double, 4> kMidpoints = {-1.5, 3.0, 4.0, 7.3};
  static constexpr std::array<double, 4> kSlopes = {2.5, 2.2, 1.9, 2.3};
  const auto i = static_cast<std::size_t>(rate);
  return scale_per_to_length(logistic_per(snr_db, kMidpoints[i], kSlopes[i]),
                             psdu_bytes);
}

double ht_awgn_per(unsigned mcs, double snr_db, std::size_t psdu_bytes) {
  check(mcs < 8, "HT AWGN curves are calibrated for base MCS 0..7");
  // Logistic fits to HtPhy flat-identity-channel waterfalls (20 MHz,
  // long GI, BCC, MMSE, 500-byte PSDUs).
  static constexpr std::array<double, 8> kMidpoints = {-0.45, 2.6,  5.1,  7.9,
                                                       11.4,  15.1, 16.6, 18.0};
  constexpr double kSlope = 2.2;
  return scale_per_to_length(logistic_per(snr_db, kMidpoints[mcs], kSlope),
                             psdu_bytes);
}

RVec ofdm_tone_gains_db(const channel::Tdl& tdl) {
  return tone_gains_over_bins(tdl, phy::ofdm_data_tones(), phy::OfdmPhy::kNfft);
}

RVec ht20_tone_gains_db(const channel::Tdl& tdl) {
  const std::vector<int> tones =
      phy::ht_data_tone_list(phy::HtBandwidth::k20MHz);
  return tone_gains_over_bins(tdl, tones, 64);
}

double eesm_effective_snr_for_tdl_db(const channel::Tdl& tdl,
                                     double mean_snr_db, double beta) {
  return eesm_over_gains(ofdm_tone_gains_db(tdl), mean_snr_db, beta);
}

double ht_eesm_effective_snr_for_tdl_db(const channel::Tdl& tdl,
                                        double mean_snr_db, double beta) {
  return eesm_over_gains(ht20_tone_gains_db(tdl), mean_snr_db, beta);
}

double predict_ofdm_per(phy::OfdmMcs mcs, const channel::Tdl& tdl,
                        double mean_snr_db, std::size_t psdu_bytes) {
  const double eff =
      eesm_effective_snr_for_tdl_db(tdl, mean_snr_db, eesm_beta(mcs));
  return ofdm_awgn_per(mcs, eff, psdu_bytes);
}

double predict_ht_per(unsigned mcs, const channel::Tdl& tdl,
                      double mean_snr_db, std::size_t psdu_bytes) {
  const double eff =
      ht_eesm_effective_snr_for_tdl_db(tdl, mean_snr_db, ht_eesm_beta(mcs));
  return ht_awgn_per(mcs, eff, psdu_bytes);
}

}  // namespace wlan
