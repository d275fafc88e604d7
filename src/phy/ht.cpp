#include "phy/ht.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "channel/mimo.h"
#include "common/check.h"
#include "common/units.h"
#include "dsp/batch.h"
#include "linalg/decompose.h"
#include "obs/perf.h"
#include "obs/probe.h"
#include "phy/interleaver.h"
#include "phy/ldpc.h"
#include "phy/scrambler.h"
#include "phy/workspace.h"

namespace wlan::phy {
namespace {

constexpr std::uint8_t kScramblerSeed = 0x5D;
constexpr std::size_t kServiceBits = 16;
constexpr std::size_t kTailBits = 6;
constexpr std::size_t kLdpcBlock = 648;

// Quantizer target for a batch's peak |LLR| (matches the OFDM path):
// well under the ±127 rail so saturating sums stay mostly linear.
constexpr double kQuantHeadroom = 96.0;

struct BaseMcs {
  Modulation mod;
  CodeRate rate;
  std::size_t n_bpsc;
};

const std::array<BaseMcs, 8> kBaseMcs = {{
    {Modulation::kBpsk, CodeRate::kR12, 1},
    {Modulation::kQpsk, CodeRate::kR12, 2},
    {Modulation::kQpsk, CodeRate::kR34, 2},
    {Modulation::kQam16, CodeRate::kR12, 4},
    {Modulation::kQam16, CodeRate::kR34, 4},
    {Modulation::kQam64, CodeRate::kR23, 6},
    {Modulation::kQam64, CodeRate::kR34, 6},
    {Modulation::kQam64, CodeRate::kR56, 6},
}};

std::size_t ldpc_info_bits(CodeRate rate) {
  switch (rate) {
    case CodeRate::kR12: return kLdpcBlock / 2;
    case CodeRate::kR23: return kLdpcBlock * 2 / 3;
    case CodeRate::kR34: return kLdpcBlock * 3 / 4;
    case CodeRate::kR56: return kLdpcBlock * 5 / 6;
  }
  return kLdpcBlock / 2;
}

const LdpcCode& ldpc_code_for(CodeRate rate) {
  // One deterministic code per rate, built on first use.
  static const LdpcCode r12(kLdpcBlock, ldpc_info_bits(CodeRate::kR12), 12);
  static const LdpcCode r23(kLdpcBlock, ldpc_info_bits(CodeRate::kR23), 23);
  static const LdpcCode r34(kLdpcBlock, ldpc_info_bits(CodeRate::kR34), 34);
  static const LdpcCode r56(kLdpcBlock, ldpc_info_bits(CodeRate::kR56), 56);
  switch (rate) {
    case CodeRate::kR12: return r12;
    case CodeRate::kR23: return r23;
    case CodeRate::kR34: return r34;
    case CodeRate::kR56: return r56;
  }
  return r12;
}

std::size_t interleaver_columns(HtBandwidth bw) {
  return bw == HtBandwidth::k20MHz ? 13 : 18;
}

// Data tone indices for a bandwidth (ascending, skipping DC/pilots).
std::vector<int> data_tone_list(HtBandwidth bw) {
  std::vector<int> tones;
  if (bw == HtBandwidth::k20MHz) {
    for (int k = -28; k <= 28; ++k) {
      if (k == 0 || k == -21 || k == -7 || k == 7 || k == 21) continue;
      tones.push_back(k);
    }
  } else {
    for (int k = -58; k <= 58; ++k) {
      if (k >= -1 && k <= 1) continue;
      if (k == -53 || k == -25 || k == -11 || k == 11 || k == 25 || k == 53) {
        continue;
      }
      tones.push_back(k);
    }
  }
  return tones;
}

std::size_t tone_to_bin(int tone, std::size_t n_fft) {
  return static_cast<std::size_t>((tone + static_cast<int>(n_fft)) %
                                  static_cast<int>(n_fft));
}

// One stage of ordered successive interference cancellation.
struct SicStage {
  std::size_t stream;  // original stream index detected at this stage
  CVec g;              // detection row (length n_rx)
  double mu;           // estimate bias
  double noise_var;    // effective 1/SINR for the unit-energy stream
  CVec a_col;          // effective channel column, subtracted after slicing
};

// Detection data for one subcarrier.
struct ToneDetector {
  // Scalar path (beamforming/STBC/MRC/SISO): per-stream gains.
  RVec gains;
  // Matrix path (direct map): effective channel and detector.
  linalg::CMatrix a;   // H / sqrt(Nss)
  linalg::CMatrix g;   // detection matrix (Nss x Nrx)
  RVec mu;             // bias of each stream estimate
  RVec noise_var;      // effective noise variance per unit-energy stream
  std::vector<SicStage> stages;  // non-empty for kMmseSic
  bool scalar = false;
};

}  // namespace

HtMcsInfo ht_mcs_info(unsigned index) {
  check(index < 32, "HT MCS index must be 0..31");
  const BaseMcs& base = kBaseMcs[index % 8];
  return HtMcsInfo{index, index / 8 + 1, base.mod, base.rate, base.n_bpsc};
}

std::size_t ht_data_tones(HtBandwidth bw) {
  return bw == HtBandwidth::k20MHz ? 52 : 108;
}

std::vector<int> ht_data_tone_list(HtBandwidth bw) { return data_tone_list(bw); }

std::size_t ht_fft_size(HtBandwidth bw) {
  return bw == HtBandwidth::k20MHz ? 64 : 128;
}

double ht_sample_rate_hz(HtBandwidth bw) {
  return bw == HtBandwidth::k20MHz ? 20e6 : 40e6;
}

double ht_channel_width_hz(HtBandwidth bw) {
  return bw == HtBandwidth::k20MHz ? 20e6 : 40e6;
}

double ht_symbol_duration_s(HtGuardInterval gi) {
  return gi == HtGuardInterval::kLong ? 4e-6 : 3.6e-6;
}

double ht_data_rate_mbps(unsigned mcs, HtBandwidth bw, HtGuardInterval gi) {
  const HtMcsInfo info = ht_mcs_info(mcs);
  const double n_dbps = static_cast<double>(ht_data_tones(bw) * info.n_bpsc *
                                            info.n_ss) *
                        code_rate_value(info.rate);
  return n_dbps / (ht_symbol_duration_s(gi) * 1e6);
}

HtPhy::HtPhy(const HtConfig& config)
    : config_(config), mcs_(ht_mcs_info(config.mcs)) {
  switch (config_.scheme) {
    case SpatialScheme::kDirectMap:
      n_tx_ = config_.n_tx ? config_.n_tx : mcs_.n_ss;
      n_rx_ = config_.n_rx ? config_.n_rx : mcs_.n_ss;
      check(n_tx_ == mcs_.n_ss, "direct map requires n_tx == n_ss");
      check(n_rx_ >= mcs_.n_ss, "direct map requires n_rx >= n_ss");
      break;
    case SpatialScheme::kBeamforming:
      n_tx_ = config_.n_tx ? config_.n_tx : std::max<std::size_t>(mcs_.n_ss, 2);
      n_rx_ = config_.n_rx ? config_.n_rx : mcs_.n_ss;
      check(n_tx_ >= mcs_.n_ss && n_rx_ >= mcs_.n_ss,
            "beamforming requires n_tx, n_rx >= n_ss");
      break;
    case SpatialScheme::kStbc:
      check(mcs_.n_ss == 1, "STBC mode requires a single-stream MCS (0..7)");
      n_tx_ = 2;
      n_rx_ = config_.n_rx ? config_.n_rx : 1;
      break;
    case SpatialScheme::kMrc:
      check(mcs_.n_ss == 1, "MRC mode requires a single-stream MCS (0..7)");
      n_tx_ = 1;
      n_rx_ = config_.n_rx ? config_.n_rx : 2;
      break;
    case SpatialScheme::kAntennaSelection:
      check(mcs_.n_ss == 1,
            "antenna selection requires a single-stream MCS (0..7)");
      n_tx_ = 1;
      n_rx_ = config_.n_rx ? config_.n_rx : 2;
      break;
  }
}

double HtPhy::data_rate_mbps() const {
  return ht_data_rate_mbps(config_.mcs, config_.bandwidth, config_.guard);
}

double HtPhy::spectral_efficiency_bps_hz() const {
  return data_rate_mbps() * 1e6 / ht_channel_width_hz(config_.bandwidth);
}

std::size_t HtPhy::n_symbols_for_psdu(std::size_t psdu_bytes) const {
  const std::size_t n_dbps = static_cast<std::size_t>(
      static_cast<double>(ht_data_tones(config_.bandwidth) * mcs_.n_bpsc *
                          mcs_.n_ss) *
      code_rate_value(mcs_.rate));
  if (config_.coding == HtCoding::kBcc) {
    const std::size_t payload = kServiceBits + 8 * psdu_bytes + kTailBits;
    return (payload + n_dbps - 1) / n_dbps;
  }
  // LDPC: whole codewords, then whole symbols.
  const LdpcCode& code = ldpc_code_for(mcs_.rate);
  const std::size_t payload = kServiceBits + 8 * psdu_bytes;
  const std::size_t n_cw = (payload + code.info_length() - 1) / code.info_length();
  const std::size_t n_cbps =
      ht_data_tones(config_.bandwidth) * mcs_.n_bpsc * mcs_.n_ss;
  return (n_cw * kLdpcBlock + n_cbps - 1) / n_cbps;
}

double HtPhy::ppdu_duration_s(std::size_t psdu_bytes) const {
  // Mixed format: L-STF(8) + L-LTF(8) + L-SIG(4) + HT-SIG(8) + HT-STF(4)
  // + 4 us per HT-LTF + data.
  static constexpr std::array<std::size_t, 5> kNumLtf = {0, 1, 2, 4, 4};
  const double preamble =
      32e-6 + 4e-6 * static_cast<double>(kNumLtf[mcs_.n_ss]);
  return preamble + static_cast<double>(n_symbols_for_psdu(psdu_bytes)) *
                        ht_symbol_duration_s(config_.guard);
}

std::vector<linalg::CMatrix> HtPhy::draw_channel(
    Rng& rng, channel::DelayProfile profile) const {
  return channel::mimo_ofdm_channel(rng, n_rx_, n_tx_, profile,
                                    ht_sample_rate_hz(config_.bandwidth),
                                    ht_fft_size(config_.bandwidth));
}

Bytes HtPhy::simulate_link(std::span<const std::uint8_t> psdu,
                           const std::vector<linalg::CMatrix>& tones,
                           double snr_db, Rng& rng) const {
  Bytes out;
  simulate_link_into(psdu, tones, snr_db, rng, out, tls_workspace());
  return out;
}

void HtPhy::simulate_front_into(std::span<const std::uint8_t> psdu,
                                const std::vector<linalg::CMatrix>& tones,
                                double snr_db, Rng& rng,
                                std::span<double> coded_llrs_out,
                                Workspace& ws) const {
  const std::size_t n_fft = ht_fft_size(config_.bandwidth);
  check(tones.size() == n_fft, "per-tone channel count must match FFT size");
  check(tones[0].rows() == n_rx_ && tones[0].cols() == n_tx_,
        "channel matrix dimensions must match the configured antennas");

  const std::size_t n_ss = mcs_.n_ss;
  const std::size_t n_dt = ht_data_tones(config_.bandwidth);
  const std::size_t n_cbpss = n_dt * mcs_.n_bpsc;        // per stream/symbol
  const std::size_t n_cbps = n_cbpss * n_ss;             // per symbol
  const std::size_t n_sym = n_symbols_for_psdu(psdu.size());
  const double sigma2 = std::pow(10.0, -snr_db / 10.0);

  // Each stage below is a child span of the link's; emplacing the next
  // stage closes the previous one.
  std::optional<obs::perf::ScopedSpan> stage;

  // ---------- Encode ----------
  stage.emplace("ht.encode");
  auto coded_lease = ws.bits(0);
  Bits& coded = *coded_lease;  // length n_sym * n_cbps after padding
  auto data_lease = ws.bits(0);
  Bits& data = *data_lease;
  if (config_.coding == HtCoding::kBcc) {
    const std::size_t n_dbps = static_cast<std::size_t>(
        static_cast<double>(n_cbps) * code_rate_value(mcs_.rate));
    data.assign(n_sym * n_dbps, 0);
    std::size_t pos = kServiceBits;
    for (const std::uint8_t byte : psdu) {
      for (int i = 0; i < 8; ++i) {
        data[pos++] = static_cast<std::uint8_t>((byte >> i) & 1u);
      }
    }
    scramble_to(data, kScramblerSeed, data);
    // Only the tail is zeroed post-scrambling; pads stay scrambled so the
    // waveform statistics are realistic. The trellis passes through state 0
    // right after the tail, which the decoder exploits.
    const std::size_t tail_pos = kServiceBits + 8 * psdu.size();
    for (std::size_t i = 0; i < kTailBits; ++i) data[tail_pos + i] = 0;
    auto encoded_lease = ws.bits(0);
    convolutional_encode_into(data, *encoded_lease);
    puncture_into(*encoded_lease, mcs_.rate, coded);
  } else {
    const LdpcCode& code = ldpc_code_for(mcs_.rate);
    const std::size_t payload = kServiceBits + 8 * psdu.size();
    const std::size_t n_cw = (payload + code.info_length() - 1) / code.info_length();
    data.assign(n_cw * code.info_length(), 0);
    std::size_t pos = kServiceBits;
    for (const std::uint8_t byte : psdu) {
      for (int i = 0; i < 8; ++i) {
        data[pos++] = static_cast<std::uint8_t>((byte >> i) & 1u);
      }
    }
    scramble_to(data, kScramblerSeed, data);
    auto codeword_lease = ws.bits(0);
    coded.resize(n_cw * kLdpcBlock);
    for (std::size_t cw = 0; cw < n_cw; ++cw) {
      code.encode_into(
          std::span<const std::uint8_t>(data).subspan(cw * code.info_length(),
                                                      code.info_length()),
          *codeword_lease);
      std::copy(codeword_lease->begin(), codeword_lease->end(),
                coded.begin() + static_cast<std::ptrdiff_t>(cw * kLdpcBlock));
    }
  }
  coded.resize(n_sym * n_cbps, 0);  // known zero padding to fill symbols

  // ---------- Stream parse + interleave + map ----------
  stage.emplace("ht.map");
  // Streams live as subspans of one leased buffer: stream ss occupies
  // [ss * n_sym * n_cbpss, (ss + 1) * n_sym * n_cbpss).
  const std::size_t s_block = std::max<std::size_t>(mcs_.n_bpsc / 2, 1);
  auto stream_bits_lease = ws.bits(n_ss * n_sym * n_cbpss);
  const auto stream_bits = [&](std::size_t ss) {
    return std::span(*stream_bits_lease).subspan(ss * n_sym * n_cbpss,
                                                 n_sym * n_cbpss);
  };
  {
    std::array<std::size_t, 4> cursor{};
    for (std::size_t i = 0; i < coded.size(); i += s_block * n_ss) {
      for (std::size_t ss = 0; ss < n_ss; ++ss) {
        for (std::size_t b = 0; b < s_block; ++b) {
          stream_bits(ss)[cursor[ss]++] = coded[i + ss * s_block + b];
        }
      }
    }
  }

  const bool use_interleaver = config_.coding == HtCoding::kBcc;
  const Interleaver interleaver(n_cbpss, mcs_.n_bpsc,
                                interleaver_columns(config_.bandwidth));

  // Per stream, per symbol constellation points (n_dt per symbol), again
  // packed per stream into one leased buffer.
  auto stream_syms_lease = ws.cvec(n_ss * n_sym * n_dt);
  const auto stream_syms = [&](std::size_t ss) {
    return std::span(*stream_syms_lease).subspan(ss * n_sym * n_dt,
                                                 n_sym * n_dt);
  };
  {
    auto inter_lease = ws.bits(n_cbpss);
    for (std::size_t ss = 0; ss < n_ss; ++ss) {
      for (std::size_t s = 0; s < n_sym; ++s) {
        const auto block = stream_bits(ss).subspan(s * n_cbpss, n_cbpss);
        std::span<const std::uint8_t> mapped = block;
        if (use_interleaver) {
          interleaver.interleave_to(block, *inter_lease);
          mapped = *inter_lease;
        }
        modulate_to(mapped, mcs_.mod, stream_syms(ss).subspan(s * n_dt, n_dt));
      }
    }
  }

  // ---------- Per-tone detectors ----------
  stage.emplace("ht.detector_setup");
  const std::vector<int> dt = data_tone_list(config_.bandwidth);
  std::vector<ToneDetector> det(n_dt);
  const double inv_sqrt_nss = 1.0 / std::sqrt(static_cast<double>(n_ss));
  // Antenna selection picks one receive branch per packet on a wideband
  // power metric — the whole point is that only that chain powers up.
  std::size_t selected_rx = 0;
  if (config_.scheme == SpatialScheme::kAntennaSelection) {
    double best_power = -1.0;
    for (std::size_t r = 0; r < n_rx_; ++r) {
      double power = 0.0;
      for (std::size_t t = 0; t < n_dt; ++t) {
        power += std::norm(tones[tone_to_bin(dt[t], n_fft)](r, 0));
      }
      if (power > best_power) {
        best_power = power;
        selected_rx = r;
      }
    }
  }
  for (std::size_t t = 0; t < n_dt; ++t) {
    const linalg::CMatrix& h = tones[tone_to_bin(dt[t], n_fft)];
    ToneDetector& d = det[t];
    switch (config_.scheme) {
      case SpatialScheme::kAntennaSelection: {
        d.scalar = true;
        d.gains = {std::abs(h(selected_rx, 0))};
        break;
      }
      case SpatialScheme::kMrc: {
        double sum = 0.0;
        for (std::size_t r = 0; r < n_rx_; ++r) sum += std::norm(h(r, 0));
        d.scalar = true;
        d.gains = {std::sqrt(sum)};
        break;
      }
      case SpatialScheme::kStbc: {
        double sum = 0.0;
        for (std::size_t r = 0; r < n_rx_; ++r) {
          for (std::size_t c = 0; c < 2; ++c) sum += std::norm(h(r, c));
        }
        d.scalar = true;
        d.gains = {std::sqrt(sum / 2.0)};
        break;
      }
      case SpatialScheme::kBeamforming: {
        const linalg::Svd dec = linalg::svd(h);
        d.scalar = true;
        d.gains.resize(n_ss);
        for (std::size_t ss = 0; ss < n_ss; ++ss) {
          d.gains[ss] = dec.s[ss] * inv_sqrt_nss;
        }
        break;
      }
      case SpatialScheme::kDirectMap: {
        d.scalar = false;
        d.a = h;
        d.a *= Cplx{inv_sqrt_nss, 0.0};
        // Detectors are built from the receiver's channel knowledge: the
        // truth under ideal CSI, or an HT-LTF least-squares estimate
        // (orthogonal P sounding, error variance sigma^2 * Ntx / Nltf per
        // H entry) otherwise.
        linalg::CMatrix a_known = d.a;
        if (!config_.ideal_csi) {
          static constexpr std::array<std::size_t, 5> kNumLtf = {0, 1, 2, 4, 4};
          const double est_var = sigma2 * static_cast<double>(n_tx_) /
                                 static_cast<double>(kNumLtf[n_ss]);
          for (std::size_t r = 0; r < n_rx_; ++r) {
            for (std::size_t c = 0; c < n_ss; ++c) {
              a_known(r, c) += inv_sqrt_nss * rng.cgaussian(est_var);
            }
          }
        }
        if (config_.detector == MimoDetector::kMmseSic) {
          // Ordered SIC: at each stage MMSE-detect the strongest remaining
          // stream, then cancel it (slicing happens at run time).
          std::vector<std::size_t> remaining(n_ss);
          for (std::size_t s = 0; s < n_ss; ++s) remaining[s] = s;
          while (!remaining.empty()) {
            const std::size_t r = remaining.size();
            linalg::CMatrix a_sub(n_rx_, r);
            for (std::size_t c = 0; c < r; ++c) {
              for (std::size_t row = 0; row < n_rx_; ++row) {
                a_sub(row, c) = a_known(row, remaining[c]);
              }
            }
            const linalg::CMatrix ah = a_sub.hermitian();
            linalg::CMatrix gram = ah * a_sub;
            for (std::size_t i = 0; i < r; ++i) gram(i, i) += sigma2;
            const linalg::CMatrix g_sub = linalg::inverse(gram) * ah;
            const linalg::CMatrix b = g_sub * a_sub;
            std::size_t best = 0;
            double best_mu = -1.0;
            for (std::size_t i = 0; i < r; ++i) {
              if (b(i, i).real() > best_mu) {
                best_mu = b(i, i).real();
                best = i;
              }
            }
            SicStage stage;
            stage.stream = remaining[best];
            stage.g = g_sub.row(best);
            stage.mu = std::clamp(best_mu, 1e-9, 1.0 - 1e-9);
            stage.noise_var = (1.0 - stage.mu) / stage.mu;
            stage.a_col = a_known.column(stage.stream);
            d.stages.push_back(std::move(stage));
            remaining.erase(remaining.begin() +
                            static_cast<std::ptrdiff_t>(best));
          }
          break;
        }
        const linalg::CMatrix ah = a_known.hermitian();
        linalg::CMatrix gram = ah * a_known;
        const double diag = config_.detector == MimoDetector::kMmse
                                ? sigma2
                                : 1e-12;
        for (std::size_t i = 0; i < n_ss; ++i) gram(i, i) += diag;
        const linalg::CMatrix m = linalg::inverse(gram);
        d.g = m * ah;
        d.mu.resize(n_ss);
        d.noise_var.resize(n_ss);
        if (config_.detector == MimoDetector::kMmse) {
          const linalg::CMatrix b = d.g * a_known;
          for (std::size_t s = 0; s < n_ss; ++s) {
            const double mu = std::clamp(b(s, s).real(), 1e-9, 1.0 - 1e-9);
            d.mu[s] = mu;
            d.noise_var[s] = (1.0 - mu) / mu;  // 1 / SINR_mmse
          }
        } else {
          for (std::size_t s = 0; s < n_ss; ++s) {
            d.mu[s] = 1.0;
            d.noise_var[s] = sigma2 * m(s, s).real();
          }
        }
        break;
      }
    }
  }

  // ---------- Channel + detection, symbol by symbol ----------
  stage.emplace("ht.detect");
  // Per-stream LLRs, packed like the stream bits: stream ss occupies
  // [ss * n_sym * n_cbpss, (ss + 1) * n_sym * n_cbpss).
  auto stream_llrs_lease = ws.rvec(n_ss * n_sym * n_cbpss);
  const auto stream_llrs = [&](std::size_t ss) {
    return std::span(*stream_llrs_lease).subspan(ss * n_sym * n_cbpss,
                                                 n_sym * n_cbpss);
  };

  // Per-symbol scratch, leased once and reused for every symbol.
  auto z_lease = ws.cvec(n_ss * n_dt);    // equalized observations
  auto zv_lease = ws.rvec(n_ss * n_dt);   // their effective noise variances
  auto snr_lease = ws.rvec(n_ss * n_dt);  // post-eq SNR memo (probe only)
  auto x_lease = ws.cvec(n_ss);           // transmitted vector at one tone
  auto y_lease = ws.cvec(n_rx_);          // received vector at one tone
  auto xhat_lease = ws.cvec(n_ss);        // linear detector output
  auto llr_lease = ws.rvec(n_cbpss);      // one stream-symbol of LLRs
  const auto z = [&](std::size_t ss) {
    return std::span(*z_lease).subspan(ss * n_dt, n_dt);
  };
  const auto zv = [&](std::size_t ss) {
    return std::span(*zv_lease).subspan(ss * n_dt, n_dt);
  };

  for (std::size_t s = 0; s < n_sym; ++s) {
    for (std::size_t t = 0; t < n_dt; ++t) {
      const ToneDetector& d = det[t];
      if (d.scalar) {
        for (std::size_t ss = 0; ss < d.gains.size(); ++ss) {
          const Cplx x = stream_syms(ss)[s * n_dt + t];
          const double g = std::max(d.gains[ss], 1e-9);
          const Cplx y = g * x + rng.cgaussian(sigma2);
          z(ss)[t] = y / g;
          zv(ss)[t] = sigma2 / (g * g);
        }
      } else {
        std::span<Cplx> x = *x_lease;
        for (std::size_t ss = 0; ss < n_ss; ++ss) {
          x[ss] = stream_syms(ss)[s * n_dt + t];
        }
        std::span<Cplx> y = *y_lease;
        linalg::multiply_to(d.a, x, y);
        for (auto& v : y) v += rng.cgaussian(sigma2);
        if (!d.stages.empty()) {
          // Ordered SIC: detect, slice, cancel, repeat.
          for (const SicStage& stage : d.stages) {
            Cplx acc{0.0, 0.0};
            for (std::size_t r = 0; r < y.size(); ++r) {
              acc += stage.g[r] * y[r];
            }
            const Cplx est = acc / stage.mu;
            z(stage.stream)[t] = est;
            zv(stage.stream)[t] = stage.noise_var;
            const Cplx sliced = slice_symbol(est, mcs_.mod);
            for (std::size_t r = 0; r < y.size(); ++r) {
              y[r] -= stage.a_col[r] * sliced;
            }
          }
        } else {
          std::span<Cplx> xhat = *xhat_lease;
          linalg::multiply_to(d.g, y, xhat);
          for (std::size_t ss = 0; ss < n_ss; ++ss) {
            z(ss)[t] = xhat[ss] / d.mu[ss];
            zv(ss)[t] = d.noise_var[ss];
          }
        }
      }
    }
    for (std::size_t ss = 0; ss < n_ss; ++ss) {
      // Link-quality probes (no-ops unless enable_phy_probes armed them).
      if (obs::Histogram* p = obs::probe_histogram(obs::Probe::kHtEvm)) {
        double err2 = 0.0;
        for (std::size_t t = 0; t < n_dt; ++t) {
          err2 += std::norm(z(ss)[t] - slice_symbol(z(ss)[t], mcs_.mod));
        }
        p->record(std::sqrt(err2 / static_cast<double>(n_dt)));
      }
      if (obs::probe_histogram(obs::Probe::kHtPostEqSnr) != nullptr) {
        // The effective noise variances come straight from the per-tone
        // detectors, so they repeat every symbol: memoize the dB
        // conversion on the first symbol and bulk-record once after the
        // symbol loop (same values, n_sym copies each).
        if (s == 0) {
          RVec& snr_db = *snr_lease;
          for (std::size_t t = 0; t < n_dt; ++t) {
            snr_db[ss * n_dt + t] =
                lin_to_db(1.0 / std::max(zv(ss)[t], 1e-30));
          }
        }
      }
      std::span<double> llrs = *llr_lease;
      demodulate_llr_to(z(ss), mcs_.mod, zv(ss), llrs);
      if (obs::Histogram* p = obs::probe_histogram(obs::Probe::kHtLlrAbs)) {
        for (const double l : llrs) p->record(std::abs(l));
      }
      const auto dest = stream_llrs(ss).subspan(s * n_cbpss, n_cbpss);
      if (use_interleaver) {
        interleaver.deinterleave_to(llrs, dest);
      } else {
        std::copy(llrs.begin(), llrs.end(), dest.begin());
      }
    }
  }

  if (obs::Histogram* p = n_sym > 0
          ? obs::probe_histogram(obs::Probe::kHtPostEqSnr)
          : nullptr) {
    const RVec& snr_db = *snr_lease;
    for (std::size_t i = 0; i < n_ss * n_dt; ++i) {
      p->record_n(snr_db[i], n_sym);
    }
  }

  // ---------- Stream deparse ----------
  check(coded_llrs_out.size() == n_sym * n_cbps,
        "HT front: coded LLR buffer size mismatch");
  std::span<double> coded_llrs = coded_llrs_out;
  {
    std::array<std::size_t, 4> cursor{};
    for (std::size_t i = 0; i < coded_llrs.size(); i += s_block * n_ss) {
      for (std::size_t ss = 0; ss < n_ss; ++ss) {
        for (std::size_t b = 0; b < s_block; ++b) {
          coded_llrs[i + ss * s_block + b] = stream_llrs(ss)[cursor[ss]++];
        }
      }
    }
  }
}

void HtPhy::simulate_link_into(std::span<const std::uint8_t> psdu,
                               const std::vector<linalg::CMatrix>& tones,
                               double snr_db, Rng& rng, Bytes& out,
                               Workspace& ws) const {
  const TxLane lane{psdu, &tones, &rng};
  simulate_link_batch_into(std::span<const TxLane>(&lane, 1), snr_db,
                           std::span<Bytes>(&out, 1), /*quantized=*/false, ws);
}

void HtPhy::simulate_link_batch_into(std::span<const TxLane> lanes,
                                     double snr_db, std::span<Bytes> out,
                                     bool quantized, Workspace& ws) const {
  const std::size_t L = lanes.size();
  check(L > 0 && L <= 16 && out.size() == L,
        "HT batch link requires 1..16 lanes with one output per lane");
  // One span over the combined TX+RX chain (encode through decode).
  const obs::perf::ScopedSpan span("ht.link");
  const std::size_t psdu_bytes = lanes[0].psdu.size();
  for (const TxLane& lane : lanes) {
    check(lane.psdu.size() == psdu_bytes && lane.tones != nullptr &&
              lane.rng != nullptr,
          "HT batch link: lanes must carry equal-size PSDUs, a channel, "
          "and an Rng");
  }

  const std::size_t n_cbps =
      ht_data_tones(config_.bandwidth) * mcs_.n_bpsc * mcs_.n_ss;
  const std::size_t n_sym = n_symbols_for_psdu(psdu_bytes);
  const std::size_t lane_llr_count = n_sym * n_cbps;

  // Per-lane front ends (each consumes only its own Rng) into one
  // lane-contiguous block.
  auto fronts_lease = ws.rvec(L * lane_llr_count);
  RVec& fronts = *fronts_lease;
  for (std::size_t l = 0; l < L; ++l) {
    simulate_front_into(lanes[l].psdu, *lanes[l].tones, snr_db,
                        *lanes[l].rng,
                        std::span<double>(fronts.data() + l * lane_llr_count,
                                          lane_llr_count),
                        ws);
  }

  // Every lane's decoded DATA field, lane-major: SERVICE, PSDU, then the
  // tail (BCC) or codeword padding (LDPC).
  const std::size_t payload_bits = kServiceBits + 8 * psdu_bytes;
  auto decoded_lease = ws.bits(0);
  Bits& decoded_soa = *decoded_lease;
  if (config_.coding == HtCoding::kBcc) {
    // Depuncture lane-major, decode the tail-terminated prefix of every
    // lane in one batched Viterbi sweep (pads are scrambled noise).
    std::array<std::span<const double>, 16> lane_llrs;
    for (std::size_t l = 0; l < L; ++l) {
      lane_llrs[l] = std::span<const double>(
          fronts.data() + l * lane_llr_count, lane_llr_count);
    }
    const std::size_t n_dbps = static_cast<std::size_t>(
        static_cast<double>(n_cbps) * code_rate_value(mcs_.rate));
    const std::size_t n_info = n_sym * n_dbps;
    auto soa_lease = ws.rvec(0);
    RVec& soa = *soa_lease;
    depuncture_batch_into(
        std::span<const std::span<const double>>(lane_llrs.data(), L),
        mcs_.rate, n_info, soa);
    const std::size_t decoded_bits = payload_bits + kTailBits;
    const std::span<const double> trellis_llrs(soa.data(),
                                               2 * decoded_bits * L);
    if (quantized) {
      double maxabs = 0.0;
      for (const double v : trellis_llrs) {
        maxabs = std::max(maxabs, std::abs(v));
      }
      const double scale = maxabs > 0.0 ? kQuantHeadroom / maxabs : 1.0;
      viterbi_decode_batch_i16_into(trellis_llrs, L, /*terminated=*/true,
                                    scale, decoded_soa, ws);
    } else {
      viterbi_decode_batch_into(trellis_llrs, L, /*terminated=*/true,
                                decoded_soa, ws);
    }
  } else {
    const LdpcCode& code = ldpc_code_for(mcs_.rate);
    const std::size_t k = code.info_length();
    const std::size_t n_cw = (payload_bits + k - 1) / k;
    decoded_soa.resize(n_cw * k * L);
    // Group-persistent decode results: thread_local so the info vectors
    // keep their capacity across groups (steady state allocation-free).
    thread_local std::vector<LdpcCode::DecodeResult> results;
    if (results.size() < n_cw * L) results.resize(n_cw * L);
    const auto codeword = [&](std::size_t cw, std::size_t l) {
      return std::span<const double>(
          fronts.data() + l * lane_llr_count + cw * kLdpcBlock, kLdpcBlock);
    };
    if (quantized) {
      // Codeword cw of every lane as one lane-major block, decoded in
      // lockstep: the int16 scale is calibrated per block.
      auto soa_lease = ws.rvec(kLdpcBlock * L);
      RVec& soa = *soa_lease;
      for (std::size_t cw = 0; cw < n_cw; ++cw) {
        for (std::size_t l = 0; l < L; ++l) {
          dsp::batch::scatter_lane(codeword(cw, l), l, L, soa.data());
        }
        double maxabs = 0.0;
        for (const double v : soa) maxabs = std::max(maxabs, std::abs(v));
        const double scale = maxabs > 0.0 ? kQuantHeadroom / maxabs : 1.0;
        code.decode_batch_i16_into(
            soa, L, /*max_iterations=*/40, /*normalization=*/0.8, scale,
            std::span<LdpcCode::DecodeResult>(results.data() + cw * L, L),
            ws);
      }
    } else {
      // Every codeword of every lane in one queue (entry cw * L + l).
      thread_local std::vector<std::span<const double>> queue;
      queue.resize(n_cw * L);
      for (std::size_t cw = 0; cw < n_cw; ++cw) {
        for (std::size_t l = 0; l < L; ++l) queue[cw * L + l] = codeword(cw, l);
      }
      code.decode_batch_into(
          queue, L, /*max_iterations=*/40, /*normalization=*/0.8,
          std::span<LdpcCode::DecodeResult>(results.data(), n_cw * L), ws);
    }
    for (std::size_t cw = 0; cw < n_cw; ++cw) {
      for (std::size_t l = 0; l < L; ++l) {
        dsp::batch::scatter_lane(
            std::span<const std::uint8_t>(results[cw * L + l].info), l, L,
            decoded_soa.data() + cw * k * L);
      }
    }
  }
  descramble_lanes_to_bytes(decoded_soa, L, kScramblerSeed, kServiceBits,
                            psdu_bytes, out);
}

}  // namespace wlan::phy
