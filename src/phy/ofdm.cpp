#include "phy/ofdm.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/check.h"
#include "common/units.h"
#include "dsp/fft.h"
#include "obs/perf.h"
#include "obs/probe.h"
#include "phy/interleaver.h"
#include "phy/scrambler.h"
#include "phy/workspace.h"

namespace wlan::phy {
namespace {

constexpr std::uint8_t kScramblerSeed = 0x5D;
constexpr std::size_t kServiceBits = 16;
constexpr std::size_t kTailBits = 6;

// Quantizer target for the batch's peak |LLR|: well under the ±127 rail
// so saturating branch-metric sums (two LLRs) stay mostly linear.
constexpr double kQuantHeadroom = 96.0;

const std::array<OfdmMcsInfo, 8> kMcsTable = {{
    {Modulation::kBpsk, CodeRate::kR12, 1, 48, 24, 6.0},
    {Modulation::kBpsk, CodeRate::kR34, 1, 48, 36, 9.0},
    {Modulation::kQpsk, CodeRate::kR12, 2, 96, 48, 12.0},
    {Modulation::kQpsk, CodeRate::kR34, 2, 96, 72, 18.0},
    {Modulation::kQam16, CodeRate::kR12, 4, 192, 96, 24.0},
    {Modulation::kQam16, CodeRate::kR34, 4, 192, 144, 36.0},
    {Modulation::kQam64, CodeRate::kR23, 6, 288, 192, 48.0},
    {Modulation::kQam64, CodeRate::kR34, 6, 288, 216, 54.0},
}};

// 802.11a long training sequence on tones -26..+26 (DC = 0).
constexpr std::array<int, 53> kLtfSequence = {
    1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1, 1, 1, 1, -1, -1, 1,
    1, -1, 1, -1, 1, 1, 1, 1,
    0,
    1, -1, -1, 1, 1, -1, 1, -1, 1, -1, -1, -1, -1, -1, 1, 1, -1,
    -1, 1, -1, 1, -1, 1, 1, 1, 1};

constexpr std::array<int, 4> kPilotTones = {-21, -7, 7, 21};
constexpr std::array<double, 4> kPilotValues = {1.0, 1.0, 1.0, -1.0};

bool is_pilot(int tone) {
  return tone == -21 || tone == -7 || tone == 7 || tone == 21;
}

}  // namespace

const OfdmMcsInfo& ofdm_mcs_info(OfdmMcs mcs) {
  return kMcsTable[static_cast<std::size_t>(mcs)];
}

const std::array<int, OfdmPhy::kDataTones>& ofdm_data_tones() {
  static const std::array<int, OfdmPhy::kDataTones> tones = [] {
    std::array<int, OfdmPhy::kDataTones> t{};
    std::size_t i = 0;
    for (int k = -26; k <= 26; ++k) {
      if (k == 0 || is_pilot(k)) continue;
      t[i++] = k;
    }
    return t;
  }();
  return tones;
}

std::size_t ofdm_tone_bin(int tone) {
  return static_cast<std::size_t>((tone + static_cast<int>(OfdmPhy::kNfft)) %
                                  static_cast<int>(OfdmPhy::kNfft));
}

const std::vector<double>& ofdm_pilot_polarity() {
  static const std::vector<double> polarity = [] {
    const Bits zeros(127, 0);
    const Bits seq = scramble(zeros, 0x7F);
    std::vector<double> p(127);
    for (std::size_t i = 0; i < 127; ++i) p[i] = seq[i] ? -1.0 : 1.0;
    return p;
  }();
  return polarity;
}

void ofdm_build_symbol_to(std::span<const Cplx> data_tones,
                          double pilot_polarity, std::span<Cplx> out) {
  check(data_tones.size() == OfdmPhy::kDataTones,
        "ofdm_build_symbol requires 48 data-tone values");
  check(out.size() == OfdmPhy::kSymbolLen,
        "ofdm_build_symbol_to requires an 80-sample output");
  const auto& tones = ofdm_data_tones();
  // Assemble the frequency grid in the tail 64 samples of the output,
  // run the IFFT in place there, then copy the cyclic prefix in front —
  // no scratch buffer at all.
  const std::span<Cplx> freq = out.subspan(OfdmPhy::kCpLen, OfdmPhy::kNfft);
  std::fill(freq.begin(), freq.end(), Cplx{0.0, 0.0});
  for (std::size_t t = 0; t < OfdmPhy::kDataTones; ++t) {
    freq[ofdm_tone_bin(tones[t])] = data_tones[t];
  }
  for (std::size_t t = 0; t < kPilotTones.size(); ++t) {
    freq[ofdm_tone_bin(kPilotTones[t])] = pilot_polarity * kPilotValues[t];
  }
  dsp::ifft_inplace(freq);
  for (std::size_t i = 0; i < OfdmPhy::kCpLen; ++i) {
    out[i] = freq[OfdmPhy::kNfft - OfdmPhy::kCpLen + i];
  }
}

CVec ofdm_build_symbol(std::span<const Cplx> data_tones, double pilot_polarity) {
  CVec out(OfdmPhy::kSymbolLen);
  ofdm_build_symbol_to(data_tones, pilot_polarity, out);
  return out;
}

const CVec& ofdm_ltf_waveform() {
  static const CVec waveform = [] {
    CVec time(OfdmPhy::kNfft, Cplx{0.0, 0.0});
    for (int k = -26; k <= 26; ++k) {
      time[ofdm_tone_bin(k)] =
          static_cast<double>(kLtfSequence[static_cast<std::size_t>(k + 26)]);
    }
    dsp::ifft_inplace(time);
    CVec out(2 * OfdmPhy::kSymbolLen);
    std::size_t w = 0;
    for (int rep = 0; rep < 2; ++rep) {
      for (std::size_t i = 0; i < OfdmPhy::kCpLen; ++i) {
        out[w++] = time[OfdmPhy::kNfft - OfdmPhy::kCpLen + i];
      }
      for (std::size_t i = 0; i < OfdmPhy::kNfft; ++i) out[w++] = time[i];
    }
    return out;
  }();
  return waveform;
}

void ofdm_extract_symbol_to(std::span<const Cplx> samples, std::size_t index,
                            std::span<Cplx> out) {
  const std::size_t start = index * OfdmPhy::kSymbolLen + OfdmPhy::kCpLen;
  check(start + OfdmPhy::kNfft <= samples.size(),
        "ofdm_extract_symbol: waveform too short");
  check(out.size() == OfdmPhy::kNfft,
        "ofdm_extract_symbol_to requires a 64-bin output");
  std::copy(samples.begin() + static_cast<std::ptrdiff_t>(start),
            samples.begin() + static_cast<std::ptrdiff_t>(start + OfdmPhy::kNfft),
            out.begin());
  dsp::fft_inplace(out);
}

CVec ofdm_extract_symbol(std::span<const Cplx> samples, std::size_t index) {
  CVec out(OfdmPhy::kNfft);
  ofdm_extract_symbol_to(samples, index, out);
  return out;
}

void ofdm_estimate_channel_to(std::span<const Cplx> samples,
                              std::span<Cplx> out, Workspace& ws) {
  check(out.size() == OfdmPhy::kNfft,
        "ofdm_estimate_channel_to requires a 64-bin output");
  auto ltf1_lease = ws.cvec(OfdmPhy::kNfft);
  auto ltf2_lease = ws.cvec(OfdmPhy::kNfft);
  CVec& ltf1 = *ltf1_lease;
  CVec& ltf2 = *ltf2_lease;
  ofdm_extract_symbol_to(samples, 0, ltf1);
  ofdm_extract_symbol_to(samples, 1, ltf2);
  std::fill(out.begin(), out.end(), Cplx{1.0, 0.0});
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    const double ref =
        static_cast<double>(kLtfSequence[static_cast<std::size_t>(k + 26)]);
    const std::size_t bin = ofdm_tone_bin(k);
    out[bin] = (ltf1[bin] + ltf2[bin]) / (2.0 * ref);
  }
}

CVec ofdm_estimate_channel(std::span<const Cplx> samples) {
  CVec h(OfdmPhy::kNfft);
  ofdm_estimate_channel_to(samples, h, tls_workspace());
  return h;
}

OfdmPhy::OfdmPhy(OfdmMcs mcs)
    : mcs_(mcs),
      info_(&ofdm_mcs_info(mcs)),
      interleaver_(std::make_unique<Interleaver>(info_->n_cbps,
                                                 info_->n_bpsc)) {}

OfdmPhy::~OfdmPhy() = default;

OfdmPhy::OfdmPhy(const OfdmPhy& other) : OfdmPhy(other.mcs_) {}

std::size_t OfdmPhy::n_symbols_for_psdu(std::size_t psdu_bytes) const {
  const std::size_t payload_bits = kServiceBits + 8 * psdu_bytes + kTailBits;
  return (payload_bits + info_->n_dbps - 1) / info_->n_dbps;
}

double OfdmPhy::ppdu_duration_s(std::size_t psdu_bytes) const {
  // 8 us STF + 8 us LTF + 4 us SIGNAL + data symbols.
  return 20e-6 + static_cast<double>(n_symbols_for_psdu(psdu_bytes)) *
                     kSymbolDurationS;
}

std::size_t OfdmPhy::waveform_length(std::size_t psdu_bytes) const {
  return (kLtfSymbols + n_symbols_for_psdu(psdu_bytes)) * kSymbolLen;
}

void OfdmPhy::transmit_into(std::span<const std::uint8_t> psdu, CVec& out,
                            Workspace& ws) const {
  const obs::perf::ScopedSpan span("ofdm.tx");
  const std::size_t n_sym = n_symbols_for_psdu(psdu.size());
  const std::size_t n_data_bits = n_sym * info_->n_dbps;

  // SERVICE (zeros) + PSDU + tail + pad.
  auto data_lease = ws.bits(n_data_bits);
  Bits& data = *data_lease;
  std::fill(data.begin(), data.end(), 0);
  {
    std::size_t pos = kServiceBits;
    for (const std::uint8_t byte : psdu) {
      for (int i = 0; i < 8; ++i) {
        data[pos++] = static_cast<std::uint8_t>((byte >> i) & 1u);
      }
    }
  }
  // Scramble in place (scramble_to is alias-safe).
  scramble_to(data, kScramblerSeed, data);
  // Only the 6 tail bits are forced back to zero after scrambling (17.3.5.3):
  // the encoder passes through state 0 right after them, and the pad bits
  // stay scrambled (this matters for the waveform's PAPR statistics).
  const std::size_t tail_pos = kServiceBits + 8 * psdu.size();
  for (std::size_t i = 0; i < kTailBits; ++i) data[tail_pos + i] = 0;

  auto encoded_lease = ws.bits(2 * n_data_bits);
  auto coded_lease = ws.bits(0);
  Bits& encoded = *encoded_lease;
  Bits& coded = *coded_lease;
  convolutional_encode_into(data, encoded);
  puncture_into(encoded, info_->rate, coded);
  check(coded.size() == n_sym * info_->n_cbps, "OFDM TX coded length mismatch");

  const auto& polarity = ofdm_pilot_polarity();

  out.resize(waveform_length(psdu.size()));
  const CVec& ltf = ofdm_ltf_waveform();
  std::copy(ltf.begin(), ltf.end(), out.begin());

  auto inter_lease = ws.bits(info_->n_cbps);
  auto symbols_lease = ws.cvec(kDataTones);
  Bits& inter = *inter_lease;
  CVec& symbols = *symbols_lease;
  for (std::size_t s = 0; s < n_sym; ++s) {
    interleaver_->interleave_to(
        std::span(coded).subspan(s * info_->n_cbps, info_->n_cbps), inter);
    modulate_to(inter, info_->mod, symbols);
    ofdm_build_symbol_to(
        symbols, polarity[s % polarity.size()],
        std::span(out).subspan((kLtfSymbols + s) * kSymbolLen, kSymbolLen));
  }
}

CVec OfdmPhy::transmit(std::span<const std::uint8_t> psdu) const {
  CVec out;
  transmit_into(psdu, out, tls_workspace());
  return out;
}

void OfdmPhy::receive_front_into(std::span<const Cplx> samples,
                                 std::size_t n_sym, double noise_variance,
                                 std::span<double> all_llrs,
                                 Workspace& ws) const {
  check(samples.size() >= (kLtfSymbols + n_sym) * kSymbolLen,
        "OFDM receive: waveform too short");
  check(all_llrs.size() == n_sym * info_->n_cbps,
        "OFDM receive front: LLR buffer size mismatch");

  auto h_lease = ws.cvec(kNfft);
  const CVec& h = *h_lease;
  ofdm_estimate_channel_to(samples, *h_lease, ws);

  // Noise variance per FFT bin (unnormalized forward FFT). The LTF average
  // halves estimation noise; treat the estimate as exact for LLR purposes.
  const double bin_noise = noise_variance * static_cast<double>(kNfft);

  const auto& tones = ofdm_data_tones();

  auto freq_lease = ws.cvec(kNfft);
  auto eq_lease = ws.cvec(kDataTones);
  auto nv_lease = ws.rvec(kDataTones);
  auto snr_lease = ws.rvec(kDataTones);
  auto llrs_lease = ws.rvec(info_->n_cbps);
  CVec& freq = *freq_lease;
  CVec& eq = *eq_lease;
  RVec& nv = *nv_lease;
  RVec& snr_db = *snr_lease;
  RVec& llrs = *llrs_lease;

  // The per-tone noise variance depends only on the channel estimate, so
  // hoist it (and the dB conversion the SNR probe records every symbol)
  // out of the symbol loop — same values in the same order as computing
  // them per symbol.
  obs::Histogram* const snr_probe =
      obs::probe_histogram(obs::Probe::kOfdmPostEqSnr);
  for (std::size_t t = 0; t < kDataTones; ++t) {
    const std::size_t bin = ofdm_tone_bin(tones[t]);
    const double mag2 = std::max(std::norm(h[bin]), 1e-12);
    nv[t] = bin_noise / mag2;
    if (snr_probe != nullptr) snr_db[t] = lin_to_db(1.0 / nv[t]);
  }

  const auto& polarity = ofdm_pilot_polarity();
  for (std::size_t s = 0; s < n_sym; ++s) {
    ofdm_extract_symbol_to(samples, kLtfSymbols + s, freq);
    // Pilot-based common phase error tracking: residual CFO or phase
    // noise rotates every tone of a symbol equally; the four pilots
    // measure the rotation and the equalizer removes it.
    Cplx cpe{0.0, 0.0};
    const double p = polarity[s % polarity.size()];
    for (std::size_t t = 0; t < kPilotTones.size(); ++t) {
      const std::size_t bin = ofdm_tone_bin(kPilotTones[t]);
      const Cplx expected = h[bin] * (p * kPilotValues[t]);
      cpe += freq[bin] * std::conj(expected);
    }
    const double cpe_mag = std::abs(cpe);
    const Cplx derotate = cpe_mag > 1e-12 ? std::conj(cpe) / cpe_mag
                                          : Cplx{1.0, 0.0};
    for (std::size_t t = 0; t < kDataTones; ++t) {
      const std::size_t bin = ofdm_tone_bin(tones[t]);
      eq[t] = freq[bin] / h[bin] * derotate;
    }
    // Link-quality probes (no-ops unless enable_phy_probes armed them).
    if (obs::Histogram* p = obs::probe_histogram(obs::Probe::kOfdmEvm)) {
      double err2 = 0.0;
      for (std::size_t t = 0; t < kDataTones; ++t) {
        err2 += std::norm(eq[t] - slice_symbol(eq[t], info_->mod));
      }
      p->record(std::sqrt(err2 / static_cast<double>(kDataTones)));
    }
    demodulate_llr_to(eq, info_->mod, nv, llrs);
    if (obs::Histogram* p = obs::probe_histogram(obs::Probe::kOfdmLlrAbs)) {
      for (const double l : llrs) p->record(std::abs(l));
    }
    interleaver_->deinterleave_to(
        llrs, all_llrs.subspan(s * info_->n_cbps, info_->n_cbps));
  }
  // The post-eq SNR per tone is symbol-invariant (it depends only on the
  // channel estimate), so record each tone once with the symbol count
  // instead of kDataTones records per symbol: identical bins and count,
  // one bulk update per tone.
  if (snr_probe != nullptr) {
    for (std::size_t t = 0; t < kDataTones; ++t) {
      snr_probe->record_n(snr_db[t], n_sym);
    }
  }
}

void OfdmPhy::receive_into(std::span<const Cplx> samples,
                           std::size_t psdu_bytes, double noise_variance,
                           Bytes& psdu, Workspace& ws) const {
  const RxLane lane{samples, noise_variance};
  receive_batch_into(std::span<const RxLane>(&lane, 1), psdu_bytes,
                     std::span<Bytes>(&psdu, 1), /*quantized=*/false, ws);
}

Bytes OfdmPhy::receive(std::span<const Cplx> samples, std::size_t psdu_bytes,
                       double noise_variance) const {
  Bytes psdu;
  receive_into(samples, psdu_bytes, noise_variance, psdu, tls_workspace());
  return psdu;
}

void OfdmPhy::receive_batch_into(std::span<const RxLane> lanes,
                                 std::size_t psdu_bytes,
                                 std::span<Bytes> psdus, bool quantized,
                                 Workspace& ws) const {
  const std::size_t L = lanes.size();
  check(L > 0 && L <= 16 && psdus.size() == L,
        "OFDM batch receive requires 1..16 lanes with one PSDU per lane");
  const obs::perf::ScopedSpan span("ofdm.rx");
  const std::size_t n_sym = n_symbols_for_psdu(psdu_bytes);
  const std::size_t lane_llr_count = n_sym * info_->n_cbps;

  // Per-lane front ends into one lane-contiguous block.
  auto fronts_lease = ws.rvec(L * lane_llr_count);
  RVec& fronts = *fronts_lease;
  std::array<std::span<const double>, 16> lane_llrs;
  for (std::size_t l = 0; l < L; ++l) {
    const std::span<double> mine(fronts.data() + l * lane_llr_count,
                                 lane_llr_count);
    receive_front_into(lanes[l].samples, n_sym, lanes[l].noise_variance,
                       mine, ws);
    lane_llrs[l] = mine;
  }

  // Depuncture the full data field lane-major, then decode only the
  // service + PSDU + tail prefix (a row-prefix of the SoA block). The
  // encoder is in state 0 right after the tail bits, so the trellis is
  // terminated there and the (scrambled, random) pad bits are ignored.
  const std::size_t n_info = n_sym * info_->n_dbps;
  auto soa_lease = ws.rvec(0);
  RVec& soa = *soa_lease;
  depuncture_batch_into(
      std::span<const std::span<const double>>(lane_llrs.data(), L),
      info_->rate, n_info, soa);
  const std::size_t decoded_bits = kServiceBits + 8 * psdu_bytes + kTailBits;
  const std::span<const double> trellis_llrs(soa.data(),
                                             2 * decoded_bits * L);

  auto decoded_lease = ws.bits(0);
  Bits& decoded_soa = *decoded_lease;
  if (quantized) {
    // Calibrate the quantizer to the batch's own LLR peak with headroom
    // below the ±127 rail; batches are group-aligned in the trial queue,
    // so the scale (hence the decode) is independent of --jobs.
    double maxabs = 0.0;
    for (const double v : trellis_llrs) maxabs = std::max(maxabs, std::abs(v));
    const double scale = maxabs > 0.0 ? kQuantHeadroom / maxabs : 1.0;
    viterbi_decode_batch_i16_into(trellis_llrs, L, /*terminated=*/true, scale,
                                  decoded_soa, ws);
  } else {
    viterbi_decode_batch_into(trellis_llrs, L, /*terminated=*/true,
                              decoded_soa, ws);
  }

  descramble_lanes_to_bytes(decoded_soa, L, kScramblerSeed, kServiceBits,
                            psdu_bytes, psdus);
}

}  // namespace wlan::phy
