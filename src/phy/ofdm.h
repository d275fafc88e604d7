// 802.11a/g OFDM PHY: 64-point FFT, 48 data + 4 pilot subcarriers,
// 800 ns guard interval, eight MCS from 6 to 54 Mbps in a 20 MHz channel.
//
// The waveform is simulated at baseband (20 Msample/s). Timing and carrier
// synchronization are assumed ideal (the preamble STF exists to acquire
// them in hardware; with block-fading channels and no CFO they carry no
// information for a link simulation). The long training field IS simulated
// and used for least-squares channel estimation, so equalization quality
// is realistic.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <span>

#include "common/types.h"
#include "phy/convolutional.h"
#include "phy/modulation.h"

namespace wlan::phy {

class Interleaver;
class Workspace;

/// The eight 802.11a rates.
enum class OfdmMcs {
  k6Mbps,   ///< BPSK 1/2
  k9Mbps,   ///< BPSK 3/4
  k12Mbps,  ///< QPSK 1/2
  k18Mbps,  ///< QPSK 3/4
  k24Mbps,  ///< 16-QAM 1/2
  k36Mbps,  ///< 16-QAM 3/4
  k48Mbps,  ///< 64-QAM 2/3
  k54Mbps,  ///< 64-QAM 3/4
};

inline constexpr std::array<OfdmMcs, 8> kAllOfdmMcs = {
    OfdmMcs::k6Mbps,  OfdmMcs::k9Mbps,  OfdmMcs::k12Mbps, OfdmMcs::k18Mbps,
    OfdmMcs::k24Mbps, OfdmMcs::k36Mbps, OfdmMcs::k48Mbps, OfdmMcs::k54Mbps};

struct OfdmMcsInfo {
  Modulation mod;
  CodeRate rate;
  std::size_t n_bpsc;   ///< coded bits per subcarrier
  std::size_t n_cbps;   ///< coded bits per OFDM symbol (48 * n_bpsc)
  std::size_t n_dbps;   ///< data bits per OFDM symbol
  double data_rate_mbps;
};

const OfdmMcsInfo& ofdm_mcs_info(OfdmMcs mcs);

/// One-link OFDM modem (TX + RX) for a fixed MCS.
class OfdmPhy {
 public:
  static constexpr std::size_t kNfft = 64;
  static constexpr std::size_t kCpLen = 16;
  static constexpr std::size_t kSymbolLen = kNfft + kCpLen;
  static constexpr std::size_t kDataTones = 48;
  static constexpr std::size_t kLtfSymbols = 2;
  static constexpr double kSampleRateHz = 20e6;
  static constexpr double kSymbolDurationS = 4e-6;
  static constexpr double kChannelWidthHz = 20e6;

  explicit OfdmPhy(OfdmMcs mcs);
  ~OfdmPhy();
  OfdmPhy(const OfdmPhy&);
  OfdmPhy& operator=(const OfdmPhy&) = delete;

  OfdmMcs mcs() const { return mcs_; }
  const OfdmMcsInfo& info() const { return *info_; }

  /// OFDM data symbols needed for a PSDU (16 service + 6 tail + padding).
  std::size_t n_symbols_for_psdu(std::size_t psdu_bytes) const;

  /// Full PPDU airtime (802.11a: 16 us preamble + 4 us SIGNAL + data).
  double ppdu_duration_s(std::size_t psdu_bytes) const;

  /// Builds the baseband waveform: 2 LTF symbols + data field.
  CVec transmit(std::span<const std::uint8_t> psdu) const;

  /// As transmit, resizing `out` and leasing all scratch from `ws` —
  /// allocation-free once warm.
  void transmit_into(std::span<const std::uint8_t> psdu, CVec& out,
                     Workspace& ws) const;

  /// Demodulates and decodes a received waveform.
  /// `noise_variance` is the complex AWGN variance per time-domain sample
  /// the receiver assumes for LLR scaling (pass what the channel added).
  /// The PSDU length must be known (the SIGNAL field is not simulated).
  Bytes receive(std::span<const Cplx> samples, std::size_t psdu_bytes,
                double noise_variance) const;

  /// As receive, resizing `psdu` and leasing all scratch from `ws` —
  /// allocation-free once warm. The one-lane receive_batch_into.
  void receive_into(std::span<const Cplx> samples, std::size_t psdu_bytes,
                    double noise_variance, Bytes& psdu, Workspace& ws) const;

  /// One lane of a batched receive: that trial's waveform plus the noise
  /// variance its LLRs assume.
  struct RxLane {
    std::span<const Cplx> samples;
    double noise_variance = 0.0;
  };

  /// Trial-batched receive (dsp/batch.h): runs each lane's front end
  /// (FFT, equalize, demap, deinterleave) sequentially, then depunctures
  /// into a lane-major LLR block and decodes every lane in one batched
  /// Viterbi sweep. psdus[l] receives lane l's PSDU; at most 16 lanes.
  /// With `quantized` false lane l's PSDU is bitwise what a one-lane call
  /// on that lane gives, at any lane count; with it true the int16
  /// decoder runs with a scale calibrated from the batch's own LLR peak
  /// (deterministic per batch, gated on PER deltas rather than equality).
  void receive_batch_into(std::span<const RxLane> lanes,
                          std::size_t psdu_bytes, std::span<Bytes> psdus,
                          bool quantized, Workspace& ws) const;

  /// Number of baseband samples in a transmit() waveform.
  std::size_t waveform_length(std::size_t psdu_bytes) const;

 private:
  /// One lane's front end in receive_batch_into: channel estimate,
  /// per-symbol FFT + CPE + equalize + demap + deinterleave.
  /// all_llrs receives n_sym * n_cbps coded-bit LLRs.
  void receive_front_into(std::span<const Cplx> samples, std::size_t n_sym,
                          double noise_variance, std::span<double> all_llrs,
                          Workspace& ws) const;

  OfdmMcs mcs_;
  const OfdmMcsInfo* info_;
  // Owned via pointer so the public header stays free of interleaver.h;
  // built once per modem instead of once per transmit/receive call.
  std::unique_ptr<Interleaver> interleaver_;
};

// ---------------------------------------------------------------------------
// Symbol-level helpers shared with the PLCP/sync layers.
// ---------------------------------------------------------------------------

/// Data-subcarrier indices in transmission order (ascending, skipping DC
/// and the four pilots).
const std::array<int, OfdmPhy::kDataTones>& ofdm_data_tones();

/// Maps a subcarrier index (-26..26) to its FFT bin.
std::size_t ofdm_tone_bin(int tone);

/// Builds one 80-sample OFDM symbol (CP + IFFT) from 48 modulated
/// data-tone values; pilots carry {+1,+1,+1,-1} x `pilot_polarity`.
CVec ofdm_build_symbol(std::span<const Cplx> data_tones, double pilot_polarity);

/// As ofdm_build_symbol, writing the 80 samples into `out` with no
/// scratch: the IFFT runs in place on the tail 64 samples of `out` and
/// the cyclic prefix is copied from them.
void ofdm_build_symbol_to(std::span<const Cplx> data_tones,
                          double pilot_polarity, std::span<Cplx> out);

/// The 127-periodic pilot polarity sequence p_n.
const std::vector<double>& ofdm_pilot_polarity();

/// Two LTF training symbols (160 samples). Built once per process and
/// cached; callers copy from the reference.
const CVec& ofdm_ltf_waveform();

/// FFT of OFDM symbol `index` of a waveform (CP stripped, 64 bins).
CVec ofdm_extract_symbol(std::span<const Cplx> samples, std::size_t index);

/// As ofdm_extract_symbol, writing the 64 bins into caller-provided
/// `out` (the FFT runs in place on it).
void ofdm_extract_symbol_to(std::span<const Cplx> samples, std::size_t index,
                            std::span<Cplx> out);

/// Least-squares per-bin channel estimate from the two leading LTF
/// symbols of a waveform.
CVec ofdm_estimate_channel(std::span<const Cplx> samples);

/// As ofdm_estimate_channel, writing the 64-bin estimate into `out`,
/// leasing LTF scratch from `ws`.
void ofdm_estimate_channel_to(std::span<const Cplx> samples,
                              std::span<Cplx> out, Workspace& ws);

}  // namespace wlan::phy
