// 802.11n High Throughput PHY: MCS 0-31 (1-4 spatial streams), 20/40 MHz,
// long/short guard interval, BCC or LDPC coding, with spatial multiplexing
// (ZF/MMSE detection), SVD eigen-beamforming, Alamouti STBC, and MRC
// receive diversity.
//
// The HT link is simulated in the frequency domain: the channel enters as
// one complex matrix per subcarrier (block fading over a packet), noise is
// added per tone, and detection/decoding run on the exact per-tone model
// y_k = H_k Q_k x_k / sqrt(Nss) + n_k. This is the standard methodology of
// the TGn-era proposal simulations; it is exactly equivalent to a
// time-domain simulation when the guard interval exceeds the delay spread
// and synchronization is ideal. Receiver channel knowledge is ideal
// (the 802.11a path validates LTF-based estimation separately).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "channel/fading.h"
#include "common/rng.h"
#include "common/types.h"
#include "linalg/cmatrix.h"
#include "phy/convolutional.h"
#include "phy/modulation.h"

namespace wlan::phy {

enum class HtBandwidth { k20MHz, k40MHz };
enum class HtGuardInterval { kLong, kShort };  // 800 ns / 400 ns
enum class HtCoding { kBcc, kLdpc };
enum class MimoDetector {
  kZeroForcing,
  kMmse,
  kMmseSic,  ///< ordered successive interference cancellation on MMSE
};

/// How transmit antennas are used.
enum class SpatialScheme {
  kDirectMap,         ///< Nss streams onto Nss antennas (open loop)
  kBeamforming,       ///< SVD eigen-beamforming (closed loop, CSI at TX)
  kStbc,              ///< Alamouti space-time block code, Nss = 1, Ntx = 2
  kMrc,               ///< single stream, single TX antenna, Nrx-branch MRC
  kAntennaSelection,  ///< single stream; receiver picks its best antenna
                      ///< per packet (one active chain: the low-power
                      ///< diversity the paper's chain-switching idea wants)
};

/// Modulation/coding of one HT MCS index (0..31; index mod 8 selects the
/// base scheme, index / 8 + 1 the number of spatial streams).
struct HtMcsInfo {
  unsigned index;
  std::size_t n_ss;
  Modulation mod;
  CodeRate rate;
  std::size_t n_bpsc;
};

HtMcsInfo ht_mcs_info(unsigned index);

/// Data subcarriers per symbol per stream: 52 (20 MHz) or 108 (40 MHz).
std::size_t ht_data_tones(HtBandwidth bw);

/// Data subcarrier indices in ascending order (skipping DC and pilots);
/// map to FFT bins as (tone + n_fft) % n_fft. Used by the link-to-system
/// abstraction to sample a channel's frequency response on the HT grid.
std::vector<int> ht_data_tone_list(HtBandwidth bw);

/// FFT size: 64 (20 MHz) or 128 (40 MHz).
std::size_t ht_fft_size(HtBandwidth bw);

/// Channel sample rate in Hz.
double ht_sample_rate_hz(HtBandwidth bw);

/// Channel width in Hz (for spectral-efficiency accounting).
double ht_channel_width_hz(HtBandwidth bw);

/// OFDM symbol duration: 4 us (long GI) or 3.6 us (short GI).
double ht_symbol_duration_s(HtGuardInterval gi);

/// PHY data rate in Mbps for an MCS/bandwidth/GI combination.
/// MCS 31 + 40 MHz + short GI = 600 Mbps, the paper's headline 802.11n rate.
double ht_data_rate_mbps(unsigned mcs, HtBandwidth bw, HtGuardInterval gi);

struct HtConfig {
  unsigned mcs = 0;
  HtBandwidth bandwidth = HtBandwidth::k20MHz;
  HtGuardInterval guard = HtGuardInterval::kLong;
  HtCoding coding = HtCoding::kBcc;
  MimoDetector detector = MimoDetector::kMmse;
  SpatialScheme scheme = SpatialScheme::kDirectMap;
  std::size_t n_rx = 0;  ///< receive antennas; 0 means "= n_ss"
  std::size_t n_tx = 0;  ///< transmit antennas; 0 means scheme default
  /// true: genie channel knowledge at the receiver (TGn-evaluation
  /// style). false: the receiver estimates H per tone from simulated
  /// HT-LTF sounding (orthogonal P-matrix, one LTF per stream) at the
  /// same noise level — costs a fraction of a dB, like hardware does.
  /// Applies to the kDirectMap matrix path.
  bool ideal_csi = true;
};

/// One-link HT modem operating on per-subcarrier channel matrices.
class HtPhy {
 public:
  explicit HtPhy(const HtConfig& config);

  const HtConfig& config() const { return config_; }
  const HtMcsInfo& mcs_info() const { return mcs_; }
  std::size_t n_tx() const { return n_tx_; }
  std::size_t n_rx() const { return n_rx_; }
  double data_rate_mbps() const;
  double spectral_efficiency_bps_hz() const;

  std::size_t n_symbols_for_psdu(std::size_t psdu_bytes) const;

  /// Mixed-format PPDU airtime (legacy + HT preamble + data symbols).
  double ppdu_duration_s(std::size_t psdu_bytes) const;

  /// Draws a block-fading per-tone channel suitable for this config from
  /// the given delay profile (independent taps per antenna pair).
  std::vector<linalg::CMatrix> draw_channel(
      Rng& rng, channel::DelayProfile profile) const;

  /// Runs one packet through the frequency-domain link at per-RX-antenna
  /// SNR `snr_db` over the given per-tone channel. Returns the decoded
  /// PSDU (compare with the input to detect packet error).
  Bytes simulate_link(std::span<const std::uint8_t> psdu,
                      const std::vector<linalg::CMatrix>& tones,
                      double snr_db, Rng& rng) const;

  /// As simulate_link, resizing `out` and leasing the per-packet coding
  /// and detection scratch from `ws`. The per-tone detector setup still
  /// allocates (small matrices, SVD); the symbol/decode hot loops do not.
  /// The one-lane simulate_link_batch_into.
  void simulate_link_into(std::span<const std::uint8_t> psdu,
                          const std::vector<linalg::CMatrix>& tones,
                          double snr_db, Rng& rng, Bytes& out,
                          Workspace& ws) const;

  /// One lane of a batched link: that trial's PSDU, per-tone channel,
  /// and private Rng.
  struct TxLane {
    std::span<const std::uint8_t> psdu;
    const std::vector<linalg::CMatrix>* tones = nullptr;
    Rng* rng = nullptr;
  };

  /// Trial-batched simulate_link (dsp/batch.h): each lane's front end
  /// (encode, channel, detection, demap) runs sequentially on its own
  /// Rng, then every lane decodes in one batched Viterbi or LDPC sweep.
  /// out[l] receives lane l's PSDU; all lanes must carry PSDUs of one
  /// size; at most 16 lanes. With `quantized` false lane l's PSDU is
  /// bitwise what a one-lane call on that lane gives, at any lane count;
  /// true engages the int16 decoders (gated on PER deltas, not
  /// equality). Profiled as one "ht.link" span with the front-end stages
  /// (ht.encode, ht.map, ht.detector_setup, ht.detect) and the decoder
  /// kernels as children.
  void simulate_link_batch_into(std::span<const TxLane> lanes, double snr_db,
                                std::span<Bytes> out, bool quantized,
                                Workspace& ws) const;

 private:
  /// One lane's front end in simulate_link_batch_into: encode through
  /// detection and demap, writing n_symbols * n_cbps coded-bit LLRs.
  void simulate_front_into(std::span<const std::uint8_t> psdu,
                           const std::vector<linalg::CMatrix>& tones,
                           double snr_db, Rng& rng,
                           std::span<double> coded_llrs, Workspace& ws) const;

  HtConfig config_;
  HtMcsInfo mcs_;
  std::size_t n_tx_ = 1;
  std::size_t n_rx_ = 1;
};

}  // namespace wlan::phy
