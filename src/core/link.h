// Unified link-level simulation front end.
//
// Every generation gets the same Monte-Carlo harness: N packets through
// (waveform or per-tone) channel at a mean SNR, returning PER/BER and
// goodput. Distance-based variants fold in the path-loss model so range
// experiments (C6, C7) can sweep metres instead of decibels.
//
// Packets run through par::montecarlo: each runner consumes exactly one
// u64 from the caller's Rng as the root of a counter-based per-packet
// seed derivation, then executes packets on the process worker pool
// (see --jobs). Results are a pure function of the caller's Rng state
// and the packet count — bitwise identical for any thread count.
#pragma once

#include <cstdint>
#include <optional>

#include "channel/fading.h"
#include "channel/pathloss.h"
#include "common/rng.h"
#include "phy/cck.h"
#include "phy/dsss.h"
#include "phy/ht.h"
#include "phy/ofdm.h"

namespace wlan {

/// Outcome of a Monte-Carlo link run.
struct LinkResult {
  std::uint64_t packets = 0;
  std::uint64_t packet_errors = 0;
  std::uint64_t bits = 0;
  std::uint64_t bit_errors = 0;

  double per() const {
    return packets ? static_cast<double>(packet_errors) /
                         static_cast<double>(packets)
                   : 0.0;
  }
  double ber() const {
    return bits ? static_cast<double>(bit_errors) / static_cast<double>(bits)
                : 0.0;
  }
  /// Goodput at the given PHY rate: rate x (1 - PER).
  double goodput_mbps(double phy_rate_mbps) const {
    return phy_rate_mbps * (1.0 - per());
  }

  /// Folds another partial result into this one (integer counters only,
  /// so merging is associative and order-independent).
  void merge(const LinkResult& other) {
    packets += other.packets;
    packet_errors += other.packet_errors;
    bits += other.bits;
    bit_errors += other.bit_errors;
  }
};

/// Optional narrowband interferer applied to waveform-level links.
struct ToneInterference {
  double sir_db;      ///< signal-to-interference ratio
  double freq_norm;   ///< tone frequency, cycles/sample
};

/// Channel selection for waveform links: AWGN-only, flat Rayleigh, or a
/// TGn-style tapped delay line drawn per packet.
struct ChannelSpec {
  enum class Kind { kAwgn, kFlatRayleigh, kTdl } kind = Kind::kAwgn;
  channel::DelayProfile profile = channel::DelayProfile::kOffice;

  static ChannelSpec awgn() { return {}; }
  static ChannelSpec flat_rayleigh() {
    return {Kind::kFlatRayleigh, channel::DelayProfile::kFlat};
  }
  static ChannelSpec tdl(channel::DelayProfile p) { return {Kind::kTdl, p}; }
};

/// DSSS (802.11-1997) link: `bits_per_packet` payload bits per packet.
LinkResult run_dsss_link(const phy::DsssModem::Config& config,
                         std::size_t bits_per_packet, std::size_t n_packets,
                         double snr_db, Rng& rng,
                         std::optional<ToneInterference> interference = {},
                         ChannelSpec channel = ChannelSpec::awgn());

/// CCK (802.11b) link.
LinkResult run_cck_link(phy::CckRate rate, std::size_t bits_per_packet,
                        std::size_t n_packets, double snr_db, Rng& rng,
                        ChannelSpec channel = ChannelSpec::awgn());

/// OFDM (802.11a/g) link: full time-domain waveform with LTF channel
/// estimation at the receiver. The one-lane run_ofdm_link_batched.
LinkResult run_ofdm_link(phy::OfdmMcs mcs, std::size_t psdu_bytes,
                         std::size_t n_packets, double snr_db, Rng& rng,
                         ChannelSpec channel = ChannelSpec::awgn());

/// HT (802.11n) link: frequency-domain MIMO simulation; the channel is a
/// fresh TGn-profile draw per packet. The one-lane run_ht_link_batched.
LinkResult run_ht_link(const phy::HtConfig& config, std::size_t psdu_bytes,
                       std::size_t n_packets, double snr_db, Rng& rng,
                       channel::DelayProfile profile =
                           channel::DelayProfile::kOffice);

/// Trial-batching knobs for the OFDM and HT link runners. The plain
/// run_ofdm_link / run_ht_link entry points run {1, false}.
struct BatchOptions {
  /// Trials per SIMD group (1..par::kMaxBatch = 16). The double-precision
  /// vector decoders want a multiple of the SIMD width; other counts fall
  /// back to the scalar kernels per lane (still batched at the runner),
  /// and one lane runs them with no lane copies at all.
  std::size_t lanes = 8;
  /// Engage the int16 quantized decoder fast paths. Results are then NOT
  /// bitwise against the double path — gate on PER deltas (bench_diff).
  bool quantized = false;
};

/// The OFDM link runner: pushes trials through the receiver in SIMD
/// groups of `batch.lanes` (dsp/batch.h). With batch.quantized false the
/// result is a pure function of the Rng state and the packet count — the
/// same at any lane count and any --jobs, so run_ofdm_link's one-lane
/// result too (tests/test_link_shapes.cpp pins this on random cases).
LinkResult run_ofdm_link_batched(phy::OfdmMcs mcs, std::size_t psdu_bytes,
                                 std::size_t n_packets, double snr_db,
                                 Rng& rng, BatchOptions batch,
                                 ChannelSpec channel = ChannelSpec::awgn());

/// The HT link runner, batched like run_ofdm_link_batched and under the
/// same contract.
LinkResult run_ht_link_batched(const phy::HtConfig& config,
                               std::size_t psdu_bytes, std::size_t n_packets,
                               double snr_db, Rng& rng, BatchOptions batch,
                               channel::DelayProfile profile =
                                   channel::DelayProfile::kOffice);

/// Mean SNR at `distance_m` under a link budget (convenience for range
/// sweeps): tx_power - path_loss(distance) - noise(bandwidth).
double snr_at_distance_db(const channel::PathLossModel& pathloss,
                          double distance_m, double tx_power_dbm,
                          double bandwidth_hz, double noise_figure_db = 6.0);

}  // namespace wlan
