#include "core/link.h"

#include <array>
#include <bit>
#include <span>
#include <utility>

#include "channel/awgn.h"
#include "common/bits.h"
#include "common/check.h"
#include "common/units.h"
#include "dsp/ops.h"
#include "obs/perf.h"
#include "par/montecarlo.h"
#include "phy/workspace.h"

namespace wlan {
namespace {

// Shared merge step for all runners: chunk partials are integer counter
// sums, folded in chunk order by par::montecarlo.
void merge_links(LinkResult& acc, const LinkResult& partial) {
  acc.merge(partial);
}

// Applies the selected channel to `wave` in place (leasing convolution
// scratch from `ws` for the TDL case, which lengthens the waveform).
// AWGN passes through untouched — no per-trial copy.
void apply_channel(CVec& wave, ChannelSpec spec, double sample_rate_hz,
                   Rng& rng, phy::Workspace& ws) {
  switch (spec.kind) {
    case ChannelSpec::Kind::kAwgn:
      return;
    case ChannelSpec::Kind::kFlatRayleigh: {
      const Cplx h = channel::flat_fading_coefficient(rng);
      for (auto& v : wave) v = h * v;
      return;
    }
    case ChannelSpec::Kind::kTdl: {
      const channel::Tdl tdl = channel::make_tdl(rng, spec.profile, sample_rate_hz);
      auto faded = ws.cvec(0);
      tdl.apply_to(wave, *faded);
      std::swap(wave, *faded);
      return;
    }
  }
}

void count_bit_errors(std::span<const std::uint8_t> a,
                      std::span<const std::uint8_t> b, LinkResult& result) {
  const std::size_t errors = hamming_distance(a, b);
  result.bits += a.size();
  result.bit_errors += errors;
  ++result.packets;
  if (errors > 0) ++result.packet_errors;
}

void count_byte_errors(std::span<const std::uint8_t> sent,
                       std::span<const std::uint8_t> got, LinkResult& result) {
  std::size_t bit_errors = 0;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    bit_errors += static_cast<std::size_t>(
        std::popcount(static_cast<unsigned>(sent[i] ^ got[i])));
  }
  result.bits += 8 * sent.size();
  result.bit_errors += bit_errors;
  ++result.packets;
  if (bit_errors > 0) ++result.packet_errors;
}

}  // namespace

LinkResult run_dsss_link(const phy::DsssModem::Config& config,
                         std::size_t bits_per_packet, std::size_t n_packets,
                         double snr_db, Rng& rng,
                         std::optional<ToneInterference> interference,
                         ChannelSpec channel) {
  check(bits_per_packet > 0 && n_packets > 0, "empty DSSS link run");
  const obs::perf::ScopedSpan span("link.dsss");
  const phy::DsssModem modem(config);
  par::SweepOptions opt;
  opt.root_seed = rng.next_u64();
  return par::montecarlo<LinkResult>(
      n_packets, /*point=*/0, opt,
      [&](std::uint64_t, std::size_t, Rng& prng, LinkResult& acc) {
        phy::Workspace& ws = phy::tls_workspace();
        auto tx_bits = ws.bits(bits_per_packet);
        prng.fill_bits(*tx_bits);
        auto wave_lease = ws.cvec(0);
        CVec& wave = *wave_lease;
        modem.modulate_into(*tx_bits, wave);
        const double signal_power = dsp::mean_power(wave);
        apply_channel(wave, channel, 11e6, prng, ws);
        if (interference) {
          const double jam_power =
              signal_power / db_to_lin(interference->sir_db);
          channel::add_tone_interferer(wave, prng, jam_power,
                                       interference->freq_norm);
        }
        channel::add_awgn(wave, prng, signal_power / db_to_lin(snr_db));
        // Keep only the modem's symbol lattice (TDL tails are discarded;
        // the Barker correlation absorbs within-symbol dispersion).
        const std::size_t expected =
            (bits_per_packet / phy::dsss_bits_per_symbol(config.rate) + 1) *
            modem.chips_per_symbol();
        wave.resize(expected);
        auto rx_bits = ws.bits(0);
        modem.demodulate_into(wave, *rx_bits);
        count_bit_errors(*tx_bits, *rx_bits, acc);
      },
      merge_links);
}

LinkResult run_cck_link(phy::CckRate rate, std::size_t bits_per_packet,
                        std::size_t n_packets, double snr_db, Rng& rng,
                        ChannelSpec channel) {
  check(bits_per_packet > 0 && n_packets > 0, "empty CCK link run");
  const obs::perf::ScopedSpan span("link.cck");
  const phy::CckModem modem(rate);
  par::SweepOptions opt;
  opt.root_seed = rng.next_u64();
  return par::montecarlo<LinkResult>(
      n_packets, /*point=*/0, opt,
      [&](std::uint64_t, std::size_t, Rng& prng, LinkResult& acc) {
        phy::Workspace& ws = phy::tls_workspace();
        auto tx_bits = ws.bits(bits_per_packet);
        prng.fill_bits(*tx_bits);
        auto wave_lease = ws.cvec(0);
        CVec& wave = *wave_lease;
        modem.modulate_into(*tx_bits, wave);
        const double signal_power = dsp::mean_power(wave);
        apply_channel(wave, channel, 11e6, prng, ws);
        channel::add_awgn(wave, prng, signal_power / db_to_lin(snr_db));
        const std::size_t expected =
            (bits_per_packet / phy::cck_bits_per_symbol(rate) + 1) * 8;
        wave.resize(expected);
        auto rx_bits = ws.bits(0);
        modem.demodulate_into(wave, *rx_bits);
        count_bit_errors(*tx_bits, *rx_bits, acc);
      },
      merge_links);
}

LinkResult run_ofdm_link(phy::OfdmMcs mcs, std::size_t psdu_bytes,
                         std::size_t n_packets, double snr_db, Rng& rng,
                         ChannelSpec channel) {
  return run_ofdm_link_batched(mcs, psdu_bytes, n_packets, snr_db, rng,
                               {1, false}, channel);
}

LinkResult run_ofdm_link_batched(phy::OfdmMcs mcs, std::size_t psdu_bytes,
                                 std::size_t n_packets, double snr_db,
                                 Rng& rng, BatchOptions batch,
                                 ChannelSpec channel) {
  check(psdu_bytes > 0 && n_packets > 0, "empty OFDM link run");
  check(batch.lanes >= 1 && batch.lanes <= par::kMaxBatch,
        "run_ofdm_link_batched: lanes out of range");
  const obs::perf::ScopedSpan span("link.ofdm");
  const phy::OfdmPhy phy(mcs);
  par::SweepOptions opt;
  opt.root_seed = rng.next_u64();
  const std::size_t tx_len = phy.waveform_length(psdu_bytes);
  return par::montecarlo_batched<LinkResult>(
      n_packets, /*point=*/0, batch.lanes, opt,
      [&](std::uint64_t, std::size_t, std::span<Rng> rngs, LinkResult& acc) {
        phy::Workspace& ws = phy::tls_workspace();
        const std::size_t L = rngs.size();
        auto tx_lease = ws.bits(L * psdu_bytes);
        Bits& tx = *tx_lease;
        // Group-persistent waveform and PSDU buffers: thread_local so
        // their capacity survives across groups (steady state stays
        // allocation-free). Each lane's receiver borrows its waveform.
        thread_local std::array<CVec, par::kMaxBatch> waves;
        thread_local std::array<Bytes, par::kMaxBatch> decoded;
        std::array<phy::OfdmPhy::RxLane, par::kMaxBatch> rx;
        for (std::size_t l = 0; l < L; ++l) {
          // Each lane consumes exactly its own trial Rng, so a trial's
          // waveform does not depend on the group it runs in.
          Rng& prng = rngs[l];
          const std::span<std::uint8_t> psdu(tx.data() + l * psdu_bytes,
                                             psdu_bytes);
          prng.fill_bytes(psdu);
          CVec& wave = waves[l];
          phy.transmit_into(psdu, wave, ws);
          const double signal_power = dsp::mean_power(wave);
          apply_channel(wave, channel, phy::OfdmPhy::kSampleRateHz, prng, ws);
          const double noise_var = signal_power / db_to_lin(snr_db);
          channel::add_awgn(wave, prng, noise_var);
          wave.resize(tx_len);  // drop the TDL tail beyond the frame
          rx[l] = {wave, noise_var};
        }
        phy.receive_batch_into(
            std::span<const phy::OfdmPhy::RxLane>(rx.data(), L), psdu_bytes,
            std::span<Bytes>(decoded.data(), L), batch.quantized, ws);
        for (std::size_t l = 0; l < L; ++l) {
          count_byte_errors(
              std::span<const std::uint8_t>(tx.data() + l * psdu_bytes,
                                            psdu_bytes),
              decoded[l], acc);
        }
      },
      merge_links);
}

LinkResult run_ht_link(const phy::HtConfig& config, std::size_t psdu_bytes,
                       std::size_t n_packets, double snr_db, Rng& rng,
                       channel::DelayProfile profile) {
  return run_ht_link_batched(config, psdu_bytes, n_packets, snr_db, rng,
                             {1, false}, profile);
}

LinkResult run_ht_link_batched(const phy::HtConfig& config,
                               std::size_t psdu_bytes, std::size_t n_packets,
                               double snr_db, Rng& rng, BatchOptions batch,
                               channel::DelayProfile profile) {
  check(psdu_bytes > 0 && n_packets > 0, "empty HT link run");
  check(batch.lanes >= 1 && batch.lanes <= par::kMaxBatch,
        "run_ht_link_batched: lanes out of range");
  const obs::perf::ScopedSpan span("link.ht");
  const phy::HtPhy phy(config);
  par::SweepOptions opt;
  opt.root_seed = rng.next_u64();
  return par::montecarlo_batched<LinkResult>(
      n_packets, /*point=*/0, batch.lanes, opt,
      [&](std::uint64_t, std::size_t, std::span<Rng> rngs, LinkResult& acc) {
        phy::Workspace& ws = phy::tls_workspace();
        const std::size_t L = rngs.size();
        auto tx_lease = ws.bits(L * psdu_bytes);
        Bits& tx = *tx_lease;
        // Per-lane channel draws allocate (small matrices); the lanes
        // array only borrows them.
        std::array<std::vector<linalg::CMatrix>, par::kMaxBatch> tones;
        std::array<phy::HtPhy::TxLane, par::kMaxBatch> lanes;
        for (std::size_t l = 0; l < L; ++l) {
          // Each lane draws off its own trial Rng: PSDU bytes, then the
          // channel, then (inside the front) the per-tone noise.
          Rng& prng = rngs[l];
          const std::span<std::uint8_t> psdu(tx.data() + l * psdu_bytes,
                                             psdu_bytes);
          prng.fill_bytes(psdu);
          tones[l] = phy.draw_channel(prng, profile);
          lanes[l] = {psdu, &tones[l], &prng};
        }
        thread_local std::array<Bytes, par::kMaxBatch> decoded;
        phy.simulate_link_batch_into(
            std::span<const phy::HtPhy::TxLane>(lanes.data(), L), snr_db,
            std::span<Bytes>(decoded.data(), L), batch.quantized, ws);
        for (std::size_t l = 0; l < L; ++l) {
          count_byte_errors(
              std::span<const std::uint8_t>(tx.data() + l * psdu_bytes,
                                            psdu_bytes),
              decoded[l], acc);
        }
      },
      merge_links);
}

double snr_at_distance_db(const channel::PathLossModel& pathloss,
                          double distance_m, double tx_power_dbm,
                          double bandwidth_hz, double noise_figure_db) {
  return channel::link_snr_db(tx_power_dbm, pathloss.path_loss_db(distance_m),
                              bandwidth_hz, noise_figure_db);
}

}  // namespace wlan
