// C7 — LDPC coding gain and the range it buys.
//
// Paper: "Other likely enhancements in the 802.11n standard will also
// increase the range of wireless networks, such as the use of LDPC
// codes."
//
// Part 1 measures raw coded-BPSK BER for the K=7 convolutional code vs
// the rate-1/2 LDPC block code and reads the dB gain at BER = 1e-4.
// Part 2 runs the full HT link (BCC vs LDPC at the same MCS) over fading
// and converts the SNR advantage into a range multiple through the
// dual-slope path-loss model.
#include <cmath>
#include <vector>

#include "bench_util.h"
#include "common/bits.h"
#include "core/wlan.h"
#include "dsp/simd.h"
#include "dsp/simd_int.h"
#include "par/montecarlo.h"
#include "phy/workspace.h"

int main(int argc, char** argv) {
  using namespace wlan;
  namespace bu = benchutil;
  bu::args(argc, argv);

  bu::title("C7: LDPC vs convolutional coding — gain and range",
            "LDPC's coding gain over the K=7 convolutional code extends "
            "range at equal rate");

  Rng rng(7);

  bu::section("coded BPSK over AWGN, rate 1/2 (BER vs Eb/N0)");
  const phy::LdpcCode code(648, 324, 11);
  std::vector<double> ebn0s;
  std::vector<double> ber_conv;
  std::vector<double> ber_ldpc;
  std::printf("%12s %14s %14s\n", "Eb/N0(dB)", "conv K=7", "LDPC n=648");
  // All (Eb/N0 point x block) cells run on the worker pool (--jobs);
  // per-trial counter-derived seeds make the result thread-count
  // independent.
  struct CodedBer {
    std::size_t conv_err = 0;
    std::size_t ldpc_err = 0;
    std::size_t total = 0;
  };
  constexpr std::size_t kPoints = 11;  // 0.0 .. 5.0 dB in 0.5 dB steps
  constexpr std::size_t kBlocks = 60;
  par::SweepOptions opt;
  opt.root_seed = rng.next_u64();
  const std::vector<CodedBer> coded_points = par::sweep<CodedBer>(
      kPoints, kBlocks, opt,
      [&](std::uint64_t point, std::size_t, Rng& prng, CodedBer& acc) {
        phy::Workspace& ws = phy::tls_workspace();
        const double ebn0_db = 0.5 * static_cast<double>(point);
        const double sigma = std::sqrt(1.0 / db_to_lin(ebn0_db));  // rate 1/2
        auto info = ws.bits(324);
        prng.fill_bits(*info);
        for (std::size_t i = 318; i < 324; ++i) (*info)[i] = 0;
        auto coded = ws.bits(0);
        phy::convolutional_encode_into(*info, *coded);
        auto llrs = ws.rvec(coded->size());
        for (std::size_t i = 0; i < coded->size(); ++i) {
          const double tx = (*coded)[i] ? -1.0 : 1.0;
          (*llrs)[i] = 2.0 * (tx + sigma * prng.gaussian()) / (sigma * sigma);
        }
        auto decoded = ws.bits(0);
        phy::viterbi_decode_into(*llrs, true, *decoded, ws);
        acc.conv_err += hamming_distance(*decoded, *info);

        auto info2 = ws.bits(324);
        prng.fill_bits(*info2);
        auto cw = ws.bits(0);
        code.encode_into(*info2, *cw);
        auto cllrs = ws.rvec(648);
        for (std::size_t i = 0; i < 648; ++i) {
          const double tx = (*cw)[i] ? -1.0 : 1.0;
          (*cllrs)[i] = 2.0 * (tx + sigma * prng.gaussian()) / (sigma * sigma);
        }
        static thread_local phy::LdpcCode::DecodeResult res;
        code.decode_into(*cllrs, 50, /*normalization=*/0.8, res, ws);
        acc.ldpc_err += hamming_distance(res.info, *info2);
        acc.total += 324;
      },
      [](CodedBer& acc, const CodedBer& part) {
        acc.conv_err += part.conv_err;
        acc.ldpc_err += part.ldpc_err;
        acc.total += part.total;
      });
  for (std::size_t p = 0; p < kPoints; ++p) {
    const double ebn0_db = 0.5 * static_cast<double>(p);
    const CodedBer& cell = coded_points[p];
    const double bc =
        static_cast<double>(cell.conv_err) / static_cast<double>(cell.total);
    const double bl =
        static_cast<double>(cell.ldpc_err) / static_cast<double>(cell.total);
    ebn0s.push_back(ebn0_db);
    ber_conv.push_back(bc);
    ber_ldpc.push_back(bl);
    std::printf("%12.1f %14.6f %14.6f\n", ebn0_db, bc, bl);
  }
  bu::series("ber_vs_ebn0_conv_k7", "ebn0_db", ebn0s, "ber", ber_conv);
  bu::series("ber_vs_ebn0_ldpc_648", "ebn0_db", ebn0s, "ber", ber_ldpc);
  const double req_conv = bu::crossing(ebn0s, ber_conv, 1e-4);
  const double req_ldpc = bu::crossing(ebn0s, ber_ldpc, 1e-4);
  const double gain_db = req_conv - req_ldpc;
  std::printf("\n  Eb/N0 @ BER=1e-4: conv %.2f dB, LDPC %.2f dB -> coding "
              "gain %.2f dB\n", req_conv, req_ldpc, gain_db);

  bu::section(
      "full 802.11n link, MCS3 (16-QAM 1/2), office multipath (PER vs SNR)");
  // Frequency-selective fading: the code works across tones, so coding
  // strength translates into PER (a single flat tap would bury both coders
  // in the same deep fades).
  std::vector<double> snrs;
  std::vector<double> per_bcc;
  std::vector<double> per_ldpc;
  std::printf("%10s %10s %10s\n", "SNR(dB)", "BCC", "LDPC");
  // --batch: the runner's SIMD group width (1 lane without it; PER is
  // the same at every width); --quantized re-runs each point from a
  // paired seed on the int16 decoders and records the worst PER
  // divergence.
  const std::size_t batch = bu::batch_lanes();
  const std::size_t lanes = std::max<std::size_t>(batch, 1);
  const bool quant = batch != 0 && bu::quantized();
  // Quantized re-runs widen to a multiple of the int16 SIMD width (the
  // int16 kernels are deterministic across lane counts, and more lanes
  // per vector is the fast path's point).
  const std::size_t qlanes =
      std::min<std::size_t>(16, ((batch + dsp::simd::kI16Width - 1) /
                                 dsp::simd::kI16Width) *
                                    dsp::simd::kI16Width);
  double quant_delta_max = 0.0;
  for (double snr = 6.0; snr <= 22.0; snr += 2.0) {
    phy::HtConfig bcc;
    bcc.mcs = 3;
    phy::HtConfig ldpc = bcc;
    ldpc.coding = phy::HtCoding::kLdpc;
    Rng qb = rng;
    const LinkResult rb = run_ht_link_batched(
        bcc, 400, 150, snr, rng, {lanes, false}, channel::DelayProfile::kOffice);
    if (quant) {
      const LinkResult q = run_ht_link_batched(
          bcc, 400, 150, snr, qb, {qlanes, true},
          channel::DelayProfile::kOffice);
      quant_delta_max =
          std::max(quant_delta_max, std::abs(q.per() - rb.per()));
    }
    Rng ql = rng;
    const LinkResult rl = run_ht_link_batched(
        ldpc, 400, 150, snr, rng, {lanes, false},
        channel::DelayProfile::kOffice);
    if (quant) {
      const LinkResult q = run_ht_link_batched(
          ldpc, 400, 150, snr, ql, {qlanes, true},
          channel::DelayProfile::kOffice);
      quant_delta_max =
          std::max(quant_delta_max, std::abs(q.per() - rl.per()));
    }
    snrs.push_back(snr);
    per_bcc.push_back(rb.per());
    per_ldpc.push_back(rl.per());
    std::printf("%10.1f %10.2f %10.2f\n", snr, rb.per(), rl.per());
  }
  bu::series("per_vs_snr_bcc_mcs3", "snr_db", snrs, "per", per_bcc);
  bu::series("per_vs_snr_ldpc_mcs3", "snr_db", snrs, "per", per_ldpc);
  const double snr_bcc = bu::crossing(snrs, per_bcc, 0.10);
  const double snr_ldpc = bu::crossing(snrs, per_ldpc, 0.10);
  const double link_gain = snr_bcc - snr_ldpc;

  // Convert the dB gain to a range multiple: beyond the breakpoint the
  // model slopes at 35 dB/decade.
  channel::PathLossModel pl;
  const double base_range = pl.distance_for_path_loss(95.0);
  const double extended = pl.distance_for_path_loss(95.0 + std::max(link_gain, 0.0));
  const double range_multiple = extended / base_range;

  bu::section("what the gain buys");
  std::printf("  link SNR advantage @ PER=10%%: %.1f dB\n", link_gain);
  std::printf("  range multiple via 3.5-exponent path loss: %.2fx\n",
              range_multiple);

  bu::metric("coding_gain_db_at_ber_1e4", gain_db);
  bu::metric("link_gain_db_at_per_10pct", link_gain);
  bu::metric("range_multiple", range_multiple);
  if (batch) bu::metric("batch_lanes", static_cast<double>(batch));
  if (quant) {
    bu::metric("quantized_per_delta_max", quant_delta_max);
    bu::metric("quantized_lane_multiple",
               static_cast<double>(dsp::simd::kI16Width) /
                   static_cast<double>(dsp::simd::kWidth));
    std::printf("  quantized int16 path: worst PER delta %.3f, "
                "%zu int16 lanes vs %zu double lanes\n",
                quant_delta_max, dsp::simd::kI16Width, dsp::simd::kWidth);
  }
  const bool ok = gain_db > 0.5 && link_gain > -0.5;
  bu::verdict(ok,
              "LDPC gains %.1f dB on coded BPSK and %.1f dB at the 11n link "
              "level, i.e. %.0f%% more range at equal rate",
              gain_db, link_gain, (range_multiple - 1.0) * 100.0);
  return ok ? 0 : 1;
}
