// C4 — 802.11a/g OFDM: 54 Mbps, 2.7 bps/Hz, rate ladder over SNR.
//
// Paper: "In the 802.11a standard, OFDM was adopted as the means for
// achieving a wideband spectrally efficient modulation. A maximum data
// rate of 54 Mbps yielded a spectral efficiency of 2.7 bps/Hz,
// representing yet again an approximately fivefold increase over the
// previous standard."
#include <cmath>
#include <vector>

#include "bench_util.h"
#include "core/wlan.h"
#include "dsp/simd.h"
#include "dsp/simd_int.h"

int main(int argc, char** argv) {
  using namespace wlan;
  namespace bu = benchutil;
  bu::args(argc, argv);

  bu::title("C4: 802.11a/g OFDM rate ladder",
            "eight MCS from 6 to 54 Mbps; 54 Mbps / 20 MHz = 2.7 bps/Hz, "
            "~5x the CCK generation");

  Rng rng(4);
  const std::size_t psdu = 500;
  const std::size_t packets = 40;
  // --batch: the runner's SIMD group width (1 lane without it; series
  // are the same at every width, only wall time moves). --quantized
  // additionally re-runs every cell on the int16 decoders from a paired
  // seed and reports the worst PER divergence (the bench_diff gate
  // metric).
  const std::size_t batch = bu::batch_lanes();
  const std::size_t lanes = std::max<std::size_t>(batch, 1);
  const bool quant = batch != 0 && bu::quantized();
  // The int16 kernels vectorize when the lane count is a multiple of the
  // int16 SIMD width, and their output is deterministic across lane
  // counts — so the quantized re-run widens to the next multiple (its
  // whole point is running more lanes per vector than the double path).
  const std::size_t qlanes =
      std::min<std::size_t>(16, ((batch + dsp::simd::kI16Width - 1) /
                                 dsp::simd::kI16Width) *
                                    dsp::simd::kI16Width);
  double quant_delta_max = 0.0;

  std::vector<double> snrs;
  for (double s = 2.0; s <= 26.0; s += 2.0) snrs.push_back(s);

  bu::section("PER vs SNR for every MCS (AWGN, 500-byte PSDUs)");
  std::printf("%9s", "SNR(dB)");
  for (const phy::OfdmMcs mcs : phy::kAllOfdmMcs) {
    std::printf(" %7.0fM", phy::ofdm_mcs_info(mcs).data_rate_mbps);
  }
  std::printf("\n");

  std::vector<std::vector<double>> per(phy::kAllOfdmMcs.size());
  for (const double snr : snrs) {
    std::printf("%9.1f", snr);
    for (std::size_t m = 0; m < phy::kAllOfdmMcs.size(); ++m) {
      Rng qrng = rng;  // paired seed for the quantized re-run
      const LinkResult r = run_ofdm_link_batched(
          phy::kAllOfdmMcs[m], psdu, packets, snr, rng, {lanes, false});
      if (quant) {
        const LinkResult q = run_ofdm_link_batched(
            phy::kAllOfdmMcs[m], psdu, packets, snr, qrng, {qlanes, true});
        quant_delta_max =
            std::max(quant_delta_max, std::abs(q.per() - r.per()));
      }
      per[m].push_back(r.per());
      std::printf(" %8.2f", r.per());
    }
    std::printf("\n");
  }

  bu::section("goodput envelope (best MCS per SNR) — the rate-adaptation curve");
  std::printf("%9s %14s %10s\n", "SNR(dB)", "goodput(Mbps)", "best MCS");
  double top_goodput = 0.0;
  for (std::size_t s = 0; s < snrs.size(); ++s) {
    double best = 0.0;
    double best_rate = 0.0;
    for (std::size_t m = 0; m < phy::kAllOfdmMcs.size(); ++m) {
      const double rate = phy::ofdm_mcs_info(phy::kAllOfdmMcs[m]).data_rate_mbps;
      const double good = rate * (1.0 - per[m][s]);
      if (good > best) {
        best = good;
        best_rate = rate;
      }
    }
    top_goodput = std::max(top_goodput, best);
    std::printf("%9.1f %14.1f %9.0fM\n", snrs[s], best, best_rate);
  }

  for (std::size_t m = 0; m < phy::kAllOfdmMcs.size(); ++m) {
    const double rate = phy::ofdm_mcs_info(phy::kAllOfdmMcs[m]).data_rate_mbps;
    bu::series("per_vs_snr_mcs_" + std::to_string(static_cast<int>(rate)) + "m",
               "snr_db", snrs, "per", per[m]);
  }
  bu::metric("peak_goodput_mbps", top_goodput);
  if (batch) bu::metric("batch_lanes", static_cast<double>(batch));
  if (quant) {
    bu::metric("quantized_per_delta_max", quant_delta_max);
    bu::metric("quantized_lane_multiple",
               static_cast<double>(dsp::simd::kI16Width) /
                   static_cast<double>(dsp::simd::kWidth));
    std::printf("\n  quantized int16 path: worst PER delta %.3f, "
                "%zu int16 lanes vs %zu double lanes\n",
                quant_delta_max, dsp::simd::kI16Width, dsp::simd::kWidth);
  }

  // Sensitivity ladder: each step up the MCS list needs more SNR.
  bu::section("SNR required for PER <= 10% per MCS");
  std::vector<double> req;
  bool ordered = true;
  for (std::size_t m = 0; m < phy::kAllOfdmMcs.size(); ++m) {
    const double snr_req = bu::crossing(snrs, per[m], 0.10);
    req.push_back(snr_req);
    std::printf("  %4.0f Mbps: %6.1f dB\n",
                phy::ofdm_mcs_info(phy::kAllOfdmMcs[m]).data_rate_mbps, snr_req);
  }
  for (std::size_t m = 1; m < req.size(); ++m) {
    // 9 Mbps (BPSK 3/4) and 12 Mbps (QPSK 1/2) are famously close; allow
    // small inversions there, require broad monotonicity elsewhere.
    if (std::isnan(req[m]) || req[m] + 1.0 < req[m - 1]) ordered = false;
  }

  const bool reaches_54 = top_goodput > 50.0;
  bu::verdict(ordered && reaches_54,
              "rate ladder spans 6..54 Mbps with ordered sensitivities; "
              "peak goodput %.1f Mbps = %.2f bps/Hz in 20 MHz",
              top_goodput, top_goodput / 20.0);
  return ordered && reaches_54 ? 0 : 1;
}
