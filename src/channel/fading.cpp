#include "channel/fading.h"

#include <cmath>

#include "common/check.h"
#include "common/units.h"
#include "dsp/fft.h"
#include "dsp/ops.h"
#include "obs/perf.h"

namespace wlan::channel {

Cplx flat_fading_coefficient(Rng& rng, double rician_k_db) {
  if (rician_k_db <= -100.0) {
    return rng.cgaussian(1.0);
  }
  const double k = db_to_lin(rician_k_db);
  const double los = std::sqrt(k / (k + 1.0));
  const double nlos_var = 1.0 / (k + 1.0);
  return Cplx{los, 0.0} + rng.cgaussian(nlos_var);
}

double rms_delay_spread_s(DelayProfile profile) {
  switch (profile) {
    case DelayProfile::kFlat: return 0.0;
    case DelayProfile::kResidential: return 15e-9;
    case DelayProfile::kOffice: return 30e-9;
    case DelayProfile::kLargeOpen: return 50e-9;
  }
  return 0.0;
}

CVec Tdl::apply(std::span<const Cplx> x) const {
  check(!taps.empty(), "Tdl::apply requires at least one tap");
  return dsp::convolve(x, taps);
}

void Tdl::apply_to(std::span<const Cplx> x, CVec& out) const {
  check(!taps.empty(), "Tdl::apply requires at least one tap");
  dsp::convolve_to(x, taps, out);
}

CVec Tdl::frequency_response(std::size_t n_fft) const {
  check(dsp::is_power_of_two(n_fft), "frequency_response needs power-of-two size");
  check(taps.size() <= n_fft, "channel longer than the FFT grid");
  CVec padded(n_fft, Cplx{0.0, 0.0});
  for (std::size_t i = 0; i < taps.size(); ++i) padded[i] = taps[i];
  return dsp::fft(std::move(padded));
}

Tdl make_tdl(Rng& rng, DelayProfile profile, double sample_rate_hz,
             double first_tap_k_db) {
  const obs::perf::ScopedSpan span("fading_taps");
  check(sample_rate_hz > 0.0, "make_tdl requires positive sample rate");
  const double trms = rms_delay_spread_s(profile);
  Tdl tdl;
  if (trms <= 0.0) {
    tdl.taps = {flat_fading_coefficient(rng, first_tap_k_db)};
    return tdl;
  }
  // Exponential PDP sampled at the system rate, truncated at 5x rms.
  const double ts = 1.0 / sample_rate_hz;
  const std::size_t n_taps =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(5.0 * trms / ts)));
  RVec pdp(n_taps);
  double total = 0.0;
  for (std::size_t l = 0; l < n_taps; ++l) {
    pdp[l] = std::exp(-static_cast<double>(l) * ts / trms);
    total += pdp[l];
  }
  tdl.taps.resize(n_taps);
  for (std::size_t l = 0; l < n_taps; ++l) {
    const double power = pdp[l] / total;
    if (l == 0 && first_tap_k_db > -100.0) {
      // LOS component rides on the first arrival.
      tdl.taps[l] =
          std::sqrt(power) * flat_fading_coefficient(rng, first_tap_k_db);
    } else {
      tdl.taps[l] = rng.cgaussian(power);
    }
  }
  return tdl;
}

double rayleigh_instant_snr(Rng& rng, double mean_snr_linear) {
  return std::norm(rng.cgaussian(1.0)) * mean_snr_linear;
}

}  // namespace wlan::channel
