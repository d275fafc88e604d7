#include "channel/awgn.h"

#include <cmath>
#include <numbers>

#include "common/units.h"
#include "dsp/ops.h"
#include "obs/perf.h"

namespace wlan::channel {

void add_awgn(CVec& x, Rng& rng, double noise_variance) {
  if (noise_variance <= 0.0) return;
  const obs::perf::ScopedSpan span("channel.awgn");
  // One sqrt for the whole waveform; per-sample values are identical to
  // calling rng.cgaussian(noise_variance) sample by sample. Each normal
  // is one ziggurat draw: one next_u64() on the fast path, more when a
  // candidate is rejected, so the stream position after a waveform
  // depends on the draws and must not be computed from its length.
  const double s = std::sqrt(noise_variance / 2.0);
  for (auto& v : x) v += Cplx{s * rng.gaussian(), s * rng.gaussian()};
}

double add_awgn_snr(CVec& x, Rng& rng, double snr_db) {
  const double signal_power = dsp::mean_power(x);
  const double noise_variance = signal_power / db_to_lin(snr_db);
  add_awgn(x, rng, noise_variance);
  return noise_variance;
}

void add_phase_noise(CVec& x, Rng& rng, double linewidth_hz,
                     double sample_rate_hz) {
  if (linewidth_hz <= 0.0) return;
  const double step_var =
      2.0 * std::numbers::pi * linewidth_hz / sample_rate_hz;
  const double sigma = std::sqrt(step_var);
  double phase = 0.0;
  for (auto& v : x) {
    phase += sigma * rng.gaussian();
    v *= Cplx{std::cos(phase), std::sin(phase)};
  }
}

void add_tone_interferer(CVec& x, Rng& rng, double power, double freq_norm) {
  const double amp = std::sqrt(power);
  const double phase0 = rng.uniform(0.0, 2.0 * std::numbers::pi);
  for (std::size_t n = 0; n < x.size(); ++n) {
    const double arg =
        2.0 * std::numbers::pi * freq_norm * static_cast<double>(n) + phase0;
    x[n] += amp * Cplx{std::cos(arg), std::sin(arg)};
  }
}

}  // namespace wlan::channel
