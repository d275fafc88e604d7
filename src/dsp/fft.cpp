#include "dsp/fft.h"

#include <array>
#include <bit>
#include <cmath>
#include <memory>
#include <numbers>
#include <utility>

#include "common/bits.h"
#include "common/check.h"
#include "obs/perf.h"

namespace wlan::dsp {

bool is_power_of_two(std::size_t n) { return n > 0 && (n & (n - 1)) == 0; }

FftPlan::FftPlan(std::size_t n) : n_(n) {
  check(is_power_of_two(n), "FFT size must be a power of two");
  int log2n = 0;
  while ((std::size_t{1} << log2n) < n) ++log2n;

  swaps_.reserve(n / 2);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j =
        wlan::reverse_bits(static_cast<std::uint32_t>(i), log2n);
    if (j > i) swaps_.push_back((i << 32) | j);
  }

  twiddles_.reserve(n > 1 ? n - 1 : 0);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double step = -2.0 * std::numbers::pi / static_cast<double>(len);
    for (std::size_t k = 0; k < len / 2; ++k) {
      twiddles_.push_back(std::polar(1.0, step * static_cast<double>(k)));
    }
  }
}

void FftPlan::transform(std::span<Cplx> x, bool inverse) const {
  const obs::perf::ScopedSpan span("fft");
  check(x.size() == n_, "FftPlan size mismatch");

  for (const std::uint64_t packed : swaps_) {
    std::swap(x[packed >> 32], x[packed & 0xFFFFFFFFu]);
  }

  // Butterflies on unpacked doubles: std::complex operator* carries
  // NaN-recovery fixup branches that block vectorization; the twiddles
  // are unit-magnitude by construction, so the textbook formula is safe.
  const Cplx* tw = twiddles_.data();
  const double conj_sign = inverse ? -1.0 : 1.0;
  for (std::size_t len = 2; len <= n_; len <<= 1) {
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < n_; i += len) {
      Cplx* lo = x.data() + i;
      Cplx* hi = lo + half;
      for (std::size_t k = 0; k < half; ++k) {
        const double wr = tw[k].real();
        const double wi = conj_sign * tw[k].imag();
        const double hr = hi[k].real();
        const double hj = hi[k].imag();
        const double vr = hr * wr - hj * wi;
        const double vi = hr * wi + hj * wr;
        const double ur = lo[k].real();
        const double uj = lo[k].imag();
        lo[k] = Cplx(ur + vr, uj + vi);
        hi[k] = Cplx(ur - vr, uj - vi);
      }
    }
    tw += half;
  }
}

void FftPlan::forward(std::span<Cplx> x) const { transform(x, false); }

void FftPlan::inverse(std::span<Cplx> x) const {
  transform(x, true);
  const double inv = 1.0 / static_cast<double>(n_);
  for (auto& v : x) v *= inv;
}

const FftPlan& plan_for(std::size_t n) {
  check(is_power_of_two(n), "FFT size must be a power of two");
  // One slot per log2 size; thread-local so parallel sweeps never
  // contend (plans are tiny next to the transforms they accelerate).
  static thread_local std::array<std::unique_ptr<FftPlan>, 64> cache;
  const auto slot = static_cast<std::size_t>(std::countr_zero(n));
  if (!cache[slot]) cache[slot] = std::make_unique<FftPlan>(n);
  return *cache[slot];
}

void fft_inplace(std::span<Cplx> x) { plan_for(x.size()).forward(x); }

void ifft_inplace(std::span<Cplx> x) { plan_for(x.size()).inverse(x); }

CVec fft(CVec x) {
  fft_inplace(x);
  return x;
}

CVec ifft(CVec x) {
  ifft_inplace(x);
  return x;
}

}  // namespace wlan::dsp
