#include "common/rng.h"

#include "common/check.h"

namespace wlan {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  check(n > 0, "uniform_int requires n > 0");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
  std::uint64_t v = next_u64();
  while (v >= limit) v = next_u64();
  return v % n;
}

double Rng::gaussian_outside_core(std::size_t layer, double x) {
  using ziggurat::kF;
  using ziggurat::kR;
  if (layer == 0) {
    // Base strip past R: sample the tail by Marsaglia's method,
    // t = -ln(U1)/R accepted when -2 ln(U2) >= t^2; the variate is R + t
    // with the candidate's sign. 1 - uniform() lies in (0, 1].
    double t = 0.0;
    double e = 0.0;
    do {
      t = -std::log(1.0 - uniform()) / kR;
      e = -std::log(1.0 - uniform());
    } while (2.0 * e < t * t);
    return x < 0.0 ? -(kR + t) : kR + t;
  }
  // Wedge: x is uniform on the part of the layer's row outside the core;
  // accept it when a uniform height in [f(kX[layer]), f(kX[layer + 1]))
  // falls under the density.
  const double y = kF[layer] + (kF[layer + 1] - kF[layer]) * uniform();
  if (y < std::exp(-0.5 * x * x)) return x;
  return gaussian();  // rejected: start over with a fresh candidate
}

bool Rng::bernoulli(double p) { return uniform() < p; }

double Rng::exponential(double mean) {
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -mean * std::log(u);
}

Bits Rng::random_bits(std::size_t n) {
  Bits b(n);
  fill_bits(b);
  return b;
}

void Rng::fill_bits(std::span<std::uint8_t> out) {
  for (auto& bit : out) bit = static_cast<std::uint8_t>(next_u64() & 1u);
}

Bytes Rng::random_bytes(std::size_t n) {
  Bytes b(n);
  fill_bytes(b);
  return b;
}

void Rng::fill_bytes(std::span<std::uint8_t> out) {
  for (auto& byte : out) byte = static_cast<std::uint8_t>(next_u64() & 0xFFu);
}

Rng Rng::fork() { return Rng(next_u64()); }

}  // namespace wlan
