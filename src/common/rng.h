// Deterministic random number generation for reproducible experiments.
//
// Every stochastic component in holtwlan takes an explicit Rng so that a
// seed fully determines an experiment's outcome (C++ Core Guidelines-style
// explicit dependencies; no hidden global state).
#pragma once

#include <cmath>
#include <cstdint>
#include <span>

#include "common/types.h"
#include "common/ziggurat_tables.h"

namespace wlan {

/// xoshiro256++ pseudo-random generator with distribution helpers.
///
/// Chosen over std::mt19937 for speed in Monte-Carlo PER loops and for a
/// stable, documented algorithm (std:: distributions are not guaranteed
/// reproducible across standard libraries, so distributions are implemented
/// here directly).
///
/// The generator is its 32 bytes of xoshiro state and nothing else: it is
/// trivially copyable, and a copy is an exact clone of the source's stream.
///
/// Draw counts are not part of the contract for normals. gaussian()
/// consumes one next_u64() on its fast path (~99% of calls) and a
/// variable number when it rejects a candidate, so callers must not
/// count draws to position a stream; fork() a generator instead.
class Rng {
 public:
  /// Seeds the generator; the same seed always yields the same stream.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Next raw 64-bit value.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    // 53 random mantissa bits -> uniform in [0, 1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n-1]. Requires n > 0.
  std::uint64_t uniform_int(std::uint64_t n);

  /// Standard normal variate: 256-layer Marsaglia-Tsang ziggurat
  /// (common/ziggurat_tables.h). The fast path is inline: one draw picks
  /// a layer (bits 0-7) and a signed position u in [-1, 1) (bits 11-63);
  /// x = u * kX[layer] lies wholly under the density when
  /// |x| < kX[layer + 1]. The rest go to the wedge and tail tests.
  double gaussian() {
    const std::uint64_t bits = next_u64();
    const std::size_t layer = bits & 0xFFu;
    const double x =
        static_cast<double>(static_cast<std::int64_t>(bits) >> 11) *
        ziggurat::kXScaled[layer];
    if (std::fabs(x) < ziggurat::kX[layer + 1]) return x;
    return gaussian_outside_core(layer, x);
  }

  /// Normal variate with the given standard deviation.
  double gaussian(double mean, double stddev) { return mean + stddev * gaussian(); }

  /// Circularly-symmetric complex Gaussian with E[|x|^2] = variance.
  Cplx cgaussian(double variance = 1.0) {
    const double s = std::sqrt(variance / 2.0);
    return {s * gaussian(), s * gaussian()};
  }

  /// Bernoulli trial with probability p of returning true.
  bool bernoulli(double p);

  /// Exponential variate with the given mean.
  double exponential(double mean);

  /// Random unpacked bits (0/1), n of them.
  Bits random_bits(std::size_t n);

  /// Fills `out` with unpacked random bits (0/1), one draw per bit —
  /// same stream consumption as random_bits(out.size()).
  void fill_bits(std::span<std::uint8_t> out);

  /// Random packed bytes, n of them.
  Bytes random_bytes(std::size_t n);

  /// Fills `out` with random bytes, one draw per byte — same stream
  /// consumption as random_bytes(out.size()).
  void fill_bytes(std::span<std::uint8_t> out);

  /// Splits off an independent generator, seeded from one next_u64()
  /// of this stream.
  Rng fork();

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  /// The ziggurat's slow path for a candidate x in `layer` that missed
  /// the layer's core: the tail beyond R (layer 0) or the wedge test,
  /// drawing a fresh candidate on rejection.
  double gaussian_outside_core(std::size_t layer, double x);

  std::uint64_t s_[4];
};

}  // namespace wlan
