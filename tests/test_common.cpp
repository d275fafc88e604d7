// Unit tests for the common substrate: RNG, bits, CRC, units, contracts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <set>
#include <type_traits>
#include <vector>

#include "common/bits.h"
#include "common/check.h"
#include "common/crc.h"
#include "common/rng.h"
#include "common/units.h"
#include "common/ziggurat_tables.h"

namespace wlan {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanAndVariance) {
  Rng rng(11);
  double sum = 0.0;
  double sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    sum += u;
    sum2 += u * u;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.005);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.005);
}

TEST(Rng, UniformIntBoundsAndCoverage) {
  Rng rng(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIntRejectsZero) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(0), ContractError);
}

TEST(Rng, GaussianMoments) {
  Rng rng(17);
  double sum = 0.0;
  double sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(Rng, GaussianMeanStddev) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.gaussian(3.0, 2.0);
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(Rng, ComplexGaussianVariance) {
  Rng rng(23);
  double power = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) power += std::norm(rng.cgaussian(2.0));
  EXPECT_NEAR(power / n, 2.0, 0.05);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(29);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng rng(31);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, RandomBitsAreBinaryAndBalanced) {
  Rng rng(37);
  const Bits b = rng.random_bits(100000);
  std::size_t ones = 0;
  for (const auto bit : b) {
    ASSERT_LE(bit, 1);
    ones += bit;
  }
  EXPECT_NEAR(static_cast<double>(ones) / b.size(), 0.5, 0.01);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(99);
  Rng forked = a.fork();
  // The fork must not replay the parent's stream.
  Rng b(99);
  b.next_u64();  // parent consumed one value to create the fork
  EXPECT_NE(forked.next_u64(), b.next_u64());
}

static_assert(std::is_trivially_copyable_v<Rng>);
static_assert(sizeof(Rng) == 32, "Rng is its xoshiro256 state and nothing else");

TEST(Rng, CopyIsExactClone) {
  // A copy (or assignment) mid-stream replays the source's gaussian()
  // sequence bit for bit, however many raw draws each normal took.
  Rng source(11);
  for (int i = 0; i < 1001; ++i) source.gaussian();
  Rng copy = source;
  Rng assigned(1);
  assigned = source;
  for (int i = 0; i < 100000; ++i) {
    const double g = source.gaussian();
    ASSERT_EQ(copy.gaussian(), g) << "draw " << i;
    ASSERT_EQ(assigned.gaussian(), g) << "draw " << i;
  }
  EXPECT_EQ(copy.next_u64(), source.next_u64());
}

// Φ(x), the standard normal CDF.
double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::numbers::sqrt2); }

// Two-sided tail mass P(|X| > a) of N(0, 1).
double normal_two_sided_tail(double a) { return std::erfc(a / std::numbers::sqrt2); }

// Moments, tail masses and a 200-bin χ² of n gaussian() draws. Every
// bound is at least 4σ of the statistic's sampling spread at n draws.
struct NormalFit {
  double mean = 0.0;
  double variance = 0.0;
  double excess_kurtosis = 0.0;
  double p_beyond_3 = 0.0;
  double p_beyond_r = 0.0;
  double chi2 = 0.0;
};

constexpr int kChi2Bins = 200;

NormalFit fit_normal(std::uint64_t seed, int n) {
  Rng rng(seed);
  double s1 = 0.0, s2 = 0.0, s3 = 0.0, s4 = 0.0;
  int beyond_3 = 0;
  int beyond_r = 0;
  std::vector<int> bins(kChi2Bins, 0);
  for (int i = 0; i < n; ++i) {
    const double x = rng.gaussian();
    const double x2 = x * x;
    s1 += x;
    s2 += x2;
    s3 += x2 * x;
    s4 += x2 * x2;
    beyond_3 += std::fabs(x) > 3.0 ? 1 : 0;
    beyond_r += std::fabs(x) > ziggurat::kR ? 1 : 0;
    // Equiprobable bins under Φ: bin k holds Φ(x) in [k/200, (k+1)/200).
    const int bin = static_cast<int>(normal_cdf(x) * kChi2Bins);
    ++bins[std::clamp(bin, 0, kChi2Bins - 1)];
  }
  NormalFit fit;
  fit.mean = s1 / n;
  const double m2 = s2 / n - fit.mean * fit.mean;
  const double m4 = s4 / n - 4.0 * fit.mean * s3 / n +
                    6.0 * fit.mean * fit.mean * s2 / n -
                    3.0 * std::pow(fit.mean, 4);
  fit.variance = m2;
  fit.excess_kurtosis = m4 / (m2 * m2) - 3.0;
  fit.p_beyond_3 = static_cast<double>(beyond_3) / n;
  fit.p_beyond_r = static_cast<double>(beyond_r) / n;
  const double expected = static_cast<double>(n) / kChi2Bins;
  for (const int count : bins) {
    const double d = count - expected;
    fit.chi2 += d * d / expected;
  }
  return fit;
}

TEST(Rng, GaussianMatchesStandardNormal) {
  const int n = 4'000'000;
  const double p3 = normal_two_sided_tail(3.0);
  const double pr = normal_two_sided_tail(ziggurat::kR);
  // pr * n ~ 1,030 draws past R: the tail branch runs about that often.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    const NormalFit fit = fit_normal(seed, n);
    // 4σ bounds: sd(mean) = 1/√n, sd(var) = √(2/n),
    // sd(excess kurtosis) = √(24/n), sd(p̂) = √(p(1-p)/n).
    EXPECT_NEAR(fit.mean, 0.0, 4.0 / std::sqrt(n));
    EXPECT_NEAR(fit.variance, 1.0, 4.0 * std::sqrt(2.0 / n));
    EXPECT_NEAR(fit.excess_kurtosis, 0.0, 4.0 * std::sqrt(24.0 / n));
    EXPECT_NEAR(fit.p_beyond_3, p3, 4.0 * std::sqrt(p3 * (1 - p3) / n));
    EXPECT_NEAR(fit.p_beyond_r, pr, 4.0 * std::sqrt(pr * (1 - pr) / n));
    // χ² with 199 degrees of freedom: mean 199, sd √398 ≈ 20.
    const double dof = kChi2Bins - 1;
    EXPECT_LT(fit.chi2, dof + 4.0 * std::sqrt(2.0 * dof));
  }
}

TEST(Rng, ZigguratTablesAreEqualAreaLayers) {
  using ziggurat::kF;
  using ziggurat::kR;
  using ziggurat::kV;
  using ziggurat::kX;
  const auto f = [](double x) { return std::exp(-0.5 * x * x); };
  EXPECT_EQ(kX[1], kR);
  EXPECT_EQ(kX[256], 0.0);
  EXPECT_EQ(kF[256], 1.0);
  EXPECT_NEAR(kV, 4.92867323399e-3, 1e-13);
  // The base strip: the rectangle to R plus the tail beyond it.
  const double tail = std::sqrt(std::numbers::pi / 2.0) * std::erfc(kR / std::numbers::sqrt2);
  EXPECT_NEAR((kR * f(kR) + tail) / kV, 1.0, 1e-12);
  EXPECT_NEAR(kX[0] * kF[1] / kV, 1.0, 1e-12);
  for (std::size_t i = 0; i < 256; ++i) {
    SCOPED_TRACE(i);
    ASSERT_GT(kX[i], kX[i + 1]);
    EXPECT_NEAR(kF[i] / f(kX[i]), 1.0, 4e-15);
    EXPECT_EQ(ziggurat::kXScaled[i], kX[i] * 0x1.0p-52);
    if (i >= 1) {
      EXPECT_NEAR(kX[i] * (kF[i + 1] - kF[i]) / kV, 1.0, 1e-12);
    }
  }
}

TEST(Bits, BytesToBitsLsbFirst) {
  const Bytes bytes = {0x01, 0x80};
  const Bits bits = bytes_to_bits(bytes);
  ASSERT_EQ(bits.size(), 16u);
  EXPECT_EQ(bits[0], 1);  // LSB of 0x01 first
  for (int i = 1; i < 8; ++i) EXPECT_EQ(bits[i], 0);
  for (int i = 8; i < 15; ++i) EXPECT_EQ(bits[i], 0);
  EXPECT_EQ(bits[15], 1);  // MSB of 0x80 last
}

TEST(Bits, RoundTrip) {
  Rng rng(5);
  const Bytes original = rng.random_bytes(257);
  EXPECT_EQ(bits_to_bytes(bytes_to_bits(original)), original);
}

TEST(Bits, BitsToBytesRejectsRaggedInput) {
  const Bits bits(9, 0);
  EXPECT_THROW(bits_to_bytes(bits), ContractError);
}

TEST(Bits, HammingDistance) {
  const Bits a = {0, 1, 1, 0};
  const Bits b = {1, 1, 0, 0};
  EXPECT_EQ(hamming_distance(a, b), 2u);
  EXPECT_EQ(hamming_distance(a, a), 0u);
}

TEST(Bits, HammingDistanceRejectsLengthMismatch) {
  const Bits a(3, 0);
  const Bits b(4, 0);
  EXPECT_THROW(hamming_distance(a, b), ContractError);
}

TEST(Bits, Parity) {
  EXPECT_EQ(parity(Bits{1, 1, 1}), 1);
  EXPECT_EQ(parity(Bits{1, 1}), 0);
  EXPECT_EQ(parity(Bits{}), 0);
}

TEST(Bits, ReverseBits) {
  EXPECT_EQ(reverse_bits(0b001, 3), 0b100u);
  EXPECT_EQ(reverse_bits(0b1101, 4), 0b1011u);
  EXPECT_EQ(reverse_bits(1, 1), 1u);
}

TEST(Crc, Crc32KnownVector) {
  const char* msg = "123456789";
  const std::span<const std::uint8_t> data(
      reinterpret_cast<const std::uint8_t*>(msg), std::strlen(msg));
  EXPECT_EQ(crc32(data), 0xCBF43926u);
}

TEST(Crc, Crc32DetectsSingleBitFlip) {
  Rng rng(3);
  Bytes data = rng.random_bytes(64);
  const std::uint32_t original = crc32(data);
  data[10] ^= 0x04;
  EXPECT_NE(crc32(data), original);
}

TEST(Crc, Crc16DetectsCorruption) {
  Rng rng(4);
  Bytes data = rng.random_bytes(6);
  const std::uint16_t original = crc16_ccitt(data);
  data[0] ^= 0x01;
  EXPECT_NE(crc16_ccitt(data), original);
}

TEST(Units, DbConversionsRoundTrip) {
  EXPECT_NEAR(db_to_lin(3.0), 1.995, 0.01);
  EXPECT_NEAR(lin_to_db(100.0), 20.0, 1e-12);
  EXPECT_NEAR(lin_to_db(db_to_lin(7.3)), 7.3, 1e-12);
}

TEST(Units, DbmWattConversions) {
  EXPECT_NEAR(dbm_to_watt(30.0), 1.0, 1e-12);
  EXPECT_NEAR(dbm_to_watt(0.0), 1e-3, 1e-15);
  EXPECT_NEAR(watt_to_dbm(0.1), 20.0, 1e-12);
}

TEST(Units, ThermalNoise20MHz) {
  // -174 + 10log10(20e6) = -101 dBm.
  EXPECT_NEAR(thermal_noise_dbm(20e6), -101.0, 0.05);
  EXPECT_NEAR(thermal_noise_dbm(20e6, 6.0), -95.0, 0.05);
}

TEST(Check, ThrowsWithMessage) {
  EXPECT_THROW(check(false, "boom"), ContractError);
  try {
    check(false, "boom");
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
  }
}

TEST(Check, PassesOnTrue) { EXPECT_NO_THROW(check(true, "fine")); }

}  // namespace
}  // namespace wlan
