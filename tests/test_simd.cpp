// Bitwise scalar-vs-SIMD equality for the vectorized kernels.
//
// The SIMD layer's contract (dsp/simd.h) is that every vector lane
// performs exactly the scalar per-element IEEE-754 operations, so
// toggling `set_vector_enabled` must not change a single output bit.
// These tests run each kernel both ways on the same input and compare
// results through std::bit_cast — exact equality including signed
// zeros, not an epsilon. In a -DHOLTWLAN_SIMD=OFF build the toggle is
// forced off and both runs take the scalar path; the tests then pass
// trivially, keeping one test list for both build flavours.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "dsp/simd.h"
#include "phy/convolutional.h"
#include "phy/ldpc.h"
#include "phy/modulation.h"
#include "phy/workspace.h"

namespace wlan {
namespace {

// Forces the vector path on or off for the duration of a scope.
class ScopedVector {
 public:
  explicit ScopedVector(bool enabled)
      : saved_(dsp::simd::vector_enabled()) {
    dsp::simd::set_vector_enabled(enabled);
  }
  ~ScopedVector() { dsp::simd::set_vector_enabled(saved_); }

 private:
  bool saved_;
};

void expect_bitwise_equal(const RVec& a, const RVec& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << what << " differs at index " << i << ": " << a[i] << " vs "
        << b[i];
  }
}

constexpr phy::Modulation kAllModulations[] = {
    phy::Modulation::kBpsk, phy::Modulation::kQpsk, phy::Modulation::kQam16,
    phy::Modulation::kQam64};

TEST(SimdEquality, DemapperAllModulations) {
  Rng rng(42);
  for (const phy::Modulation mod : kAllModulations) {
    // 199 symbols: not a multiple of any lane width, so the tail path
    // runs too.
    constexpr std::size_t kSymbols = 199;
    const std::size_t bps = phy::bits_per_symbol(mod);
    Bits bits(kSymbols * bps);
    rng.fill_bits(bits);
    CVec symbols = phy::modulate(bits, mod);
    RVec noise_var(kSymbols);
    for (std::size_t i = 0; i < kSymbols; ++i) {
      symbols[i] += Cplx{0.3 * rng.gaussian(), 0.3 * rng.gaussian()};
      noise_var[i] = 0.05 + 0.02 * static_cast<double>(i % 9);
    }
    RVec scalar(kSymbols * bps);
    RVec vectorized(kSymbols * bps);
    {
      ScopedVector off(false);
      phy::demodulate_llr_to(symbols, mod, noise_var, scalar);
    }
    {
      ScopedVector on(true);
      phy::demodulate_llr_to(symbols, mod, noise_var, vectorized);
    }
    expect_bitwise_equal(scalar, vectorized, "per-symbol-nv LLRs");

    // Shared-noise-variance overload.
    {
      ScopedVector off(false);
      phy::demodulate_llr_to(symbols, mod, 0.1, scalar);
    }
    {
      ScopedVector on(true);
      phy::demodulate_llr_to(symbols, mod, 0.1, vectorized);
    }
    expect_bitwise_equal(scalar, vectorized, "shared-nv LLRs");
  }
}

TEST(SimdEquality, ViterbiAllCodeRates) {
  Rng rng(7);
  phy::Workspace ws;
  for (const phy::CodeRate rate :
       {phy::CodeRate::kR12, phy::CodeRate::kR23, phy::CodeRate::kR34,
        phy::CodeRate::kR56}) {
    constexpr std::size_t kInfoBits = 501;
    Bits info(kInfoBits);
    rng.fill_bits(info);
    for (std::size_t i = kInfoBits - 6; i < kInfoBits; ++i) info[i] = 0;
    Bits coded;
    phy::convolutional_encode_into(info, coded);
    Bits punctured;
    phy::puncture_into(coded, rate, punctured);
    RVec noisy(punctured.size());
    for (std::size_t i = 0; i < punctured.size(); ++i) {
      const double tx = punctured[i] ? -1.0 : 1.0;
      noisy[i] = 4.0 * (tx + 0.6 * rng.gaussian());
    }
    RVec llrs;
    phy::depuncture_into(noisy, rate, kInfoBits, llrs);
    Bits scalar_out;
    Bits vector_out;
    {
      ScopedVector off(false);
      phy::viterbi_decode_into(llrs, true, scalar_out, ws);
    }
    {
      ScopedVector on(true);
      phy::viterbi_decode_into(llrs, true, vector_out, ws);
    }
    EXPECT_EQ(scalar_out, vector_out)
        << "Viterbi decode differs at code rate "
        << phy::code_rate_value(rate);
  }
}

// The single-stream ACS splits predecessors in registers, ping-pongs two
// metric buffers (so the final metrics sit in either one depending on
// the step count's parity), builds every branch metric from one table
// and its complement, and keeps c0 on a tie. Step counts straddle the
// vector width and the 64-state block; all-zero LLRs make every
// comparison a tie and every metric a ±0, so a wrong tie rule or buffer
// parity shows in the decoded bits. A noise-free stream must also decode
// to its own info bits unterminated, which the two paths' shared
// traceback could not show by agreeing with each other.
TEST(SimdEquality, ViterbiSingleStreamStepCountsAndTies) {
  Rng rng(19);
  phy::Workspace ws;
  for (const std::size_t steps : {1u, 2u, 63u, 64u, 501u, 4022u}) {
    Bits info(steps);
    rng.fill_bits(info);
    Bits coded;
    phy::convolutional_encode_into(info, coded);
    RVec clean(coded.size());
    for (std::size_t i = 0; i < coded.size(); ++i) {
      clean[i] = coded[i] ? -4.0 : 4.0;
    }
    for (const bool vec : {false, true}) {
      ScopedVector guard(vec);
      Bits out;
      phy::viterbi_decode_into(clean, false, out, ws);
      EXPECT_EQ(out, info) << "steps=" << steps << " vec=" << vec;
    }

    RVec noisy(2 * steps);
    for (std::size_t i = 0; i < noisy.size(); ++i) {
      // Mix exact zeros of both signs and equal-magnitude pairs into
      // Gaussian soft values.
      switch (rng.uniform_int(8)) {
        case 0: noisy[i] = 0.0; break;
        case 1: noisy[i] = -0.0; break;
        case 2: noisy[i] = i % 2 == 1 ? -noisy[i - 1] : 1.0; break;
        default: noisy[i] = 3.0 * rng.gaussian(); break;
      }
    }
    RVec zeros(2 * steps, 0.0);
    for (const RVec* llrs : {&noisy, &zeros}) {
      for (const bool terminated : {true, false}) {
        Bits scalar_out;
        Bits vector_out;
        {
          ScopedVector off(false);
          phy::viterbi_decode_into(*llrs, terminated, scalar_out, ws);
        }
        {
          ScopedVector on(true);
          phy::viterbi_decode_into(*llrs, terminated, vector_out, ws);
        }
        EXPECT_EQ(scalar_out, vector_out)
            << "steps=" << steps << " terminated=" << terminated
            << (llrs == &zeros ? " (all-zero LLRs)" : "");
      }
    }
  }
}

// The lane-mask and data-movement ops the decoders build on, against
// their per-element definitions.
TEST(SimdOps, MasksSignFlipsAndDeinterleave) {
  using dsp::simd::DVec;
  constexpr std::size_t W = dsp::simd::kWidth;
  const double vals[] = {-2.5, -0.0, 0.0, 1.0, 3.0, -7.0, 0.5, -1e300};
  double a[2 * W];
  double b[2 * W];
  for (std::size_t i = 0; i < 2 * W; ++i) {
    a[i] = vals[i % std::size(vals)];
    b[i] = vals[(3 * i + 1) % std::size(vals)];
  }
  const DVec va = DVec::load(a);
  const DVec vb = DVec::load(b);
  double out[W];
  dsp::simd::flip_sign(va, dsp::simd::cmp_lt(va, vb)).store(out);
  for (std::size_t i = 0; i < W; ++i) {
    const double want = a[i] < b[i] ? -a[i] : a[i];
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]),
              std::bit_cast<std::uint64_t>(want)) << "lane " << i;
  }
  // Two opposite masks XOR to all-ones: every lane flips.
  const DVec both = dsp::simd::bit_xor(dsp::simd::cmp_lt(va, vb),
                                       dsp::simd::cmp_lt(vb, va));
  dsp::simd::flip_sign(vb, both).store(out);
  for (std::size_t i = 0; i < W; ++i) {
    const bool flips = (a[i] < b[i]) != (b[i] < a[i]);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]),
              std::bit_cast<std::uint64_t>(flips ? -b[i] : b[i]))
        << "lane " << i;
  }
  DVec even;
  DVec odd;
  dsp::simd::deinterleave(DVec::load(a), DVec::load(a + W), even, odd);
  double ev[W];
  double od[W];
  even.store(ev);
  odd.store(od);
  for (std::size_t i = 0; i < W; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ev[i]),
              std::bit_cast<std::uint64_t>(a[2 * i]));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(od[i]),
              std::bit_cast<std::uint64_t>(a[2 * i + 1]));
  }
}

TEST(SimdEquality, LdpcMinSumDecode) {
  Rng rng(11);
  phy::Workspace ws;
  for (const auto& [n, k] :
       {std::pair<std::size_t, std::size_t>{648, 324},
        std::pair<std::size_t, std::size_t>{648, 432},
        std::pair<std::size_t, std::size_t>{1296, 648}}) {
    const phy::LdpcCode code(n, k, 11);
    Bits info(k);
    rng.fill_bits(info);
    Bits codeword;
    code.encode_into(info, codeword);
    // Noisy enough that the decoder iterates (exercising the check-node
    // update) rather than exiting on the channel decisions.
    RVec llrs(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double tx = codeword[i] ? -1.0 : 1.0;
      llrs[i] = 2.0 * (tx + 0.7 * rng.gaussian()) / 0.49;
    }
    phy::LdpcCode::DecodeResult scalar_res;
    phy::LdpcCode::DecodeResult vector_res;
    {
      ScopedVector off(false);
      code.decode_into(llrs, 40, 0.8, scalar_res, ws);
    }
    {
      ScopedVector on(true);
      code.decode_into(llrs, 40, 0.8, vector_res, ws);
    }
    EXPECT_EQ(scalar_res.info, vector_res.info)
        << "LDPC (" << n << "," << k << ") decoded bits differ";
    EXPECT_EQ(scalar_res.parity_ok, vector_res.parity_ok);
    EXPECT_EQ(scalar_res.iterations, vector_res.iterations)
        << "LDPC (" << n << "," << k
        << ") took different iteration counts — posteriors diverged";
  }
}

// exp_nonpositive: the DVec form, run over whole vectors, against the
// scalar reference on every element (with vectors on or off the DVec
// form is the same code, so this needs no toggle).
RVec vector_exp(const RVec& x) {
  RVec out(x.size());
  for (std::size_t i = 0; i + dsp::simd::kWidth <= x.size();
       i += dsp::simd::kWidth) {
    dsp::simd::exp_nonpositive(dsp::simd::DVec::load(&x[i])).store(&out[i]);
  }
  return out;
}

TEST(SimdExp, VectorFormIsBitwiseTheScalarReference) {
  Rng rng(5);
  const double below = std::nextafter(-708.0, -1000.0);
  const double above = std::nextafter(-708.0, 0.0);
  RVec x = {-0.0, 0.0, -708.0, below, above, -750.0,
            -std::numeric_limits<double>::infinity(),
            -std::numeric_limits<double>::denorm_min(), -0.5 * std::log(2.0)};
  while (x.size() < (1u << 16)) x.push_back(-750.0 * rng.uniform());
  const RVec vec = vector_exp(x);
  RVec ref(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    ref[i] = dsp::simd::exp_nonpositive(x[i]);
  }
  expect_bitwise_equal(ref, vec, "exp_nonpositive");
  EXPECT_EQ(std::bit_cast<std::uint64_t>(ref[0]),
            std::bit_cast<std::uint64_t>(1.0));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(ref[1]),
            std::bit_cast<std::uint64_t>(1.0));
  EXPECT_GT(ref[2], 0.0);
  EXPECT_GT(ref[4], 0.0);
  // Below -708 the result flushes to +0 (not -0, not a subnormal).
  for (const std::size_t i : {3u, 5u, 6u}) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ref[i]), 0u) << x[i];
  }
}

TEST(SimdExp, WithinOneUlpOfStdExp) {
  Rng rng(6);
  RVec x = {-0.0, -708.0, std::nextafter(-708.0, 0.0), -1e-300, -1e-9};
  while (x.size() < (1u << 18)) x.push_back(-708.0 * rng.uniform());
  // Both results are positive normals, so their ulp distance is the
  // difference of their bit patterns.
  std::int64_t worst = 0;
  for (const double v : x) {
    const auto got = std::bit_cast<std::int64_t>(dsp::simd::exp_nonpositive(v));
    const auto want = std::bit_cast<std::int64_t>(std::exp(v));
    worst = std::max(worst, got > want ? got - want : want - got);
  }
  EXPECT_LE(worst, 1);
}

}  // namespace
}  // namespace wlan
