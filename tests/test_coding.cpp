// Tests for the scrambler and the convolutional code / Viterbi decoder.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "channel/awgn.h"
#include "common/bits.h"
#include "common/check.h"
#include "common/rng.h"
#include "phy/convolutional.h"
#include "phy/scrambler.h"

namespace wlan::phy {
namespace {

TEST(Scrambler, IsAnInvolution) {
  Rng rng(1);
  const Bits data = rng.random_bits(1000);
  const Bits once = scramble(data, 0x5D);
  const Bits twice = scramble(once, 0x5D);
  EXPECT_EQ(twice, data);
}

TEST(Scrambler, ChangesTheData) {
  const Bits zeros(200, 0);
  const Bits scrambled = scramble(zeros, 0x7F);
  EXPECT_GT(hamming_distance(zeros, scrambled), 50u);
}

TEST(Scrambler, SequenceHasPeriod127) {
  const Bits zeros(254, 0);
  const Bits seq = scramble(zeros, 0x7F);
  for (std::size_t i = 0; i < 127; ++i) {
    EXPECT_EQ(seq[i], seq[i + 127]) << "position " << i;
  }
  // And it is not shorter-period (check a few).
  bool all_equal_64 = true;
  for (std::size_t i = 0; i < 63; ++i) {
    if (seq[i] != seq[i + 63]) all_equal_64 = false;
  }
  EXPECT_FALSE(all_equal_64);
}

TEST(Scrambler, MSequenceIsBalanced) {
  const Bits zeros(127, 0);
  const Bits seq = scramble(zeros, 0x7F);
  std::size_t ones = 0;
  for (const auto b : seq) ones += b;
  EXPECT_EQ(ones, 64u);  // m-sequence of period 127 has 64 ones
}

TEST(Scrambler, RejectsZeroSeed) {
  const Bits data(8, 0);
  EXPECT_THROW(scramble(data, 0x00), ContractError);
}

TEST(Scrambler, DifferentSeedsGiveDifferentSequences) {
  const Bits zeros(127, 0);
  EXPECT_NE(scramble(zeros, 0x7F), scramble(zeros, 0x5D));
}

TEST(Scrambler, LaneDescrambleMatchesPerLaneScrambleAndPack) {
  // Lane-major block of `lanes` scrambled DATA fields; bytes start after
  // a 16-bit prefix, as the PSDU does after SERVICE.
  constexpr std::size_t kFirst = 16;
  constexpr std::size_t kBytes = 37;
  for (const std::size_t lanes : {1u, 3u, 16u}) {
    Rng rng(90 + lanes);
    std::vector<Bits> lane_bits(lanes);
    Bits soa((kFirst + 8 * kBytes + 6) * lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      lane_bits[l] = rng.random_bits(soa.size() / lanes);
      for (std::size_t i = 0; i < lane_bits[l].size(); ++i) {
        soa[i * lanes + l] = lane_bits[l][i];
      }
    }
    std::vector<Bytes> out(lanes, Bytes(3, 0xFF));  // stale contents
    descramble_lanes_to_bytes(soa, lanes, 0x5D, kFirst, kBytes, out);
    for (std::size_t l = 0; l < lanes; ++l) {
      const Bits plain = scramble(lane_bits[l], 0x5D);
      Bytes expected(kBytes, 0);
      for (std::size_t i = 0; i < 8 * kBytes; ++i) {
        expected[i / 8] |=
            static_cast<std::uint8_t>(plain[kFirst + i] << (i % 8));
      }
      EXPECT_EQ(out[l], expected) << "lanes=" << lanes << " lane=" << l;
    }
  }
}

TEST(Convolutional, AllZeroInputGivesAllZeroOutput) {
  const Bits zeros(100, 0);
  const Bits coded = convolutional_encode(zeros);
  ASSERT_EQ(coded.size(), 200u);
  for (const auto b : coded) EXPECT_EQ(b, 0);
}

TEST(Convolutional, ImpulseResponseMatchesGenerators) {
  // A single 1 followed by zeros reads out the generator taps
  // 133o = 1011011, 171o = 1111001 (MSB = current input).
  Bits impulse(7, 0);
  impulse[0] = 1;
  const Bits coded = convolutional_encode(impulse);
  const Bits expect_a = {1, 0, 1, 1, 0, 1, 1};  // 1011011 read MSB->LSB
  const Bits expect_b = {1, 1, 1, 1, 0, 0, 1};  // 1111001 read MSB->LSB
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(coded[2 * i], expect_a[i]) << "A bit " << i;
    EXPECT_EQ(coded[2 * i + 1], expect_b[i]) << "B bit " << i;
  }
}

TEST(Convolutional, CodeRateValues) {
  EXPECT_DOUBLE_EQ(code_rate_value(CodeRate::kR12), 0.5);
  EXPECT_NEAR(code_rate_value(CodeRate::kR23), 2.0 / 3.0, 1e-15);
  EXPECT_DOUBLE_EQ(code_rate_value(CodeRate::kR34), 0.75);
  EXPECT_NEAR(code_rate_value(CodeRate::kR56), 5.0 / 6.0, 1e-15);
}

TEST(Convolutional, CodedLengthMatchesRate) {
  // 120 info bits -> 240 mother bits -> scaled by rate.
  EXPECT_EQ(coded_length(120, CodeRate::kR12), 240u);
  EXPECT_EQ(coded_length(120, CodeRate::kR23), 180u);
  EXPECT_EQ(coded_length(120, CodeRate::kR34), 160u);
  EXPECT_EQ(coded_length(120, CodeRate::kR56), 144u);
}

TEST(Convolutional, PunctureDepunctureShapes) {
  Rng rng(2);
  const std::size_t n_info = 240;
  const Bits info = rng.random_bits(n_info);
  const Bits mother = convolutional_encode(info);
  for (const CodeRate rate :
       {CodeRate::kR12, CodeRate::kR23, CodeRate::kR34, CodeRate::kR56}) {
    const Bits punct = puncture(mother, rate);
    EXPECT_EQ(punct.size(), coded_length(n_info, rate));
    RVec llrs(punct.size());
    for (std::size_t i = 0; i < punct.size(); ++i) {
      llrs[i] = punct[i] ? -1.0 : 1.0;
    }
    const RVec restored = depuncture(llrs, rate, n_info);
    EXPECT_EQ(restored.size(), 2 * n_info);
    // Every non-erased position must carry the right hard value.
    std::size_t erased = 0;
    for (std::size_t i = 0; i < restored.size(); ++i) {
      if (restored[i] == 0.0) {
        ++erased;
      } else {
        EXPECT_EQ(restored[i] < 0.0 ? 1 : 0, mother[i]);
      }
    }
    EXPECT_EQ(erased, 2 * n_info - punct.size());
  }
}

class ViterbiRoundTrip : public ::testing::TestWithParam<CodeRate> {};

TEST_P(ViterbiRoundTrip, NoiselessDecodingIsExact) {
  const CodeRate rate = GetParam();
  Rng rng(3);
  for (const std::size_t len : {24u, 120u, 996u}) {
    Bits info = rng.random_bits(len);
    // Zero tail to terminate the trellis, as 802.11 does.
    for (std::size_t i = len - 6; i < len; ++i) info[i] = 0;
    const Bits punct = puncture(convolutional_encode(info), rate);
    RVec llrs(punct.size());
    for (std::size_t i = 0; i < punct.size(); ++i) {
      llrs[i] = punct[i] ? -1.0 : 1.0;
    }
    const RVec restored = depuncture(llrs, rate, len);
    const Bits decoded = viterbi_decode(restored, true);
    EXPECT_EQ(decoded, info) << "rate index "
                             << static_cast<int>(rate) << " len " << len;
  }
}

INSTANTIATE_TEST_SUITE_P(AllRates, ViterbiRoundTrip,
                         ::testing::Values(CodeRate::kR12, CodeRate::kR23,
                                           CodeRate::kR34, CodeRate::kR56));

TEST(Viterbi, HardDecisionConvenienceMatches) {
  Rng rng(4);
  Bits info = rng.random_bits(64);
  for (std::size_t i = 58; i < 64; ++i) info[i] = 0;
  const Bits coded = convolutional_encode(info);
  EXPECT_EQ(viterbi_decode_hard(coded, true), info);
}

TEST(Viterbi, CorrectsIsolatedBitErrors) {
  Rng rng(5);
  Bits info = rng.random_bits(200);
  for (std::size_t i = 194; i < 200; ++i) info[i] = 0;
  Bits coded = convolutional_encode(info);
  // Flip well-separated coded bits: free distance 10 handles these easily.
  for (const std::size_t pos : {10u, 90u, 170u, 250u, 330u}) coded[pos] ^= 1;
  EXPECT_EQ(viterbi_decode_hard(coded, true), info);
}

TEST(Viterbi, SoftBeatsHardOverAwgn) {
  // Classic ~2 dB soft-decision gain: at a fixed Eb/N0 the soft decoder
  // must produce strictly fewer bit errors over many blocks.
  Rng rng(6);
  std::size_t hard_errors = 0;
  std::size_t soft_errors = 0;
  const double sigma = 0.68;  // moderate noise on unit BPSK symbols
  for (int block = 0; block < 60; ++block) {
    Bits info = rng.random_bits(200);
    for (std::size_t i = 194; i < 200; ++i) info[i] = 0;
    const Bits coded = convolutional_encode(info);
    RVec soft(coded.size());
    RVec hard(coded.size());
    for (std::size_t i = 0; i < coded.size(); ++i) {
      const double tx = coded[i] ? -1.0 : 1.0;
      const double rx = tx + sigma * rng.gaussian();
      soft[i] = 2.0 * rx / (sigma * sigma);
      hard[i] = rx >= 0.0 ? 1.0 : -1.0;
    }
    soft_errors += hamming_distance(viterbi_decode(soft, true), info);
    hard_errors += hamming_distance(viterbi_decode(hard, true), info);
  }
  EXPECT_LT(soft_errors, hard_errors);
}

TEST(Viterbi, UnterminatedDecodingStillWorksAtHighSnr) {
  Rng rng(7);
  const Bits info = rng.random_bits(150);  // no tail
  const Bits coded = convolutional_encode(info);
  const Bits decoded = viterbi_decode_hard(coded, /*terminated=*/false);
  // The last few bits may be unreliable without termination, but the bulk
  // must decode.
  EXPECT_EQ(hamming_distance(std::span(decoded).first(140),
                             std::span(info).first(140)),
            0u);
}

TEST(Viterbi, RejectsOddLlrCount) {
  const RVec llrs(7, 1.0);
  EXPECT_THROW(viterbi_decode(llrs, true), ContractError);
}

}  // namespace
}  // namespace wlan::phy
