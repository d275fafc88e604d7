// Link-level shape equivalence, the twin of test_plan_shapes: a link run
// is a pure function of the caller's Rng state and the packet count, so
// every batch shape (lane count 1-16, vector kernels on or off, --jobs)
// must reproduce the one-lane, vectors-off, jobs-1 reference through the
// scalar entry point (run_ofdm_link / run_ht_link) field for field, and
// draw exactly one u64 off the caller's Rng.
//
// Seeded random cases draw the PHY (OFDM MCS and channel; HT MCS, hence
// streams, BCC or LDPC, ideal or estimated CSI, delay profile), the PSDU
// length (log-uniform), the packet count (often not a multiple of the
// lane count), the SNR (around the rate's waterfall, so packet errors
// are mixed) and the shapes. Fixed cases pin named regressions: partial
// final groups, a 64-QAM rate, thread counts past the core count, and a
// lane count that is not a multiple of the SIMD width on both codings.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <utility>

#include "common/rng.h"
#include "core/link.h"
#include "dsp/simd.h"
#include "par/pool.h"

namespace wlan {
namespace {

/// Vector toggle and default pool size for one run, restored on exit.
class ScopedShape {
 public:
  ScopedShape(bool vector, unsigned jobs)
      : saved_vector_(dsp::simd::vector_enabled()) {
    dsp::simd::set_vector_enabled(vector);
    par::set_default_jobs(jobs);
  }
  ~ScopedShape() {
    par::set_default_jobs(0);
    dsp::simd::set_vector_enabled(saved_vector_);
  }
  ScopedShape(const ScopedShape&) = delete;
  ScopedShape& operator=(const ScopedShape&) = delete;

 private:
  bool saved_vector_;
};

/// How one run executes: trials per SIMD group, the vector kernels, and
/// the worker pool size.
struct Shape {
  std::size_t lanes = 1;
  bool vector = false;
  unsigned jobs = 1;
};

/// A run's result plus the caller Rng's next draw after it.
struct Run {
  LinkResult result;
  std::uint64_t next_draw = 0;
};

template <class Fn>
Run run_under(bool vector, unsigned jobs, std::uint64_t seed, Fn&& fn) {
  const ScopedShape scope(vector, jobs);
  Rng rng(seed);
  Run run;
  run.result = fn(rng);
  run.next_draw = rng.next_u64();
  return run;
}

void expect_same(const Run& ref, const Run& got) {
  EXPECT_EQ(got.result.packets, ref.result.packets);
  EXPECT_EQ(got.result.packet_errors, ref.result.packet_errors);
  EXPECT_EQ(got.result.bits, ref.result.bits);
  EXPECT_EQ(got.result.bit_errors, ref.result.bit_errors);
  EXPECT_EQ(got.next_draw, ref.next_draw)
      << "runs must draw the same u64s off the caller's Rng";
}

std::string describe(const Shape& s) {
  std::ostringstream os;
  os << "lanes=" << s.lanes << " vector=" << s.vector << " jobs=" << s.jobs;
  return os.str();
}

// --- case draws --------------------------------------------------------

/// 1..max_bytes B, log-uniform: every octave of frame length is equally
/// likely, so the long frames that dominate run time stay rare.
std::size_t draw_psdu_bytes(Rng& rng, std::size_t max_bytes) {
  const double b = std::exp(
      rng.uniform(0.0, std::log(static_cast<double>(max_bytes) + 1.0)));
  return std::clamp<std::size_t>(static_cast<std::size_t>(b), 1, max_bytes);
}

Shape draw_shape(Rng& rng) {
  static constexpr std::array<unsigned, 3> kJobs = {1, 3, 4};
  Shape s;
  s.lanes = 1 + rng.uniform_int(16);
  s.vector = rng.uniform_int(2) == 1;
  s.jobs = kJobs[rng.uniform_int(kJobs.size())];
  return s;
}

/// Packet count for a case run at up to `lanes` lanes: 1 up to a few
/// groups, so partial final groups (and single-packet runs) are common.
std::size_t draw_packets(Rng& rng, std::size_t lanes) {
  return 1 + rng.uniform_int(2 * lanes + 3);
}

channel::DelayProfile draw_profile(Rng& rng) {
  static constexpr std::array<channel::DelayProfile, 4> kProfiles = {
      channel::DelayProfile::kFlat, channel::DelayProfile::kResidential,
      channel::DelayProfile::kOffice, channel::DelayProfile::kLargeOpen};
  return kProfiles[rng.uniform_int(kProfiles.size())];
}

// --- OFDM ----------------------------------------------------------------

struct OfdmCase {
  phy::OfdmMcs mcs = phy::OfdmMcs::k6Mbps;
  std::size_t psdu_bytes = 1;
  std::size_t packets = 1;
  double snr_db = 0.0;
  ChannelSpec channel = ChannelSpec::awgn();
  std::uint64_t seed = 1;
};

std::string describe(const OfdmCase& c) {
  std::ostringstream os;
  os << "mcs=" << static_cast<int>(c.mcs) << " psdu=" << c.psdu_bytes
     << " packets=" << c.packets << " snr=" << c.snr_db
     << " channel=" << static_cast<int>(c.channel.kind) << "/"
     << static_cast<int>(c.channel.profile) << " seed=" << c.seed;
  return os.str();
}

/// A case and two shapes to run it under.
std::pair<OfdmCase, std::array<Shape, 2>> draw_ofdm_case(std::uint64_t seed) {
  // Rough AWGN SNR (dB) at 10% PER per rate, 6 to 54 Mbps.
  static constexpr std::array<double, 8> kWaterfallDb = {2, 4, 5, 8,
                                                         11, 14, 18, 20};
  Rng rng(seed);
  std::array<Shape, 2> shapes = {draw_shape(rng), draw_shape(rng)};
  OfdmCase c;
  const std::size_t m = rng.uniform_int(phy::kAllOfdmMcs.size());
  c.mcs = phy::kAllOfdmMcs[m];
  c.psdu_bytes = draw_psdu_bytes(rng, 4095);
  c.packets =
      draw_packets(rng, std::max(shapes[0].lanes, shapes[1].lanes));
  switch (rng.uniform_int(3)) {
    case 0: c.channel = ChannelSpec::awgn(); break;
    case 1: c.channel = ChannelSpec::flat_rayleigh(); break;
    default: c.channel = ChannelSpec::tdl(draw_profile(rng)); break;
  }
  const double fading_db =
      c.channel.kind == ChannelSpec::Kind::kAwgn ? 0.0 : 8.0;
  c.snr_db = kWaterfallDb[m] + fading_db + rng.uniform(-3.0, 3.0);
  c.seed = rng.next_u64();
  return {c, shapes};
}

Run ofdm_reference(const OfdmCase& c) {
  return run_under(false, 1, c.seed, [&](Rng& rng) {
    return run_ofdm_link(c.mcs, c.psdu_bytes, c.packets, c.snr_db, rng,
                         c.channel);
  });
}

Run ofdm_batched(const OfdmCase& c, const Shape& s) {
  return run_under(s.vector, s.jobs, c.seed, [&](Rng& rng) {
    return run_ofdm_link_batched(c.mcs, c.psdu_bytes, c.packets, c.snr_db,
                                 rng, {s.lanes, false}, c.channel);
  });
}

void expect_ofdm_shapes(const OfdmCase& c, std::span<const Shape> shapes) {
  SCOPED_TRACE(describe(c));
  const Run ref = ofdm_reference(c);
  ASSERT_EQ(ref.result.packets, c.packets);
  ASSERT_EQ(ref.result.bits, 8 * c.psdu_bytes * c.packets);
  for (const Shape& s : shapes) {
    SCOPED_TRACE(describe(s));
    expect_same(ref, ofdm_batched(c, s));
  }
}

class OfdmLinkShapes : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OfdmLinkShapes, BatchedRunsMatchOneLaneReference) {
  const auto [c, shapes] = draw_ofdm_case(GetParam());
  expect_ofdm_shapes(c, shapes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OfdmLinkShapes,
                         ::testing::Range<std::uint64_t>(1, 25));

// --- HT ------------------------------------------------------------------

struct HtCase {
  phy::HtConfig config;
  std::size_t psdu_bytes = 1;
  std::size_t packets = 1;
  double snr_db = 0.0;
  channel::DelayProfile profile = channel::DelayProfile::kOffice;
  std::uint64_t seed = 1;
};

std::string describe(const HtCase& c) {
  std::ostringstream os;
  os << "mcs=" << c.config.mcs
     << " coding=" << (c.config.coding == phy::HtCoding::kLdpc ? "ldpc" : "bcc")
     << " ideal_csi=" << c.config.ideal_csi << " psdu=" << c.psdu_bytes
     << " packets=" << c.packets << " snr=" << c.snr_db
     << " profile=" << static_cast<int>(c.profile) << " seed=" << c.seed;
  return os.str();
}

std::pair<HtCase, std::array<Shape, 2>> draw_ht_case(std::uint64_t seed) {
  // Rough SNR (dB) at 10% PER in TGn fading per base MCS (index mod 8).
  static constexpr std::array<double, 8> kWaterfallDb = {3,  6,  9,  12,
                                                         15, 19, 21, 23};
  Rng rng(seed);
  std::array<Shape, 2> shapes = {draw_shape(rng), draw_shape(rng)};
  HtCase c;
  c.config.mcs = static_cast<unsigned>(rng.uniform_int(32));
  c.config.coding =
      rng.uniform_int(2) == 1 ? phy::HtCoding::kLdpc : phy::HtCoding::kBcc;
  c.config.ideal_csi = rng.uniform_int(2) == 1;
  // LDPC frames decode ~40 iterations per codeword near the waterfall,
  // so HT frames stop at 1500 B to keep a case fast.
  c.psdu_bytes = draw_psdu_bytes(rng, 1500);
  c.packets = draw_packets(rng, std::max(shapes[0].lanes, shapes[1].lanes));
  c.profile = draw_profile(rng);
  const std::size_t n_ss = phy::ht_mcs_info(c.config.mcs).n_ss;
  c.snr_db = kWaterfallDb[c.config.mcs % 8] +
             2.0 * static_cast<double>(n_ss - 1) + rng.uniform(-3.0, 3.0);
  c.seed = rng.next_u64();
  return {c, shapes};
}

Run ht_reference(const HtCase& c) {
  return run_under(false, 1, c.seed, [&](Rng& rng) {
    return run_ht_link(c.config, c.psdu_bytes, c.packets, c.snr_db, rng,
                       c.profile);
  });
}

Run ht_batched(const HtCase& c, const Shape& s) {
  return run_under(s.vector, s.jobs, c.seed, [&](Rng& rng) {
    return run_ht_link_batched(c.config, c.psdu_bytes, c.packets, c.snr_db,
                               rng, {s.lanes, false}, c.profile);
  });
}

void expect_ht_shapes(const HtCase& c, std::span<const Shape> shapes) {
  SCOPED_TRACE(describe(c));
  const Run ref = ht_reference(c);
  ASSERT_EQ(ref.result.packets, c.packets);
  ASSERT_EQ(ref.result.bits, 8 * c.psdu_bytes * c.packets);
  for (const Shape& s : shapes) {
    SCOPED_TRACE(describe(s));
    expect_same(ref, ht_batched(c, s));
  }
}

class HtLinkShapes : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HtLinkShapes, BatchedRunsMatchOneLaneReference) {
  const auto [c, shapes] = draw_ht_case(GetParam());
  expect_ht_shapes(c, shapes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HtLinkShapes,
                         ::testing::Range<std::uint64_t>(1, 25));

// --- fixed cases -----------------------------------------------------------

TEST(OfdmBatchRunner, BitwiseMatchesScalarRunnerAcrossLaneCounts) {
  // 13 trials deliberately not a multiple of any lane count: the final
  // partial group must refill correctly and decode lane-exact.
  OfdmCase c;
  c.mcs = phy::OfdmMcs::k12Mbps;
  c.psdu_bytes = 100;
  c.packets = 13;
  c.snr_db = 5.0;
  c.seed = 123;
  const std::array<Shape, 4> shapes = {
      {{1, true, 0}, {4, true, 0}, {8, true, 0}, {8, false, 0}}};
  expect_ofdm_shapes(c, shapes);
}

TEST(OfdmBatchRunner, BitwiseMatchesScalarAtHigherOrderMcs) {
  OfdmCase c;
  c.mcs = phy::OfdmMcs::k54Mbps;
  c.psdu_bytes = 300;
  c.packets = 16;
  c.snr_db = 22.0;
  c.seed = 321;
  const std::array<Shape, 1> shapes = {{{8, true, 0}}};
  expect_ofdm_shapes(c, shapes);
}

TEST(OfdmBatchRunner, IdenticalAcrossThreadCounts) {
  OfdmCase c;
  c.mcs = phy::OfdmMcs::k12Mbps;
  c.psdu_bytes = 100;
  c.packets = 29;
  c.snr_db = 5.0;
  c.seed = 42;
  const std::array<Shape, 2> shapes = {{{8, true, 1}, {8, true, 8}}};
  expect_ofdm_shapes(c, shapes);
}

TEST(HtBatchRunner, BccBitwiseMatchesScalarRunner) {
  HtCase c;
  c.config.mcs = 1;
  c.psdu_bytes = 200;
  c.packets = 11;
  c.snr_db = 8.0;
  c.seed = 55;
  const std::array<Shape, 2> shapes = {{{5, true, 0}, {8, true, 0}}};
  expect_ht_shapes(c, shapes);
}

TEST(HtBatchRunner, LdpcBitwiseMatchesScalarRunner) {
  HtCase c;
  c.config.mcs = 1;
  c.config.coding = phy::HtCoding::kLdpc;
  c.psdu_bytes = 200;
  c.packets = 11;
  c.snr_db = 8.0;
  c.seed = 66;
  const std::array<Shape, 2> shapes = {{{5, true, 0}, {8, true, 0}}};
  expect_ht_shapes(c, shapes);
}

}  // namespace
}  // namespace wlan
