// Trial-batched SIMD Monte-Carlo: the bitwise contract of the batched
// double-precision decoder kernels (across lane counts and vector
// toggles), the PER-delta tolerance of the quantized int16 fast paths,
// and the zero-allocation warm-loop property of the batched receiver.
// The link runners' shape contract lives in test_link_shapes.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "core/link.h"
#include "dsp/batch.h"
#include "dsp/simd.h"
#include "obs/metrics.h"
#include "phy/convolutional.h"
#include "phy/ldpc.h"
#include "phy/ofdm.h"
#include "phy/workspace.h"
#include "support/alloc_hook.h"

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

// Rate-1/2 coded LLRs for a random terminated info sequence: the true
// info bits (with 6 zero tail bits) and noisy soft values, positive
// meaning bit 0.
struct TrellisLane {
  Bits info;
  RVec llrs;
};

TrellisLane make_trellis_lane(std::size_t n_payload, double noise_sigma,
                              Rng& rng) {
  TrellisLane lane;
  lane.info.resize(n_payload + 6);
  for (std::size_t i = 0; i < n_payload; ++i) {
    lane.info[i] = static_cast<std::uint8_t>(rng.uniform_int(2));
  }
  for (std::size_t i = 0; i < 6; ++i) lane.info[n_payload + i] = 0;
  const Bits coded = phy::convolutional_encode(lane.info);
  lane.llrs.resize(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    lane.llrs[i] =
        (coded[i] ? -4.0 : 4.0) + rng.gaussian(0.0, noise_sigma);
  }
  return lane;
}

// --- batched Viterbi -------------------------------------------------

TEST(ViterbiBatch, BitwiseMatchesScalarAcrossLaneCountsAndVectorToggle) {
  const std::size_t n_payload = 210;
  phy::Workspace ws;
  for (const bool vec : {false, true}) {
    ScopedVector guard(vec);
    for (const std::size_t lanes : {1u, 2u, 3u, 4u, 5u, 8u, 16u}) {
      Rng rng(1000 + lanes);
      std::vector<TrellisLane> tls;
      for (std::size_t l = 0; l < lanes; ++l) {
        tls.push_back(make_trellis_lane(n_payload, 1.5, rng));
      }
      const std::size_t n_llrs = tls[0].llrs.size();
      RVec soa(n_llrs * lanes);
      for (std::size_t l = 0; l < lanes; ++l) {
        dsp::batch::scatter_lane(std::span<const double>(tls[l].llrs), l,
                                 lanes, soa.data());
      }
      Bits decoded_soa;
      phy::viterbi_decode_batch_into(soa, lanes, true, decoded_soa, ws);
      ASSERT_EQ(decoded_soa.size(), (n_llrs / 2) * lanes);

      Bits scalar;
      Bits lane_bits(n_llrs / 2);
      for (std::size_t l = 0; l < lanes; ++l) {
        phy::viterbi_decode_into(tls[l].llrs, true, scalar, ws);
        dsp::batch::gather_lane(decoded_soa.data(), l, lanes,
                                std::span<std::uint8_t>(lane_bits));
        EXPECT_EQ(lane_bits, scalar)
            << "vec=" << vec << " lanes=" << lanes << " lane=" << l;
      }
    }
  }
}

TEST(ViterbiBatch, BitwiseMatchesScalarUnterminated) {
  const std::size_t lanes = 4;
  phy::Workspace ws;
  Rng rng(77);
  std::vector<TrellisLane> tls;
  for (std::size_t l = 0; l < lanes; ++l) {
    tls.push_back(make_trellis_lane(120, 2.0, rng));
  }
  const std::size_t n_llrs = tls[0].llrs.size();
  RVec soa(n_llrs * lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    dsp::batch::scatter_lane(std::span<const double>(tls[l].llrs), l, lanes,
                             soa.data());
  }
  for (const bool vec : {false, true}) {
    ScopedVector guard(vec);
    Bits decoded_soa;
    phy::viterbi_decode_batch_into(soa, lanes, false, decoded_soa, ws);
    Bits scalar;
    Bits lane_bits(n_llrs / 2);
    for (std::size_t l = 0; l < lanes; ++l) {
      phy::viterbi_decode_into(tls[l].llrs, false, scalar, ws);
      dsp::batch::gather_lane(decoded_soa.data(), l, lanes,
                              std::span<std::uint8_t>(lane_bits));
      EXPECT_EQ(lane_bits, scalar) << "vec=" << vec << " lane=" << l;
    }
  }
}

TEST(ViterbiQuant, DeterministicAcrossVectorToggleAndDecodesCleanLlrs) {
  const std::size_t lanes = 16;  // multiple of every int16 SIMD width
  phy::Workspace ws;
  Rng rng(5);
  std::vector<TrellisLane> tls;
  for (std::size_t l = 0; l < lanes; ++l) {
    tls.push_back(make_trellis_lane(200, 0.0, rng));
  }
  const std::size_t n_llrs = tls[0].llrs.size();
  RVec soa(n_llrs * lanes);
  double maxabs = 0.0;
  for (std::size_t l = 0; l < lanes; ++l) {
    dsp::batch::scatter_lane(std::span<const double>(tls[l].llrs), l, lanes,
                             soa.data());
    for (const double x : tls[l].llrs) maxabs = std::max(maxabs, std::abs(x));
  }
  const double scale = 96.0 / maxabs;

  Bits with_vec;
  {
    ScopedVector on(true);
    phy::viterbi_decode_batch_i16_into(soa, lanes, true, scale, with_vec, ws);
  }
  Bits without_vec;
  {
    ScopedVector off(false);
    phy::viterbi_decode_batch_i16_into(soa, lanes, true, scale, without_vec,
                                       ws);
  }
  EXPECT_EQ(with_vec, without_vec);

  Bits lane_bits(n_llrs / 2);
  for (std::size_t l = 0; l < lanes; ++l) {
    dsp::batch::gather_lane(with_vec.data(), l, lanes,
                            std::span<std::uint8_t>(lane_bits));
    EXPECT_EQ(lane_bits, tls[l].info) << "lane=" << l;
  }
}

// --- batched LDPC ----------------------------------------------------

TEST(LdpcBatch, BitwiseMatchesScalarAcrossLaneCounts) {
  const phy::LdpcCode code(648, 324, 12);
  phy::Workspace ws;
  for (const std::size_t lanes : {1u, 3u, 4u, 8u}) {
    Rng rng(400 + lanes);
    std::vector<RVec> lane_llrs(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      Bits info(code.info_length());
      for (auto& b : info) b = static_cast<std::uint8_t>(rng.uniform_int(2));
      const Bits cw = code.encode(info);
      lane_llrs[l].resize(cw.size());
      for (std::size_t i = 0; i < cw.size(); ++i) {
        lane_llrs[l][i] = (cw[i] ? -1.0 : 1.0) + rng.gaussian(0.0, 0.9);
      }
    }
    RVec soa(code.block_length() * lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      dsp::batch::scatter_lane(std::span<const double>(lane_llrs[l]), l,
                               lanes, soa.data());
    }
    std::vector<phy::LdpcCode::DecodeResult> batch(lanes);
    code.decode_batch_into(soa, lanes, 40, 0.8, batch, ws);
    phy::LdpcCode::DecodeResult scalar;
    for (std::size_t l = 0; l < lanes; ++l) {
      code.decode_into(lane_llrs[l], 40, 0.8, scalar, ws);
      EXPECT_EQ(batch[l].info, scalar.info) << "lanes=" << lanes << " l=" << l;
      EXPECT_EQ(batch[l].parity_ok, scalar.parity_ok);
      EXPECT_EQ(batch[l].iterations, scalar.iterations);
    }
  }
}

TEST(LdpcQuant, DeterministicAcrossVectorToggleAndDecodesModerateNoise) {
  const phy::LdpcCode code(648, 324, 12);
  phy::Workspace ws;
  const std::size_t lanes = 8;
  Rng rng(9);
  std::vector<Bits> infos(lanes);
  RVec soa(code.block_length() * lanes);
  double maxabs = 0.0;
  std::vector<RVec> lane_llrs(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    infos[l].resize(code.info_length());
    for (auto& b : infos[l]) b = static_cast<std::uint8_t>(rng.uniform_int(2));
    const Bits cw = code.encode(infos[l]);
    lane_llrs[l].resize(cw.size());
    for (std::size_t i = 0; i < cw.size(); ++i) {
      lane_llrs[l][i] = (cw[i] ? -2.0 : 2.0) + rng.gaussian(0.0, 0.5);
      maxabs = std::max(maxabs, std::abs(lane_llrs[l][i]));
    }
    dsp::batch::scatter_lane(std::span<const double>(lane_llrs[l]), l, lanes,
                             soa.data());
  }
  const double scale = 96.0 / maxabs;

  std::vector<phy::LdpcCode::DecodeResult> with_vec(lanes);
  {
    ScopedVector on(true);
    code.decode_batch_i16_into(soa, lanes, 40, 0.8, scale, with_vec, ws);
  }
  std::vector<phy::LdpcCode::DecodeResult> without_vec(lanes);
  {
    ScopedVector off(false);
    code.decode_batch_i16_into(soa, lanes, 40, 0.8, scale, without_vec, ws);
  }
  for (std::size_t l = 0; l < lanes; ++l) {
    EXPECT_EQ(with_vec[l].info, without_vec[l].info) << "l=" << l;
    EXPECT_EQ(with_vec[l].parity_ok, without_vec[l].parity_ok);
    EXPECT_EQ(with_vec[l].iterations, without_vec[l].iterations);
    EXPECT_TRUE(with_vec[l].parity_ok) << "l=" << l;
    EXPECT_EQ(with_vec[l].info, infos[l]) << "l=" << l;
  }
}

// --- quantized PER tolerance -----------------------------------------

// The quantized decoders are gated on PER deltas, not equality. Paired
// seeds put the double and int16 paths on identical noise realizations,
// so the delta below is pure decoder divergence, not sampling noise.
TEST(QuantizedPer, WithinToleranceAcrossSnrPointsPerMcs) {
  struct Point {
    phy::OfdmMcs mcs;
    double snr_db;
  };
  const Point points[] = {
      {phy::OfdmMcs::k12Mbps, 2.0},  {phy::OfdmMcs::k12Mbps, 3.5},
      {phy::OfdmMcs::k12Mbps, 5.0},  {phy::OfdmMcs::k36Mbps, 9.0},
      {phy::OfdmMcs::k36Mbps, 11.0}, {phy::OfdmMcs::k36Mbps, 13.0},
  };
  for (const auto& p : points) {
    Rng rng_d(2026);
    const LinkResult dbl =
        run_ofdm_link_batched(p.mcs, 100, 150, p.snr_db, rng_d, {8, false});
    Rng rng_q(2026);
    const LinkResult quant =
        run_ofdm_link_batched(p.mcs, 100, 150, p.snr_db, rng_q, {8, true});
    EXPECT_EQ(quant.packets, dbl.packets);
    EXPECT_NEAR(quant.per(), dbl.per(), 0.06)
        << "mcs=" << static_cast<int>(p.mcs) << " snr=" << p.snr_db;
  }
}

TEST(QuantizedPer, HtLdpcWithinTolerance) {
  phy::HtConfig cfg;
  cfg.mcs = 1;
  cfg.coding = phy::HtCoding::kLdpc;
  Rng rng_d(17);
  const LinkResult dbl = run_ht_link_batched(cfg, 200, 80, 6.0, rng_d,
                                             {8, false});
  Rng rng_q(17);
  const LinkResult quant = run_ht_link_batched(cfg, 200, 80, 6.0, rng_q,
                                               {8, true});
  EXPECT_EQ(quant.packets, dbl.packets);
  EXPECT_NEAR(quant.per(), dbl.per(), 0.1);
}

// --- warm-loop allocation and workspace telemetry --------------------

TEST(BatchWarmLoop, NoSteadyStateAllocationsInBatchedReceive) {
  const std::size_t kLanes = 8;
  const std::size_t kPsdu = 100;
  phy::OfdmPhy modem(phy::OfdmMcs::k12Mbps);
  phy::Workspace ws;
  Rng rng(31);

  std::array<Bytes, kLanes> psdus;
  std::array<CVec, kLanes> waves;
  std::array<phy::OfdmPhy::RxLane, kLanes> lanes;
  for (std::size_t l = 0; l < kLanes; ++l) {
    psdus[l].resize(kPsdu);
    rng.fill_bytes(psdus[l]);
    waves[l] = modem.transmit(psdus[l]);
    lanes[l] = {waves[l], 0.05};
  }
  std::array<Bytes, kLanes> out;

  for (const bool quantized : {false, true}) {
    // Two warm-up passes size every lease and thread-local buffer.
    for (int i = 0; i < 2; ++i) {
      modem.receive_batch_into(lanes, kPsdu, out, quantized, ws);
    }
    const std::size_t before = testsupport::allocation_count();
    for (int i = 0; i < 5; ++i) {
      modem.receive_batch_into(lanes, kPsdu, out, quantized, ws);
    }
    EXPECT_EQ(testsupport::allocation_count(), before)
        << "quantized=" << quantized;
    for (std::size_t l = 0; l < kLanes; ++l) {
      EXPECT_EQ(out[l], psdus[l]) << "l=" << l;
    }
  }
}

TEST(BatchWarmLoop, WorkspacePublishesBytesHighWater) {
  phy::OfdmPhy modem(phy::OfdmMcs::k12Mbps);
  phy::Workspace ws;
  Rng rng(32);
  Bytes psdu(100);
  rng.fill_bytes(psdu);
  const CVec wave = modem.transmit(psdu);
  const std::array<phy::OfdmPhy::RxLane, 4> lanes = {
      phy::OfdmPhy::RxLane{wave, 0.05}, phy::OfdmPhy::RxLane{wave, 0.05},
      phy::OfdmPhy::RxLane{wave, 0.05}, phy::OfdmPhy::RxLane{wave, 0.05}};
  std::array<Bytes, 4> out;
  modem.receive_batch_into(lanes, 100, out, true, ws);

  obs::Registry registry;
  ws.publish(registry);
  double rvec_peak = 0.0;
  double i16_peak = 0.0;
  rvec_peak = registry
                  .gauge("workspace.bytes_high_water",
                         {{std::string("pool"), std::string("rvec")}})
                  .value();
  i16_peak = registry
                 .gauge("workspace.bytes_high_water",
                        {{std::string("pool"), std::string("i16")}})
                 .value();
  // The batched receive leases the lane-major LLR block (doubles) and the
  // quantized decoder's int16 state, so both pools must report a peak.
  EXPECT_GT(rvec_peak, 0.0);
  EXPECT_GT(i16_peak, 0.0);
}

}  // namespace
}  // namespace wlan
