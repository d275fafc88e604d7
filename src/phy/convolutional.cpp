#include "phy/convolutional.h"

#include <algorithm>
#include <array>
#include <limits>

#include "common/check.h"
#include "dsp/batch.h"
#include "dsp/saturate.h"
#include "dsp/simd.h"
#include "dsp/simd_int.h"
#include "obs/perf.h"
#include "phy/workspace.h"

namespace wlan::phy {
namespace {

constexpr std::uint32_t kG0 = 0b1011011;  // 133 octal
constexpr std::uint32_t kG1 = 0b1111001;  // 171 octal
constexpr int kNumStates = 64;

std::uint8_t parity7(std::uint32_t v) {
  v ^= v >> 4;
  v ^= v >> 2;
  v ^= v >> 1;
  return static_cast<std::uint8_t>(v & 1u);
}

// Puncture pattern: keep[i % period] over the A/B interleaved stream.
struct Pattern {
  std::size_t period;
  std::array<bool, 10> keep;
};

Pattern pattern_for(CodeRate rate) {
  switch (rate) {
    case CodeRate::kR12:
      return {2, {true, true}};
    case CodeRate::kR23:  // A1 B1 A2 (B2 stolen)
      return {4, {true, true, true, false}};
    case CodeRate::kR34:  // A1 B1 A2 B3
      return {6, {true, true, true, false, false, true}};
    case CodeRate::kR56:  // A1 B1 A2 B3 A4 B5
      return {10, {true, true, true, false, false, true, true, false, false, true}};
  }
  return {2, {true, true}};
}

}  // namespace

double code_rate_value(CodeRate rate) {
  switch (rate) {
    case CodeRate::kR12: return 0.5;
    case CodeRate::kR23: return 2.0 / 3.0;
    case CodeRate::kR34: return 0.75;
    case CodeRate::kR56: return 5.0 / 6.0;
  }
  return 0.5;
}

void convolutional_encode_into(std::span<const std::uint8_t> bits, Bits& out) {
  out.resize(bits.size() * 2);
  std::uint32_t state = 0;  // last 6 input bits, newest at bit 5
  std::size_t w = 0;
  for (const std::uint8_t b : bits) {
    const std::uint32_t reg = (static_cast<std::uint32_t>(b & 1u) << 6) | state;
    out[w++] = parity7(reg & kG0);
    out[w++] = parity7(reg & kG1);
    state = reg >> 1;
  }
}

Bits convolutional_encode(std::span<const std::uint8_t> bits) {
  Bits out;
  convolutional_encode_into(bits, out);
  return out;
}

void puncture_into(std::span<const std::uint8_t> coded, CodeRate rate,
                   Bits& out) {
  const Pattern p = pattern_for(rate);
  std::size_t n = 0;
  for (std::size_t i = 0; i < coded.size(); ++i) {
    if (p.keep[i % p.period]) ++n;
  }
  out.resize(n);
  std::size_t w = 0;
  for (std::size_t i = 0; i < coded.size(); ++i) {
    if (p.keep[i % p.period]) out[w++] = coded[i];
  }
}

Bits puncture(std::span<const std::uint8_t> coded, CodeRate rate) {
  Bits out;
  puncture_into(coded, rate, out);
  return out;
}

void depuncture_into(std::span<const double> llrs, CodeRate rate,
                     std::size_t n_info_bits, RVec& out) {
  const Pattern p = pattern_for(rate);
  out.assign(2 * n_info_bits, 0.0);
  std::size_t src = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (p.keep[i % p.period]) {
      check(src < llrs.size(), "depuncture: not enough LLRs");
      out[i] = llrs[src++];
    }
  }
  check(src == llrs.size(), "depuncture: LLR count mismatch");
}

RVec depuncture(std::span<const double> llrs, CodeRate rate,
                std::size_t n_info_bits) {
  RVec out;
  depuncture_into(llrs, rate, n_info_bits, out);
  return out;
}

std::size_t coded_length(std::size_t n_info_bits, CodeRate rate) {
  const Pattern p = pattern_for(rate);
  std::size_t n = 0;
  for (std::size_t i = 0; i < 2 * n_info_bits; ++i) {
    if (p.keep[i % p.period]) ++n;
  }
  return n;
}

namespace {

// Flattened trellis: for each (predecessor state, input bit), the
// 2-bit output-pair index e0<<1|e1. Per decode step the four possible
// branch metrics ±l0±l1 are computed once and looked up through this
// table — no parity evaluation or per-call table rebuild on the hot
// path. Built once per process (thread-safe magic static).
struct Trellis {
  std::array<std::uint8_t, kNumStates * 2> sym;
};

const Trellis& trellis() {
  static const Trellis t = [] {
    Trellis built{};
    for (int s = 0; s < kNumStates; ++s) {
      for (int b = 0; b < 2; ++b) {
        const std::uint32_t reg = (static_cast<std::uint32_t>(b) << 6) |
                                  static_cast<std::uint32_t>(s);
        built.sym[static_cast<std::size_t>(s * 2 + b)] = static_cast<std::uint8_t>(
            (parity7(reg & kG0) << 1) | parity7(reg & kG1));
      }
    }
    return built;
  }();
  return t;
}

// Both generators tap the input bit (bit 6 of the register) and the
// oldest bit (bit 0). Flipping either flips both outputs, so butterfly
// `half` uses one output pair i and its complement i ^ 3: predecessor
// 2*half emits i on input 0 and i ^ 3 on input 1, predecessor
// 2*half + 1 the reverse.
static_assert((kG0 & kG1 & 0b1000001) == 0b1000001,
              "the vector ACS relies on both generators tapping bits 0 and 6");

// Sign masks of the input-0 branch out of each even predecessor 2*half:
// its branch metric bm[e0<<1|e1] == (l0 ^ s0) + (l1 ^ s1), where s0 is
// the sign bit (-0.0) when e0 is set and +0.0 otherwise, s1 likewise.
// XOR with the sign bit is an exact negation and IEEE subtraction is
// addition of the negation, so this reproduces the scalar table (l0+l1,
// l0-l1, -l0+l1, -l0-l1) bit for bit, and -(l0 ^ s0) - (l1 ^ s1)
// reproduces the complement's entry bm[i ^ 3] the same way (including
// the sign of a zero sum, which negating bm[i] would not).
struct VecTrellis {
  std::array<double, 32> s0;
  std::array<double, 32> s1;
};

const VecTrellis& vec_trellis() {
  static const VecTrellis vt = [] {
    VecTrellis built{};
    const std::uint8_t* sym = trellis().sym.data();
    for (std::size_t half = 0; half < 32; ++half) {
      const int i = sym[half * 4];  // predecessor 2*half, input 0
      built.s0[half] = (i & 2) ? -0.0 : 0.0;
      built.s1[half] = (i & 1) ? -0.0 : 0.0;
    }
    return built;
  }();
  return vt;
}

}  // namespace

void viterbi_decode_into(std::span<const double> llrs, bool terminated,
                         Bits& decoded, Workspace& ws) {
  const obs::perf::ScopedSpan span("viterbi");
  check(llrs.size() % 2 == 0, "viterbi_decode requires an even LLR count");
  const std::size_t n_steps = llrs.size() / 2;
  // Finite "unreachable" sentinel: adding a branch metric to it is
  // absorbed (|branch| << 1e300), so unreachable states stay maximally
  // bad without NaN/inf special-casing in the inner loop.
  constexpr double kUnreachable = -1e300;
  const std::uint8_t* sym = trellis().sym.data();

  // Two metric buffers in ping-pong: each step reads `metric` and
  // writes `next`, then the pointers swap.
  std::array<double, kNumStates> buffers[2];
  double* metric = buffers[0].data();
  double* next = buffers[1].data();
  std::fill(metric, metric + kNumStates, kUnreachable);
  metric[0] = 0.0;  // encoder starts at state 0

  // One survivor bit per state per step: the oldest-bit choice of the
  // winning predecessor.
  auto surv_lease = ws.u64(n_steps);
  std::uint64_t* survivors = surv_lease->data();

  const bool use_vec = dsp::simd::vector_enabled();
  const VecTrellis& vt = vec_trellis();

  for (std::size_t t = 0; t < n_steps; ++t) {
    const double l0 = llrs[2 * t];
    const double l1 = llrs[2 * t + 1];
    std::uint64_t surv = 0;
    if (use_vec) {
      using dsp::simd::DVec;
      constexpr std::size_t W = dsp::simd::kWidth;
      const DVec l0v = DVec::splat(l0);
      const DVec l1v = DVec::splat(l1);
      for (std::size_t h = 0; h < 32; h += W) {
        // Predecessors 2h.. (even) and 2h+1.. (odd), split in registers.
        DVec m_even;
        DVec m_odd;
        dsp::simd::deinterleave(DVec::load(metric + 2 * h),
                                DVec::load(metric + 2 * h + W), m_even, m_odd);
        const DVec a = dsp::simd::bit_xor(l0v, DVec::load(&vt.s0[h]));
        const DVec b = dsp::simd::bit_xor(l1v, DVec::load(&vt.s1[h]));
        const DVec bm = a + b;                       // bm[i]
        const DVec bm_c = dsp::simd::negate(a) - b;  // bm[i ^ 3]
        // c1 > c0 ? c1 : c0 is max_with(c0, c1): a tie keeps c0.
        const DVec c00 = m_even + bm;
        const DVec c01 = m_odd + bm_c;
        dsp::simd::max_with(c00, c01).store(next + h);
        const DVec c10 = m_even + bm_c;
        const DVec c11 = m_odd + bm;
        dsp::simd::max_with(c10, c11).store(next + 32 + h);
        const std::uint64_t won0 = dsp::simd::mask_gt(c01, c00);
        const std::uint64_t won1 = dsp::simd::mask_gt(c11, c10);
        surv |= (won0 << h) | (won1 << (32 + h));
      }
    } else {
      // Branch metric for expected pair (e0, e1), indexed e0<<1|e1
      // (a positive LLR favours bit 0).
      const std::array<double, 4> bm{l0 + l1, l0 - l1, -l0 + l1, -l0 - l1};
      // Butterfly: new states `half` (input 0) and `half + 32` (input 1)
      // share predecessors base and base|1.
      for (int half = 0; half < 32; ++half) {
        const int p0 = half << 1;
        const int p1 = p0 | 1;
        const double m0 = metric[p0];
        const double m1 = metric[p1];
        for (int b = 0; b < 2; ++b) {
          const int sp = (b << 5) | half;
          const double c0 = m0 + bm[sym[p0 * 2 + b]];
          const double c1 = m1 + bm[sym[p1 * 2 + b]];
          if (c1 > c0) {
            next[sp] = c1;
            surv |= (std::uint64_t{1} << sp);
          } else {
            next[sp] = c0;
          }
        }
      }
    }
    std::swap(metric, next);
    survivors[t] = surv;
  }

  // Traceback from the terminal state.
  int state = 0;
  if (!terminated) {
    double best = -std::numeric_limits<double>::infinity();
    for (int s = 0; s < kNumStates; ++s) {
      if (metric[s] > best) {
        best = metric[s];
        state = s;
      }
    }
  }
  decoded.resize(n_steps);
  for (std::size_t t = n_steps; t-- > 0;) {
    decoded[t] = static_cast<std::uint8_t>(state >> 5);
    const int old = static_cast<int>((survivors[t] >> state) & 1u);
    state = ((state & 0x1F) << 1) | old;
  }
}

Bits viterbi_decode(std::span<const double> llrs, bool terminated) {
  Bits decoded;
  viterbi_decode_into(llrs, terminated, decoded, tls_workspace());
  return decoded;
}

Bits viterbi_decode_hard(std::span<const std::uint8_t> coded_bits, bool terminated) {
  RVec llrs(coded_bits.size());
  for (std::size_t i = 0; i < coded_bits.size(); ++i) {
    llrs[i] = coded_bits[i] ? -1.0 : 1.0;
  }
  return viterbi_decode(llrs, terminated);
}

void depuncture_batch_into(std::span<const std::span<const double>> lane_llrs,
                           CodeRate rate, std::size_t n_info_bits,
                           RVec& out_soa) {
  const Pattern p = pattern_for(rate);
  const std::size_t lanes = lane_llrs.size();
  out_soa.assign(2 * n_info_bits * lanes, 0.0);
  for (std::size_t l = 0; l < lanes; ++l) {
    const std::span<const double> in = lane_llrs[l];
    std::size_t src = 0;
    for (std::size_t i = 0; i < 2 * n_info_bits; ++i) {
      if (p.keep[i % p.period]) {
        check(src < in.size(), "depuncture_batch: not enough LLRs");
        out_soa[i * lanes + l] = in[src++];
      }
    }
    check(src == in.size(), "depuncture_batch: LLR count mismatch");
  }
}

namespace {

/// Per-lane traceback shared by the batched decoders: `final_metric(s)`
/// reads lane l's terminal metric of state s, `survivor_bit(t, s)` its
/// survivor decision. Decisions land at out[t * stride] (lane-major SoA
/// output). Mirrors viterbi_decode_into's traceback exactly
/// (strict-greater first-maximum start state when unterminated).
template <class Metric, class FinalMetric, class SurvivorBit>
void traceback_lane(std::size_t n_steps, bool terminated,
                    FinalMetric&& final_metric, SurvivorBit&& survivor_bit,
                    std::uint8_t* out, std::size_t stride) {
  int state = 0;
  if (!terminated) {
    Metric best = final_metric(0);
    for (int s = 1; s < kNumStates; ++s) {
      const Metric m = final_metric(s);
      if (m > best) {
        best = m;
        state = s;
      }
    }
  }
  for (std::size_t t = n_steps; t-- > 0;) {
    out[t * stride] = static_cast<std::uint8_t>(state >> 5);
    const int old = survivor_bit(t, state);
    state = ((state & 0x1F) << 1) | old;
  }
}

}  // namespace

void viterbi_decode_batch_into(std::span<const double> llrs_soa,
                               std::size_t lanes, bool terminated,
                               Bits& decoded_soa, Workspace& ws) {
  check(lanes > 0 && lanes <= 16,
        "viterbi_decode_batch requires 1..16 lanes");
  check(llrs_soa.size() % (2 * lanes) == 0,
        "viterbi_decode_batch requires an even LLR count per lane");
  const std::size_t n_steps = llrs_soa.size() / (2 * lanes);
  decoded_soa.resize(n_steps * lanes);
  if (lanes == 1) {
    // A one-lane block is that lane's contiguous stream.
    viterbi_decode_into(llrs_soa, terminated, decoded_soa, ws);
    return;
  }
  constexpr std::size_t W = dsp::simd::kWidth;
  if (!dsp::simd::vector_enabled() || !dsp::batch::vectorizable(lanes, W)) {
    // Remainder groups and scalar builds: extract each lane and run the
    // reference kernel — bitwise identical by construction.
    auto lane_lease = ws.rvec(2 * n_steps);
    auto bits_lease = ws.bits(n_steps);
    for (std::size_t l = 0; l < lanes; ++l) {
      dsp::batch::gather_lane(llrs_soa.data(), l, lanes,
                              std::span<double>(*lane_lease));
      viterbi_decode_into(*lane_lease, terminated, *bits_lease, ws);
      dsp::batch::scatter_lane(std::span<const std::uint8_t>(*bits_lease), l,
                               lanes, decoded_soa.data());
    }
    return;
  }

  const obs::perf::ScopedSpan span("viterbi_batch");
  using dsp::simd::DVec;
  constexpr double kUnreachable = -1e300;
  const std::uint8_t* sym = trellis().sym.data();
  const std::size_t L = lanes;

  auto cur_lease = ws.rvec(kNumStates * L);
  auto nxt_lease = ws.rvec(kNumStates * L);
  double* cur = cur_lease->data();
  double* nxt = nxt_lease->data();
  std::fill(cur, cur + kNumStates * L, kUnreachable);
  for (std::size_t l = 0; l < L; ++l) cur[l] = 0.0;  // state 0, every lane

  // Survivor bits live in one byte plane per lane strip: bit (l % W) of
  // plane[l / W][t * 64 + sp] is lane l's decision. Planes make the hot
  // loop a plain byte store per (state, strip) — no cross-strip
  // read-modify-write — and the traceback touches one plane per lane.
  const std::size_t n_strips = L / W;
  const std::size_t plane_len = n_steps * kNumStates;
  auto surv_lease = ws.bits(n_strips * plane_len);
  std::uint8_t* const planes = surv_lease->data();

  for (std::size_t t = 0; t < n_steps; ++t) {
    for (std::size_t w = 0; w < L; w += W) {
      std::uint8_t* const surv_t =
          planes + (w / W) * plane_len + t * kNumStates;
      const DVec l0v = DVec::load(&llrs_soa[(2 * t) * L + w]);
      const DVec l1v = DVec::load(&llrs_soa[(2 * t + 1) * L + w]);
      // The four distinct branch metrics ±l0±l1, indexed by the expected
      // pair e0<<1|e1 like the scalar kernel's bm table. Each entry is
      // bitwise equal per lane to the sign-table form s0*l0 + s1*l1:
      // multiplying by ±1.0 is an exact sign flip, IEEE addition is
      // commutative, and -l0 - l1 == -1.0 * (l0 + l1) exactly.
      const std::array<DVec, 4> bmv{l0v + l1v, l0v - l1v, l1v - l0v,
                                    DVec::splat(-1.0) * (l0v + l1v)};
      for (int half = 0; half < 32; ++half) {
        const auto h = static_cast<std::size_t>(half);
        const DVec m0 = DVec::load(&cur[(2 * h) * L + w]);
        const DVec m1 = DVec::load(&cur[(2 * h + 1) * L + w]);
        const int p0 = half << 1;
        const int p1 = p0 | 1;
        for (int b = 0; b < 2; ++b) {
          const DVec c0 = m0 + bmv[sym[p0 * 2 + b]];
          const DVec c1 = m1 + bmv[sym[p1 * 2 + b]];
          const std::size_t sp = (static_cast<std::size_t>(b) << 5) | h;
          dsp::simd::select_gt(c1, c0, c1, c0).store(&nxt[sp * L + w]);
          surv_t[sp] = static_cast<std::uint8_t>(dsp::simd::mask_gt(c1, c0));
        }
      }
    }
    std::swap(cur, nxt);
  }

  for (std::size_t l = 0; l < L; ++l) {
    const std::uint8_t* const plane = planes + (l / W) * plane_len;
    const unsigned bit = static_cast<unsigned>(l % W);
    traceback_lane<double>(
        n_steps, terminated,
        [&](int s) { return cur[static_cast<std::size_t>(s) * L + l]; },
        [&](std::size_t t, int s) {
          return static_cast<int>(
              (plane[t * kNumStates + static_cast<std::size_t>(s)] >> bit) &
              1u);
        },
        decoded_soa.data() + l, L);
  }
}

void viterbi_decode_batch_i16_into(std::span<const double> llrs_soa,
                                   std::size_t lanes, bool terminated,
                                   double scale, Bits& decoded_soa,
                                   Workspace& ws) {
  const obs::perf::ScopedSpan span("viterbi_i16");
  check(lanes > 0 && lanes <= 16,
        "viterbi_decode_batch_i16 requires 1..16 lanes");
  check(llrs_soa.size() % (2 * lanes) == 0,
        "viterbi_decode_batch_i16 requires an even LLR count per lane");
  const std::size_t n_steps = llrs_soa.size() / (2 * lanes);
  decoded_soa.resize(n_steps * lanes);
  const std::size_t L = lanes;
  const std::uint8_t* sym = trellis().sym.data();

  // Quantize the whole block up front. Branch metrics are then bounded
  // by 2 * 127 = 254, so 64 steps grow the path-metric spread by at most
  // 16256 — comfortably inside int16 between renormalizations.
  auto q_lease = ws.i16vec(llrs_soa.size());
  std::int16_t* q = q_lease->data();
  for (std::size_t i = 0; i < llrs_soa.size(); ++i) {
    q[i] = dsp::quantize_llr_i16(llrs_soa[i], scale, 127);
  }

  constexpr std::int16_t kUnreachable = -30000;
  auto cur_lease = ws.i16vec(kNumStates * L);
  auto nxt_lease = ws.i16vec(kNumStates * L);
  std::int16_t* cur = cur_lease->data();
  std::int16_t* nxt = nxt_lease->data();
  std::fill(cur, cur + kNumStates * L, kUnreachable);
  for (std::size_t l = 0; l < L; ++l) cur[l] = 0;

  auto surv_lease = ws.i16vec(n_steps * kNumStates);
  std::int16_t* survivors = surv_lease->data();

  using dsp::simd::I16Vec;
  constexpr std::size_t VW = dsp::simd::kI16Width;
  const bool use_vec =
      dsp::simd::vector_enabled() && dsp::batch::vectorizable(L, VW) && VW > 1;

  for (std::size_t t = 0; t < n_steps; ++t) {
    std::array<std::uint16_t, kNumStates> surv{};
    if (use_vec) {
      for (std::size_t w = 0; w < L; w += VW) {
        const I16Vec l0v = I16Vec::load(&q[(2 * t) * L + w]);
        const I16Vec l1v = I16Vec::load(&q[(2 * t + 1) * L + w]);
        const I16Vec nl0 = sat_sub(I16Vec::splat(0), l0v);
        const I16Vec bm[4] = {sat_add(l0v, l1v), sat_sub(l0v, l1v),
                              sat_sub(l1v, l0v), sat_sub(nl0, l1v)};
        for (int half = 0; half < 32; ++half) {
          const auto h = static_cast<std::size_t>(half);
          const int p0 = half << 1;
          const int p1 = p0 | 1;
          const I16Vec m0 = I16Vec::load(&cur[(2 * h) * L + w]);
          const I16Vec m1 = I16Vec::load(&cur[(2 * h + 1) * L + w]);
          for (int b = 0; b < 2; ++b) {
            const I16Vec c0 = sat_add(m0, bm[sym[p0 * 2 + b]]);
            const I16Vec c1 = sat_add(m1, bm[sym[p1 * 2 + b]]);
            const I16Vec gt = cmp_gt(c1, c0);
            const std::size_t sp = (static_cast<std::size_t>(b) << 5) | h;
            blend(gt, c1, c0).store(&nxt[sp * L + w]);
            surv[sp] |= static_cast<std::uint16_t>(dsp::simd::mask_bits(gt)
                                                   << w);
          }
        }
      }
    } else {
      // Scalar reference: the same saturating expressions per lane, so
      // the quantized output is identical with vectors on or off.
      for (std::size_t l = 0; l < L; ++l) {
        const std::int16_t l0 = q[(2 * t) * L + l];
        const std::int16_t l1 = q[(2 * t + 1) * L + l];
        const std::int16_t bm[4] = {
            dsp::sat_add_i16(l0, l1), dsp::sat_sub_i16(l0, l1),
            dsp::sat_sub_i16(l1, l0),
            dsp::sat_sub_i16(dsp::sat_sub_i16(0, l0), l1)};
        for (int half = 0; half < 32; ++half) {
          const auto h = static_cast<std::size_t>(half);
          const int p0 = half << 1;
          const int p1 = p0 | 1;
          const std::int16_t m0 = cur[(2 * h) * L + l];
          const std::int16_t m1 = cur[(2 * h + 1) * L + l];
          for (int b = 0; b < 2; ++b) {
            const std::int16_t c0 = dsp::sat_add_i16(m0, bm[sym[p0 * 2 + b]]);
            const std::int16_t c1 = dsp::sat_add_i16(m1, bm[sym[p1 * 2 + b]]);
            const std::size_t sp = (static_cast<std::size_t>(b) << 5) | h;
            if (c1 > c0) {
              nxt[sp * L + l] = c1;
              surv[sp] |= static_cast<std::uint16_t>(1u << l);
            } else {
              nxt[sp * L + l] = c0;
            }
          }
        }
      }
    }
    for (int s = 0; s < kNumStates; ++s) {
      survivors[t * kNumStates + s] =
          static_cast<std::int16_t>(surv[static_cast<std::size_t>(s)]);
    }
    std::swap(cur, nxt);
    if ((t + 1) % 64 == 0) {
      // Renormalize: subtract each lane's running maximum so metrics
      // stay away from the int16 rails (ordering is preserved).
      if (use_vec) {
        for (std::size_t w = 0; w < L; w += VW) {
          I16Vec mx = I16Vec::load(&cur[w]);
          for (int s = 1; s < kNumStates; ++s) {
            mx = max_i16(mx,
                         I16Vec::load(&cur[static_cast<std::size_t>(s) * L + w]));
          }
          for (int s = 0; s < kNumStates; ++s) {
            std::int16_t* row = &cur[static_cast<std::size_t>(s) * L + w];
            sat_sub(I16Vec::load(row), mx).store(row);
          }
        }
      } else {
        for (std::size_t l = 0; l < L; ++l) {
          std::int16_t mx = cur[l];
          for (int s = 1; s < kNumStates; ++s) {
            mx = std::max(mx, cur[static_cast<std::size_t>(s) * L + l]);
          }
          for (int s = 0; s < kNumStates; ++s) {
            std::int16_t& m = cur[static_cast<std::size_t>(s) * L + l];
            m = dsp::sat_sub_i16(m, mx);
          }
        }
      }
    }
  }

  for (std::size_t l = 0; l < L; ++l) {
    traceback_lane<std::int16_t>(
        n_steps, terminated,
        [&](int s) { return cur[static_cast<std::size_t>(s) * L + l]; },
        [&](std::size_t t, int s) {
          return static_cast<int>(
              (static_cast<std::uint16_t>(survivors[t * kNumStates + s]) >>
               l) &
              1u);
        },
        decoded_soa.data() + l, L);
  }
}

}  // namespace wlan::phy
