// Portable double-precision SIMD layer for the PHY hot kernels.
//
// One vector type, `DVec`, wraps the widest ISA the build enables:
// AVX2 (4 lanes), SSE2 or NEON (2 lanes), or a scalar stand-in
// (1 lane). The instruction set is picked at COMPILE time (HOLTWLAN_SIMD
// plus the compiler's target macros); whether a kernel uses the vector
// path at all is picked at RUN time, once per kernel call ("plan
// level"), via `vector_enabled()` — so one binary can run and compare
// both paths, which is how the bitwise-equality tests and the
// scalar-vs-SIMD micro-benches work.
//
// Determinism contract: every operation here maps to one IEEE-754
// double operation per lane (add/sub/mul/div/min/max, sign flips via
// XOR, compares, blends) or is pure data movement (loads, `gather`,
// `deinterleave`). No arithmetic mixes lanes — no horizontal sums, no
// reassociation, no FMA (the build pins -ffp-contract=off) — so a
// vectorized kernel is bitwise identical to its scalar loop as long as
// it performs the same per-element arithmetic in any order. Kernels
// built on this layer are required to keep that property; the
// `test_simd` suite enforces it. The one exception to "float ops only"
// is `scale_pow2`, an exact integer add on the exponent bits, which the
// vector `exp_nonpositive` and its scalar reference share.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

#if defined(HOLTWLAN_SIMD) && defined(__AVX2__)
#define HOLTWLAN_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(HOLTWLAN_SIMD) && defined(__SSE2__)
#define HOLTWLAN_SIMD_SSE2 1
#include <emmintrin.h>
#elif defined(HOLTWLAN_SIMD) && defined(__ARM_NEON) && defined(__aarch64__)
#define HOLTWLAN_SIMD_NEON 1
#include <arm_neon.h>
#else
#define HOLTWLAN_SIMD_SCALAR 1
#endif

namespace wlan::dsp::simd {

/// The instruction set the binary was compiled for.
enum class Isa { kScalar, kSse2, kAvx2, kNeon };

constexpr Isa compiled_isa() {
#if defined(HOLTWLAN_SIMD_AVX2)
  return Isa::kAvx2;
#elif defined(HOLTWLAN_SIMD_SSE2)
  return Isa::kSse2;
#elif defined(HOLTWLAN_SIMD_NEON)
  return Isa::kNeon;
#else
  return Isa::kScalar;
#endif
}

const char* isa_name(Isa isa);

/// Run-time kernel dispatch: when false, every kernel takes its scalar
/// reference loop even in a SIMD build. Defaults to true when the build
/// has vector lanes. Plan-level granularity: kernels read this once per
/// call, never per element.
bool vector_enabled() noexcept;

/// Forces (or restores) the scalar reference path; used by the equality
/// tests and the micro-benches. Affects all threads.
void set_vector_enabled(bool enabled) noexcept;

/// y * 2^k, exact, where `t` holds k + 1.5 * 2^52: the register that
/// rounds k by the 1.5 * 2^52 shift, whose low mantissa bits are k in
/// two's complement. Shifting t's bits left by 52 leaves k << 52 (mod
/// 2^64), and adding that to y's bits adds k to y's biased exponent.
/// Exact as long as the result stays a normal number.
inline double scale_pow2(double y, double t) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(y) +
                               (std::bit_cast<std::uint64_t>(t) << 52));
}

// ---------------------------------------------------------------------------
// DVec: `width()` independent double lanes.
// ---------------------------------------------------------------------------

#if defined(HOLTWLAN_SIMD_AVX2)

struct DVec {
  __m256d v;
  static constexpr std::size_t width() { return 4; }

  static DVec load(const double* p) { return {_mm256_loadu_pd(p)}; }
  static DVec splat(double x) { return {_mm256_set1_pd(x)}; }
  void store(double* p) const { _mm256_storeu_pd(p, v); }

  friend DVec operator+(DVec a, DVec b) { return {_mm256_add_pd(a.v, b.v)}; }
  friend DVec operator-(DVec a, DVec b) { return {_mm256_sub_pd(a.v, b.v)}; }
  friend DVec operator*(DVec a, DVec b) { return {_mm256_mul_pd(a.v, b.v)}; }
  friend DVec operator/(DVec a, DVec b) { return {_mm256_div_pd(a.v, b.v)}; }
};

/// Lanewise (b < a) ? b : a — matches std::min(a, b) for non-NaN input.
inline DVec min_with(DVec a, DVec b) { return {_mm256_min_pd(b.v, a.v)}; }
/// Lanewise (a < b) ? b : a — matches std::max(a, b) for non-NaN input.
inline DVec max_with(DVec a, DVec b) { return {_mm256_max_pd(b.v, a.v)}; }
/// Lanewise |x| via sign-bit clear (exact).
inline DVec abs(DVec a) {
  return {_mm256_andnot_pd(_mm256_set1_pd(-0.0), a.v)};
}
/// Lanewise x with the sign bit flipped (exact negation).
inline DVec negate(DVec a) {
  return {_mm256_xor_pd(_mm256_set1_pd(-0.0), a.v)};
}
/// Lanewise (a > b) ? c : d, plus the mask bits of a > b.
inline DVec select_gt(DVec a, DVec b, DVec c, DVec d) {
  const __m256d m = _mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ);
  return {_mm256_blendv_pd(d.v, c.v, m)};
}
/// Bit i set iff lane i satisfies a > b (ordered, quiet).
inline unsigned mask_gt(DVec a, DVec b) {
  return static_cast<unsigned>(
      _mm256_movemask_pd(_mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ)));
}
/// Bit i set iff lane i satisfies a < b (ordered, quiet).
inline unsigned mask_lt(DVec a, DVec b) {
  return static_cast<unsigned>(
      _mm256_movemask_pd(_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ)));
}
/// Lanewise all-ones where a < b (ordered, quiet), else all-zeros: the
/// lane-mask form of `mask_lt`, consumed by `bit_xor` and `flip_sign`.
inline DVec cmp_lt(DVec a, DVec b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ)};
}
/// Lanewise bitwise XOR (no arithmetic).
inline DVec bit_xor(DVec a, DVec b) { return {_mm256_xor_pd(a.v, b.v)}; }
/// Lanewise x with its sign bit flipped where `mask` is all-ones: an exact
/// negation in those lanes, x unchanged elsewhere.
inline DVec flip_sign(DVec x, DVec mask) {
  return {_mm256_xor_pd(x.v, _mm256_and_pd(mask.v, _mm256_set1_pd(-0.0)))};
}
/// Splits the 2 * width() consecutive values a:b into their even- and
/// odd-indexed elements, each kept in order (pure data movement).
inline void deinterleave(DVec a, DVec b, DVec& even, DVec& odd) {
  // unpacklo gives (a0, b0, a2, b2); swapping the middle pair orders it.
  even = {_mm256_permute4x64_pd(_mm256_unpacklo_pd(a.v, b.v), 0xD8)};
  odd = {_mm256_permute4x64_pd(_mm256_unpackhi_pd(a.v, b.v), 0xD8)};
}
/// Lane w = base[idx[w]] — an exact elementwise load (no arithmetic).
/// The masked form with every lane enabled is the same instruction; it
/// spares GCC 12's unmasked intrinsic its uninitialized-source warning.
inline DVec gather(const double* base, const std::uint32_t* idx) {
  return {_mm256_mask_i32gather_pd(
      _mm256_setzero_pd(), base,
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx)),
      _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8)};
}
/// Lanewise y * 2^k where t = k + 1.5 * 2^52 (see `scale_pow2(double,
/// double)`): an integer add of k << 52 on the exponent bits.
inline DVec scale_pow2(DVec y, DVec t) {
  const __m256i k = _mm256_slli_epi64(_mm256_castpd_si256(t.v), 52);
  return {_mm256_castsi256_pd(_mm256_add_epi64(_mm256_castpd_si256(y.v), k))};
}

#elif defined(HOLTWLAN_SIMD_SSE2)

struct DVec {
  __m128d v;
  static constexpr std::size_t width() { return 2; }

  static DVec load(const double* p) { return {_mm_loadu_pd(p)}; }
  static DVec splat(double x) { return {_mm_set1_pd(x)}; }
  void store(double* p) const { _mm_storeu_pd(p, v); }

  friend DVec operator+(DVec a, DVec b) { return {_mm_add_pd(a.v, b.v)}; }
  friend DVec operator-(DVec a, DVec b) { return {_mm_sub_pd(a.v, b.v)}; }
  friend DVec operator*(DVec a, DVec b) { return {_mm_mul_pd(a.v, b.v)}; }
  friend DVec operator/(DVec a, DVec b) { return {_mm_div_pd(a.v, b.v)}; }
};

inline DVec min_with(DVec a, DVec b) { return {_mm_min_pd(b.v, a.v)}; }
inline DVec max_with(DVec a, DVec b) { return {_mm_max_pd(b.v, a.v)}; }
inline DVec abs(DVec a) {
  return {_mm_andnot_pd(_mm_set1_pd(-0.0), a.v)};
}
inline DVec negate(DVec a) {
  return {_mm_xor_pd(_mm_set1_pd(-0.0), a.v)};
}
inline DVec select_gt(DVec a, DVec b, DVec c, DVec d) {
  const __m128d m = _mm_cmpgt_pd(a.v, b.v);
  return {_mm_or_pd(_mm_and_pd(m, c.v), _mm_andnot_pd(m, d.v))};
}
inline unsigned mask_gt(DVec a, DVec b) {
  return static_cast<unsigned>(_mm_movemask_pd(_mm_cmpgt_pd(a.v, b.v)));
}
inline unsigned mask_lt(DVec a, DVec b) {
  return static_cast<unsigned>(_mm_movemask_pd(_mm_cmplt_pd(a.v, b.v)));
}
inline DVec cmp_lt(DVec a, DVec b) { return {_mm_cmplt_pd(a.v, b.v)}; }
inline DVec bit_xor(DVec a, DVec b) { return {_mm_xor_pd(a.v, b.v)}; }
inline DVec flip_sign(DVec x, DVec mask) {
  return {_mm_xor_pd(x.v, _mm_and_pd(mask.v, _mm_set1_pd(-0.0)))};
}
inline void deinterleave(DVec a, DVec b, DVec& even, DVec& odd) {
  even = {_mm_unpacklo_pd(a.v, b.v)};
  odd = {_mm_unpackhi_pd(a.v, b.v)};
}
inline DVec gather(const double* base, const std::uint32_t* idx) {
  return {_mm_set_pd(base[idx[1]], base[idx[0]])};
}
inline DVec scale_pow2(DVec y, DVec t) {
  const __m128i k = _mm_slli_epi64(_mm_castpd_si128(t.v), 52);
  return {_mm_castsi128_pd(_mm_add_epi64(_mm_castpd_si128(y.v), k))};
}

#elif defined(HOLTWLAN_SIMD_NEON)

struct DVec {
  float64x2_t v;
  static constexpr std::size_t width() { return 2; }

  static DVec load(const double* p) { return {vld1q_f64(p)}; }
  static DVec splat(double x) { return {vdupq_n_f64(x)}; }
  void store(double* p) const { vst1q_f64(p, v); }

  friend DVec operator+(DVec a, DVec b) { return {vaddq_f64(a.v, b.v)}; }
  friend DVec operator-(DVec a, DVec b) { return {vsubq_f64(a.v, b.v)}; }
  friend DVec operator*(DVec a, DVec b) { return {vmulq_f64(a.v, b.v)}; }
  friend DVec operator/(DVec a, DVec b) { return {vdivq_f64(a.v, b.v)}; }
};

inline DVec min_with(DVec a, DVec b) {
  // (b < a) ? b : a, matching std::min's tie/ordering semantics.
  const uint64x2_t m = vcltq_f64(b.v, a.v);
  return {vbslq_f64(m, b.v, a.v)};
}
inline DVec max_with(DVec a, DVec b) {
  const uint64x2_t m = vcltq_f64(a.v, b.v);
  return {vbslq_f64(m, b.v, a.v)};
}
inline DVec abs(DVec a) { return {vabsq_f64(a.v)}; }
inline DVec negate(DVec a) { return {vnegq_f64(a.v)}; }
inline DVec select_gt(DVec a, DVec b, DVec c, DVec d) {
  return {vbslq_f64(vcgtq_f64(a.v, b.v), c.v, d.v)};
}
inline unsigned mask_gt(DVec a, DVec b) {
  const uint64x2_t m = vcgtq_f64(a.v, b.v);
  return static_cast<unsigned>((vgetq_lane_u64(m, 0) & 1u) |
                               ((vgetq_lane_u64(m, 1) & 1u) << 1));
}
inline unsigned mask_lt(DVec a, DVec b) {
  const uint64x2_t m = vcltq_f64(a.v, b.v);
  return static_cast<unsigned>((vgetq_lane_u64(m, 0) & 1u) |
                               ((vgetq_lane_u64(m, 1) & 1u) << 1));
}
inline DVec cmp_lt(DVec a, DVec b) {
  return {vreinterpretq_f64_u64(vcltq_f64(a.v, b.v))};
}
inline DVec bit_xor(DVec a, DVec b) {
  return {vreinterpretq_f64_u64(
      veorq_u64(vreinterpretq_u64_f64(a.v), vreinterpretq_u64_f64(b.v)))};
}
inline DVec flip_sign(DVec x, DVec mask) {
  const uint64x2_t sign =
      vandq_u64(vreinterpretq_u64_f64(mask.v), vdupq_n_u64(1ull << 63));
  return {vreinterpretq_f64_u64(veorq_u64(vreinterpretq_u64_f64(x.v), sign))};
}
inline void deinterleave(DVec a, DVec b, DVec& even, DVec& odd) {
  even = {vuzp1q_f64(a.v, b.v)};
  odd = {vuzp2q_f64(a.v, b.v)};
}
inline DVec gather(const double* base, const std::uint32_t* idx) {
  float64x2_t r = vdupq_n_f64(base[idx[0]]);
  r = vsetq_lane_f64(base[idx[1]], r, 1);
  return {r};
}
inline DVec scale_pow2(DVec y, DVec t) {
  const int64x2_t k = vshlq_n_s64(vreinterpretq_s64_f64(t.v), 52);
  return {vreinterpretq_f64_s64(vaddq_s64(vreinterpretq_s64_f64(y.v), k))};
}

#else  // scalar stand-in

struct DVec {
  double v;
  static constexpr std::size_t width() { return 1; }

  static DVec load(const double* p) { return {*p}; }
  static DVec splat(double x) { return {x}; }
  void store(double* p) const { *p = v; }

  friend DVec operator+(DVec a, DVec b) { return {a.v + b.v}; }
  friend DVec operator-(DVec a, DVec b) { return {a.v - b.v}; }
  friend DVec operator*(DVec a, DVec b) { return {a.v * b.v}; }
  friend DVec operator/(DVec a, DVec b) { return {a.v / b.v}; }
};

inline DVec min_with(DVec a, DVec b) { return {b.v < a.v ? b.v : a.v}; }
inline DVec max_with(DVec a, DVec b) { return {a.v < b.v ? b.v : a.v}; }
inline DVec abs(DVec a) { return {a.v < 0.0 ? -a.v : a.v}; }
inline DVec negate(DVec a) { return {-a.v}; }
inline DVec select_gt(DVec a, DVec b, DVec c, DVec d) {
  return {a.v > b.v ? c.v : d.v};
}
inline unsigned mask_gt(DVec a, DVec b) { return a.v > b.v ? 1u : 0u; }
inline unsigned mask_lt(DVec a, DVec b) { return a.v < b.v ? 1u : 0u; }
inline DVec cmp_lt(DVec a, DVec b) {
  return {std::bit_cast<double>(a.v < b.v ? ~std::uint64_t{0}
                                          : std::uint64_t{0})};
}
inline DVec bit_xor(DVec a, DVec b) {
  return {std::bit_cast<double>(std::bit_cast<std::uint64_t>(a.v) ^
                                std::bit_cast<std::uint64_t>(b.v))};
}
inline DVec flip_sign(DVec x, DVec mask) {
  return {std::bit_cast<double>(
      std::bit_cast<std::uint64_t>(x.v) ^
      (std::bit_cast<std::uint64_t>(mask.v) & (std::uint64_t{1} << 63)))};
}
inline void deinterleave(DVec a, DVec b, DVec& even, DVec& odd) {
  even = a;
  odd = b;
}
inline DVec gather(const double* base, const std::uint32_t* idx) {
  return {base[idx[0]]};
}
inline DVec scale_pow2(DVec y, DVec t) { return {scale_pow2(y.v, t.v)}; }

#endif

inline constexpr std::size_t kWidth = DVec::width();

// ---------------------------------------------------------------------------
// exp on x <= 0: one per-lane IEEE sequence shared by both forms.
// ---------------------------------------------------------------------------

namespace exp_detail {

/// Below this argument the result flushes to +0. exp(-708) ~ 3.3e-308 is
/// still normal, so `scale_pow2` stays exact on the whole kept range.
inline constexpr double kMinArg = -708.0;
inline constexpr double kLog2e = 1.4426950408889634;
/// Cody-Waite split of ln 2: kLn2Hi has 32 significant bits, so k *
/// kLn2Hi is exact for every |k| <= 1022 and x - k * kLn2Hi is exact by
/// Sterbenz; kLn2Lo carries the rest.
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;
/// Adding 1.5 * 2^52 rounds a |v| < 2^51 to the nearest integer
/// (ties to even) and leaves that integer in the low mantissa bits.
inline constexpr double kShift = 6755399441055744.0;

/// Degree-13 Taylor coefficients 1/n!, highest first: on |r| <= ln2 / 2
/// the truncation error is below 5e-18, a fraction of an ulp of 1.
inline constexpr std::array<double, 14> kPoly = [] {
  std::array<double, 14> c{};
  double fact = 1.0;
  for (int n = 0; n < 14; ++n) {
    if (n > 0) fact *= n;
    c[13 - n] = 1.0 / fact;
  }
  return c;
}();

}  // namespace exp_detail

/// exp(x) for x <= 0, the scalar reference of the vector form below:
/// clamp, k = round(x / ln2) by the shift, r = x - k ln2 (Cody-Waite, hi
/// then lo), a Horner polynomial without FMA, then an exact scale by
/// 2^k. Within 1 ulp of std::exp on [-708, 0]. Inputs below -708 (and
/// -inf) flush to +0: callers that sum such terms with at least one
/// exact 1.0 (the EESM sweep's weakest tone) lose nothing, since the
/// dropped terms sit ~300 orders of magnitude below it. Positive and
/// NaN inputs are outside the contract.
inline double exp_nonpositive(double x) {
  using namespace exp_detail;
  const double xc = x < kMinArg ? kMinArg : x;
  const double t = xc * kLog2e + kShift;
  const double k = t - kShift;
  const double r = (xc - k * kLn2Hi) - k * kLn2Lo;
  double p = kPoly[0];
  for (std::size_t i = 1; i < kPoly.size(); ++i) p = p * r + kPoly[i];
  return kMinArg > x ? 0.0 : scale_pow2(p, t);
}

/// Lanewise `exp_nonpositive(double)`, bitwise equal to it per lane.
inline DVec exp_nonpositive(DVec x) {
  using namespace exp_detail;
  const DVec min_arg = DVec::splat(kMinArg);
  const DVec shift = DVec::splat(kShift);
  const DVec xc = max_with(x, min_arg);
  const DVec t = xc * DVec::splat(kLog2e) + shift;
  const DVec k = t - shift;
  const DVec r = (xc - k * DVec::splat(kLn2Hi)) - k * DVec::splat(kLn2Lo);
  DVec p = DVec::splat(kPoly[0]);
  for (std::size_t i = 1; i < kPoly.size(); ++i) {
    p = p * r + DVec::splat(kPoly[i]);
  }
  return select_gt(min_arg, x, DVec::splat(0.0), scale_pow2(p, t));
}

}  // namespace wlan::dsp::simd
