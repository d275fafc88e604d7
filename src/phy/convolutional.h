// 802.11 convolutional code: K = 7, generators 133/171 (octal), with the
// standard puncturing patterns for rates 2/3, 3/4, and (802.11n) 5/6, and
// a soft-decision Viterbi decoder.
#pragma once

#include <cstdint>
#include <span>

#include "common/types.h"

namespace wlan::phy {

class Workspace;

/// Code rate after puncturing the mother rate-1/2 code.
enum class CodeRate { kR12, kR23, kR34, kR56 };

/// Numerator/denominator of a code rate.
double code_rate_value(CodeRate rate);

/// Encodes `bits` with the rate-1/2 K=7 code (no tail appended; callers
/// append 6 zero tail bits themselves, as 802.11 does). Output has
/// 2 * bits.size() coded bits, ordered A0 B0 A1 B1 ...
Bits convolutional_encode(std::span<const std::uint8_t> bits);

/// As convolutional_encode, resizing `out` (allocation-free once warm).
void convolutional_encode_into(std::span<const std::uint8_t> bits, Bits& out);

/// Applies the 802.11 puncturing pattern for `rate` to a rate-1/2 coded
/// sequence (A/B interleaved).
Bits puncture(std::span<const std::uint8_t> coded, CodeRate rate);

/// As puncture, resizing `out` (allocation-free once warm).
void puncture_into(std::span<const std::uint8_t> coded, CodeRate rate,
                   Bits& out);

/// Inserts zero-LLR erasures at punctured positions, restoring the
/// rate-1/2 lattice for the decoder. `n_info_bits` is the number of
/// information bits the sequence encodes (so output size is known).
RVec depuncture(std::span<const double> llrs, CodeRate rate,
                std::size_t n_info_bits);

/// As depuncture, resizing `out` (allocation-free once warm).
void depuncture_into(std::span<const double> llrs, CodeRate rate,
                     std::size_t n_info_bits, RVec& out);

/// Number of coded bits produced for n_info_bits at `rate`
/// (post-puncturing).
std::size_t coded_length(std::size_t n_info_bits, CodeRate rate);

/// Soft-decision Viterbi decoder for the rate-1/2 lattice.
///
/// `llrs` holds one LLR per coded bit (positive = bit 0 more likely),
/// length 2 * n_info_bits. When `terminated` is true the encoder is
/// assumed to have been driven back to state 0 by tail bits included in
/// the info sequence (the decoder then forces the final state).
Bits viterbi_decode(std::span<const double> llrs, bool terminated = true);

/// As viterbi_decode, leasing scratch (survivor masks) from `ws` and
/// resizing `decoded` — allocation-free once warm. When the SIMD build
/// is active the add-compare-select sweep runs a lane per butterfly:
/// predecessor metrics are split into even and odd states in registers,
/// the two metric buffers ping-pong, and every branch metric comes from
/// one sign table and its complement (both generators tap the input and
/// the oldest bit). Bitwise identical to the scalar path either way; the
/// scalar loop is the reference.
void viterbi_decode_into(std::span<const double> llrs, bool terminated,
                         Bits& decoded, Workspace& ws);

/// Convenience: hard-decision decode (bits -> ±1 LLRs).
Bits viterbi_decode_hard(std::span<const std::uint8_t> coded_bits,
                         bool terminated = true);

/// Lane-major batched depuncture (dsp/batch.h): lane_llrs[l] holds lane
/// l's post-puncture LLR stream (each exactly coded_length(n_info_bits,
/// rate) long); out_soa is resized to 2 * n_info_bits * lanes with
/// out_soa[i * lanes + l] = coded bit i of lane l and zero-LLR erasures
/// at punctured positions.
void depuncture_batch_into(std::span<const std::span<const double>> lane_llrs,
                           CodeRate rate, std::size_t n_info_bits,
                           RVec& out_soa);

/// Trial-batched soft Viterbi over a lane-major LLR block (dsp/batch.h):
/// llrs_soa[i * lanes + l] is coded bit i of lane l, so llrs_soa.size()
/// == 2 * n_steps * lanes, with `lanes` at most 16. decoded_soa is
/// resized to n_steps * lanes, lane-major: decoded_soa[t * lanes + l]
/// is decision t of lane l. Bitwise identical to running
/// viterbi_decode_into on each lane: the vector sweep engages when
/// `lanes` is a multiple of the SIMD width, and any other count
/// extracts each lane and runs the scalar kernel (one lane runs it in
/// place, with no copy).
void viterbi_decode_batch_into(std::span<const double> llrs_soa,
                               std::size_t lanes, bool terminated,
                               Bits& decoded_soa, Workspace& ws);

/// Quantized batched Viterbi: LLRs are scaled by `scale`, rounded to
/// nearest, and clamped to ±127 (int8 range inside int16 lanes) before
/// a saturating int16 add-compare-select sweep, renormalized every 64
/// steps by the per-lane running maximum. Identical integer semantics
/// on the vector and scalar paths make the output deterministic across
/// ISAs and lane counts, but it is NOT bitwise against the double path
/// — callers gate it on PER deltas (bench_diff), not equality. `lanes`
/// at most 16; the vector sweep engages when `lanes` is a multiple of
/// the int16 SIMD width.
void viterbi_decode_batch_i16_into(std::span<const double> llrs_soa,
                                   std::size_t lanes, bool terminated,
                                   double scale, Bits& decoded_soa,
                                   Workspace& ws);

}  // namespace wlan::phy
