// Low-density parity-check code with belief-propagation decoding.
//
// The paper names LDPC as an 802.11n range-extending option. We build a
// pseudo-random regular-(wc) Gallager-style code (deterministic given a
// seed) with 802.11n-like block lengths (648/1296/1944) and rates, encoded
// via an RREF-derived dense parity map and decoded with normalized
// min-sum. This reproduces the *coding-gain* behaviour of the 11n codes
// without transcribing the standard's QC base matrices.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"

namespace wlan::phy {

class Workspace;

/// A binary LDPC code of length n with k information bits.
class LdpcCode {
 public:
  /// Constructs a regular column-weight-`column_weight` code. Deterministic
  /// for a given (n, k, seed). Throws ContractError on infeasible sizes.
  LdpcCode(std::size_t n, std::size_t k, std::uint64_t seed = 1,
           int column_weight = 3);

  std::size_t block_length() const { return n_; }
  std::size_t info_length() const { return k_; }
  double rate() const { return static_cast<double>(k_) / static_cast<double>(n_); }

  /// Systematically encodes k info bits into an n-bit codeword (info bits
  /// appear at the code's info positions; use the codeword as-is).
  Bits encode(std::span<const std::uint8_t> info) const;

  /// As encode, resizing `codeword` (allocation-free once warm).
  void encode_into(std::span<const std::uint8_t> info, Bits& codeword) const;

  /// Result of a decode attempt.
  struct DecodeResult {
    Bits info;           ///< recovered information bits
    bool parity_ok;      ///< all checks satisfied at exit
    int iterations;      ///< BP iterations used
  };

  /// Layered normalized min-sum decoding from channel LLRs (positive =
  /// bit 0). Check nodes update posteriors in place as each layer
  /// (check) is processed; a syndrome check after every iteration —
  /// and once on the raw channel decisions before the first — exits
  /// early the moment all parity checks are satisfied, so clean
  /// high-SNR blocks cost 0 iterations and typical working-point
  /// blocks far fewer than `max_iterations`.
  DecodeResult decode(std::span<const double> llrs, int max_iterations = 40,
                      double normalization = 0.8) const;

  /// As decode, leasing scratch (posterior, messages) from `ws` and
  /// reusing `result.info`'s capacity — allocation-free once warm. Uses
  /// the vectorized check-node update when the SIMD build is active;
  /// bitwise identical to the scalar path either way.
  void decode_into(std::span<const double> llrs, int max_iterations,
                   double normalization, DecodeResult& result,
                   Workspace& ws) const;

  /// Trial-batched layered decode over a lane-major LLR block
  /// (dsp/batch.h): llrs_soa[i * lanes + l] is variable i of lane l, so
  /// llrs_soa.size() == n * lanes, and results.size() == lanes (at most
  /// 16). Bitwise identical to decode_into on each lane: lanes run the
  /// check updates in lockstep, a lane's result is snapshotted the
  /// moment its own syndrome comes clean (its later in-lane evolution is
  /// dead state), and once at most two lanes remain active they are
  /// extracted and finished on the scalar reference kernel. Lane counts
  /// that are not a multiple of the SIMD width decode lane by lane on
  /// the scalar kernel; one lane decodes in place, with no copy.
  void decode_batch_into(std::span<const double> llrs_soa, std::size_t lanes,
                         int max_iterations, double normalization,
                         std::span<DecodeResult> results, Workspace& ws) const;

  /// Quantized batched decode: channel LLRs are scaled by `scale`,
  /// rounded, and clamped to ±127 (int8 range inside int16 lanes);
  /// messages and posteriors then run saturating int16 min-sum with the
  /// normalization factor applied as a Q15 rounding multiply. Identical
  /// integer semantics on the vector and scalar paths make the output
  /// deterministic across ISAs and lane counts, but it is NOT bitwise
  /// against the double path — callers gate it on PER deltas
  /// (bench_diff). `lanes` at most 16.
  void decode_batch_i16_into(std::span<const double> llrs_soa,
                             std::size_t lanes, int max_iterations,
                             double normalization, double scale,
                             std::span<DecodeResult> results,
                             Workspace& ws) const;

  /// True when the given full codeword satisfies every parity check
  /// (exposed for tests and property checks).
  bool satisfies_parity(std::span<const std::uint8_t> codeword) const;

 private:
  std::size_t n_;
  std::size_t k_;
  std::size_t m_;  // number of (independent) parity checks

  // Sparse structure in CSR form: check c touches variables
  // check_var_[check_offset_[c] .. check_offset_[c+1]). Flat arrays keep
  // the decoder's edge walk on two contiguous buffers instead of a
  // vector-of-vectors pointer chase.
  std::vector<std::uint32_t> check_offset_;  // m_ + 1 entries
  std::vector<std::uint32_t> check_var_;     // one entry per edge
  std::size_t max_check_degree_ = 0;

  // Encoding: parity bit order and dependence. parity_cols_[i] is the
  // column holding parity bit i; each parity bit is the XOR of the info
  // positions listed in parity_deps_[i] (indices into info_cols_).
  std::vector<std::uint32_t> info_cols_;
  std::vector<std::uint32_t> parity_cols_;
  std::vector<std::vector<std::uint32_t>> parity_deps_;

  // Word-packed transpose of parity_deps_ for the encoder hot path:
  // parity_masks_ holds, for each info index i, the m_-bit column of
  // parities depending on i, packed into parity_words_ 64-bit words.
  // XORing whole columns per set info bit computes the same GF(2) sums
  // as the row walk, bit for bit.
  std::size_t parity_words_ = 0;
  std::vector<std::uint64_t> parity_masks_;  // k_ * parity_words_ entries
};

}  // namespace wlan::phy
