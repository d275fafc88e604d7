#include "phy/ldpc.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "dsp/batch.h"
#include "dsp/saturate.h"
#include "dsp/simd.h"
#include "dsp/simd_int.h"
#include "obs/perf.h"
#include "phy/workspace.h"

namespace wlan::phy {
namespace {

// Dense GF(2) row as 64-bit words.
using Row = std::vector<std::uint64_t>;

bool get_bit(const Row& row, std::size_t c) {
  return (row[c / 64] >> (c % 64)) & 1u;
}

void set_bit(Row& row, std::size_t c) { row[c / 64] |= std::uint64_t{1} << (c % 64); }

void xor_rows(Row& dst, const Row& src) {
  for (std::size_t w = 0; w < dst.size(); ++w) dst[w] ^= src[w];
}

}  // namespace

LdpcCode::LdpcCode(std::size_t n, std::size_t k, std::uint64_t seed,
                   int column_weight)
    : n_(n), k_(k), m_(n - k) {
  check(n > k && k > 0, "LdpcCode requires 0 < k < n");
  check(column_weight >= 2 && static_cast<std::size_t>(column_weight) <= m_,
        "LdpcCode column weight infeasible");

  // Retry construction with successive seeds until the parity matrix has
  // full row rank (virtually always the first try for wc >= 3).
  for (std::uint64_t attempt = 0;; ++attempt) {
    Rng rng(seed + attempt * 0x9E37u);
    // --- Random regular construction, balancing check degrees and
    // avoiding 4-cycles (two variables sharing two checks) where possible.
    std::vector<std::vector<std::uint32_t>> var_checks(n);
    std::vector<std::uint32_t> degree(m_, 0);
    std::unordered_set<std::uint64_t> used_pairs;
    auto pair_key = [this](std::uint32_t a, std::uint32_t b) {
      if (a > b) std::swap(a, b);
      return static_cast<std::uint64_t>(a) * m_ + b;
    };
    for (std::size_t v = 0; v < n; ++v) {
      for (int e = 0; e < column_weight; ++e) {
        auto creates_4cycle = [&](std::uint32_t c) {
          for (const std::uint32_t prev : var_checks[v]) {
            if (used_pairs.contains(pair_key(c, prev))) return true;
          }
          return false;
        };
        // Two passes: first restrict to checks that keep girth > 4, then
        // relax if that leaves no candidate.
        std::vector<std::uint32_t> candidates;
        for (const bool avoid_cycles : {true, false}) {
          std::uint32_t best_deg = 0xFFFFFFFFu;
          for (std::size_t c = 0; c < m_; ++c) {
            const auto cc = static_cast<std::uint32_t>(c);
            if (std::find(var_checks[v].begin(), var_checks[v].end(), cc) !=
                var_checks[v].end()) {
              continue;
            }
            if (avoid_cycles && creates_4cycle(cc)) continue;
            if (degree[c] < best_deg) {
              best_deg = degree[c];
              candidates.clear();
            }
            if (degree[c] == best_deg) candidates.push_back(cc);
          }
          if (!candidates.empty()) break;
        }
        const std::uint32_t c = candidates[rng.uniform_int(candidates.size())];
        var_checks[v].push_back(c);
        ++degree[c];
      }
      for (std::size_t i = 0; i < var_checks[v].size(); ++i) {
        for (std::size_t j = i + 1; j < var_checks[v].size(); ++j) {
          used_pairs.insert(pair_key(var_checks[v][i], var_checks[v][j]));
        }
      }
    }

    // --- Dense copy for rank check / RREF. ---
    const std::size_t words = (n + 63) / 64;
    std::vector<Row> h(m_, Row(words, 0));
    for (std::size_t v = 0; v < n; ++v) {
      for (const std::uint32_t c : var_checks[v]) set_bit(h[c], v);
    }

    // RREF with pivot tracking.
    std::vector<std::int64_t> pivot_col_of_row(m_, -1);
    std::vector<bool> is_pivot_col(n, false);
    std::size_t row = 0;
    for (std::size_t col = 0; col < n && row < m_; ++col) {
      std::size_t sel = row;
      while (sel < m_ && !get_bit(h[sel], col)) ++sel;
      if (sel == m_) continue;
      std::swap(h[sel], h[row]);
      for (std::size_t r = 0; r < m_; ++r) {
        if (r != row && get_bit(h[r], col)) xor_rows(h[r], h[row]);
      }
      pivot_col_of_row[row] = static_cast<std::int64_t>(col);
      is_pivot_col[col] = true;
      ++row;
    }
    if (row < m_) continue;  // rank deficient; retry with a new seed

    // --- Extract encoder structure from the RREF. ---
    info_cols_.clear();
    parity_cols_.clear();
    parity_deps_.assign(m_, {});
    std::vector<std::uint32_t> info_index_of_col(n, 0xFFFFFFFFu);
    for (std::size_t c = 0; c < n; ++c) {
      if (!is_pivot_col[c]) {
        info_index_of_col[c] = static_cast<std::uint32_t>(info_cols_.size());
        info_cols_.push_back(static_cast<std::uint32_t>(c));
      }
    }
    check(info_cols_.size() == k_, "LdpcCode internal: info position count");
    for (std::size_t r = 0; r < m_; ++r) {
      parity_cols_.push_back(static_cast<std::uint32_t>(pivot_col_of_row[r]));
      for (std::size_t c = 0; c < n; ++c) {
        if (!is_pivot_col[c] && get_bit(h[r], c)) {
          parity_deps_[r].push_back(info_index_of_col[c]);
        }
      }
    }
    // Transpose the (RREF-dense) dependency rows into word-packed parity
    // columns so the encoder can XOR 64 parities at a time.
    parity_words_ = (m_ + 63) / 64;
    parity_masks_.assign(k_ * parity_words_, 0);
    for (std::size_t r = 0; r < m_; ++r) {
      for (const std::uint32_t i : parity_deps_[r]) {
        parity_masks_[i * parity_words_ + r / 64] |= std::uint64_t{1}
                                                     << (r % 64);
      }
    }

    // --- Decoder adjacency (original sparse H, not the RREF), CSR. ---
    std::vector<std::uint32_t> check_degree(m_, 0);
    for (std::size_t v = 0; v < n; ++v) {
      for (const std::uint32_t c : var_checks[v]) ++check_degree[c];
    }
    check_offset_.assign(m_ + 1, 0);
    for (std::size_t c = 0; c < m_; ++c) {
      check_offset_[c + 1] = check_offset_[c] + check_degree[c];
      max_check_degree_ =
          std::max<std::size_t>(max_check_degree_, check_degree[c]);
    }
    check_var_.assign(check_offset_[m_], 0);
    std::vector<std::uint32_t> fill(check_offset_.begin(),
                                    check_offset_.end() - 1);
    for (std::size_t v = 0; v < n; ++v) {
      for (const std::uint32_t c : var_checks[v]) {
        check_var_[fill[c]++] = static_cast<std::uint32_t>(v);
      }
    }
    return;
  }
}

void LdpcCode::encode_into(std::span<const std::uint8_t> info,
                           Bits& codeword) const {
  check(info.size() == k_, "LdpcCode::encode info length mismatch");
  codeword.assign(n_, 0);
  // Accumulate all parity bits as packed words — one column XOR per set
  // info bit — then scatter. GF(2) sums are exact either way, so this
  // matches the per-row XOR walk bit for bit.
  std::uint64_t acc[32];  // m_ <= 2048 for every supported block length
  check(parity_words_ <= 32, "LdpcCode::encode parity accumulator too small");
  for (std::size_t w = 0; w < parity_words_; ++w) acc[w] = 0;
  for (std::size_t i = 0; i < k_; ++i) {
    codeword[info_cols_[i]] = info[i] & 1u;
    if (info[i] & 1u) {
      const std::uint64_t* col = &parity_masks_[i * parity_words_];
      for (std::size_t w = 0; w < parity_words_; ++w) acc[w] ^= col[w];
    }
  }
  for (std::size_t r = 0; r < m_; ++r) {
    codeword[parity_cols_[r]] =
        static_cast<std::uint8_t>((acc[r / 64] >> (r % 64)) & 1u);
  }
}

Bits LdpcCode::encode(std::span<const std::uint8_t> info) const {
  Bits codeword;
  encode_into(info, codeword);
  return codeword;
}

bool LdpcCode::satisfies_parity(std::span<const std::uint8_t> codeword) const {
  check(codeword.size() == n_, "satisfies_parity length mismatch");
  for (std::size_t c = 0; c < m_; ++c) {
    std::uint8_t p = 0;
    for (std::uint32_t e = check_offset_[c]; e < check_offset_[c + 1]; ++e) {
      p ^= codeword[check_var_[e]] & 1u;
    }
    if (p) return false;
  }
  return true;
}

namespace {

// Syndrome over posterior signs, straight off the CSR arrays; bails on
// the first unsatisfied check (no hard-decision buffer materialized).
bool syndrome_clean(const double* posterior,
                    const std::vector<std::uint32_t>& offset,
                    const std::vector<std::uint32_t>& var, std::size_t m) {
  for (std::size_t c = 0; c < m; ++c) {
    unsigned p = 0;
    for (std::uint32_t e = offset[c]; e < offset[c + 1]; ++e) {
      p ^= posterior[var[e]] < 0.0 ? 1u : 0u;
    }
    if (p) return false;
  }
  return true;
}

// One layered min-sum check update on contiguous single-trial state:
// the branch-free scalar reference. The two-minimum recurrence and the
// sign handling are data-dependent coin flips, so they are written as
// exact selections (min/max/cmov, sign-bit XOR for the ±1 multiply)
// instead of branches. Every transformation picks between the same IEEE
// values the branching form would compute — bitwise identical, and what
// the vector paths (single-trial and batched) are held to. The batch
// drain finishes a lane on exactly this code.
void scalar_check_update(const std::uint32_t* var, std::uint32_t e0,
                         std::uint32_t e1, double normalization,
                         double* posterior, double* c2v, double* v2c) {
  double min1 = 1e300;
  double min2 = 1e300;
  std::uint32_t min_pos = 0;
  int sign_product = 1;
  unsigned neg = 0;
  for (std::uint32_t e = e0; e < e1; ++e) {
    const double msg = posterior[var[e]] - c2v[e];
    v2c[e - e0] = msg;
    const double mag = std::abs(msg);
    const bool below = mag < min1;
    const double runner_up = below ? min1 : mag;
    min_pos = below ? e : min_pos;
    min1 = below ? mag : min1;
    min2 = runner_up < min2 ? runner_up : min2;
    neg += static_cast<unsigned>(msg < 0.0);
  }
  if (neg & 1u) sign_product = -1;
  const double a1 = min1 * normalization;
  const double a2 = min2 * normalization;
  const std::uint64_t product_bit =
      sign_product < 0 ? 0x8000000000000000ull : 0ull;
  for (std::uint32_t e = e0; e < e1; ++e) {
    const double mag = e == min_pos ? a2 : a1;
    const double old = v2c[e - e0];
    const std::uint64_t flip =
        (old < 0.0 ? 0x8000000000000000ull : 0ull) ^ product_bit;
    const double new_msg =
        std::bit_cast<double>(std::bit_cast<std::uint64_t>(mag) ^ flip);
    posterior[var[e]] = old + new_msg;
    c2v[e] = new_msg;
  }
}

}  // namespace

void LdpcCode::decode_into(std::span<const double> llrs, int max_iterations,
                           double normalization, DecodeResult& result,
                           Workspace& ws) const {
  const obs::perf::ScopedSpan span("ldpc_decode");
  check(llrs.size() == n_, "LdpcCode::decode LLR length mismatch");

  // Edge-indexed layered min-sum on the flat CSR structure: c2v[e] is
  // the check-to-variable message for edge e (same indexing as
  // check_var_), and posteriors are updated in place as each check
  // (layer) is processed, so later layers in the same iteration see
  // already-refined beliefs.
  auto posterior_lease = ws.rvec(n_);
  RVec& posterior = *posterior_lease;
  for (std::size_t i = 0; i < n_; ++i) posterior[i] = llrs[i];
  int iter = 0;
  bool ok = false;
  if (syndrome_clean(posterior.data(), check_offset_, check_var_, m_)) {
    // Channel decisions already form a codeword — 0-iteration exit
    // (the common case well above the waterfall).
    ok = true;
  } else {
    auto c2v_lease = ws.rvec(check_var_.size());
    auto v2c_lease = ws.rvec(max_check_degree_);
    auto lane_lease = ws.rvec(dsp::simd::kWidth);
    RVec& c2v = *c2v_lease;
    RVec& v2c = *v2c_lease;
    double* lane = lane_lease->data();
    for (auto& m : c2v) m = 0.0;
    // Plan-level dispatch: lanes pay off only when a check row fills
    // them a few times over. Low-rate codes (degree ~6) stay on the
    // branch-free scalar loop, which beats a 4-lane gather there; the
    // wide rows of high-rate codes (degree ≥ 2 widths) go vector.
    // Either path is bitwise identical, so the cutover is pure policy.
    const bool use_vec = dsp::simd::vector_enabled() &&
                         max_check_degree_ >= 2 * dsp::simd::kWidth;
    for (iter = 0; iter < max_iterations; ++iter) {
      for (std::size_t c = 0; c < m_; ++c) {
        const std::uint32_t e0 = check_offset_[c];
        const std::uint32_t e1 = check_offset_[c + 1];
        if (!use_vec) {
          scalar_check_update(check_var_.data(), e0, e1, normalization,
                              posterior.data(), c2v.data(), v2c.data());
          continue;
        }
        const std::uint32_t deg = e1 - e0;
        double min1 = 1e300;
        double min2 = 1e300;
        std::uint32_t min_pos = 0;
        int sign_product = 1;
        {
          using dsp::simd::DVec;
          constexpr std::uint32_t W =
              static_cast<std::uint32_t>(dsp::simd::kWidth);
          // Message sweep, a lane per edge. The subtraction and < 0 test
          // are the scalar ops lanewise, so v2c holds bitwise-identical
          // values. Sign parity accumulates as an XOR of lane masks (XOR
          // preserves popcount parity), costing one popcount per check
          // instead of one per block.
          unsigned sign_mask = 0;
          std::uint32_t e = e0;
          for (; e + W <= e1; e += W) {
            const DVec msg = dsp::simd::gather(posterior.data(),
                                               &check_var_[e]) -
                             DVec::load(&c2v[e]);
            msg.store(&v2c[e - e0]);
            sign_mask ^= dsp::simd::mask_lt(msg, DVec::splat(0.0));
          }
          unsigned neg = static_cast<unsigned>(std::popcount(sign_mask));
          for (; e < e1; ++e) {
            const double msg = posterior[check_var_[e]] - c2v[e];
            v2c[e - e0] = msg;
            if (msg < 0.0) ++neg;
          }
          if (neg & 1u) sign_product = -1;
          // The running two-minimum scan is a serial recurrence; walk the
          // messages in the scalar edge order (branch-free, same
          // selections as the reference loop) so min_pos ties resolve
          // identically. |v2c[i]| reproduces the magnitude bit for bit.
          for (std::uint32_t i = 0; i < deg; ++i) {
            const double mag = std::abs(v2c[i]);
            const bool below = mag < min1;
            const double runner_up = below ? min1 : mag;
            min_pos = below ? e0 + i : min_pos;
            min1 = below ? mag : min1;
            min2 = runner_up < min2 ? runner_up : min2;
          }
          // Writeback: every edge gets ±min1*norm (a splat), and the one
          // minimum edge is patched to ±min2*norm afterwards — its
          // posterior is recomputed as old + msg from scratch, not
          // incrementally, so the patch stays exact.
          const double a1 = min1 * normalization;
          const double a2 = min2 * normalization;
          const DVec t1 = DVec::splat(sign_product < 0 ? -a1 : a1);
          const DVec zero = DVec::splat(0.0);
          e = e0;
          for (; e + W <= e1; e += W) {
            const DVec old = DVec::load(&v2c[e - e0]);
            const DVec new_msg =
                dsp::simd::select_gt(zero, old, dsp::simd::negate(t1), t1);
            new_msg.store(&c2v[e]);
            (old + new_msg).store(lane);
            for (std::uint32_t w = 0; w < W; ++w) {
              posterior[check_var_[e + w]] = lane[w];
            }
          }
          for (; e < e1; ++e) {
            const double old = v2c[e - e0];
            const int sign = old < 0.0 ? -sign_product : sign_product;
            const double new_msg = sign * a1;
            posterior[check_var_[e]] = old + new_msg;
            c2v[e] = new_msg;
          }
          {
            const double old = v2c[min_pos - e0];
            const int sign = old < 0.0 ? -sign_product : sign_product;
            const double new_msg = sign * a2;
            posterior[check_var_[min_pos]] = old + new_msg;
            c2v[min_pos] = new_msg;
          }
        }
      }
      if (syndrome_clean(posterior.data(), check_offset_, check_var_, m_)) {
        ok = true;
        ++iter;
        break;
      }
    }
  }

  result.parity_ok = ok;
  result.iterations = iter;
  result.info.resize(k_);
  for (std::size_t i = 0; i < k_; ++i) {
    result.info[i] = posterior[info_cols_[i]] < 0.0 ? 1 : 0;
  }
}

LdpcCode::DecodeResult LdpcCode::decode(std::span<const double> llrs,
                                        int max_iterations,
                                        double normalization) const {
  DecodeResult result;
  decode_into(llrs, max_iterations, normalization, result, tls_workspace());
  return result;
}

namespace {

// One layered min-sum check update on G adjacent strips of W lanes
// (lanes w0 .. w0 + G*W) of a lane-major batch: post[v * L + l] is
// variable v of lane l, c2v[e * L + l] edge e's check message, and v2c
// holds the check's variable messages. The strips are independent, so
// interleaving them inside the edge loop overlaps G dependency chains.
// Per lane this is scalar_check_update's arithmetic with each
// selection written as an exact vector op:
//   - mag < min1 ? mag : min1 is min_with(min1, mag); the runner-up
//     mag < min1 ? min1 : mag is max_with(mag, min1); and
//     runner < min2 ? runner : min2 is min_with(min2, runner);
//   - the sign product is the XOR of the msg < 0 lane masks, applied to
//     the magnitude's sign bit (an exact negation, as in the reference);
//   - the minimum edge is recognized by |msg| == min1 instead of
//     min_pos: a tie makes min2 == min1, so a2 == a1 and the selected
//     value still matches the reference.
template <std::size_t G>
void check_update_strips(const std::uint32_t* var, std::uint32_t e0,
                         std::uint32_t deg, std::size_t L, std::size_t w0,
                         dsp::simd::DVec normv, double* post, double* c2v,
                         double* v2c) {
  using dsp::simd::DVec;
  constexpr std::size_t W = dsp::simd::kWidth;
  const auto strips = [](auto&& body) {
    [&]<std::size_t... g>(std::index_sequence<g...>) {
      (body(g), ...);
    }(std::make_index_sequence<G>{});
  };
  const DVec zero = DVec::splat(0.0);
  std::array<DVec, G> min1;
  std::array<DVec, G> min2;
  std::array<DVec, G> neg;
  strips([&](std::size_t g) {
    min1[g] = DVec::splat(1e300);
    min2[g] = min1[g];
    neg[g] = zero;
  });
  for (std::uint32_t i = 0; i < deg; ++i) {
    const double* pv = post + var[e0 + i] * L + w0;
    const double* cv = c2v + (e0 + i) * L + w0;
    double* mv = v2c + i * L + w0;
    strips([&](std::size_t g) {
      const DVec msg = DVec::load(pv + g * W) - DVec::load(cv + g * W);
      msg.store(mv + g * W);
      const DVec mag = dsp::simd::abs(msg);
      min2[g] = dsp::simd::min_with(min2[g],
                                    dsp::simd::max_with(mag, min1[g]));
      min1[g] = dsp::simd::min_with(min1[g], mag);
      neg[g] = dsp::simd::bit_xor(neg[g], dsp::simd::cmp_lt(msg, zero));
    });
  }
  std::array<DVec, G> a1;
  std::array<DVec, G> a2;
  strips([&](std::size_t g) {
    a1[g] = min1[g] * normv;
    a2[g] = min2[g] * normv;
  });
  for (std::uint32_t i = 0; i < deg; ++i) {
    double* pv = post + var[e0 + i] * L + w0;
    double* cv = c2v + (e0 + i) * L + w0;
    const double* mv = v2c + i * L + w0;
    strips([&](std::size_t g) {
      const DVec old = DVec::load(mv + g * W);
      // abs(old) reproduces the first pass's magnitude bit for bit.
      const DVec base =
          dsp::simd::select_gt(dsp::simd::abs(old), min1[g], a1[g], a2[g]);
      const DVec new_msg = dsp::simd::flip_sign(
          base, dsp::simd::bit_xor(dsp::simd::cmp_lt(old, zero), neg[g]));
      new_msg.store(cv + g * W);
      (old + new_msg).store(pv + g * W);
    });
  }
}

}  // namespace

void LdpcCode::decode_batch_into(
    std::span<const std::span<const double>> codewords, std::size_t lanes,
    int max_iterations, double normalization, std::span<DecodeResult> results,
    Workspace& ws) const {
  check(lanes > 0 && lanes <= 16 && results.size() == codewords.size(),
        "decode_batch requires 1..16 lanes with one result per codeword");
  for (const std::span<const double> cw : codewords) {
    check(cw.size() == n_, "decode_batch LLR length mismatch");
  }
  constexpr std::size_t W = dsp::simd::kWidth;
  if (lanes == 1 || !dsp::simd::vector_enabled() ||
      !dsp::batch::vectorizable(lanes, W)) {
    // One slot, remainder lane counts and scalar builds: the reference
    // kernel per codeword, straight off its contiguous span.
    for (std::size_t q = 0; q < codewords.size(); ++q) {
      decode_into(codewords[q], max_iterations, normalization, results[q], ws);
    }
    return;
  }

  const obs::perf::ScopedSpan span("ldpc_batch");
  using dsp::simd::DVec;
  const std::size_t L = lanes;
  const std::size_t edges = check_var_.size();
  const std::size_t n_cw = codewords.size();

  auto post_lease = ws.rvec(n_ * L);
  auto c2v_lease = ws.rvec(edges * L);
  auto v2c_lease = ws.rvec(max_check_degree_ * L);
  double* post = post_lease->data();
  double* c2v = c2v_lease->data();
  double* v2c = v2c_lease->data();
  // Slots that never load a codeword run on zeros: cheap, finite state.
  std::fill(post, post + n_ * L, 0.0);
  std::fill(c2v, c2v + edges * L, 0.0);

  // Per-slot syndrome over the lane-major posterior; bails on the first
  // unsatisfied check, like the contiguous helper.
  const auto lane_clean = [&](std::size_t l) {
    for (std::size_t c = 0; c < m_; ++c) {
      unsigned par = 0;
      for (std::uint32_t e = check_offset_[c]; e < check_offset_[c + 1]; ++e) {
        par ^= post[check_var_[e] * L + l] < 0.0 ? 1u : 0u;
      }
      if (par) return false;
    }
    return true;
  };
  const auto write_result = [&](DecodeResult& r, const double* p,
                                std::size_t stride, int iterations, bool ok) {
    r.parity_ok = ok;
    r.iterations = iterations;
    r.info.resize(k_);
    for (std::size_t i = 0; i < k_; ++i) {
      r.info[i] = p[info_cols_[i] * stride] < 0.0 ? 1 : 0;
    }
  };

  // The codeword queue. A slot holds one codeword from load until its
  // syndrome comes clean or it reaches max_iterations; then it writes
  // that codeword's result and loads the next, at iteration 0 with its
  // messages zeroed — exactly decode_into's starting state, so each
  // codeword's arithmetic is decode_into's whatever else shares the
  // batch. A codeword whose channel decisions already form a codeword
  // exits at 0 iterations without ever entering a slot.
  constexpr std::size_t kIdle = static_cast<std::size_t>(-1);
  std::array<std::size_t, 16> slot_cw{};
  std::array<int, 16> slot_iter{};
  std::size_t next = 0;
  const auto refill = [&](std::size_t l) {
    while (next < n_cw) {
      const std::size_t q = next++;
      const double* llrs = codewords[q].data();
      const bool clean = syndrome_clean(llrs, check_offset_, check_var_, m_);
      if (clean || max_iterations <= 0) {
        write_result(results[q], llrs, 1, 0, clean);
        continue;
      }
      dsp::batch::scatter_lane(codewords[q], l, L, post);
      for (std::size_t e = 0; e < edges; ++e) c2v[e * L + l] = 0.0;
      slot_cw[l] = q;
      slot_iter[l] = 0;
      return true;
    }
    slot_cw[l] = kIdle;
    return false;
  };
  std::size_t active = 0;
  for (std::size_t l = 0; l < L; ++l) active += refill(l) ? 1 : 0;

  // Drain scratch: one slot's contiguous posterior + messages, finished
  // on the scalar reference kernel from bitwise-identical state.
  auto dpost_lease = ws.rvec(n_);
  auto dc2v_lease = ws.rvec(edges);
  auto dv2c_lease = ws.rvec(max_check_degree_);
  const auto drain_slot = [&](std::size_t l) {
    double* dpost = dpost_lease->data();
    double* dc2v = dc2v_lease->data();
    dsp::batch::gather_lane(post, l, L, std::span<double>(*dpost_lease));
    dsp::batch::gather_lane(c2v, l, L, std::span<double>(*dc2v_lease));
    int iter = slot_iter[l];
    bool ok = false;
    for (; iter < max_iterations; ++iter) {
      for (std::size_t c = 0; c < m_; ++c) {
        scalar_check_update(check_var_.data(), check_offset_[c],
                            check_offset_[c + 1], normalization, dpost, dc2v,
                            dv2c_lease->data());
      }
      if (syndrome_clean(dpost, check_offset_, check_var_, m_)) {
        ok = true;
        ++iter;
        break;
      }
    }
    write_result(results[slot_cw[l]], dpost, 1, iter, ok);
  };

  const DVec normv = DVec::splat(normalization);
  const std::size_t strips = L / W;
  // Once the queue is empty and at most this many slots still decode,
  // vector iterations mostly push dead state around — drain them.
  constexpr std::size_t kDrainAt = 2;
  while (active > 0) {
    if (next == n_cw && active <= kDrainAt) {
      for (std::size_t l = 0; l < L; ++l) {
        if (slot_cw[l] != kIdle) drain_slot(l);
      }
      return;
    }
    for (std::size_t c = 0; c < m_; ++c) {
      const std::uint32_t e0 = check_offset_[c];
      const std::uint32_t deg = check_offset_[c + 1] - e0;
      // Strips go through the update four at a time.
      for (std::size_t s = 0; s < strips; s += 4) {
        const std::uint32_t* var = check_var_.data();
        const std::size_t w0 = s * W;
        switch (std::min<std::size_t>(strips - s, 4)) {
          case 1:
            check_update_strips<1>(var, e0, deg, L, w0, normv, post, c2v, v2c);
            break;
          case 2:
            check_update_strips<2>(var, e0, deg, L, w0, normv, post, c2v, v2c);
            break;
          case 3:
            check_update_strips<3>(var, e0, deg, L, w0, normv, post, c2v, v2c);
            break;
          default:
            check_update_strips<4>(var, e0, deg, L, w0, normv, post, c2v, v2c);
            break;
        }
      }
    }
    for (std::size_t l = 0; l < L; ++l) {
      if (slot_cw[l] == kIdle) continue;
      const int iterations = ++slot_iter[l];
      const bool ok = lane_clean(l);
      if (!ok && iterations < max_iterations) continue;
      write_result(results[slot_cw[l]], post + l, L, iterations, ok);
      if (!refill(l)) --active;
    }
  }
}

void LdpcCode::decode_batch_i16_into(std::span<const double> llrs_soa,
                                     std::size_t lanes, int max_iterations,
                                     double normalization, double scale,
                                     std::span<DecodeResult> results,
                                     Workspace& ws) const {
  const obs::perf::ScopedSpan span("ldpc_i16");
  check(lanes > 0 && lanes <= 16 && results.size() == lanes,
        "decode_batch_i16 requires 1..16 lanes with one result per lane");
  check(llrs_soa.size() == n_ * lanes, "decode_batch_i16 LLR length mismatch");
  using dsp::simd::I16Vec;
  constexpr std::size_t VW = dsp::simd::kI16Width;
  const std::size_t L = lanes;
  const std::size_t edges = check_var_.size();
  const std::int16_t norm_q = dsp::sat_i16(
      static_cast<std::int32_t>(std::lround(normalization * 32768.0)));

  auto post_lease = ws.i16vec(n_ * L);
  std::int16_t* post = post_lease->data();
  for (std::size_t i = 0; i < llrs_soa.size(); ++i) {
    post[i] = dsp::quantize_llr_i16(llrs_soa[i], scale, 127);
  }

  const auto lane_clean = [&](std::size_t l) {
    for (std::size_t c = 0; c < m_; ++c) {
      unsigned par = 0;
      for (std::uint32_t e = check_offset_[c]; e < check_offset_[c + 1]; ++e) {
        par ^= post[check_var_[e] * L + l] < 0 ? 1u : 0u;
      }
      if (par) return false;
    }
    return true;
  };

  std::array<bool, 16> done{};
  const auto snapshot = [&](std::size_t l, int iterations, bool ok) {
    DecodeResult& r = results[l];
    r.parity_ok = ok;
    r.iterations = iterations;
    r.info.resize(k_);
    for (std::size_t i = 0; i < k_; ++i) {
      r.info[i] = post[info_cols_[i] * L + l] < 0 ? 1 : 0;
    }
    done[l] = true;
  };

  std::size_t active = 0;
  for (std::size_t l = 0; l < L; ++l) {
    if (lane_clean(l)) snapshot(l, 0, true); else ++active;
  }
  if (active == 0) return;

  auto c2v_lease = ws.i16vec(edges * L);
  auto v2c_lease = ws.i16vec(max_check_degree_ * L);
  auto mag_lease = ws.i16vec(max_check_degree_ * L);
  std::int16_t* c2v = c2v_lease->data();
  std::int16_t* v2c = v2c_lease->data();
  std::int16_t* magb = mag_lease->data();
  std::fill(c2v, c2v + edges * L, std::int16_t{0});

  const bool use_vec = dsp::simd::vector_enabled() &&
                       dsp::batch::vectorizable(L, VW) && VW > 1;
  const I16Vec zero16 = I16Vec::splat(0);
  const I16Vec normq_v = I16Vec::splat(norm_q);

  for (int it = 0; it < max_iterations && active > 0; ++it) {
    for (std::size_t c = 0; c < m_; ++c) {
      const std::uint32_t e0 = check_offset_[c];
      const std::uint32_t deg = check_offset_[c + 1] - e0;
      if (use_vec) {
        for (std::size_t w = 0; w < L; w += VW) {
          I16Vec min1 = I16Vec::splat(32767);
          I16Vec min2 = min1;
          I16Vec par = zero16;  // all-ones lanes = odd negative count
          for (std::uint32_t i = 0; i < deg; ++i) {
            const std::size_t v = check_var_[e0 + i];
            const I16Vec msg =
                sat_sub(I16Vec::load(&post[v * L + w]),
                        I16Vec::load(&c2v[(e0 + i) * L + w]));
            msg.store(&v2c[i * L + w]);
            const I16Vec mag = sat_abs(msg);
            mag.store(&magb[i * L + w]);
            const I16Vec gt = cmp_gt(min1, mag);
            const I16Vec runner = blend(gt, min1, mag);
            min1 = blend(gt, mag, min1);
            min2 = blend(cmp_gt(min2, runner), runner, min2);
            par = bit_xor(par, cmp_gt(zero16, msg));
          }
          const I16Vec a1 = mulhrs(min1, normq_v);
          const I16Vec a2 = mulhrs(min2, normq_v);
          for (std::uint32_t i = 0; i < deg; ++i) {
            const std::size_t v = check_var_[e0 + i];
            const I16Vec old = I16Vec::load(&v2c[i * L + w]);
            const I16Vec mag = I16Vec::load(&magb[i * L + w]);
            const I16Vec base = blend(cmp_gt(mag, min1), a1, a2);
            // Negate-by-mask (a ^ m) - m: base is in [0, 32767], so the
            // subtraction cannot saturate and this is an exact ±base.
            const I16Vec m = bit_xor(cmp_gt(zero16, old), par);
            const I16Vec new_msg = sat_sub(bit_xor(base, m), m);
            new_msg.store(&c2v[(e0 + i) * L + w]);
            sat_add(old, new_msg).store(&post[v * L + w]);
          }
        }
      } else {
        // Scalar reference: the same saturating selections per lane, so
        // the quantized output is identical with vectors on or off.
        for (std::size_t l = 0; l < L; ++l) {
          if (done[l]) continue;  // dead state; skipping changes nothing
          std::int16_t min1 = 32767;
          std::int16_t min2 = 32767;
          unsigned par = 0;
          for (std::uint32_t i = 0; i < deg; ++i) {
            const std::size_t v = check_var_[e0 + i];
            const std::int16_t msg =
                dsp::sat_sub_i16(post[v * L + l], c2v[(e0 + i) * L + l]);
            v2c[i * L + l] = msg;
            const std::int16_t mag = dsp::sat_abs_i16(msg);
            magb[i * L + l] = mag;
            const bool gt = min1 > mag;
            const std::int16_t runner = gt ? min1 : mag;
            min1 = gt ? mag : min1;
            min2 = min2 > runner ? runner : min2;
            par ^= msg < 0 ? 1u : 0u;
          }
          const std::int16_t a1 = dsp::mulhrs_i16(min1, norm_q);
          const std::int16_t a2 = dsp::mulhrs_i16(min2, norm_q);
          for (std::uint32_t i = 0; i < deg; ++i) {
            const std::size_t v = check_var_[e0 + i];
            const std::int16_t old = v2c[i * L + l];
            const std::int16_t mag = magb[i * L + l];
            const std::int16_t base = mag > min1 ? a1 : a2;
            const unsigned neg = (old < 0 ? 1u : 0u) ^ par;
            const std::int16_t new_msg = neg ? dsp::sat_neg_i16(base) : base;
            c2v[(e0 + i) * L + l] = new_msg;
            post[v * L + l] = dsp::sat_add_i16(old, new_msg);
          }
        }
      }
    }
    for (std::size_t l = 0; l < L; ++l) {
      if (!done[l] && lane_clean(l)) {
        snapshot(l, it + 1, true);
        --active;
      }
    }
  }
  for (std::size_t l = 0; l < L; ++l) {
    if (!done[l]) snapshot(l, max_iterations, false);
  }
}

}  // namespace wlan::phy
