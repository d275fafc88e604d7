#include "phy/ldpc.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <unordered_set>

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

void LdpcCode::decode_batch_into(std::span<const double> llrs_soa,
                                 std::size_t lanes, int max_iterations,
                                 double normalization,
                                 std::span<DecodeResult> results,
                                 Workspace& ws) const {
  check(lanes > 0 && lanes <= 16 && results.size() == lanes,
        "decode_batch requires 1..16 lanes with one result per lane");
  check(llrs_soa.size() == n_ * lanes, "decode_batch LLR length mismatch");
  if (lanes == 1) {
    // A one-lane block is that lane's contiguous codeword.
    decode_into(llrs_soa, max_iterations, normalization, results[0], ws);
    return;
  }
  constexpr std::size_t W = dsp::simd::kWidth;
  if (!dsp::simd::vector_enabled() || !dsp::batch::vectorizable(lanes, W)) {
    // Remainder groups and scalar builds: extract each lane and run the
    // reference kernel — bitwise identical by construction.
    auto lane_lease = ws.rvec(n_);
    for (std::size_t l = 0; l < lanes; ++l) {
      dsp::batch::gather_lane(llrs_soa.data(), l, lanes,
                              std::span<double>(*lane_lease));
      decode_into(*lane_lease, max_iterations, normalization, results[l], ws);
    }
    return;
  }

  const obs::perf::ScopedSpan span("ldpc_batch");
  using dsp::simd::DVec;
  const std::size_t L = lanes;
  const std::size_t edges = check_var_.size();

  auto post_lease = ws.rvec(n_ * L);
  double* post = post_lease->data();
  for (std::size_t i = 0; i < llrs_soa.size(); ++i) post[i] = llrs_soa[i];

  // Per-lane syndrome over the lane-major posterior; bails on the first
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

  std::array<bool, 16> done{};
  const auto snapshot = [&](std::size_t l, int iterations, bool ok) {
    DecodeResult& r = results[l];
    r.parity_ok = ok;
    r.iterations = iterations;
    r.info.resize(k_);
    for (std::size_t i = 0; i < k_; ++i) {
      r.info[i] = post[info_cols_[i] * L + l] < 0.0 ? 1 : 0;
    }
    done[l] = true;
  };

  std::size_t active = 0;
  for (std::size_t l = 0; l < L; ++l) {
    // Channel decisions already form a codeword — 0-iteration exit.
    if (lane_clean(l)) snapshot(l, 0, true); else ++active;
  }
  if (active == 0) return;

  auto c2v_lease = ws.rvec(edges * L);
  auto v2c_lease = ws.rvec(max_check_degree_ * L);
  double* c2v = c2v_lease->data();
  double* v2c = v2c_lease->data();
  std::fill(c2v, c2v + edges * L, 0.0);

  // Drain scratch: one lane's contiguous posterior + messages, finished
  // on the scalar reference kernel from bitwise-identical state.
  auto dpost_lease = ws.rvec(n_);
  auto dc2v_lease = ws.rvec(edges);
  auto dv2c_lease = ws.rvec(max_check_degree_);
  const auto drain_lane = [&](std::size_t l, int start_iter) {
    double* dpost = dpost_lease->data();
    double* dc2v = dc2v_lease->data();
    dsp::batch::gather_lane(post, l, L, std::span<double>(*dpost_lease));
    dsp::batch::gather_lane(c2v, l, L, std::span<double>(*dc2v_lease));
    int iter = start_iter;
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
    DecodeResult& r = results[l];
    r.parity_ok = ok;
    r.iterations = iter;
    r.info.resize(k_);
    for (std::size_t i = 0; i < k_; ++i) {
      r.info[i] = dpost[info_cols_[i]] < 0.0 ? 1 : 0;
    }
    done[l] = true;
  };

  const DVec normv = DVec::splat(normalization);
  const DVec zero = DVec::splat(0.0);
  const DVec pos1 = DVec::splat(1.0);
  const DVec neg1 = DVec::splat(-1.0);
  // Once at most this many lanes are still decoding, vector iterations
  // mostly push dead state around — extract and drain them instead.
  constexpr std::size_t kDrainAt = 2;

  for (int it = 0; it < max_iterations && active > 0; ++it) {
    if (active <= kDrainAt) {
      for (std::size_t l = 0; l < L; ++l) {
        if (!done[l]) drain_lane(l, it);
      }
      return;
    }
    for (std::size_t c = 0; c < m_; ++c) {
      const std::uint32_t e0 = check_offset_[c];
      const std::uint32_t deg = check_offset_[c + 1] - e0;
      for (std::size_t w = 0; w < L; w += W) {
        // The scalar reference's branch-free selections, a lane (trial)
        // per element: the two-minimum recurrence maps each ?: onto
        // select_gt, the sign parity accumulates as a ±1.0 product
        // (exact sign flips), and the one minimum edge is recognized by
        // mag == min1 instead of min_pos — ties make min2 == min1, so
        // a2 == a1 and the selected value still matches the reference.
        DVec min1 = DVec::splat(1e300);
        DVec min2 = DVec::splat(1e300);
        DVec pprod = pos1;
        for (std::uint32_t i = 0; i < deg; ++i) {
          const std::size_t v = check_var_[e0 + i];
          const DVec msg = DVec::load(&post[v * L + w]) -
                           DVec::load(&c2v[(e0 + i) * L + w]);
          msg.store(&v2c[i * L + w]);
          const DVec mag = dsp::simd::abs(msg);
          const DVec nmin1 = dsp::simd::select_gt(min1, mag, mag, min1);
          const DVec runner = dsp::simd::select_gt(min1, mag, min1, mag);
          min1 = nmin1;
          min2 = dsp::simd::select_gt(min2, runner, runner, min2);
          pprod = pprod * dsp::simd::select_gt(zero, msg, neg1, pos1);
        }
        const DVec a1 = min1 * normv;
        const DVec a2 = min2 * normv;
        for (std::uint32_t i = 0; i < deg; ++i) {
          const std::size_t v = check_var_[e0 + i];
          const DVec old = DVec::load(&v2c[i * L + w]);
          // abs(old) reproduces the pass-1 magnitude bit for bit (the
          // sign-bit clear is exact), so no magnitude buffer is kept.
          const DVec mag = dsp::simd::abs(old);
          const DVec base = dsp::simd::select_gt(mag, min1, a1, a2);
          const DVec sgn = dsp::simd::select_gt(zero, old, neg1, pos1);
          const DVec new_msg = base * sgn * pprod;
          new_msg.store(&c2v[(e0 + i) * L + w]);
          (old + new_msg).store(&post[v * L + w]);
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
