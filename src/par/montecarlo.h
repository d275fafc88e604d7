// Deterministic parallel Monte-Carlo sweeps.
//
// Every trial of a sweep gets its own Rng seeded by a counter-based
// SplitMix64 derivation over (root_seed, point_index, trial_index) —
// no trial ever consumes another trial's randomness, so the result of a
// sweep is a pure function of (root_seed, point count, trial count,
// chunk size) and is bitwise identical for ANY number of threads,
// including one. Chunk boundaries are derived from the trial count
// alone (never from the thread count), and per-chunk partial results
// are reduced in chunk-index order on the calling thread, so even
// non-associative floating-point reductions are schedule-independent.
//
// Span profiling (obs/perf.h) is sharded automatically: when the
// calling thread has span profiling armed, each chunk arms the executing
// thread's shard collector, opens an "mc.chunk" (or "mc.map") span, and
// drains the shard into the caller's SpanProfile as the chunk retires —
// prefixed with the caller's open span path captured before fan-out, so
// worker spans graft under the sweep's call site, and the caller's span
// counts the grafted chunk time as child time. Worker threads never
// touch the caller's collector. SpanProfile rows are integer counters
// merged by commutative addition and published in sorted path order, so
// the merged profile is bitwise identical for any --jobs. With
// par::telemetry_enabled() the chunk loop also records per-chunk wall
// times into par::chunk_stats().
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "obs/perf.h"
#include "par/pool.h"

namespace wlan::par {

/// Counter-based seed for trial `trial` of sweep point `point` under
/// `root`: a SplitMix64-style finalizer chain absorbing each counter.
/// Statistically independent across neighbouring counters.
std::uint64_t derive_seed(std::uint64_t root, std::uint64_t point,
                          std::uint64_t trial);

/// Fresh generator for one (point, trial) cell.
inline Rng trial_rng(std::uint64_t root, std::uint64_t point,
                     std::uint64_t trial) {
  return Rng(derive_seed(root, point, trial));
}

/// Upper bound on the lane count of batched sweeps (the PHY kernels'
/// survivor masks and lane bookkeeping are sized for 16 lanes).
inline constexpr std::size_t kMaxBatch = 16;

/// Knobs shared by every sweep entry point.
struct SweepOptions {
  /// Root of the per-trial seed derivation. Two sweeps with the same
  /// root and shape produce identical results.
  std::uint64_t root_seed = 0x9E3779B97F4A7C15ull;
  /// Execution lanes; 0 = the process default pool (see --jobs).
  /// A private pool of this size is used when nonzero.
  unsigned jobs = 0;
  /// Trials per chunk; 0 = automatic (a function of the trial count
  /// only — NEVER of `jobs`, which would break cross-thread-count
  /// determinism of floating-point reductions).
  std::size_t chunk = 0;
};

namespace detail {

/// Profiling destinations captured on the sweep-initiating thread
/// before fan-out: the span profile and the caller's open span path
/// (worker chunk spans graft under it).
struct ProfileTargets {
  obs::perf::SpanProfile* spans = nullptr;
  std::string prefix;
};

/// Arms span profiling at the executing thread's shard collector for the
/// guard's lifetime (no-op when targets.spans is null); on destruction
/// drains the shard into targets.spans under targets.prefix and restores
/// the previous arming. `targets` must outlive the guard (the sweep
/// templates keep it alive across parallel_for).
class ProfileShardGuard {
 public:
  explicit ProfileShardGuard(const ProfileTargets& targets);
  ~ProfileShardGuard();
  ProfileShardGuard(const ProfileShardGuard&) = delete;
  ProfileShardGuard& operator=(const ProfileShardGuard&) = delete;

 private:
  const ProfileTargets* targets_ = nullptr;  // null when inactive
  obs::perf::detail::PerfTls saved_{};
};

/// The profiling targets armed on the calling thread (inactive when
/// profiling is off) — captured once per sweep, before fan-out.
ProfileTargets profiling_targets();

/// Chunk size used when SweepOptions::chunk == 0. Depends on n only.
std::size_t auto_chunk(std::size_t n_trials);

/// Pool selected by `opt` (the default pool, or a private one).
/// Returns the default pool when opt.jobs == 0; otherwise the caller
/// owns the returned pool via `owned`.
ThreadPool& select_pool(const SweepOptions& opt,
                        std::unique_ptr<ThreadPool>& owned);

/// The chunk loop every sweep entry point runs: body(c) for each chunk
/// c in [0, n_chunks) on the pool `opt` selects, each chunk under the
/// caller's shard of the span profile, inside a `span_name` span, and
/// timed into chunk_stats() when telemetry is on.
template <class Body>
void for_each_chunk(std::size_t n_chunks, const SweepOptions& opt,
                    const char* span_name, Body&& body) {
  const ProfileTargets prof = profiling_targets();
  std::unique_ptr<ThreadPool> owned;
  ThreadPool& pool = select_pool(opt, owned);
  pool.parallel_for(n_chunks, 1, [&](std::size_t cb, std::size_t ce) {
    for (std::size_t c = cb; c < ce; ++c) {
      const ProfileShardGuard shard(prof);
      const bool telem = telemetry_enabled();
      const std::uint64_t c_begin = telem ? monotonic_ns() : 0;
      {
        const obs::perf::ScopedSpan chunk_span(span_name);
        body(c);
      }
      if (telem) record_chunk_ns(monotonic_ns() - c_begin);
    }
  });
}

}  // namespace detail

/// Trial-batched montecarlo: trials run in groups of up to `batch`
/// lanes so the group function can push them through the PHY in SIMD
/// lockstep (dsp/batch.h).
///
///   group(point, t0, rngs, acc) — runs trials [t0, t0 + rngs.size()),
///                                 where rngs[i] is the private generator
///                                 of trial t0 + i (the trial_rng
///                                 derivation of (root, point, trial));
///                                 folds into acc in trial order.
///
/// The chunk size is rounded up to a multiple of `batch`, so group
/// boundaries are a pure function of (n_trials, batch, opt.chunk) —
/// every group starts at a multiple of `batch` regardless of --jobs,
/// and only the final group of a point can be short. A group function
/// whose per-trial results do not depend on the group they ran in
/// therefore gives the same result at every `batch` and thread count.
template <class Result, class GroupFn, class MergeFn>
Result montecarlo_batched(std::size_t n_trials, std::uint64_t point,
                          std::size_t batch, const SweepOptions& opt,
                          GroupFn&& group, MergeFn&& merge) {
  check(n_trials > 0, "par::montecarlo requires at least one trial");
  check(batch >= 1 && batch <= kMaxBatch,
        "par::montecarlo_batched batch size out of range");
  const std::size_t chunk0 =
      opt.chunk ? opt.chunk : detail::auto_chunk(n_trials);
  const std::size_t chunk = ((chunk0 + batch - 1) / batch) * batch;
  const std::size_t n_chunks = (n_trials + chunk - 1) / chunk;
  std::vector<Result> partial(n_chunks);
  detail::for_each_chunk(n_chunks, opt, "mc.chunk", [&](std::size_t c) {
    const std::size_t t0 = c * chunk;
    const std::size_t t1 = std::min(n_trials, t0 + chunk);
    Result acc{};
    std::array<Rng, kMaxBatch> rngs;
    for (std::size_t g0 = t0; g0 < t1; g0 += batch) {
      const std::size_t n_g = std::min(batch, t1 - g0);
      for (std::size_t i = 0; i < n_g; ++i) {
        rngs[i] = trial_rng(opt.root_seed, point, g0 + i);
      }
      group(point, g0, std::span<Rng>(rngs.data(), n_g), acc);
    }
    partial[c] = std::move(acc);
  });

  Result out{};
  for (std::size_t c = 0; c < n_chunks; ++c) merge(out, partial[c]);
  return out;
}

/// Runs `n_trials` Monte-Carlo trials of sweep point `point` and folds
/// them into one `Result` (default-constructed, value-initialized).
///
///   trial(point, t, rng, acc)  — runs trial t, accumulating into acc;
///                                `rng` is the trial's private generator.
///   merge(acc, partial)        — folds a chunk partial into acc;
///                                called in chunk order.
///
/// The one-trial-per-group case of montecarlo_batched: with batch = 1 the
/// chunk boundaries are exactly auto_chunk's (or opt.chunk's).
template <class Result, class TrialFn, class MergeFn>
Result montecarlo(std::size_t n_trials, std::uint64_t point,
                  const SweepOptions& opt, TrialFn&& trial, MergeFn&& merge) {
  return montecarlo_batched<Result>(
      n_trials, point, /*batch=*/1, opt,
      [&trial](std::uint64_t p, std::size_t t, std::span<Rng> rngs,
               Result& acc) { trial(p, t, rngs[0], acc); },
      std::forward<MergeFn>(merge));
}

/// Sweep over `n_points` points x `n_trials` trials; returns one merged
/// Result per point (in point order). Chunks never straddle points, so
/// each point's reduction order is fixed regardless of thread count.
template <class Result, class TrialFn, class MergeFn>
std::vector<Result> sweep(std::size_t n_points, std::size_t n_trials,
                          const SweepOptions& opt, TrialFn&& trial,
                          MergeFn&& merge) {
  check(n_points > 0 && n_trials > 0, "par::sweep requires points and trials");
  const std::size_t chunk =
      opt.chunk ? opt.chunk : detail::auto_chunk(n_trials);
  const std::size_t chunks_per_point = (n_trials + chunk - 1) / chunk;
  const std::size_t total = n_points * chunks_per_point;
  std::vector<Result> partial(total);
  detail::for_each_chunk(total, opt, "mc.chunk", [&](std::size_t c) {
    const std::size_t point = c / chunks_per_point;
    const std::size_t t0 = (c % chunks_per_point) * chunk;
    const std::size_t t1 = std::min(n_trials, t0 + chunk);
    Result acc{};
    for (std::size_t t = t0; t < t1; ++t) {
      Rng rng = trial_rng(opt.root_seed, point, t);
      trial(point, t, rng, acc);
    }
    partial[c] = std::move(acc);
  });

  std::vector<Result> out(n_points);
  for (std::size_t p = 0; p < n_points; ++p) {
    for (std::size_t c = 0; c < chunks_per_point; ++c) {
      merge(out[p], partial[p * chunks_per_point + c]);
    }
  }
  return out;
}

/// Parallel map: `fn(index, rng)` for each index in [0, n), one derived
/// Rng per index (point = index, trial = 0), results in index order.
/// For batches of heterogeneous independent runs (netsim replications,
/// per-distance simulator points).
template <class Fn>
auto map(std::size_t n, const SweepOptions& opt, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{0}, std::declval<Rng&>()))> {
  using R = decltype(fn(std::size_t{0}, std::declval<Rng&>()));
  check(n > 0, "par::map requires at least one item");
  std::vector<R> out(n);
  detail::for_each_chunk(n, opt, "mc.map", [&](std::size_t i) {
    Rng rng = trial_rng(opt.root_seed, i, 0);
    out[i] = fn(i, rng);
  });
  return out;
}

}  // namespace wlan::par
