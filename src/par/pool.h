// Chunked work-stealing thread pool for the Monte-Carlo engine.
//
// One process-wide pool (default_pool) sized by --jobs / set_default_jobs;
// sweeps submit chunk tasks and the calling thread participates, so a
// pool of size 1 runs everything inline on the caller (no worker threads
// at all — the path every existing serial test exercises).
//
// Scheduling model: each worker owns a deque; it pops from the back of
// its own deque (LIFO, cache-warm) and steals from the front of other
// workers' deques (FIFO, oldest-first). Submissions from outside the
// pool round-robin across worker deques. A thread blocked in
// `parallel_for` drains tasks — its own or stolen, including tasks of
// *other* in-flight parallel_for calls — so nested submits cannot
// deadlock.
//
// Determinism contract: the pool never influences results. Work items
// write into disjoint slots and chunk boundaries are fixed by the caller
// (par/montecarlo.h derives them from the trial count alone), so the
// schedule — which thread runs which chunk, and in what order — is
// invisible to the output.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace wlan::obs {
class Registry;
}  // namespace wlan::obs

namespace wlan::par {

/// Snapshot of one execution lane's counters (see ThreadPool::telemetry).
struct LaneTelemetry {
  std::uint64_t tasks = 0;            ///< tasks this lane executed
  std::uint64_t steal_attempts = 0;   ///< empty-own-deque scans of other lanes
  std::uint64_t steal_successes = 0;  ///< scans that found a task
  std::uint64_t help_iterations = 0;  ///< parallel_for help-while-waiting loops
  std::uint64_t busy_ns = 0;          ///< wall time inside task bodies
  std::uint64_t park_ns = 0;          ///< wall time blocked waiting for work
};

/// Per-lane counters of a pool since creation (or reset_telemetry).
/// Lanes 0..size-2 are the worker threads; the last lane aggregates
/// every external caller (the thread driving parallel_for).
struct PoolTelemetry {
  std::vector<LaneTelemetry> lanes;

  LaneTelemetry totals() const;
  /// Fraction of `lanes * wall_s` spent inside task bodies (0 when the
  /// pool was never used or wall_s is not positive).
  double utilization(double wall_s) const;
  /// Max/mean lane busy time: 1.0 = perfectly balanced, higher = one
  /// lane did disproportionate work; 0 when no lane was ever busy.
  double imbalance() const;
};

/// Process-wide switch for pool + chunk telemetry. Off by default: the
/// instrumented paths then pay one relaxed atomic load and a branch per
/// task (no clock reads). bench_util arms it behind --json/--profile.
bool telemetry_enabled() noexcept;
void set_telemetry_enabled(bool on) noexcept;

/// Aggregate per-chunk wall times recorded by par::sweep/montecarlo/map
/// while telemetry is enabled (process-wide, across every pool).
struct ChunkStats {
  std::uint64_t chunks = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t max_ns = 0;
};
ChunkStats chunk_stats() noexcept;
void reset_chunk_stats() noexcept;

/// Publishes pool + chunk telemetry into `registry` under par.*:
/// counters par.tasks / par.steal_attempts / par.steal_successes /
/// par.help_iterations / par.chunks, gauges par.lanes / par.busy_s /
/// par.park_s / par.utilization / par.imbalance / par.chunk_mean_s /
/// par.chunk_max_s. Fixed creation order.
void publish_telemetry(obs::Registry& registry, const PoolTelemetry& pool,
                       const ChunkStats& chunks, double wall_s);

/// Lockstep-epoch barrier telemetry. A conservative-time driver (the
/// netsim border exchange, on `run_rounds`) calls `record_round` once
/// per round with the round's wall time — from one round's publish to
/// the next, so it covers inbox routing, the tiles and the waits — and
/// each shard's busy time inside it (its inbox routing plus its run).
/// The aggregates diagnose barrier stalls: `utilization` is how much of
/// the lanes' capacity the epochs filled, `imbalance` how lopsided the
/// per-round shard work was (the slowest shard gates every round).
/// Wall-clock data — never fold into determinism-gated metrics.
struct EpochStats {
  std::size_t rounds = 0;
  std::size_t tasks = 0;   ///< shards per round (last recorded)
  double wall_s = 0.0;     ///< summed round wall times
  double busy_s = 0.0;     ///< summed per-shard busy times
  double max_busy_s = 0.0; ///< summed per-round slowest-shard times

  void record_round(double round_wall_s, const double* task_busy_s,
                    std::size_t n);
  /// busy / (wall * lanes), clamped to [0, 1]; 0 when unused.
  double utilization(unsigned lanes) const;
  /// Mean over rounds of max/mean shard busy; 1.0 = balanced, 0 unused.
  double imbalance() const;
};

namespace detail {
/// steady_clock in integer nanoseconds (telemetry timestamps).
std::uint64_t monotonic_ns() noexcept;
/// Folds one chunk wall time into the process-wide ChunkStats.
void record_chunk_ns(std::uint64_t ns) noexcept;
}  // namespace detail

/// Work-stealing pool of `jobs` execution lanes (the caller of
/// parallel_for counts as one; `jobs - 1` worker threads are spawned).
class ThreadPool {
 public:
  /// `jobs` >= 1; 0 means hardware_concurrency().
  explicit ThreadPool(unsigned jobs = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution lanes (worker threads + the submitting caller).
  unsigned size() const { return jobs_; }

  /// Runs `fn(begin, end)` over consecutive sub-ranges of [0, n) of at
  /// most `chunk` indices each. Blocks until every chunk finished; the
  /// calling thread executes chunks too. The first exception thrown by
  /// any chunk is rethrown here (after all chunks have drained); the
  /// pool remains usable. Reentrant: chunks may call parallel_for.
  void parallel_for(std::size_t n, std::size_t chunk,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// hardware_concurrency(), floored at 1.
  static unsigned hardware_jobs();

  /// Counter snapshot per lane (workers first, external callers pooled
  /// in the last slot). Counts only accumulate while
  /// `telemetry_enabled()`; zero-cost otherwise.
  PoolTelemetry telemetry() const;
  void reset_telemetry();

 private:
  struct Lane {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  // Relaxed atomics: each slot is written by its own lane almost always
  // (external callers share the last slot), read only by telemetry().
  struct alignas(64) LaneStats {
    std::atomic<std::uint64_t> tasks{0};
    std::atomic<std::uint64_t> steal_attempts{0};
    std::atomic<std::uint64_t> steal_successes{0};
    std::atomic<std::uint64_t> help_iterations{0};
    std::atomic<std::uint64_t> busy_ns{0};
    std::atomic<std::uint64_t> park_ns{0};
  };

  void worker_loop(unsigned lane);
  bool try_run_one(unsigned home_lane);
  void push_task(std::function<void()> task);
  LaneStats& stats_slot(unsigned home_lane);

  unsigned jobs_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::unique_ptr<LaneStats>> stats_;  // jobs_ slots
  std::vector<std::thread> threads_;
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  std::size_t next_lane_ = 0;  // round-robin target for external submits
  bool stop_ = false;
};

/// Runs lockstep rounds of `n` tasks on persistent participants: one
/// parallel_for of min(pool.size(), n) participants covers every round,
/// and the caller is one of them.
///
/// Round r runs `task(r, i)` once for every i in [0, n). Participant p
/// first claims the tasks of its own contiguous block, so a task stays
/// on one thread across rounds, then steals from the other blocks;
/// claims go through per-block cursors tagged with the round, so a
/// participant that lags behind cannot claim into a later round. The
/// thread that finishes a round's last task calls `end_round(r)` —
/// after every task of round r, before any of round r+1 — and, if it
/// returns true, publishes round r+1 and wakes the waiting participants
/// (a brief spin, then std::atomic::wait). Rounds never wait on a
/// participant that has not started: a late one joins the round in
/// flight or exits, so runs nested inside pool tasks cannot deadlock.
/// A task itself must not wait on the pool (no parallel_for inside a
/// task): helping there could pick up a participant of this very run,
/// which would then wait for the task's own round. The first exception
/// a task or `end_round` throws ends the run at the next round end and
/// is rethrown here. Fewer than 2^32 - 1 rounds and tasks.
void run_rounds(ThreadPool& pool, std::size_t n,
                const std::function<void(std::uint32_t, std::size_t)>& task,
                const std::function<bool(std::uint32_t)>& end_round);

/// The process-wide pool, created on first use with `default_jobs()`
/// lanes. Thread-safe.
ThreadPool& default_pool();

/// Sets the lane count used when the default pool is (re)created, and
/// drops any existing default pool so the next use picks it up. Call
/// from the main thread before starting parallel work (bench_util wires
/// `--jobs` here). `jobs == 0` restores hardware_concurrency.
void set_default_jobs(unsigned jobs);

/// Lane count the default pool has (or will have on first use).
unsigned default_jobs();

}  // namespace wlan::par
