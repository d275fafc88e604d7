// Hierarchical span profiler (wlan::obs::perf): the one timing mechanism
// of the library.
//
// ScopedSpan opens a named node on the calling thread's span stack; on
// close it adds the elapsed wall time to the node and to its parent's
// child total, so every span knows calls, inclusive time, and exact self
// time (total - children). Spans accumulate in a per-thread
// SpanCollector — a pointer-linked tree of nodes keyed by name, reused
// across invocations so warm spans never allocate — and are drained into
// a SpanProfile: a path-keyed table (path = "a;b;c", semicolon-joined
// names from the root) of integer-nanosecond counters. Integer sums
// commute, and SpanProfile publishes and serializes in sorted path
// order, so the merged profile of a parallel sweep is bitwise identical
// for any --jobs (the same creation-order discipline the lifecycle
// instruments use).
//
// Zero cost when disabled: an un-armed thread pays one thread-local load
// and a branch per span. The thread-local state is one zero-initialized
// POD (PerfTls) with initial-exec TLS, so the hot path has no TLS init
// guard and no __tls_get_addr call.
//
// The hot kernels (fft, viterbi, ldpc_decode, fading_taps and the
// batched/int16 decoders) are ordinary spans; bench reports derive
// per-kernel call counts and time shares by summing the rows whose leaf
// name is the kernel's, over every path.
//
// Exports: write_folded emits collapsed stacks ("a;b;c <self_ns>") that
// flamegraph.pl and speedscope ingest directly; parse_folded reads them
// back (tests, CI smoke). publish() mirrors the profile into a Registry
// as span.* counters. chrome_trace.h can append the tree as Perfetto
// slices.
//
// Time source: steady_clock by default. Tests inject a deterministic
// tick source (set_tick_source_for_testing); span durations are tick
// *differences*, so a per-thread counter tick makes merged profiles
// schedule-independent and therefore bitwise comparable across --jobs.
//
// Allocation attribution (opt-in): set_alloc_source points at a
// per-thread allocation counter (tests/support/alloc_hook's
// thread_allocation_count); each span then also records the allocations
// made inside it, with the same self/child split as wall time.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace wlan::obs::perf {

/// Injectable clock: returns a monotonic tick in nanoseconds.
using TickFn = std::uint64_t (*)();
/// Injectable allocation counter: allocations by the calling thread.
using AllocFn = std::uint64_t (*)();

/// Accumulated statistics of one span path. All integer counters, so
/// merging shards is commutative addition and the merged profile does
/// not depend on drain order.
struct SpanStats {
  std::uint64_t calls = 0;        ///< completed invocations
  std::uint64_t total_ns = 0;     ///< inclusive wall time
  std::uint64_t child_ns = 0;     ///< direct children's inclusive time
  std::uint64_t allocs = 0;       ///< inclusive allocations (opt-in)
  std::uint64_t child_allocs = 0; ///< direct children's allocations

  /// Exclusive time. Clamped at zero: with worker shards grafted under a
  /// caller span, children on other threads can exceed the parent's own
  /// wall time.
  std::uint64_t self_ns() const {
    return total_ns > child_ns ? total_ns - child_ns : 0;
  }
  std::uint64_t self_allocs() const {
    return allocs > child_allocs ? allocs - child_allocs : 0;
  }
  bool any() const {
    return (calls | total_ns | child_ns | allocs | child_allocs) != 0;
  }
  void add(const SpanStats& other) {
    calls += other.calls;
    total_ns += other.total_ns;
    child_ns += other.child_ns;
    allocs += other.allocs;
    child_allocs += other.child_allocs;
  }
};

/// Path-keyed span table. Internally synchronized: worker shards drain
/// into the sweep initiator's profile concurrently, and the sorted-map
/// key order (not the drain schedule) defines iteration, publication,
/// and serialization order.
class SpanProfile {
 public:
  SpanProfile() = default;
  SpanProfile(const SpanProfile&) = delete;
  SpanProfile& operator=(const SpanProfile&) = delete;

  /// Folds `stats` into the row for `path` ("a;b;c").
  void add(const std::string& path, const SpanStats& stats);
  void merge(const SpanProfile& other);
  void clear();
  bool empty() const;

  /// Snapshot of the table (copy; safe to iterate without the lock).
  std::map<std::string, SpanStats> spans() const;

  /// Sum of the inclusive times of depth-0 spans (paths without ';').
  std::uint64_t root_total_ns() const;

  /// Mirrors every row into `registry` as span.calls / span.total_ns /
  /// span.self_ns / span.allocs counters labelled {span=<path>}, in
  /// sorted path order — instrument creation order is therefore a pure
  /// function of the profile contents, and merged-shard snapshots are
  /// bitwise identical across thread counts.
  void publish(Registry& registry) const;

  /// Collapsed-stack export: one "path self_ns" line per row, sorted.
  /// flamegraph.pl and speedscope read this directly.
  void write_folded(std::ostream& out) const;
  std::string folded() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, SpanStats> spans_;
};

/// One parsed collapsed-stack line.
struct FoldedLine {
  std::string path;
  std::uint64_t self_ns = 0;
};

/// Parses collapsed-stack text (the write_folded format). Blank lines
/// are skipped; any other malformed line throws ContractError.
std::vector<FoldedLine> parse_folded(std::istream& in);

namespace detail {

/// One node of a thread's span tree: (parent, name) identifies it, and
/// the collector reuses it on every re-entry so warm recording is
/// allocation-free.
struct SpanNode {
  const char* name = nullptr;  // null on the root sentinel
  SpanNode* parent = nullptr;
  std::vector<SpanNode*> children;  // insertion order
  SpanStats stats;
};

/// Per-thread tree of span nodes, keyed by (parent, name). Nodes are
/// created on first entry and reused forever after, so a warm span tree
/// records without allocating. drain_into() folds and resets every
/// node's stats but keeps the nodes.
class SpanCollector {
 public:
  SpanCollector();
  SpanCollector(const SpanCollector&) = delete;
  SpanCollector& operator=(const SpanCollector&) = delete;

  SpanNode* root() noexcept;
  /// Child of `parent` named `name` (by content; created if missing).
  SpanNode* enter(SpanNode* parent, const char* name);
  /// Folds every node with nonzero stats into `target`, prefixing each
  /// path with `prefix` (";"-joined when both nonempty), then zeroes the
  /// stats. A nonempty `prefix` names the open span the drained tree is
  /// grafted under; its row is credited with the tree's depth-0 time as
  /// child time, so that span's self time excludes the grafted work.
  /// Node structure is retained for reuse.
  void drain_into(SpanProfile& target, const std::string& prefix);

 private:
  std::deque<SpanNode> nodes_;  // stable addresses; nodes_[0] is the root
};

/// The per-thread span-profiler arming. Plain zero-initialized POD with
/// initial-exec TLS so reads compile to a guard-free %fs-relative load.
struct PerfTls {
  SpanCollector* collector;  ///< non-null while span profiling is armed
  SpanNode* current;         ///< innermost open span (collector root if none)
  SpanProfile* target;       ///< where this thread's spans drain
};

#if defined(__GNUC__) || defined(__clang__)
#define WLAN_PERF_TLS_MODEL __attribute__((tls_model("initial-exec")))
#else
#define WLAN_PERF_TLS_MODEL
#endif
extern thread_local constinit PerfTls g_tls WLAN_PERF_TLS_MODEL;

/// Monotonic nanoseconds from the active tick source (steady_clock
/// unless a test injected one).
std::uint64_t now_ns() noexcept;

/// The active per-thread allocation counter (null = not tracking).
AllocFn alloc_fn() noexcept;

/// This thread's persistent collector for its own (non-sweep) spans.
SpanCollector& thread_collector();

/// A second persistent per-thread collector reserved for sweep-chunk
/// shards (par/montecarlo's ProfileShardGuard). Kept separate from
/// thread_collector so draining a retired chunk can never sweep up
/// unrelated spans the same thread recorded outside the chunk.
SpanCollector& shard_collector();

}  // namespace detail

/// RAII span. `name` must point at storage that outlives the profile
/// (string literals). Nesting is lexical per thread; construct and
/// destroy in scope (LIFO) order.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    // Reads g_tls by name, not through a reference: UBSan null-checks a
    // reference's address, and GCC 12 can test that TLS address with
    // flags the linker's TLS relaxation then discards.
    using detail::g_tls;
    if (g_tls.collector == nullptr) return;  // disabled: one load + branch
    node_ = g_tls.collector->enter(g_tls.current, name);
    g_tls.current = node_;
    alloc_ = detail::alloc_fn();
    if (alloc_) start_allocs_ = alloc_();
    start_ns_ = detail::now_ns();
  }
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  detail::SpanNode* node_ = nullptr;
  AllocFn alloc_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::uint64_t start_allocs_ = 0;
};

/// Arms span profiling on the calling thread, draining into `target`
/// (which must outlive the arming). Idempotent re-arming at a different
/// target drains into the old target first.
void enable_span_profiling(SpanProfile& target);

/// Drains this thread's collector into its target and disarms.
void disable_span_profiling();

/// Drains this thread's collector into its target; stays armed. Spans
/// still open contribute their children so far; their own time is
/// recorded when they close.
void flush_span_profiling();

bool span_profiling_enabled() noexcept;

/// The profile this thread's spans drain into (null when off).
SpanProfile* span_profiling_target() noexcept;

/// Semicolon-joined names of the open span stack ("" when disabled or
/// at the root). Sweeps capture this before fan-out so worker-shard
/// chunk spans graft under the caller's open span.
std::string current_path();

/// Installs a deterministic tick source (null restores steady_clock).
/// Test-only; set before arming any thread.
void set_tick_source_for_testing(TickFn fn) noexcept;

/// Installs the opt-in per-thread allocation counter feeding
/// SpanStats::allocs (null disables). Set before arming any thread.
void set_alloc_source(AllocFn fn) noexcept;

}  // namespace wlan::obs::perf
