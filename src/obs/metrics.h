// Metrics registry: named, labelled instruments for simulations and
// benchmarks.
//
// Three instrument kinds:
//  - Counter: monotonically increasing event count;
//  - Gauge: last-written scalar (queue depth, temperature, ...);
//  - Histogram: log-spaced bins between a lo/hi range with exact
//    min/max/sum tracking and percentile interpolation — suited to
//    quantities spanning decades (delays, kernel wall times).
//
// A Registry owns instruments by (name, labels) key; asking twice for
// the same key returns the same instrument, so independent modules can
// share counters without coordination. `write_json` snapshots the whole
// registry machine-readably. Instruments returned by a Registry remain
// valid for the registry's lifetime. Not thread-safe by design — the
// hot path must stay a bare increment. Parallel code gives each thread
// (or work chunk) a private shard Registry and folds the shards into
// the parent with `merge` once the parallel region has retired
// (net/merge.cpp does this for shards, net/netsim.cpp for batch runs).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace wlan::obs {

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written scalar value.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Histogram with logarithmically spaced bins over [lo, hi), plus
/// underflow/overflow buckets. Tracks exact min/max/sum so `mean()` is
/// exact and percentiles clamp to observed extremes.
class Histogram {
 public:
  /// `lo` and `hi` bound the log-spaced range (0 < lo < hi); `bins` is
  /// the number of bins between them (>= 1).
  Histogram(double lo, double hi, std::size_t bins);

  /// Records one sample. Values <= 0 (log-indexable only for positive x)
  /// land in the underflow bucket.
  void record(double x);

  /// Records `n` copies of the same sample in O(1): one bin lookup, bulk
  /// count/sum updates. The sum accumulates as x*n rather than n repeated
  /// additions, so it can differ from n record() calls by rounding.
  void record_n(double x, std::uint64_t n);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  double min() const;
  double max() const;

  /// Linear interpolation within the containing bin. Contract:
  ///  - empty histogram or NaN `p` -> NaN;
  ///  - `p` outside [0, 100] is clamped (p <= 0 -> min(), p >= 100 ->
  ///    max(); both exact, not bin edges);
  ///  - a single sample returns that sample exactly for every `p`;
  ///  - mass in the underflow bucket interpolates over [min, lo) and in
  ///    the overflow bucket over [hi, max] — all-overflow histograms
  ///    interpolate [min, max] since every sample is then >= hi.
  double percentile(double p) const;

  /// Folds `other` into this histogram: bin counts, under/overflow,
  /// count, sum, min, max. Requires identical binning (lo, hi, bins);
  /// throws ContractError otherwise.
  void merge(const Histogram& other);

  double range_lo() const { return lo_; }
  double range_hi() const { return hi_; }

  // Bin introspection (for snapshots): `bins()` interior bins, edge i ->
  // i+1 log-spaced from lo to hi. Underflow/overflow counts are separate.
  std::size_t bins() const { return counts_.size(); }
  double lower_edge(std::size_t i) const;
  double upper_edge(std::size_t i) const;
  std::uint64_t bin_count(std::size_t i) const { return counts_[i]; }
  std::uint64_t underflow() const { return underflow_; }
  std::uint64_t overflow() const { return overflow_; }

 private:
  double lo_;
  double hi_;
  double log_lo_;
  double inv_log_width_;  // bins / log(hi/lo)
  // Direct bin lookup for the record() hot path: the top 18 bits of a
  // positive double (sign, exponent, 6 mantissa bits) index a table of
  // 64 cells per octave. A cell stores its bin index when EVERY double
  // in the cell provably maps to that bin under the exact log-based
  // expression record() uses (endpoints agree and sit away from bin
  // boundaries), or -1 to take the slow path — so the fast path changes
  // which instructions run, never which bin a sample lands in. The
  // table is a pure function of (lo, hi, bins), so histograms with the
  // same binning share one immutable copy (a city registers thousands
  // of per-flow histograms, ~3 KB of table each).
  std::shared_ptr<const std::vector<std::int16_t>> fast_table_;
  const std::int16_t* fast_bin_ = nullptr;  // fast_table_->data()
  std::size_t fast_size_ = 0;
  std::uint64_t fast_key_lo_ = 0;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// One key=value pair qualifying an instrument name (e.g. flow=2).
struct Label {
  std::string key;
  std::string value;
};

/// Owns instruments by (name, labels); see file comment.
class Registry {
 public:
  Counter& counter(std::string_view name, std::vector<Label> labels = {});
  Gauge& gauge(std::string_view name, std::vector<Label> labels = {});
  Histogram& histogram(std::string_view name, double lo, double hi,
                       std::size_t bins, std::vector<Label> labels = {});

  /// Lookup without creation; null when absent.
  const Counter* find_counter(std::string_view name,
                              const std::vector<Label>& labels = {}) const;
  const Histogram* find_histogram(std::string_view name,
                                  const std::vector<Label>& labels = {}) const;

  std::size_t size() const { return entries_.size(); }

  /// Folds every instrument of `other` into this registry, creating
  /// missing instruments on the fly: counters add, histograms merge
  /// bin-wise (same binning required), gauges take `other`'s value
  /// (call merge in shard order to fix last-writer-wins precedence).
  /// This is how per-thread metric shards fold into a parent registry
  /// at sweep end — merge order, not thread schedule, defines the
  /// result, so deterministic shards merge to a deterministic snapshot.
  void merge(const Registry& other);

  /// Snapshot of every instrument as one JSON object:
  /// {"counters":[{"name":..,"labels":{..},"value":..},...],
  ///  "gauges":[...],
  ///  "histograms":[{"name":..,"count":..,"mean":..,"p50":..,...}]}
  void write_json(std::ostream& out) const;
  std::string snapshot_json() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string name;
    std::vector<Label> labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& fetch(Kind kind, std::string_view name, std::vector<Label> labels);
  const Entry* find(Kind kind, std::string_view name,
                    const std::vector<Label>& labels) const;

  std::vector<std::unique_ptr<Entry>> entries_;
  std::map<std::string, std::size_t> index_;
};

}  // namespace wlan::obs
