#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <mutex>
#include <sstream>
#include <tuple>

#include "common/check.h"
#include "obs/json.h"

namespace wlan::obs {
namespace {

std::uint64_t fast_key_of(double x) {
  return std::bit_cast<std::uint64_t>(x) >> 46;
}

/// Builds the fast-bin table of a (lo, hi, bins) binning; see
/// Histogram::fast_table_. Empty when the range is too wide for a table.
std::vector<std::int16_t> build_fast_bins(double lo, double hi,
                                          std::size_t bins, double log_lo,
                                          double inv_log_width) {
  const std::uint64_t key_lo = fast_key_of(lo);
  const std::uint64_t key_hi = fast_key_of(hi);
  if (key_hi <= key_lo) return {};
  const std::uint64_t span = key_hi - key_lo + 1;
  if (span > (std::uint64_t{1} << 14)) return {};  // absurd range: slow path only
  std::vector<std::int16_t> table(static_cast<std::size_t>(span),
                                  std::int16_t{-1});
  if (bins > static_cast<std::size_t>(
                 std::numeric_limits<std::int16_t>::max())) {
    return table;  // bin index would not fit the table cells
  }
  // A cell qualifies only if every double inside it lands in the same
  // bin as both endpoints under record()'s exact expression, which holds
  // when the endpoint indices agree and both index fractions sit away
  // from an integer crossing (log is monotonic; the margin dwarfs the
  // few-ulp evaluation error across the cell).
  constexpr double kMargin = 1e-6;
  for (std::uint64_t k = 0; k < span; ++k) {
    const std::uint64_t key = key_lo + k;
    const double x0 = std::bit_cast<double>(key << 46);
    const double x1 = std::bit_cast<double>(((key + 1) << 46) - 1);
    if (!(x0 >= lo) || !(x0 > 0.0) || !(x1 < hi)) continue;
    const double f0 = (std::log(x0) - log_lo) * inv_log_width;
    const double f1 = (std::log(x1) - log_lo) * inv_log_width;
    const auto i0 = static_cast<std::size_t>(f0);
    const auto i1 = static_cast<std::size_t>(f1);
    if (i0 != i1 || i0 >= bins) continue;
    const double m0 = f0 - std::floor(f0);
    const double m1 = f1 - std::floor(f1);
    if (m0 < kMargin || m0 > 1.0 - kMargin) continue;
    if (m1 < kMargin || m1 > 1.0 - kMargin) continue;
    table[static_cast<std::size_t>(k)] = static_cast<std::int16_t>(i0);
  }
  return table;
}

/// The shared fast-bin table of a binning, built on first use and kept
/// for the life of the process.
std::shared_ptr<const std::vector<std::int16_t>> shared_fast_bins(
    double lo, double hi, std::size_t bins, double log_lo,
    double inv_log_width) {
  using Key = std::tuple<double, double, std::size_t>;
  static std::mutex mutex;
  static std::map<Key, std::shared_ptr<const std::vector<std::int16_t>>> cache;
  const std::lock_guard<std::mutex> lock(mutex);
  auto& table = cache[{lo, hi, bins}];
  if (!table) {
    table = std::make_shared<const std::vector<std::int16_t>>(
        build_fast_bins(lo, hi, bins, log_lo, inv_log_width));
  }
  return table;
}

}  // namespace

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi) {
  check(lo > 0.0 && hi > lo, "Histogram requires 0 < lo < hi");
  check(bins >= 1, "Histogram requires at least one bin");
  log_lo_ = std::log(lo);
  inv_log_width_ = static_cast<double>(bins) / (std::log(hi) - log_lo_);
  counts_.assign(bins, 0);
  min_ = std::numeric_limits<double>::infinity();
  max_ = -std::numeric_limits<double>::infinity();
  fast_table_ = shared_fast_bins(lo, hi, bins, log_lo_, inv_log_width_);
  fast_bin_ = fast_table_->data();
  fast_size_ = fast_table_->size();
  fast_key_lo_ = fast_key_of(lo);
}

void Histogram::record(double x) {
  ++count_;
  sum_ += x;
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
  // Fast path: direct table lookup on the sample's top bits. Negative,
  // zero, and out-of-range samples miss the key window and fall through.
  const std::uint64_t off = fast_key_of(x) - fast_key_lo_;
  if (off < fast_size_) {
    const std::int16_t b = fast_bin_[static_cast<std::size_t>(off)];
    if (b >= 0) {
      ++counts_[static_cast<std::size_t>(b)];
      return;
    }
  }
  if (x < lo_ || x <= 0.0) {
    ++underflow_;
  } else if (x >= hi_) {
    ++overflow_;
  } else {
    auto i = static_cast<std::size_t>((std::log(x) - log_lo_) * inv_log_width_);
    if (i >= counts_.size()) i = counts_.size() - 1;  // edge rounding
    ++counts_[i];
  }
}

void Histogram::record_n(double x, std::uint64_t n) {
  if (n == 0) return;
  count_ += n;
  sum_ += x * static_cast<double>(n);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
  const std::uint64_t off = fast_key_of(x) - fast_key_lo_;
  if (off < fast_size_) {
    const std::int16_t b = fast_bin_[static_cast<std::size_t>(off)];
    if (b >= 0) {
      counts_[static_cast<std::size_t>(b)] += n;
      return;
    }
  }
  if (x < lo_ || x <= 0.0) {
    underflow_ += n;
  } else if (x >= hi_) {
    overflow_ += n;
  } else {
    auto i = static_cast<std::size_t>((std::log(x) - log_lo_) * inv_log_width_);
    if (i >= counts_.size()) i = counts_.size() - 1;  // edge rounding
    counts_[i] += n;
  }
}

double Histogram::min() const { return count_ ? min_ : 0.0; }
double Histogram::max() const { return count_ ? max_ : 0.0; }

double Histogram::lower_edge(std::size_t i) const {
  return std::exp(log_lo_ + static_cast<double>(i) / inv_log_width_);
}

double Histogram::upper_edge(std::size_t i) const {
  return lower_edge(i + 1);
}

double Histogram::percentile(double p) const {
  if (count_ == 0 || std::isnan(p)) return std::nan("");
  p = std::clamp(p, 0.0, 100.0);
  const double target = p / 100.0 * static_cast<double>(count_);
  double cum = 0.0;
  // Underflow bucket spans [min, lo).
  if (underflow_ > 0) {
    const double next = cum + static_cast<double>(underflow_);
    if (target <= next) {
      const double f = (target - cum) / static_cast<double>(underflow_);
      const double hi = std::min(lo_, max_);
      return min_ + f * (hi - min_);
    }
    cum = next;
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double next = cum + static_cast<double>(counts_[i]);
    if (target <= next) {
      const double f = (target - cum) / static_cast<double>(counts_[i]);
      const double a = std::max(lower_edge(i), min_);
      const double b = std::min(upper_edge(i), max_);
      return a + f * (b - a);
    }
    cum = next;
  }
  // Overflow bucket spans [hi, max].
  if (overflow_ > 0) {
    const double f =
        (target - cum) / static_cast<double>(overflow_);
    const double a = std::max(hi_, min_);
    return a + std::clamp(f, 0.0, 1.0) * (max_ - a);
  }
  return max_;
}

void Histogram::merge(const Histogram& other) {
  check(lo_ == other.lo_ && hi_ == other.hi_ &&
            counts_.size() == other.counts_.size(),
        "Histogram::merge requires identical binning");
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

namespace {

std::string entry_key(int kind, std::string_view name,
                      const std::vector<Label>& labels) {
  std::string key = std::to_string(kind) + '|' + std::string(name);
  for (const Label& l : labels) {
    key += '|';
    key += l.key;
    key += '=';
    key += l.value;
  }
  return key;
}

void write_labels(std::ostream& out, const std::vector<Label>& labels) {
  out << "\"labels\":{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i) out << ',';
    out << '"' << json_escape(labels[i].key) << "\":\""
        << json_escape(labels[i].value) << '"';
  }
  out << '}';
}

}  // namespace

Registry::Entry& Registry::fetch(Kind kind, std::string_view name,
                                 std::vector<Label> labels) {
  const std::string key = entry_key(static_cast<int>(kind), name, labels);
  const auto it = index_.find(key);
  if (it != index_.end()) return *entries_[it->second];
  auto entry = std::make_unique<Entry>();
  entry->kind = kind;
  entry->name = std::string(name);
  entry->labels = std::move(labels);
  entries_.push_back(std::move(entry));
  index_.emplace(key, entries_.size() - 1);
  return *entries_.back();
}

const Registry::Entry* Registry::find(Kind kind, std::string_view name,
                                      const std::vector<Label>& labels) const {
  const auto it = index_.find(entry_key(static_cast<int>(kind), name, labels));
  return it == index_.end() ? nullptr : entries_[it->second].get();
}

Counter& Registry::counter(std::string_view name, std::vector<Label> labels) {
  Entry& e = fetch(Kind::kCounter, name, std::move(labels));
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& Registry::gauge(std::string_view name, std::vector<Label> labels) {
  Entry& e = fetch(Kind::kGauge, name, std::move(labels));
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

Histogram& Registry::histogram(std::string_view name, double lo, double hi,
                               std::size_t bins, std::vector<Label> labels) {
  Entry& e = fetch(Kind::kHistogram, name, std::move(labels));
  if (!e.histogram) e.histogram = std::make_unique<Histogram>(lo, hi, bins);
  return *e.histogram;
}

const Counter* Registry::find_counter(std::string_view name,
                                      const std::vector<Label>& labels) const {
  const Entry* e = find(Kind::kCounter, name, labels);
  return e ? e->counter.get() : nullptr;
}

const Histogram* Registry::find_histogram(
    std::string_view name, const std::vector<Label>& labels) const {
  const Entry* e = find(Kind::kHistogram, name, labels);
  return e ? e->histogram.get() : nullptr;
}

void Registry::merge(const Registry& other) {
  for (const auto& e : other.entries_) {
    switch (e->kind) {
      case Kind::kCounter:
        counter(e->name, e->labels).add(e->counter->value());
        break;
      case Kind::kGauge:
        gauge(e->name, e->labels).set(e->gauge->value());
        break;
      case Kind::kHistogram: {
        const Histogram& src = *e->histogram;
        histogram(e->name, src.range_lo(), src.range_hi(), src.bins(),
                  e->labels)
            .merge(src);
        break;
      }
    }
  }
}

void Registry::write_json(std::ostream& out) const {
  const auto write_kind = [&](Kind kind, const char* section, auto&& body) {
    out << '"' << section << "\":[";
    bool first = true;
    for (const auto& e : entries_) {
      if (e->kind != kind) continue;
      if (!first) out << ',';
      first = false;
      out << "{\"name\":\"" << json_escape(e->name) << "\",";
      write_labels(out, e->labels);
      body(*e);
      out << '}';
    }
    out << ']';
  };

  out << '{';
  write_kind(Kind::kCounter, "counters", [&](const Entry& e) {
    out << ",\"value\":" << e.counter->value();
  });
  out << ',';
  write_kind(Kind::kGauge, "gauges", [&](const Entry& e) {
    out << ",\"value\":";
    json_number(out, e.gauge->value());
  });
  out << ',';
  write_kind(Kind::kHistogram, "histograms", [&](const Entry& e) {
    const Histogram& h = *e.histogram;
    out << ",\"count\":" << h.count() << ",\"sum\":";
    json_number(out, h.sum());
    out << ",\"mean\":";
    json_number(out, h.mean());
    out << ",\"min\":";
    json_number(out, h.min());
    out << ",\"max\":";
    json_number(out, h.max());
    for (const double p : {50.0, 90.0, 99.0}) {
      out << ",\"p" << static_cast<int>(p) << "\":";
      json_number(out, h.count() ? h.percentile(p) : 0.0);
    }
  });
  out << '}';
}

std::string Registry::snapshot_json() const {
  std::ostringstream out;
  write_json(out);
  return out.str();
}

}  // namespace wlan::obs
