// Benchmark regression gate: metric-by-metric comparison of an
// aggregate bench report against a committed baseline.
//
// The claim benches (C1..C13 + extensions) each emit a
// "holtwlan-bench-v1" JSON report; scripts/run_benches.sh concatenates
// them into a "holtwlan-bench-aggregate-v1" document. A PASS verdict
// alone is a weak gate — a 30% throughput regression can hide behind a
// still-true inequality. The baseline pins every scalar metric to the
// value a known-good run produced, with per-metric tolerances:
//
//   {"schema": "holtwlan-bench-baseline-v1",
//    "default_rel_tol": 0.25, "default_abs_tol": 1e-9,
//    "benches": [
//      {"id": "C2", "title": "C2: DSSS processing gain ...",
//       "verdict": "REPRODUCED",
//       "metrics": [{"name": "processing_gain_db", "value": 10.4,
//                    "rel_tol": 0.05}, ...]}, ...]}
//
// Ids need not be unique (two reports may share one), so the title
// disambiguates; an entry with a stale title degrades to matching
// the first report with its id rather than failing as a missing bench.
//
// A current value drifts when |cur - base| > abs_tol + rel_tol * |base|
// (per-metric tolerances override the defaults). Verdicts may improve
// but not regress (REPRODUCED -> MISMATCH fails). Metrics or benches
// present in the baseline but absent from the run fail — silent
// disappearance is the regression the gate exists to catch; benches the
// run added on top of the baseline are reported but never fail.
//
// `bench/bench_diff.cpp` wraps this as the CLI that
// scripts/run_benches.sh --baseline and CI invoke.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/json.h"

namespace wlan::obs {

/// One compared metric (or structural finding) in the diff.
struct MetricDiff {
  enum class Status {
    kOk,               ///< within tolerance
    kDrift,            ///< |cur - base| exceeded the allowance
    kMissingMetric,    ///< in the baseline, absent from the run
    kMissingBench,     ///< whole bench absent from the run
    kVerdictRegressed, ///< baseline REPRODUCED, run MISMATCH
    kNew,              ///< in the run, absent from the baseline (informational)
  };

  std::string bench;
  std::string name;  // metric name; empty for bench-level rows
  double baseline = 0.0;
  double current = 0.0;
  double allowed = 0.0;  // abs_tol + rel_tol * |baseline|
  Status status = Status::kOk;

  bool failed() const {
    return status != Status::kOk && status != Status::kNew;
  }
};

struct DiffResult {
  std::vector<MetricDiff> rows;
  std::size_t compared = 0;  // metric comparisons performed

  std::size_t failures() const;
  bool ok() const { return failures() == 0; }
};

/// Renders an aggregate report ("holtwlan-bench-aggregate-v1") into a
/// fresh baseline document pinning every scalar metric at its current
/// value under the given default tolerances — except wall-clock readings
/// (the `kernel_share.*` ratios, EXT-ABS's `per_lookup_ns` and
/// `speedup_vs_waveform`), which the diff then lists as unpinned.
std::string make_baseline_json(const JsonValue& aggregate, double rel_tol,
                               double abs_tol);

/// Compares `aggregate` against `baseline`. With `subset_only`, benches
/// missing from the run are skipped instead of failing (for partial
/// reruns via run_benches.sh --only).
DiffResult diff_against_baseline(const JsonValue& aggregate,
                                 const JsonValue& baseline, bool subset_only);

/// Human-readable table of every non-OK row plus a summary line.
void write_diff_report(std::ostream& out, const DiffResult& result);

}  // namespace wlan::obs
