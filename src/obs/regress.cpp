#include "obs/regress.h"

#include <cmath>
#include <ostream>
#include <sstream>

#include "common/check.h"

namespace wlan::obs {
namespace {

/// Metric values serialize NaN/inf as null; read them back as NaN.
double metric_value(const JsonValue& v) {
  return v.is_null() ? std::nan("") : v.as_number();
}

std::string report_id(const JsonValue& report) {
  return report.at("id").as_string();
}

std::string report_title(const JsonValue& report) {
  const JsonValue* t = report.find("title");
  return t ? t->as_string() : std::string();
}

// Ids alone need not be unique (two reports may share one), so a
// baseline entry also carries the bench title and we prefer an
// exact (id, title) match. If the title drifted (cosmetic retitle) fall
// back to the first id match rather than reporting a missing bench.
const JsonValue* find_report(const JsonValue& aggregate, const std::string& id,
                             const std::string& title) {
  const JsonValue* first_with_id = nullptr;
  for (const JsonValue& report : aggregate.at("reports").items()) {
    if (report_id(report) != id) continue;
    if (report_title(report) == title) return &report;
    if (!first_with_id) first_with_id = &report;
  }
  return first_with_id;
}

/// Wall-clock readings move with host speed and load, lane count and the
/// bench's other flags, not with behaviour, so a baseline does not pin
/// them: the `kernel_share.*` ratios (kernel seconds per wall second) and
/// EXT-ABS's timed PER lookup and its speedup over the waveform run.
bool is_wall_clock(const std::string& bench, const std::string& name) {
  if (name.starts_with("kernel_share.")) return true;
  return bench == "EXT-ABS" &&
         (name == "per_lookup_ns" || name == "speedup_vs_waveform");
}

const char* status_name(MetricDiff::Status s) {
  switch (s) {
    case MetricDiff::Status::kOk: return "ok";
    case MetricDiff::Status::kDrift: return "DRIFT";
    case MetricDiff::Status::kMissingMetric: return "MISSING METRIC";
    case MetricDiff::Status::kMissingBench: return "MISSING BENCH";
    case MetricDiff::Status::kVerdictRegressed: return "VERDICT REGRESSED";
    case MetricDiff::Status::kNew: return "new (unpinned)";
  }
  return "?";
}

}  // namespace

std::size_t DiffResult::failures() const {
  std::size_t n = 0;
  for (const MetricDiff& row : rows) {
    if (row.failed()) ++n;
  }
  return n;
}

std::string make_baseline_json(const JsonValue& aggregate, double rel_tol,
                               double abs_tol) {
  check(aggregate.at("schema").as_string() == "holtwlan-bench-aggregate-v1",
        "make_baseline_json: not an aggregate bench report");
  std::ostringstream out;
  out << "{\"schema\":\"holtwlan-bench-baseline-v1\",\n"
      << " \"default_rel_tol\":";
  json_number(out, rel_tol);
  out << ",\n \"default_abs_tol\":";
  json_number(out, abs_tol);
  out << ",\n \"benches\":[";
  bool first_bench = true;
  for (const JsonValue& report : aggregate.at("reports").items()) {
    if (!first_bench) out << ',';
    first_bench = false;
    out << "\n  {\"id\":\"" << json_escape(report_id(report))
        << "\",\"title\":\"" << json_escape(report_title(report))
        << "\",\n   \"verdict\":\""
        << json_escape(report.at("verdict").as_string())
        << "\",\n   \"metrics\":[";
    bool first_metric = true;
    for (const auto& [name, value] : report.at("metrics").members()) {
      if (is_wall_clock(report_id(report), name)) continue;
      if (!first_metric) out << ',';
      first_metric = false;
      out << "\n    {\"name\":\"" << json_escape(name) << "\",\"value\":";
      json_number(out, metric_value(value));
      out << '}';
    }
    out << "]}";
  }
  out << "\n]}\n";
  return out.str();
}

DiffResult diff_against_baseline(const JsonValue& aggregate,
                                 const JsonValue& baseline, bool subset_only) {
  check(aggregate.at("schema").as_string() == "holtwlan-bench-aggregate-v1",
        "bench diff: not an aggregate bench report");
  check(baseline.at("schema").as_string() == "holtwlan-bench-baseline-v1",
        "bench diff: not a bench baseline");
  const double default_rel = baseline.at("default_rel_tol").as_number();
  const double default_abs = baseline.at("default_abs_tol").as_number();

  DiffResult result;
  for (const JsonValue& base_bench : baseline.at("benches").items()) {
    const std::string id = base_bench.at("id").as_string();
    const JsonValue* base_title = base_bench.find("title");
    const JsonValue* report = find_report(
        aggregate, id, base_title ? base_title->as_string() : std::string());
    if (!report) {
      if (subset_only) continue;
      MetricDiff row;
      row.bench = id;
      row.status = MetricDiff::Status::kMissingBench;
      result.rows.push_back(row);
      continue;
    }
    // Verdicts may only improve: a baseline REPRODUCED must stay one.
    if (base_bench.at("verdict").as_string() == "REPRODUCED" &&
        report->at("verdict").as_string() == "MISMATCH") {
      MetricDiff row;
      row.bench = id;
      row.status = MetricDiff::Status::kVerdictRegressed;
      result.rows.push_back(row);
    }
    const JsonValue& current_metrics = report->at("metrics");
    for (const JsonValue& base_metric : base_bench.at("metrics").items()) {
      MetricDiff row;
      row.bench = id;
      row.name = base_metric.at("name").as_string();
      row.baseline = metric_value(base_metric.at("value"));
      const JsonValue* pin = base_metric.find("rel_tol");
      const double rel = pin ? pin->as_number() : default_rel;
      pin = base_metric.find("abs_tol");
      const double abs = pin ? pin->as_number() : default_abs;
      row.allowed = abs + rel * std::abs(row.baseline);
      const JsonValue* cur = current_metrics.find(row.name);
      if (!cur) {
        row.status = MetricDiff::Status::kMissingMetric;
        result.rows.push_back(row);
        continue;
      }
      row.current = metric_value(*cur);
      ++result.compared;
      const bool base_nan = std::isnan(row.baseline);
      const bool cur_nan = std::isnan(row.current);
      const bool within =
          base_nan || cur_nan
              ? base_nan == cur_nan  // NaN pins NaN (e.g. "no crossing")
              : std::abs(row.current - row.baseline) <= row.allowed;
      row.status = within ? MetricDiff::Status::kOk : MetricDiff::Status::kDrift;
      result.rows.push_back(row);
    }
    // Metrics the run grew that the baseline does not pin: surface them
    // so someone regenerates the baseline, but never fail on them.
    for (const auto& [name, value] : current_metrics.members()) {
      bool pinned = false;
      for (const JsonValue& base_metric : base_bench.at("metrics").items()) {
        if (base_metric.at("name").as_string() == name) {
          pinned = true;
          break;
        }
      }
      if (pinned) continue;
      MetricDiff row;
      row.bench = id;
      row.name = name;
      row.current = metric_value(value);
      row.status = MetricDiff::Status::kNew;
      result.rows.push_back(row);
    }
  }
  return result;
}

void write_diff_report(std::ostream& out, const DiffResult& result) {
  for (const MetricDiff& row : result.rows) {
    if (row.status == MetricDiff::Status::kOk) continue;
    out << "  [" << status_name(row.status) << "] " << row.bench;
    if (!row.name.empty()) out << '.' << row.name;
    if (row.status == MetricDiff::Status::kDrift) {
      out << ": baseline ";
      json_number(out, row.baseline);
      out << " -> current ";
      json_number(out, row.current);
      out << " (|delta| ";
      json_number(out, std::abs(row.current - row.baseline));
      out << " > allowed ";
      json_number(out, row.allowed);
      out << ')';
    }
    out << '\n';
  }
  out << "bench diff: " << result.compared << " metric(s) compared, "
      << result.failures() << " failure(s)\n";
}

}  // namespace wlan::obs
