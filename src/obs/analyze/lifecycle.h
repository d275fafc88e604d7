// Frame-lifecycle ledger: where did every frame's delay come from?
//
// The modern WLAN metric is tail latency, not peak rate — and a mean
// delay number cannot say *why* the p99 frame was late. The three
// analyzers here turn the simulator's typed event stream
// (kArrival -> kBackoffStart/kBackoffFreeze -> kTxStart/kTxEnd ->
// kRxOk/kRxFail/kCollision -> kDrop, src/obs/trace.h) into exactly that
// attribution, purely from the events — nothing here touches simulator
// internals, so any producer of the standard taxonomy can feed them:
//
//  - FrameLedger reconstructs each frame's journey at its source node
//    and splits the delivered frame's end-to-end delay into
//      queueing    arrival -> the MAC turning to the frame,
//      contention  backoff countdown + frozen countdown + deferral,
//      airtime     the final (successful) exchange, first TX_START of
//                  the attempt through delivery (data + SIFS + ACK,
//                  and RTS/CTS when used),
//      retry       failed exchanges, each from its TX_START until
//                  contention resumes (timeouts included).
//    The four components tile the journey, so they sum to the
//    end-to-end delay exactly by construction. Per-flow and
//    per-component log-binned Histograms are created in a Registry up
//    front (identical binning in every shard), so Registry::merge keeps
//    the ledger shard- and --jobs-safe.
//
//  - TimeSeriesSampler buckets the same stream into fixed windows:
//    aggregate goodput, same-slot collision rate, and queue-backed
//    frames in flight — the series warmup and non-stationarity checks
//    need (a crude suffix-mean warmup detector is included).
//
//  - InvariantAuditor checks the stream against conservation laws
//    online (time monotone; TX_START/TX_END balanced per node; per-flow
//    arrivals = delivered + dropped + in-flight; airtime
//    idle+busy+collision closing to the run duration) and, on breach,
//    dumps the last-N events from an internal RingTraceSink as a
//    flight-recorder JSON post-mortem instead of failing silently.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "obs/analyze/airtime.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace wlan::obs {

/// Delay components of one delivered frame (or sums thereof), seconds.
/// queueing + contention + airtime + retry is the end-to-end delay.
struct DelayBreakdown {
  double queueing_s = 0.0;    ///< arrival -> MAC service start
  double contention_s = 0.0;  ///< backoff + freeze + defer (and time the
                              ///< node spent answering other exchanges)
  double airtime_s = 0.0;     ///< the successful exchange, TX -> delivery
  double retry_s = 0.0;       ///< failed exchanges incl. their timeouts
  double total_s() const {
    return queueing_s + contention_s + airtime_s + retry_s;
  }
  void accumulate(const DelayBreakdown& other) {
    queueing_s += other.queueing_s;
    contention_s += other.contention_s;
    airtime_s += other.airtime_s;
    retry_s += other.retry_s;
  }
};

/// Stable component names for labels/JSON: "queueing", "contention",
/// "airtime", "retry" (index order of DelayBreakdown).
inline constexpr std::size_t kDelayComponentCount = 4;
const char* delay_component_name(std::size_t i);

/// One flow's lifecycle accounting over the run.
struct FlowLifecycle {
  /// kArrival events for queue-backed flows; for saturated flows (no
  /// kArrival ever seen) each service start counts as one arrival.
  std::uint64_t arrivals = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  /// Journeys still open + packets still queued when the books closed.
  std::uint64_t in_flight = 0;
  /// TX_STARTs of this flow's own frames (RTS and DATA attempts).
  std::uint64_t tx_attempts = 0;
  /// Attempts that ended back in contention instead of a delivery.
  std::uint64_t failed_attempts = 0;
  DelayBreakdown total;  ///< summed over delivered frames
  double mean_delay_s = 0.0;
};

/// Windowed time series from `TimeSeriesSampler::finalize`.
struct LifecycleSeries {
  double window_s = 0.0;
  std::vector<double> t_s;            ///< window end times
  std::vector<double> goodput_mbps;   ///< aggregate over all flows
  std::vector<double> collision_rate; ///< same-slot collisions / TX starts
  std::vector<double> in_flight;      ///< queue-backed frames outstanding
  /// First window w where the suffix mean of goodput over [w, n) is
  /// within 10% of the steady-state estimate (the mean over the second
  /// half). 0 = no detectable warmup transient.
  std::size_t warmup_windows = 0;
  /// Second-half goodput mean / first-half goodput mean; far from 1
  /// flags a non-stationary run (1 when either half is empty).
  double stationarity_ratio = 1.0;
};

/// The closed ledger returned by `FrameLedger::finalize`.
struct LifecycleReport {
  double duration_s = 0.0;
  std::vector<FlowLifecycle> flows;
  DelayBreakdown total;  ///< summed over all delivered frames
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t in_flight = 0;
};

/// Per-frame journey reconstruction and delay attribution; see file
/// comment. Events must arrive in nondecreasing time order.
class FrameLedger final : public TraceSink {
 public:
  struct Config {
    std::size_t n_flows = 0;
    /// Required. All histograms are created here at construction —
    /// "lifecycle.delay_s" (aggregate and {flow=f}) and
    /// "lifecycle.component_s" {component=..} (aggregate and per flow),
    /// 64 log bins over 1 us .. 100 s —
    /// so every shard registry carries the same instruments in the same
    /// order and Registry::merge is exact.
    Registry* registry = nullptr;
    /// Optional global ids used in flow= labels: entry f names flow f.
    /// Empty = identity. The sharded netsim passes global ids so
    /// per-shard registries merge into disjoint, globally named
    /// instruments.
    std::vector<std::size_t> flow_ids;
  };

  explicit FrameLedger(const Config& config);

  void record(const TraceEvent& event) override;

  /// Closes the books at `end_s`: open journeys become in-flight. The
  /// delivered-frame histograms are already in the registry. Idempotent.
  const LifecycleReport& finalize(double end_s);
  const LifecycleReport& report() const { return report_; }

  /// Mirrors the scalar ledger into `registry` as counters under
  /// "lifecycle." with flow= labels (histograms were live all along).
  void publish(Registry& registry) const;

 private:
  // A journey's time is split between two modes: contending for the
  // medium (defer/backoff/freeze) and exchanging (an attempt is on the
  // air or awaiting its response).
  enum class Mode { kContention, kExchange };

  /// Label id for local flow f (global when config_.flow_ids is set).
  std::size_t flow_id(std::size_t f) const {
    return f < config_.flow_ids.size() ? config_.flow_ids[f] : f;
  }

  struct Journey {
    bool open = false;
    double arrival_s = 0.0;
    double service_start_s = 0.0;
    double last_t = 0.0;       // last segment boundary
    Mode mode = Mode::kContention;
    double contention_s = 0.0;
    double retry_s = 0.0;
    double attempt_s = 0.0;    // current (undecided) exchange attempt
  };

  struct FlowState {
    Journey journey;
    std::deque<double> queue;  // kArrival times (queue-backed flows)
    bool saw_arrival = false;  // false => saturated source
    FlowLifecycle stats;
  };

  void close_segment(FlowState& f, double t);
  void open_journey(FlowState& f, double t);
  void finish_journey(std::size_t flow, FlowState& f, double t,
                      bool delivered);

  Config config_;
  std::vector<FlowState> flows_;
  LifecycleReport report_;
  bool finalized_ = false;
  Histogram* delay_all_ = nullptr;
  std::vector<Histogram*> delay_flow_;
  // [component][flow] and [component] aggregate.
  std::vector<Histogram*> component_all_;
  std::vector<std::vector<Histogram*>> component_flow_;
};

/// Windowed goodput / collision-rate / in-flight series over 10 ms
/// windows; see file comment. Events must arrive in nondecreasing time
/// order.
class TimeSeriesSampler final : public TraceSink {
 public:
  struct Config {
    std::size_t n_flows = 0;
    /// Bits credited per delivery; 0 leaves goodput_mbps zeroed.
    double payload_bits = 0.0;
  };

  explicit TimeSeriesSampler(const Config& config);

  void record(const TraceEvent& event) override;

  /// Normalizes the windows to cover [0, end_s) and computes the warmup
  /// and stationarity summaries. Idempotent.
  const LifecycleSeries& finalize(double end_s);
  const LifecycleSeries& series() const { return series_; }

 private:
  void window_at(double t);  // samples in-flight across window boundaries

  Config config_;
  LifecycleSeries series_;
  bool finalized_ = false;
  std::vector<std::uint64_t> deliveries_;  // per window
  std::vector<std::uint64_t> tx_starts_;
  std::vector<std::uint64_t> collisions_;
  std::vector<double> in_flight_at_end_;   // sampled at each window close
  std::vector<std::int64_t> outstanding_;  // per flow, arrivals - completions
  std::int64_t in_flight_now_ = 0;         // queue-backed flows only
  std::size_t current_window_ = 0;
};

/// Online conservation checks over the event stream with a
/// flight-recorder dump of the last 256 events on breach; see file
/// comment.
class InvariantAuditor final : public TraceSink {
 public:
  struct Config {
    std::size_t n_nodes = 0;
    std::size_t n_flows = 0;
    /// When non-empty, the first breach writes the flight-recorder JSON
    /// here ("" keeps it in memory only; see flight_recorder_json()).
    std::string dump_path;
  };

  explicit InvariantAuditor(const Config& config);

  /// Note: dropped() stays 0 — the internal ring keeps only the last-N
  /// events *by design*; that is the flight recorder's depth, not trace
  /// loss.
  void record(const TraceEvent& event) override;

  /// End-of-run checks (per-flow conservation). A transmission still on
  /// the air at `end_s` counts as in-flight, not a breach. Rewrites the
  /// dump file (if any) with the final context when breaches occurred.
  /// Returns the total breach count. Idempotent.
  std::uint64_t finalize(double end_s);

  /// Airtime-closure check against a finalized AirtimeReport:
  /// idle + busy + collision must equal the duration, and each fraction
  /// must lie in [0, 1] (relative slack 1e-9). Call before finalize().
  void audit(const AirtimeReport& airtime);

  /// Cross-checks a closed FrameLedger report: for every queue-backed
  /// flow, arrivals must equal delivered + dropped + in-flight. Call
  /// before finalize().
  void audit(const LifecycleReport& ledger);

  std::uint64_t breaches() const { return breaches_; }
  /// Human-readable breach descriptions (capped; the count is exact).
  const std::vector<std::string>& breach_messages() const {
    return messages_;
  }

  /// Flight-recorder post-mortem: breach messages plus the last-N
  /// events, as one JSON document. Empty string while no breach has
  /// occurred.
  std::string flight_recorder_json() const;

 private:
  void breach(double t, const std::string& message);

  struct FlowAudit {
    std::uint64_t arrivals = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
  };

  Config config_;
  RingTraceSink ring_;
  std::uint64_t breaches_ = 0;
  std::vector<std::string> messages_;
  bool dumped_ = false;
  bool finalized_ = false;
  double last_t_ = 0.0;
  std::vector<bool> transmitting_;  // per node
  std::vector<FlowAudit> flows_;
};

}  // namespace wlan::obs
