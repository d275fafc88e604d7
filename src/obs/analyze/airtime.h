// Airtime accounting: turns the MAC event stream into a ledger of where
// the channel's time went.
//
// The paper's through-line is that each 802.11 generation is judged by
// how much of the channel it converts into useful airtime — headline PHY
// rates are eaten by MAC overhead, collisions, and deferral. The
// `AirtimeAccountant` is a `TraceSink` that consumes the simulator's
// typed events (TX_START/TX_END/COLLISION/BACKOFF_*/NAV_SET/...) and
// produces exactly that accounting:
//
//  - a channel-time partition — idle / busy (exactly one transmission in
//    the air) / collision (two or more overlapping) — that sums to the
//    run duration by construction;
//  - a per-node ledger: transmit airtime (and the part of it spent
//    overlapping other transmissions), backoff countdown time, and
//    deferral time (frozen countdown waiting for the medium);
//  - Jain fairness over per-node airtime.
//
// Per-flow deliveries and drops are not repeated here: the simulator
// counts them (net.delivered / net.drops), FrameLedger reconciles them
// per frame, and TimeSeriesSampler windows them into goodput.
//
// The accountant is pure event-stream analysis: it never touches the
// simulator's internals, so anything emitting the standard taxonomy
// (net::simulate_network, mac::simulate_dcf, a parsed JSONL trace) can
// feed it. `publish()` mirrors the ledger into a metrics `Registry` as
// (name, label) instruments under "airtime.".
#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace wlan::obs {

/// Where one node's time went (seconds over the whole run).
struct NodeAirtime {
  double tx_s = 0.0;            ///< transmitting (any frame kind)
  double tx_overlap_s = 0.0;    ///< subset of tx_s with >= 2 frames in the air
  double backoff_s = 0.0;       ///< contention countdown running
  double defer_s = 0.0;         ///< countdown frozen, waiting for the medium
  std::uint64_t tx_frames = 0;  ///< frames put on the air
  std::uint64_t data_frames = 0;  ///< subset with detail "DATA"
  std::uint64_t rts_frames = 0;   ///< subset with detail "RTS"
  std::uint64_t same_slot_collisions = 0;  ///< COLLISION events observed
};

/// The closed ledger returned by `AirtimeAccountant::finalize`.
struct AirtimeReport {
  double duration_s = 0.0;
  double idle_s = 0.0;       ///< no transmission in the air
  double busy_s = 0.0;       ///< exactly one transmission in the air
  double collision_s = 0.0;  ///< two or more overlapping transmissions
  std::vector<NodeAirtime> nodes;

  double idle_fraction() const { return frac(idle_s); }
  double busy_fraction() const { return frac(busy_s); }
  double collision_fraction() const { return frac(collision_s); }

  /// Jain's index over per-node transmit airtime (1 = perfectly fair).
  double jain_fairness_airtime() const;

 private:
  double frac(double x) const { return duration_s > 0.0 ? x / duration_s : 0.0; }
};

/// Streaming airtime accountant; see file comment. Events must arrive in
/// nondecreasing time order (simulator order).
class AirtimeAccountant final : public TraceSink {
 public:
  struct Config {
    std::size_t n_nodes = 0;
    /// Optional global ids used only for publish() labels: entry i names
    /// node i in the emitted node= labels. Empty = identity. The sharded
    /// netsim passes global ids so per-shard registries merge into
    /// disjoint, globally named instruments.
    std::vector<std::size_t> node_ids;
  };

  explicit AirtimeAccountant(const Config& config);

  void record(const TraceEvent& event) override;

  /// Closes the books at `end_s` (open transmissions, backoffs, and
  /// deferrals are truncated there) and returns the ledger. Idempotent;
  /// events recorded after finalize are ignored.
  const AirtimeReport& finalize(double end_s);

  /// The ledger so far (valid after finalize; before it, a live view up
  /// to the last event processed).
  const AirtimeReport& report() const { return report_; }

  /// Mirrors the finalized ledger into `registry` as gauges/counters
  /// under "airtime." with node= labels.
  void publish(Registry& registry) const;

 private:
  enum class NodeState { kIdle, kBackoff, kDefer, kTx };

  void advance(double t);
  void settle_node(std::size_t n, double t);

  Config config_;
  AirtimeReport report_;
  bool finalized_ = false;
  double last_t_ = 0.0;
  std::size_t active_tx_ = 0;          // transmissions currently in the air
  std::vector<bool> transmitting_;     // per node
  std::vector<NodeState> state_;       // per node (contention view)
  std::vector<double> state_since_;    // per node timestamp of last change
};

}  // namespace wlan::obs
