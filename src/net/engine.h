// The per-shard event engine behind every net:: entry point. Internal
// to the net library; its parts live in one file per job:
//
//   engine.cpp  construction, traffic, the DCF protocol and finalize;
//   medium.cpp  power rows, carrier-sense re-evaluation, border
//               influence and the transmissions that drive them;
//   merge.cpp   shard-order merge of engine outputs;
//   netsim.cpp  the driver (run_plan) and the public entry points.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "mac/frames.h"
#include "mac/rate_adapt.h"
#include "mac/timing.h"
#include "net/errormodel.h"
#include "net/netsim.h"
#include "net/shard.h"
#include "obs/analyze/airtime.h"
#include "obs/analyze/lifecycle.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/scheduler.h"

namespace wlan::net::detail {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
constexpr std::uint32_t kNil = 0xFFFFFFFFu;

/// One frame on the air. Lives in the engine's slot arena from TX start
/// to TX end; a frame with an addressee is also on that node's
/// reception list (`Engine::rx_head_`, linked through `next_rx`), so a
/// power row reaches the receptions at each of its receivers directly.
struct Transmission {
  std::size_t id = 0;
  std::size_t tx_node = kNone;  // local (shard) index
  std::size_t dest = kNone;     // addressed node (kNone for none)
  mac::FrameType kind = mac::FrameType::kData;
  std::size_t flow = kNone;    // local flow index
  std::size_t rate_index = 0;  // data-rate ladder index (kData only)
  double start_s = 0.0;
  double end_s = 0.0;
  double nav_until_s = 0.0;  // what the duration field promises
  // Reception tracking at the addressed node.
  double current_interference_w = 0.0;
  double worst_interference_w = 0.0;
  bool rx_was_transmitting = false;
  bool in_use = false;           // slot-arena bookkeeping
  std::uint32_t next_rx = kNil;  // next reception at the same `dest`
};

/// One transmitter's received power at the engine's nodes it reaches:
/// a local CSR row, or the inbound row of a remote transmitter into this
/// tile. Receivers are local ids, ascending; a row never holds its own
/// transmitter.
struct PowerRow {
  const std::uint32_t* rx = nullptr;
  const double* gain_w = nullptr;
  std::size_t size = 0;

  /// Received power at local node `m`; exactly zero outside the row
  /// (the cutoff's definition of negligible). A binary search, so it
  /// serves only the one signal lookup per reception outcome in
  /// end_transmission; the power passes walk the row itself.
  double at(std::size_t m) const {
    const std::uint32_t* end = rx + size;
    const std::uint32_t* it = std::lower_bound(rx, end, m);
    return it == end || *it != m ? 0.0 : gain_w[it - rx];
  }
};

enum class WaitKind { kNone, kCts, kAck };

// ---- border exchange (conservative time) ----
//
// Zero propagation delay makes the true lookahead of this model zero,
// so border mode *defines* cross-tile influence — ambient power, NAV,
// interference on ongoing receptions — to act exactly `delay_s` (the
// plan's lookahead) after the transmission event that caused it, while
// intra-tile influence stays immediate. That uniform delay is part of
// the model's semantics, not an approximation knob: the fused reference
// (one engine over every tile, same delayed records) and the per-tile
// lockstep run implement the *same* model and agree bitwise.

/// One transmission's influence on one neighboring tile. Emitted at TX
/// start (the end time is already determined then), routed between
/// epochs, expanded by the receiver into a start record applied at
/// `start_s + delay` and an end record at `(start_s + duration_s) +
/// delay` — the identical floating-point expressions the fused engine
/// evaluates, so both modes schedule the identical apply times.
struct BorderMsg {
  std::uint32_t origin = 0;       // global node id of the transmitter
  std::uint32_t target_tile = 0;  // shard the influence lands in
  double start_s = 0.0;
  double duration_s = 0.0;
  double nav_until_s = 0.0;
};

/// PER tables the network's frames read, in a fixed layout: data frames
/// at each ladder rate, then RTS, then CTS/ACK. Control frames ride the
/// basic rate; an HT network still sends them as legacy OFDM.
std::vector<PerTableKey> per_table_keys(const NetworkConfig& config);

/// One shard's simulation: a self-contained event engine over the
/// shard's member nodes, indexed locally (0..n-1). The monolithic
/// `simulate_network` runs the same engine on the single shard of an
/// unbounded plan, so sharded and monolithic execution share every
/// instruction of the hot path — shard-vs-monolith equivalence is by
/// construction, not by parallel maintenance of two code paths.
///
/// Station state is structure-of-arrays: the medium walk touches
/// transmitting/nav/ambient/busy_prev for a handful of neighbors per
/// event, and parallel arrays keep those lines dense instead of
/// striding over cold per-station protocol state.
///
/// Protocol timers are withdrawn, not left to run stale: a node has at
/// most one pending backoff expiry (while `counting_`) and one response
/// timeout (while `waiting_`), each held by its scheduler handle. A
/// freeze cancels the expiry and a received CTS or ACK cancels the
/// timeout, so a timer that runs is always live. NAV wakeups are
/// batched: each NAV-setting pass schedules one event that wakes the
/// nodes it armed, in arm order; a node whose NAV grew meanwhile
/// re-arms as a batch of one.
class Engine {
 public:
  /// A pending cross-tile influence record. Declared up top so
  /// member-function parameter lists can name it.
  struct InfluenceRec {
    std::uint32_t origin;     // global node id of the transmitter
    std::uint32_t tile;       // target tile (sort key; fused spans many)
    std::uint8_t kind;        // 0 = start, 1 = end
    double nav_until_s;       // end records carry the duration promise
  };

  /// Simulates shard `shard` of `plan`, or every node when `shard` is
  /// kNone (the one-engine reference). All randomness comes from
  /// per-entity streams derived from `root` and keyed by global ids —
  /// per-node MAC backoff (1) and reception (2), per-flow arrivals (3)
  /// and fading-pool indices (5), per-pair shadowing (4) — so the draw
  /// sequence does not depend on how the nodes are split into engines.
  Engine(const NetworkConfig& config, const std::vector<NodeConfig>& nodes,
         const std::vector<Flow>& flows, const ShardPlan& plan,
         std::size_t shard, std::uint64_t root, const FadingPool* pool,
         obs::Registry* registry, obs::TraceSink* trace);

  /// Global flow index per local flow (ascending).
  const std::vector<std::size_t>& flow_ids() const { return flow_id_; }
  /// Global node index per local node (ascending).
  const std::vector<std::size_t>& node_ids() const { return node_id_; }

  // ---- driver surface (run_plan composes these phases for every plan) ----

  /// Seeds arrivals and initial countdowns without running the clock.
  void start();

  /// Runs events strictly before `t` (one epoch's private horizon).
  std::size_t run_before(double t) { return sched_.run_before(t); }
  /// Runs the final, inclusive round up to `t`.
  std::size_t run_final(double t) { return sched_.run_until(t); }
  /// Earliest pending event (+inf when drained); for epoch skipping.
  double next_time() const { return sched_.next_time(); }
  /// Border messages generated since the last drain (epoch driver only).
  std::vector<BorderMsg>& outbox() { return outbox_; }
  /// Tiles coupled to this one, ascending. Coupling is symmetric, so
  /// these are both the tiles its messages go to and the only tiles
  /// whose messages can target it.
  const std::vector<std::uint32_t>& peer_tiles() const { return peer_tiles_; }

  /// Expands a routed border message into its start/end records. Called
  /// by the epoch driver at the start of the engine's next round; the
  /// apply times land at or after that round's epoch boundary by the
  /// lookahead's power-of-two rounding guarantee, so they are always in
  /// this engine's future.
  void inject_border(const BorderMsg& msg);

  NetworkResult finalize();

 private:
  // ---- engine.cpp: observability, traffic and the DCF protocol ----

  /// One pointer test per site when all observers are off (the lifecycle
  /// sinks only exist when ledger_ does, so three tests cover them all).
  /// Internal analyzers index their arrays by the event's node/flow ids,
  /// so they receive LOCAL ids (they are sized for this shard); the
  /// user's trace sink gets a copy remapped to global ids.
  void emit(obs::EventType type, std::size_t node, std::size_t peer,
            std::size_t flow, double value, const char* detail = "",
            std::size_t frame = kNone) {
    if (trace_ || airtime_ || ledger_)
      record_event(type, node, peer, flow, value, detail, frame);
  }
  void record_event(obs::EventType type, std::size_t node, std::size_t peer,
                    std::size_t flow, double value, const char* detail,
                    std::size_t frame);

  unsigned draw_backoff(std::size_t n) {
    return static_cast<unsigned>(mac_rng_[n].uniform_int(cw_[n] + 1));
  }

  /// Data-frame airtime at station `n`'s current rate.
  double t_data(std::size_t n) const { return t_data_by_rate_[rate_index_[n]]; }

  bool has_traffic(std::size_t n) const {
    return flow_of_[n] != kNone && (saturated_[n] || !queue_[n].empty());
  }

  void schedule_arrival(std::size_t n, double rate_pps);
  void begin_exchange(std::size_t n);
  void send_data(std::size_t n, double nav_until_s);
  void arm_timeout(std::size_t n, WaitKind kind, double delay_s);
  void on_exchange_failed(std::size_t n, WaitKind kind);
  void on_exchange_succeeded(std::size_t n);
  void handle_frame_outcome(const Transmission& t, bool delivered);

  // ---- medium.cpp: power rows, carrier sense, border influence and
  // transmissions ----

  PowerRow power_row(std::size_t begin, std::size_t end) const {
    return {row_nbr_.data() + begin, row_gain_.data() + begin, end - begin};
  }

  /// Local node `n`'s transmissions at its same-shard neighbors.
  PowerRow local_row(std::size_t n) const {
    return power_row(row_off_[n], row_off_[n + 1]);
  }

  bool medium_busy(std::size_t n) const {
    if (transmitting_[n]) return true;
    if (sched_.now() < nav_until_[n]) return true;
    return ambient_w_[n] >= cs_w_[n];
  }

  PowerRow inbound_row(const InfluenceRec& rec) const;
  template <bool kOn>
  void apply_power(const PowerRow& row);
  void overhear_nav(const PowerRow& row, double nav_until_s,
                    std::size_t addressee, std::size_t peer,
                    const char* detail);
  [[nodiscard]] bool freeze(std::size_t n);
  void maybe_start_countdown(std::size_t n);
  std::size_t open_fire_list();
  void fire(std::size_t depth);
  void update_medium_set(std::size_t center);
  void update_medium_node(std::size_t n);
  void visit_medium(std::size_t n, std::size_t depth);
  void wake_nav(std::uint32_t head);
  void queue_influence(std::size_t n, double duration_s, double nav_until_s);
  void add_influence(double w, const InfluenceRec& rec);
  void apply_influence(double w);
  void start_transmission(std::size_t n, std::size_t dest,
                          mac::FrameType kind, std::size_t flow,
                          double duration_s, double nav_until_s);
  void end_transmission(std::uint32_t slot, std::size_t id);
  std::uint32_t push_active(const Transmission& t);
  void unlink(std::uint32_t s);
  const LinkPerModel& model_for(const Transmission& t) const;

  NetworkConfig config_;
  std::uint64_t frame_id_base_ = 0;
  mac::MacTiming timing_{};
  sim::Scheduler sched_;
  std::size_t n_ = 0;        // shard size
  std::size_t n_flows_ = 0;  // flows sourced inside the shard
  std::vector<std::size_t> node_id_;  // local -> global node
  std::vector<std::size_t> flow_id_;  // local -> global flow
  std::vector<std::uint32_t> flow_src_;  // local flow -> local source
  std::vector<double> arrival_rate_;     // per local flow
  // Power rows: received power (W) per edge. The local CSR rows
  // (row_off_, one per node) come first, the inbound rows after them.
  std::vector<std::size_t> row_off_;
  std::vector<std::uint32_t> row_nbr_;
  std::vector<double> row_gain_;
  std::vector<double> noise_w_;
  std::vector<double> cs_w_;
  // Station state, structure-of-arrays.
  std::vector<std::size_t> flow_of_;
  std::vector<std::size_t> dest_of_;
  std::vector<std::uint8_t> saturated_;
  std::vector<std::deque<double>> queue_;
  std::vector<unsigned> cw_;
  std::vector<unsigned> retries_count_;
  std::vector<unsigned> slots_remaining_;
  std::vector<std::uint8_t> counting_;
  std::vector<double> count_start_s_;
  std::vector<sim::Scheduler::Handle> backoff_timer_;  // while counting_
  std::vector<std::uint8_t> busy_prev_;
  std::vector<double> nav_until_;
  std::vector<std::uint8_t> nav_armed_;
  // While nav_armed_: the next node of its NAV batch (kNil: last). A
  // node is in at most one pending batch, so one link per node holds
  // every batch, and a batch's event names it by its head.
  std::vector<std::uint32_t> nav_next_;
  std::vector<double> ambient_w_;  // running sum of neighbor tx power
  std::vector<double> ambient_peak_w_;  // run max; clamp-slack scale
  std::vector<std::uint8_t> transmitting_;
  std::vector<WaitKind> waiting_;
  std::vector<sim::Scheduler::Handle> response_timer_;  // while waiting_
  std::vector<std::size_t> rate_index_;
  std::vector<std::optional<mac::ArfController>> arf_;
  // Active transmissions: a slot arena, plus per node the head of the
  // intrusive list of ongoing receptions addressed to it (kNil: none).
  std::vector<Transmission> slots_;
  std::vector<std::uint32_t> free_;
  std::vector<std::uint32_t> rx_head_;
  std::size_t next_id_ = 0;
  // Per-recursion-depth scratch for the medium passes' fire lists.
  std::vector<std::vector<std::uint32_t>> fire_pool_;
  std::size_t fire_depth_ = 0;
  // Observability: counters/histograms live in `*registry_`; trace may
  // be null.
  obs::Registry local_registry_;
  obs::Registry* registry_ = nullptr;
  obs::TraceSink* trace_ = nullptr;
  std::unique_ptr<obs::AirtimeAccountant> airtime_;
  std::unique_ptr<obs::FrameLedger> ledger_;
  std::unique_ptr<obs::TimeSeriesSampler> sampler_;
  std::unique_ptr<obs::InvariantAuditor> auditor_;
  obs::Counter* breaches_counter_ = nullptr;
  obs::Counter* data_tx_ = nullptr;
  obs::Counter* data_failures_ = nullptr;
  obs::Counter* rts_tx_ = nullptr;
  obs::Counter* rts_failures_ = nullptr;
  obs::Counter* simultaneous_starts_ = nullptr;
  obs::Counter* nav_wakeups_ = nullptr;  // per node woken, not per event
  std::vector<obs::Counter*> delivered_;
  std::vector<obs::Counter*> attempts_;
  std::vector<obs::Counter*> retries_;
  std::vector<obs::Counter*> drops_;
  std::vector<obs::Histogram*> delay_hist_;
  std::vector<double> data_rates_;      // ladder (1 entry when fixed)
  std::vector<double> t_data_by_rate_;  // airtime per ladder entry
  double t_ack_ = 0.0;
  double t_rts_ = 0.0;
  double t_cts_ = 0.0;
  // PER reception model (per_model_ only).
  bool per_model_ = false;
  struct FlowErrorModels {
    std::vector<LinkPerModel> data;  // source -> destination, per rate
    LinkPerModel ctrl_fwd;           // RTS, source -> destination
    LinkPerModel ctrl_rev;           // CTS/ACK, destination -> source
  };
  std::vector<FlowErrorModels> models_;
  struct RateStats {
    double rate_sum_mbps = 0.0;
    std::uint64_t attempts = 0;
  };
  std::vector<RateStats> rate_stats_;
  NetworkResult result_;
  // ---- border exchange (empty without cross-tile edges) ----
  bool fused_ = false;   // one engine simulates every tile (reference)
  double delay_s_ = 0.0;  // cross-tile influence delay = plan lookahead
  std::size_t n_tiles_ = 0;
  /// Inbound rows by key (origin global id * n_tiles + target tile),
  /// ascending: key k's row spans row_nbr_/row_gain_
  /// [inbound_off_[k], inbound_off_[k + 1]).
  std::vector<std::uint64_t> inbound_key_;
  std::vector<std::size_t> inbound_off_;
  /// Per local node: the tiles its transmissions influence (CSR).
  std::vector<std::size_t> out_off_;
  std::vector<std::uint32_t> out_tile_;
  std::vector<std::uint32_t> peer_tiles_;  // distinct out_tile_, ascending
  /// Pending influence by apply time; one urgent event armed per key.
  std::map<double, std::vector<InfluenceRec>> influence_;
  std::vector<BorderMsg> outbox_;
  // Apply-time scratch: the distinct nodes an influence time reaches,
  // and a per-node mark that dedupes them.
  std::vector<std::uint32_t> affected_;
  std::vector<std::uint8_t> affected_mark_;
  // Per-entity RNG streams (see the constructor).
  std::vector<Rng> mac_rng_;
  std::vector<Rng> rx_rng_;
  std::vector<Rng> arrival_rng_;
  obs::Counter* border_msgs_ = nullptr;
};

}  // namespace wlan::net::detail
