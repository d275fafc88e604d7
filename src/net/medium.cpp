#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/units.h"
#include "net/engine.h"

namespace wlan::net::detail {
namespace {

const char* frame_name(mac::FrameType kind) {
  switch (kind) {
    case mac::FrameType::kData: return "DATA";
    case mac::FrameType::kAck: return "ACK";
    case mac::FrameType::kRts: return "RTS";
    case mac::FrameType::kCts: return "CTS";
    case mac::FrameType::kBeacon: return "BEACON";
  }
  return "?";
}

/// Subtracts an interferer's power from a running sum. Incremental
/// add/subtract leaves rounding residues, so the result can dip below
/// zero legitimately — but only by an amount set by machine epsilon and
/// the scales involved: relative to the term just removed, or to the
/// sum's running peak (a 1e-30 W remote signal folded into a 1e-6 W sum
/// is absorbed entirely by rounding, so removing it can undershoot by
/// ~eps * peak, far more than any multiple of the term itself).
/// Anything beyond that slack means double-subtraction — a bookkeeping
/// bug — and aborts; the legitimate residue clamps to exactly zero.
void subtract_clamped(double& sum_w, double term_w, double peak_w,
                      const char* what) {
  sum_w -= term_w;
  if (sum_w < 0.0) {
    check(sum_w >= -(1e-9 * term_w + 1e-12 * peak_w), what);
    sum_w = 0.0;
  }
}

}  // namespace

// ---- power rows ----

/// A remote transmitter's power at the nodes of the tile it lands in.
PowerRow Engine::inbound_row(const InfluenceRec& rec) const {
  const std::uint64_t key =
      static_cast<std::uint64_t>(rec.origin) * n_tiles_ + rec.tile;
  const auto it =
      std::lower_bound(inbound_key_.begin(), inbound_key_.end(), key);
  check(it != inbound_key_.end() && *it == key,
        "border influence without inbound edges");
  const auto k = static_cast<std::size_t>(it - inbound_key_.begin());
  return power_row(inbound_off_[k], inbound_off_[k + 1]);
}

/// Switches one transmitter's power on or off along `row`, one receiver
/// at a time: its running ambient sum (the peak calibrates the clamp's
/// rounding slack), then the interference at each ongoing reception
/// addressed to it. Every accumulator takes one operation per call, and
/// the ambient peak the reception clamp reads only moves when power
/// switches on, so this visit order computes what a pass over all
/// ambient sums followed by one over all receptions would. Receptions
/// addressed to the transmitter itself lie outside its row.
template <bool kOn>
void Engine::apply_power(const PowerRow& row) {
  for (std::size_t i = 0; i < row.size; ++i) {
    const std::uint32_t m = row.rx[i];
    const double g = row.gain_w[i];
    if constexpr (kOn) {
      ambient_w_[m] += g;
      ambient_peak_w_[m] = std::max(ambient_peak_w_[m], ambient_w_[m]);
    } else {
      subtract_clamped(ambient_w_[m], g, ambient_peak_w_[m],
                       "ambient power went negative");
    }
    for (std::uint32_t s = rx_head_[m]; s != kNil; s = slots_[s].next_rx) {
      Transmission& rx = slots_[s];
      if constexpr (kOn) {
        rx.current_interference_w += g;
        rx.worst_interference_w =
            std::max(rx.worst_interference_w, rx.current_interference_w);
      } else {
        // The sum was seeded from a snapshot of the destination's
        // ambient sum, so it inherits that sum's rounding residue —
        // scaled by the ambient's historical peak, which can dwarf this
        // frame's own interference.
        subtract_clamped(rx.current_interference_w, g,
                         std::max(rx.worst_interference_w,
                                  ambient_peak_w_[m]),
                         "reception interference went negative");
      }
    }
  }
}

/// Overhearing receivers in `row` at or above their carrier-sense
/// threshold set their NAV from a duration field, except the frame's
/// addressee. A node outside the row hears the frame below the
/// cutoff, hence below every carrier-sense threshold by construction.
/// The nodes the pass newly arms form one NAV batch (see wake_nav).
void Engine::overhear_nav(const PowerRow& row, double nav_until_s,
                          std::size_t addressee, std::size_t peer,
                          const char* detail) {
  std::uint32_t head = kNil;
  std::uint32_t tail = kNil;
  for (std::size_t i = 0; i < row.size; ++i) {
    const std::uint32_t m = row.rx[i];
    if (m == addressee || row.gain_w[i] < cs_w_[m] ||
        nav_until_s <= nav_until_[m])
      continue;
    nav_until_[m] = nav_until_s;
    emit(obs::EventType::kNavSet, m, peer, kNone, nav_until_s, detail);
    if (nav_armed_[m]) continue;
    nav_armed_[m] = 1;
    nav_next_[m] = kNil;
    if (head == kNil) {
      head = m;
    } else {
      nav_next_[tail] = m;
    }
    tail = m;
  }
  if (head != kNil)
    sched_.schedule_at(nav_until_s, [this, head] { wake_nav(head); });
}

// ---- contention and carrier-sense re-evaluation ----

// Freezes a counting station and cancels its pending backoff expiry.
// Returns true when the station's counter had already reached zero at
// this exact instant — i.e. it transmits simultaneously with whatever
// made the medium busy (a real collision), because it cannot sense a
// transmission that starts in the same slot.
bool Engine::freeze(std::size_t n) {
  if (!counting_[n]) return false;
  const double elapsed = sched_.now() - count_start_s_[n] - timing_.difs_s();
  if (elapsed > 0.0) {
    const auto used =
        static_cast<unsigned>(std::floor(elapsed / timing_.slot_s + 1e-9));
    slots_remaining_[n] -= std::min(used, slots_remaining_[n]);
  }
  counting_[n] = 0;
  sched_.cancel(backoff_timer_[n]);
  emit(obs::EventType::kBackoffFreeze, n, kNone, flow_of_[n],
       static_cast<double>(slots_remaining_[n]));
  return slots_remaining_[n] == 0 && elapsed >= -1e-12;
}

void Engine::maybe_start_countdown(std::size_t n) {
  if (!has_traffic(n) || counting_[n] || transmitting_[n] ||
      waiting_[n] != WaitKind::kNone) {
    return;
  }
  if (medium_busy(n)) return;
  counting_[n] = 1;
  count_start_s_[n] = sched_.now();
  emit(obs::EventType::kBackoffStart, n, kNone, flow_of_[n],
       static_cast<double>(slots_remaining_[n]));
  const double delay =
      timing_.difs_s() +
      static_cast<double>(slots_remaining_[n]) * timing_.slot_s;
  backoff_timer_[n] = sched_.schedule(delay, [this, n] {
    counting_[n] = 0;
    slots_remaining_[n] = 0;
    begin_exchange(n);
  });
  // If the NAV is what ends later, it was already accounted: medium_busy
  // checked NAV; NAV can only start via frame ends which re-evaluate.
}

/// Opens the fire list of one medium re-evaluation pass. Passes nest:
/// a fired station's transmission re-evaluates its own neighborhood
/// before the outer pass fires its next station.
std::size_t Engine::open_fire_list() {
  const std::size_t depth = fire_depth_++;
  if (fire_pool_.size() <= depth) fire_pool_.emplace_back();
  fire_pool_[depth].clear();
  return depth;
}

/// Closes a pass: stations whose counters expired in the very slot the
/// medium went busy transmit anyway — the collision DCF is built
/// around.
void Engine::fire(std::size_t depth) {
  simultaneous_starts_->add(fire_pool_[depth].size());
  for (const std::uint32_t n : fire_pool_[depth]) {
    emit(obs::EventType::kCollision, n, kNone, flow_of_[n], 0.0);
    begin_exchange(n);
  }
  --fire_depth_;
}

/// Re-evaluates the medium at `center` and its neighbors, ascending —
/// the only stations whose carrier-sense inputs an event at `center`
/// can have changed. On the unbounded plan this is every station.
void Engine::update_medium_set(std::size_t center) {
  const std::size_t depth = open_fire_list();
  const PowerRow row = local_row(center);
  bool center_done = false;
  for (std::size_t i = 0; i < row.size; ++i) {
    const std::size_t m = row.rx[i];
    if (!center_done && center < m) {
      visit_medium(center, depth);
      center_done = true;
    }
    visit_medium(m, depth);
  }
  if (!center_done) visit_medium(center, depth);
  fire(depth);
}

/// Single-node re-evaluation for NAV expiry: only `n`'s own medium
/// view changed, so no neighbor walk is needed.
void Engine::update_medium_node(std::size_t n) {
  const std::size_t depth = open_fire_list();
  visit_medium(n, depth);
  fire(depth);
}

void Engine::visit_medium(std::size_t n, std::size_t depth) {
  const bool busy = medium_busy(n);
  if (busy && !busy_prev_[n]) {
    if (freeze(n)) fire_pool_[depth].push_back(static_cast<std::uint32_t>(n));
  } else if (!busy) {
    // Idle (or just became idle): an eligible station may (re)start.
    maybe_start_countdown(n);
  }
  busy_prev_[n] = busy;
}

// ---- NAV wakeups ----
//
// One pending NAV wakeup per node, however many NAV_SETs pile up: a
// later extension just lets the armed wakeup fire early and re-arm at
// the new expiry, instead of scheduling one event per NAV_SET (which
// grew the queue quadratically under dense overhearing). The wakeups
// one pass arms all expire at that pass's NAV end, so they share one
// event that runs them in arm order. Per node they would have taken
// consecutive sequence numbers at one timestamp; a normal event a
// wakeup schedules takes a later number, and the only urgent events
// (border influence) land a positive lookahead after their cause. So
// the queue ran them back to back anyway: batching leaves every
// event's order unchanged.

/// Wakes the NAV batch that starts at `head`, in arm order: a node
/// whose NAV grew since it was armed re-arms as a batch of one; the
/// rest re-evaluate their medium.
void Engine::wake_nav(std::uint32_t head) {
  std::uint64_t woken = 0;
  std::uint32_t n = head;
  while (n != kNil) {
    const std::uint32_t next = nav_next_[n];  // a re-arm relinks n
    if (sched_.now() < nav_until_[n]) {
      nav_next_[n] = kNil;
      sched_.schedule_at(nav_until_[n], [this, n] { wake_nav(n); });
    } else {
      nav_armed_[n] = 0;
      update_medium_node(n);
    }
    n = next;
    ++woken;
  }
  nav_wakeups_->add(woken);
}

// ---- border influence (cross-tile edges only) ----

void Engine::inject_border(const BorderMsg& msg) {
  add_influence(msg.start_s + delay_s_,
                InfluenceRec{msg.origin, msg.target_tile, 0, 0.0});
  add_influence((msg.start_s + msg.duration_s) + delay_s_,
                InfluenceRec{msg.origin, msg.target_tile, 1,
                             msg.nav_until_s});
}

/// Queues one BorderMsg per tile this transmission couples into.
/// Fused: the engine injects it into itself at once. Per-tile: it goes
/// to the outbox for the epoch driver to route. Either way
/// inject_border expands it into the same two records with the same
/// floating-point apply times.
void Engine::queue_influence(std::size_t n, double duration_s,
                             double nav_until_s) {
  const std::size_t b = out_off_[n];
  const std::size_t e = out_off_[n + 1];
  if (b == e) return;
  const auto g = static_cast<std::uint32_t>(node_id_[n]);
  for (std::size_t i = b; i < e; ++i) {
    border_msgs_->add();
    const BorderMsg msg{g, out_tile_[i], sched_.now(), duration_s,
                        nav_until_s};
    if (fused_) {
      inject_border(msg);
    } else {
      outbox_.push_back(msg);
    }
  }
}

void Engine::add_influence(double w, const InfluenceRec& rec) {
  auto [it, inserted] = influence_.try_emplace(w);
  it->second.push_back(rec);
  // One urgent apply event per distinct time: influence lands before
  // any normal event at the same instant, in every execution mode.
  if (inserted) {
    sched_.schedule_at_urgent(w, [this, w] { apply_influence(w); });
  }
}

/// Applies every influence record stamped `w` in the canonical
/// (origin, kind, tile) order — a strict total order, since a node's
/// transmissions never share a start or an end instant — so ambient
/// and interference sums see the identical operation sequence in the
/// fused and per-tile runs. Affected nodes then re-evaluate their
/// medium ascending in one pass; a per-node mark keeps each node once,
/// so only the distinct ids are sorted.
void Engine::apply_influence(double w) {
  const auto found = influence_.find(w);
  check(found != influence_.end(), "influence records lost");
  std::vector<InfluenceRec> recs = std::move(found->second);
  influence_.erase(found);
  std::sort(recs.begin(), recs.end(),
            [](const InfluenceRec& a, const InfluenceRec& b) {
              if (a.origin != b.origin) return a.origin < b.origin;
              if (a.kind != b.kind) return a.kind < b.kind;
              return a.tile < b.tile;
            });
  affected_.clear();
  for (const InfluenceRec& rec : recs) {
    const PowerRow row = inbound_row(rec);
    if (rec.kind == 0) {
      apply_power<true>(row);
    } else {
      apply_power<false>(row);
      // Remote NAV from the transmission's duration field, applied at
      // the end record like the local overhear path. Already-expired
      // promises are skipped (deterministically — the record carries
      // the same values in both modes).
      if (rec.nav_until_s > w)
        overhear_nav(row, rec.nav_until_s, kNone, kNone, "REMOTE");
    }
    for (std::size_t i = 0; i < row.size; ++i) {
      const std::uint32_t m = row.rx[i];
      if (affected_mark_[m]) continue;
      affected_mark_[m] = 1;
      affected_.push_back(m);
    }
  }
  std::sort(affected_.begin(), affected_.end());
  const std::size_t depth = open_fire_list();
  for (const std::uint32_t m : affected_) {
    affected_mark_[m] = 0;
    visit_medium(m, depth);
  }
  fire(depth);
}

// ---- transmissions ----

void Engine::start_transmission(std::size_t n, std::size_t dest,
                                mac::FrameType kind, std::size_t flow,
                                double duration_s, double nav_until_s) {
  transmitting_[n] = 1;
  Transmission t;
  t.id = next_id_++;
  t.tx_node = n;
  t.dest = dest;
  t.kind = kind;
  t.flow = flow;
  if (kind == mac::FrameType::kData) t.rate_index = rate_index_[n];
  t.start_s = sched_.now();
  t.end_s = sched_.now() + duration_s;
  t.nav_until_s = nav_until_s;
  if (dest != kNone) {
    // This frame's power is not yet in the ambient sums, so the
    // ambient at the destination is exactly the interference it will
    // see.
    t.current_interference_w = ambient_w_[dest];
    // A destination that is itself transmitting cannot receive.
    if (transmitting_[dest]) t.rx_was_transmitting = true;
    t.worst_interference_w = t.current_interference_w;
  }
  // This transmission interferes with every other ongoing reception
  // (it is not on a reception list yet), and any reception addressed
  // to us is now lost.
  apply_power<true>(local_row(n));
  for (std::uint32_t s = rx_head_[n]; s != kNil; s = slots_[s].next_rx)
    slots_[s].rx_was_transmitting = true;
  emit(obs::EventType::kTxStart, n, dest, flow, duration_s,
       frame_name(kind), t.id);
  queue_influence(n, duration_s, nav_until_s);
  const std::size_t id = t.id;
  const std::uint32_t slot = push_active(t);
  update_medium_set(n);
  sched_.schedule(duration_s, [this, slot, id] {
    end_transmission(slot, id);
  });
}

void Engine::end_transmission(std::uint32_t slot, std::size_t id) {
  check(slot < slots_.size() && slots_[slot].in_use &&
            slots_[slot].id == id,
        "transmission bookkeeping lost");
  const Transmission t = slots_[slot];
  unlink(slot);
  transmitting_[t.tx_node] = 0;
  // Remove this signal from the neighbors' ambient sums and from
  // other ongoing receptions' interference.
  const PowerRow row = local_row(t.tx_node);
  apply_power<false>(row);

  emit(obs::EventType::kTxEnd, t.tx_node, t.dest, t.flow,
       t.end_s - t.start_s, frame_name(t.kind), t.id);

  // Reception outcome at the addressed node.
  bool delivered = false;
  double sinr_db = -std::numeric_limits<double>::infinity();
  if (t.dest != kNone && !t.rx_was_transmitting &&
      !transmitting_[t.dest]) {
    const double signal = row.at(t.dest);
    const double sinr =
        signal / (noise_w_[t.dest] + t.worst_interference_w);
    sinr_db = lin_to_db(sinr);
    if (per_model_) {
      // Preamble acquisition first: the PER curves model payload
      // decoding and scale with payload length, so on their own a
      // short control frame would ride out an equal-power collision.
      // Below the capture SINR the receiver never syncs and no RNG is
      // consumed.
      if (sinr_db < config_.error_model.preamble_capture_db) {
        delivered = false;
      } else {
        // Block fading per frame: pick one of the link's realizations,
        // look up its PER at the worst-case SINR (the table is already
        // scaled to this frame type's PSDU size), survive a Bernoulli
        // draw.
        const LinkPerModel& model = model_for(t);
        Rng& rx_rng = rx_rng_[t.dest];
        const auto realization = static_cast<std::size_t>(
            rx_rng.uniform_int(model.realizations()));
        delivered = !rx_rng.bernoulli(model.per(sinr_db, realization));
      }
    } else {
      const double required = t.kind == mac::FrameType::kData
                                  ? db_to_lin(config_.sinr_threshold_db)
                                  : db_to_lin(config_.control_sinr_db);
      delivered = sinr >= required;
    }
  }
  if (t.dest != kNone) {
    emit(delivered ? obs::EventType::kRxOk : obs::EventType::kRxFail,
         t.dest, t.tx_node, t.flow, sinr_db, frame_name(t.kind), t.id);
  }

  overhear_nav(row, t.nav_until_s, t.dest, t.tx_node, frame_name(t.kind));

  handle_frame_outcome(t, delivered);
  update_medium_set(t.tx_node);
}

/// PER model governing a transmission's reception. CTS and ACK
/// frames are addressed to the station that sourced the exchange, so
/// their flow is recovered from the destination.
const LinkPerModel& Engine::model_for(const Transmission& t) const {
  switch (t.kind) {
    case mac::FrameType::kData:
      return models_[t.flow].data[t.rate_index];
    case mac::FrameType::kRts:
      return models_[t.flow].ctrl_fwd;
    case mac::FrameType::kCts:
    case mac::FrameType::kAck:
      return models_[flow_of_[t.dest]].ctrl_rev;
    case mac::FrameType::kBeacon:
      break;
  }
  check(false, "no PER model for this frame type");
  return models_.front().ctrl_rev;
}

/// Takes a free slot for `t` and, when it has an addressee, puts it at
/// the head of that node's reception list.
std::uint32_t Engine::push_active(const Transmission& t) {
  std::uint32_t s;
  if (!free_.empty()) {
    s = free_.back();
    free_.pop_back();
    slots_[s] = t;
  } else {
    s = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(t);
  }
  Transmission& slot = slots_[s];
  slot.in_use = true;
  slot.next_rx = kNil;
  if (slot.dest != kNone) {
    slot.next_rx = rx_head_[slot.dest];
    rx_head_[slot.dest] = s;
  }
  return s;
}

/// Frees slot `s`, first taking it off its addressee's reception list
/// (a few entries long: the frames in flight to one node).
void Engine::unlink(std::uint32_t s) {
  Transmission& t = slots_[s];
  if (t.dest != kNone) {
    std::uint32_t* link = &rx_head_[t.dest];
    while (*link != s) link = &slots_[*link].next_rx;
    *link = t.next_rx;
  }
  t.in_use = false;
  free_.push_back(s);
}

}  // namespace wlan::net::detail
