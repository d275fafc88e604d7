#include "mac/dcf.h"

#include <algorithm>
#include <deque>
#include <vector>

#include "common/check.h"
#include "sim/stats.h"

namespace wlan::mac {

const char* access_category_name(AccessCategory ac) {
  switch (ac) {
    case AccessCategory::kDcf: return "DCF";
    case AccessCategory::kVoice: return "AC_VO";
    case AccessCategory::kVideo: return "AC_VI";
    case AccessCategory::kBestEffort: return "AC_BE";
    case AccessCategory::kBackground: return "AC_BK";
  }
  return "AC_?";
}

EdcaParams edca_defaults(AccessCategory ac, PhyGeneration generation) {
  // 802.11e defaults: the windows derive from the PHY's aCWmin/aCWmax;
  // the TXOP limits are the standard's DSSS and OFDM values.
  const MacTiming t = mac_timing(generation);
  const unsigned cw = t.cw_min;
  const bool dsss = generation == PhyGeneration::kDsss ||
                    generation == PhyGeneration::kHrDsss;
  switch (ac) {
    case AccessCategory::kDcf: return {2, cw, t.cw_max, 0.0};
    case AccessCategory::kVoice:
      return {2, (cw + 1) / 4 - 1, (cw + 1) / 2 - 1,
              dsss ? 3.264e-3 : 1.504e-3};
    case AccessCategory::kVideo:
      return {2, (cw + 1) / 2 - 1, cw, dsss ? 6.016e-3 : 3.008e-3};
    case AccessCategory::kBestEffort: return {3, cw, t.cw_max, 0.0};
    case AccessCategory::kBackground: return {7, cw, t.cw_max, 0.0};
  }
  return {3, cw, t.cw_max, 0.0};
}

namespace {

struct Durations {
  double success;    // busy time of a successful access (incl. DIFS)
  double failure;    // busy time when every MPDU of the access is lost
  double collision;  // busy time of this station's PPDU (or RTS) in a collision
  std::size_t burst_mpdus;  // MPDUs per access: TXOP exchanges x A-MPDU depth
  double payload_bits_per_frame;
};

Durations compute_durations(const DcfConfig& c, const EdcaStation& station) {
  const MacTiming t = mac_timing(c.generation);
  const bool aggregated = c.ampdu_frames > 1;
  const std::size_t header =
      c.generation == PhyGeneration::kHt || station.category != AccessCategory::kDcf
          ? kQosDataHeaderBytes
          : kDataHeaderBytes;
  const std::size_t mpdu = station.payload_bytes + header;
  const std::size_t ppdu_bytes =
      aggregated ? c.ampdu_frames * (mpdu + kMpduDelimiterBytes) : mpdu;

  const double t_data = data_ppdu_duration_s(c.generation, c.data_rate_mbps,
                                             ppdu_bytes, c.n_ss, c.short_gi);
  const std::size_t ack_bytes = aggregated ? kBlockAckBytes : kAckBytes;
  const double t_ack =
      control_duration_s(c.generation, ack_bytes, c.basic_rate_mbps);
  const double t_rts = control_duration_s(c.generation, kRtsBytes, c.basic_rate_mbps);
  const double t_cts = control_duration_s(c.generation, kCtsBytes, c.basic_rate_mbps);
  const double eifs = t.sifs_s + t_ack + t.difs_s();

  // A TXOP holds as many data + SIFS + ACK exchanges, SIFS apart, as fit
  // its limit; every access carries at least one.
  const double txop_s = edca_defaults(station.category, c.generation).txop_s;
  const double exchange = t_data + t.sifs_s + t_ack;
  const auto exchanges = std::max<std::size_t>(
      1, static_cast<std::size_t>((txop_s + t.sifs_s) / (exchange + t.sifs_s)));
  const double more_exchanges =
      static_cast<double>(exchanges - 1) * (t.sifs_s + exchange);

  Durations d{};
  const double rts_overhead = c.rts_cts ? t_rts + t.sifs_s + t_cts + t.sifs_s : 0.0;
  d.success = rts_overhead + more_exchanges + t_data + t.sifs_s + t_ack + t.difs_s();
  d.failure = rts_overhead + more_exchanges + t_data + eifs;
  d.collision = c.rts_cts ? t_rts + eifs : t_data + eifs;
  d.burst_mpdus = exchanges * std::max<std::size_t>(c.ampdu_frames, 1);
  d.payload_bits_per_frame = 8.0 * static_cast<double>(station.payload_bytes);
  return d;
}

struct Station {
  EdcaParams params;
  unsigned aifs_slots;  // slots past DIFS before backoff counts: aifsn - 2
  Durations dur;
  unsigned cw;
  unsigned backoff;
  unsigned retries = 0;     // consecutive failed attempts (CW control)
  double head_since = 0.0;  // when the current head-of-queue frame arrived
  /// Retry count of each MPDU in the head burst. MPDUs lost inside a
  /// partially-delivered A-MPDU or TXOP stay here for retransmission in
  /// the next burst; saturation refills the burst with fresh (count 0)
  /// MPDUs.
  std::deque<unsigned> pending;
  sim::Tally delay;
  DcfStationResult result;
};

}  // namespace

DcfResult simulate_dcf(const DcfConfig& config, Rng& rng) {
  check(!config.stations.empty(), "simulate_dcf requires at least one station");
  check(config.duration_s > 0.0, "simulate_dcf requires positive duration");
  const MacTiming timing = mac_timing(config.generation);

  std::vector<Station> stations(config.stations.size());
  for (std::size_t i = 0; i < stations.size(); ++i) {
    Station& s = stations[i];
    s.params = edca_defaults(config.stations[i].category, config.generation);
    s.aifs_slots = s.params.aifsn - 2;
    s.dur = compute_durations(config, config.stations[i]);
    s.cw = s.params.cw_min;
    s.backoff = static_cast<unsigned>(rng.uniform_int(s.cw + 1));
  }

  DcfResult result;
  sim::Tally delay;
  double t = timing.difs_s();  // initial medium sensing
  double busy = 0.0;
  std::vector<std::size_t> transmitters;

  auto emit = [&](obs::EventType type, std::size_t station, double time,
                  double value) {
    if (!config.trace) return;
    obs::TraceEvent e;
    e.time_s = time;
    e.type = type;
    e.node = static_cast<std::int32_t>(station);
    e.value = value;
    e.detail = access_category_name(config.stations[station].category);
    config.trace->record(e);
  };

  // Saturation: top the head burst up to its size with fresh MPDUs.
  // Every MPDU that enters is offered exactly once and announced as an
  // arrival (value = queue depth after it), so trace consumers can
  // reconcile offered = delivered + dropped + pending.
  auto fill_burst = [&](std::size_t station, double now) {
    Station& s = stations[station];
    while (s.pending.size() < s.dur.burst_mpdus) {
      s.pending.push_back(0);
      ++result.offered_frames;
      emit(obs::EventType::kArrival, station, now,
           static_cast<double>(s.pending.size()));
    }
  };

  // Advances the retry count of one failed MPDU: true keeps it queued,
  // false drops it past the retry limit.
  auto retry_or_drop = [&](unsigned& mpdu_retries, std::size_t station,
                           double now) {
    if (++mpdu_retries > config.retry_limit) {
      ++result.dropped;
      emit(obs::EventType::kDrop, station, now,
           static_cast<double>(mpdu_retries));
      return false;
    }
    return true;
  };

  // Contention-window bookkeeping after a failed attempt (per-MPDU drop
  // accounting is handled by retry_or_drop on each lost subframe).
  auto on_failure = [&](Station& s, double now) {
    ++s.retries;
    if (s.retries > config.retry_limit) {
      s.retries = 0;
      s.cw = s.params.cw_min;
      if (s.pending.empty()) s.head_since = now;  // whole burst dropped
    } else {
      s.cw = std::min(2 * s.cw + 1, s.params.cw_max);
    }
    s.backoff = static_cast<unsigned>(rng.uniform_int(s.cw + 1));
  };

  while (t < config.duration_s) {
    // Advance to the next transmission: a station sends once the medium
    // has been idle for (aifsn - 2) + backoff slots past DIFS.
    unsigned m = ~0u;
    for (const auto& s : stations) m = std::min(m, s.aifs_slots + s.backoff);
    t += static_cast<double>(m) * timing.slot_s;
    if (t >= config.duration_s) break;
    transmitters.clear();
    for (std::size_t i = 0; i < stations.size(); ++i) {
      Station& s = stations[i];
      if (s.aifs_slots + s.backoff == m) transmitters.push_back(i);
      // Backoff counts down only in the slots past the station's own AIFS.
      if (m > s.aifs_slots) s.backoff -= m - s.aifs_slots;
    }

    result.attempts += transmitters.size();
    if (transmitters.size() == 1) {
      Station& s = stations[transmitters[0]];
      const Durations& dur = s.dur;
      emit(obs::EventType::kTxStart, transmitters[0], t, dur.success);
      fill_burst(transmitters[0], t);
      // Channel errors thin the delivered MPDUs of an A-MPDU or TXOP
      // burst; the (block) acks tell the sender exactly which ones
      // survived, so lost ones stay queued (or drop) rather than
      // silently vanishing.
      std::uint64_t ok = 0;
      std::deque<unsigned> survivors;
      for (unsigned mpdu_retries : s.pending) {
        if (!rng.bernoulli(config.packet_error_rate)) {
          ++ok;
        } else if (retry_or_drop(mpdu_retries, transmitters[0],
                                 t + dur.failure)) {
          survivors.push_back(mpdu_retries);
        }
      }
      s.pending = std::move(survivors);
      emit(ok > 0 ? obs::EventType::kRxOk : obs::EventType::kRxFail,
           transmitters[0], t, static_cast<double>(ok));
      if (ok > 0) {
        result.delivered_frames += ok;
        s.result.delivered += ok;
        const double done = t + dur.success;
        // The busy period (PPDU + SIFS + block ack) ends here; pairing
        // every single-transmitter TX_START with a TX_END keeps the
        // stream balanced for lifecycle/invariant consumers.
        emit(obs::EventType::kTxEnd, transmitters[0], done, dur.success);
        delay.add(done - s.head_since);
        s.delay.add(done - s.head_since);
        s.retries = 0;
        s.cw = s.params.cw_min;
        s.backoff = static_cast<unsigned>(rng.uniform_int(s.cw + 1));
        s.head_since = done;
        t = done;
        busy += dur.success;
      } else {
        emit(obs::EventType::kTxEnd, transmitters[0], t + dur.failure,
             dur.failure);
        on_failure(s, t + dur.failure);
        t += dur.failure;
        busy += dur.failure;
      }
    } else {
      // The longest colliding PPDU (or RTS) plus EIFS holds the medium:
      // Bianchi's T_c.
      double collision = 0.0;
      for (const std::size_t i : transmitters) {
        collision = std::max(collision, stations[i].dur.collision);
      }
      result.collisions += transmitters.size();
      for (const std::size_t i : transmitters) {
        emit(obs::EventType::kCollision, i, t,
             static_cast<double>(transmitters.size()));
        Station& s = stations[i];
        ++s.result.collisions;
        // A collision loses the whole burst; every MPDU retries.
        fill_burst(i, t);
        std::deque<unsigned> survivors;
        for (unsigned mpdu_retries : s.pending) {
          if (retry_or_drop(mpdu_retries, i, t + collision)) {
            survivors.push_back(mpdu_retries);
          }
        }
        s.pending = std::move(survivors);
        on_failure(s, t + collision);
      }
      t += collision;
      busy += collision;
    }
  }

  const double elapsed = std::max(t, config.duration_s);
  double delivered_bits = 0.0;
  for (Station& s : stations) {
    result.pending_frames += s.pending.size();
    const double bits =
        static_cast<double>(s.result.delivered) * s.dur.payload_bits_per_frame;
    delivered_bits += bits;
    s.result.throughput_mbps = bits / elapsed / 1e6;
    s.result.mean_access_delay_s = s.delay.mean();
    result.stations.push_back(s.result);
  }
  result.throughput_mbps = delivered_bits / elapsed / 1e6;
  result.collision_probability =
      result.attempts > 0
          ? static_cast<double>(result.collisions) /
                static_cast<double>(result.attempts)
          : 0.0;
  result.mean_access_delay_s = delay.mean();
  result.busy_airtime_fraction = busy / elapsed;
  return result;
}

double dcf_single_station_goodput_mbps(const DcfConfig& config) {
  check(!config.stations.empty(), "goodput bound requires a station");
  const MacTiming t = mac_timing(config.generation);
  const EdcaStation& station = config.stations.front();
  const EdcaParams p = edca_defaults(station.category, config.generation);
  const Durations dur = compute_durations(config, station);
  const double mean_wait = (static_cast<double>(p.aifsn - 2) +
                            static_cast<double>(p.cw_min) / 2.0) *
                           t.slot_s;
  const double cycle = mean_wait + dur.success;
  return static_cast<double>(dur.burst_mpdus) * dur.payload_bits_per_frame /
         cycle / 1e6;
}

}  // namespace wlan::mac
