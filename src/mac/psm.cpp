#include "mac/psm.h"

#include <algorithm>
#include <functional>
#include <vector>

#include "common/check.h"
#include "sim/scheduler.h"
#include "sim/stats.h"

namespace wlan::mac {

PsmResult simulate_psm(const PsmConfig& config, Rng& rng) {
  check(config.arrival_rate_pps >= 0.0, "arrival rate must be non-negative");
  check(config.beacon_interval_s > 0.0 && config.listen_interval >= 1,
        "bad beacon parameters");

  const MacTiming timing = mac_timing(config.generation);
  const double t_data = data_ppdu_duration_s(
      config.generation, config.data_rate_mbps,
      config.payload_bytes + kDataHeaderBytes);
  const double t_ack =
      control_duration_s(config.generation, kAckBytes, config.basic_rate_mbps);
  const double t_beacon =
      control_duration_s(config.generation, kBeaconBytes, config.basic_rate_mbps);
  const double t_frame = t_data + timing.sifs_s + t_ack;

  PsmResult result;
  sim::Tally delay;
  sim::Scheduler sched;
  std::vector<double> queue;  // arrival times of buffered packets

  auto deliver_one = [&](double arrival, double start) {
    // STA receives the data frame, then ACKs after SIFS.
    result.time_rx_s += t_data;
    result.time_idle_s += timing.sifs_s;
    result.time_tx_s += t_ack;
    const double done = start + t_frame;
    delay.add(done - arrival);
    result.max_delay_s = std::max(result.max_delay_s, done - arrival);
    ++result.delivered;
    return done;
  };

  if (!config.psm_enabled) {
    // CAM: deliveries happen immediately; AP serializes back-to-back.
    double busy_until = 0.0;
    std::function<void()> arrive = [&] {
      const double now = sched.now();
      const double start = std::max(now, busy_until);
      busy_until = deliver_one(now, start);
      sched.schedule(rng.exponential(1.0 / config.arrival_rate_pps),
                     [&arrive] { arrive(); });
    };
    if (config.arrival_rate_pps > 0.0) {
      sched.schedule(rng.exponential(1.0 / config.arrival_rate_pps),
                     [&arrive] { arrive(); });
    }
    sched.run_until(config.duration_s);
    result.time_idle_s +=
        config.duration_s - result.time_rx_s - result.time_tx_s -
        result.time_idle_s;
    result.time_doze_s = 0.0;
  } else {
    // PSM: buffer at the AP; drain at listened beacons.
    std::uint64_t beacon_index = 0;
    double awake_accum = 0.0;  // rx+tx+idle accounted through handlers

    std::function<void()> arrive = [&] {
      queue.push_back(sched.now());
      sched.schedule(rng.exponential(1.0 / config.arrival_rate_pps),
                     [&arrive] { arrive(); });
    };
    std::function<void()> beacon = [&] {
      const bool listened = (beacon_index % config.listen_interval) == 0;
      ++beacon_index;
      if (listened) {
        result.time_idle_s += config.wake_transition_s;
        result.time_rx_s += t_beacon;
        awake_accum += config.wake_transition_s + t_beacon;
        double cursor = sched.now() + t_beacon;
        for (const double arrival : queue) {
          cursor = deliver_one(arrival, cursor);
          awake_accum += t_frame;
        }
        queue.clear();
      }
      sched.schedule(config.beacon_interval_s, [&beacon] { beacon(); });
    };

    if (config.arrival_rate_pps > 0.0) {
      sched.schedule(rng.exponential(1.0 / config.arrival_rate_pps),
                     [&arrive] { arrive(); });
    }
    sched.schedule(0.0, [&beacon] { beacon(); });
    sched.run_until(config.duration_s);
    result.time_doze_s = config.duration_s - awake_accum;
  }

  result.mean_delay_s = delay.mean();
  return result;
}

}  // namespace wlan::mac
