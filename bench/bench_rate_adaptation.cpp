// Extension bench — rate adaptation over a time-varying channel.
//
// The paper's rate narrative (2 -> 11 -> 54 -> 600 Mbps) is realized in
// deployed networks by rate-adaptation logic. This bench compares the
// classic ACK-driven ARF controller against a fixed top rate and against
// the genie SNR-ideal controller across mean SNR and channel dynamics.
#include <vector>

#include "bench_util.h"
#include "core/wlan.h"

int main(int argc, char** argv) {
  using namespace wlan;
  namespace bu = benchutil;
  bu::args(argc, argv);

  bu::title("EXT-RATE: rate adaptation (ARF vs fixed vs genie) over Jakes fading",
            "adaptation is what turns the standards' rate ladders into "
            "delivered throughput in a changing channel");

  // Common random numbers: each controller in a comparison sees the exact
  // same fading realization and error draws (paired seeds).
  bu::section("goodput (Mbps of airtime) vs mean SNR, walking-speed fading "
              "(5 Hz)");
  std::printf("%10s %12s %12s %12s | %10s\n", "SNR(dB)", "fixed 54M", "ARF",
              "genie", "ARF PER");
  std::uint64_t seed = 14;
  std::vector<double> snrs;
  std::vector<double> gp_fixed;
  std::vector<double> gp_arf;
  std::vector<double> gp_genie;
  for (const double snr : {8.0, 12.0, 16.0, 20.0, 24.0, 30.0}) {
    ++seed;
    mac::RateAdaptConfig cfg;
    cfg.mean_snr_db = snr;
    cfg.n_packets = 20000;
    cfg.control = mac::RateControl::kFixedMax;
    Rng r1(seed);
    const auto fixed = mac::simulate_rate_adaptation(cfg, r1);
    cfg.control = mac::RateControl::kArf;
    Rng r2(seed);
    const auto arf = mac::simulate_rate_adaptation(cfg, r2);
    cfg.control = mac::RateControl::kSnrIdeal;
    Rng r3(seed);
    const auto genie = mac::simulate_rate_adaptation(cfg, r3);
    snrs.push_back(snr);
    gp_fixed.push_back(fixed.goodput_mbps);
    gp_arf.push_back(arf.goodput_mbps);
    gp_genie.push_back(genie.goodput_mbps);
    std::printf("%10.1f %12.1f %12.1f %12.1f | %10.2f\n", snr,
                fixed.goodput_mbps, arf.goodput_mbps, genie.goodput_mbps,
                arf.per);
  }
  bu::series("goodput_vs_snr_fixed_54m", "snr_db", snrs, "mbps", gp_fixed);
  bu::series("goodput_vs_snr_arf", "snr_db", snrs, "mbps", gp_arf);
  bu::series("goodput_vs_snr_genie", "snr_db", snrs, "mbps", gp_genie);

  bu::section("channel dynamics: ARF's gap to the genie vs Doppler (16 dB "
              "mean SNR)");
  std::printf("%14s %12s %12s %10s\n", "Doppler(Hz)", "ARF", "genie", "gap");
  double gap_slow = 0.0;
  double gap_fast = 0.0;
  for (const double fd : {0.5, 2.0, 10.0, 50.0}) {
    ++seed;
    mac::RateAdaptConfig cfg;
    cfg.mean_snr_db = 16.0;
    cfg.doppler_hz = fd;
    cfg.n_packets = 20000;
    cfg.control = mac::RateControl::kArf;
    Rng r1(seed);
    const auto arf = mac::simulate_rate_adaptation(cfg, r1);
    cfg.control = mac::RateControl::kSnrIdeal;
    Rng r2(seed);
    const auto genie = mac::simulate_rate_adaptation(cfg, r2);
    const double gap = genie.goodput_mbps - arf.goodput_mbps;
    if (fd == 0.5) gap_slow = gap;
    if (fd == 50.0) gap_fast = gap;
    std::printf("%14.1f %12.1f %12.1f %10.1f\n", fd, arf.goodput_mbps,
                genie.goodput_mbps, gap);
  }

  bu::metric("genie_gap_mbps_doppler_0_5hz", gap_slow);
  bu::metric("genie_gap_mbps_doppler_50hz", gap_fast);

  bool audit_ok = true;
  if (bu::latency()) {
    // What rate adaptation does to *latency*: a Poisson uplink through
    // the event-driven netsim with ARF under the PER model, with the
    // frame-lifecycle ledger attributing each delivered frame's delay.
    // Own Rng — the seeded comparisons above are untouched.
    bu::section("ARF uplink latency attribution (--latency, netsim)");
    net::NetworkConfig ncfg;
    ncfg.duration_s = 2.0;
    ncfg.payload_bytes = 1000;
    ncfg.error_model.model = net::RxModel::kPerModel;
    ncfg.error_model.realizations = 16;
    ncfg.rate_control = net::RateControlMode::kArf;
    ncfg.lifecycle.enabled = true;
    obs::Registry reg;
    ncfg.registry = &reg;
    std::vector<net::NodeConfig> nodes(2);
    nodes[1].position = {25.0, 0.0};
    Rng nrng(97);
    const auto res =
        net::simulate_network(ncfg, nodes, {{0, 1, 1000.0}}, nrng);
    const auto& lc = res.lifecycle;
    const obs::Histogram* h = reg.find_histogram("lifecycle.delay_s");
    if (h && h->count() > 0) {
      bu::metric("arf_uplink_delay_p50_ms", h->percentile(50.0) * 1e3);
      bu::metric("arf_uplink_delay_p99_ms", h->percentile(99.0) * 1e3);
      std::printf("  delay p50/p99: %.2f / %.2f ms over %llu deliveries\n",
                  h->percentile(50.0) * 1e3, h->percentile(99.0) * 1e3,
                  static_cast<unsigned long long>(h->count()));
    }
    const auto& tot = lc.ledger.total;
    if (tot.total_s() > 0.0) {
      bu::metric("arf_uplink_queueing_share", tot.queueing_s / tot.total_s());
      bu::metric("arf_uplink_retry_share", tot.retry_s / tot.total_s());
      std::printf(
          "  attribution: queueing %.0f%%, contention %.0f%%, airtime "
          "%.0f%%, retry %.0f%%\n",
          100.0 * tot.queueing_s / tot.total_s(),
          100.0 * tot.contention_s / tot.total_s(),
          100.0 * tot.airtime_s / tot.total_s(),
          100.0 * tot.retry_s / tot.total_s());
    }
    bu::metric("lifecycle_breaches", static_cast<double>(lc.breaches));
    for (const std::string& m : lc.breach_messages) {
      std::printf("  BREACH: %s\n", m.c_str());
    }
    audit_ok = lc.breaches == 0;
  }

  const bool ok = audit_ok && gap_fast > gap_slow;
  bu::verdict(ok,
              "ARF trails the genie by %.1f Mbps in slow fading but %.1f "
              "Mbps when the channel outruns its ACK feedback",
              gap_slow, gap_fast);
  return ok ? 0 : 1;
}
