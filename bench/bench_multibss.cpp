// EXT-MBSS — PER-model netsim scales to a 63-node multi-BSS deployment.
//
// The point of the link-to-system abstraction is exactly this workload:
// a 3x3 grid of BSSs (9 APs, 6 saturated uplink clients each) is far
// beyond what per-frame waveform simulation could touch, but with
// EESM/PER reception, log-normal shadowing, and per-station ARF it runs
// in seconds. The claim under test is spatial reuse: co-channel BSSs
// spaced near the carrier-sense range must reuse airtime, so the grid's
// aggregate throughput has to land well above a single cell's — while
// inter-BSS interference keeps it well below 9x.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/wlan.h"

namespace {

struct Deployment {
  std::vector<wlan::net::NodeConfig> nodes;
  std::vector<wlan::net::Flow> flows;
};

/// `bss_grid` x `bss_grid` APs spaced `spacing_m` apart, `clients` STAs
/// per AP on a `radius_m` ring, every STA running a saturated uplink.
Deployment make_grid(std::size_t bss_grid, double spacing_m,
                     std::size_t clients, double radius_m) {
  Deployment d;
  for (std::size_t gy = 0; gy < bss_grid; ++gy) {
    for (std::size_t gx = 0; gx < bss_grid; ++gx) {
      const double ax = static_cast<double>(gx) * spacing_m;
      const double ay = static_cast<double>(gy) * spacing_m;
      const std::size_t ap = d.nodes.size();
      d.nodes.push_back({{ax, ay}});
      for (std::size_t c = 0; c < clients; ++c) {
        const double angle =
            2.0 * M_PI * static_cast<double>(c) / static_cast<double>(clients);
        d.nodes.push_back(
            {{ax + radius_m * std::cos(angle), ay + radius_m * std::sin(angle)}});
        d.flows.push_back({d.nodes.size() - 1, ap});
      }
    }
  }
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wlan;
  namespace bu = benchutil;
  bu::args(argc, argv);

  bu::title("EXT-MBSS: multi-BSS spatial reuse under the PER model",
            "a 63-node, 9-BSS co-channel grid simulated with EESM/PER "
            "reception, shadowing, and ARF shows spatial reuse: aggregate "
            "throughput well above one cell, well below nine isolated ones");

  net::NetworkConfig cfg;
  cfg.duration_s = 1.0;
  cfg.payload_bytes = 1000;
  // RTS/CTS matters beyond hidden-terminal protection here: ARF counts
  // only ACK timeouts as rate failures, so protecting the data frame
  // keeps collision losses (cheap RTS retries) from collapsing every
  // saturated station onto the bottom of the ladder.
  cfg.rts_cts = true;
  cfg.error_model.model = net::RxModel::kPerModel;
  cfg.error_model.shadowing_sigma_db = 4.0;
  cfg.error_model.realizations = 16;
  cfg.rate_control = net::RateControlMode::kArf;

  // Size the grid from the physics: clients sit where the mean SNR
  // leaves enough margin over the top of the ladder that Rayleigh fades
  // do not pin ARF to the bottom rates; APs sit near the edge of each
  // other's carrier-sense range so reuse is possible but not free.
  double radius_m = 5.0;
  while (snr_at_distance_db(cfg.pathloss, radius_m * 1.3, 17.0,
                            cfg.bandwidth_hz) > 34.0) {
    radius_m *= 1.3;
  }
  const double noise_dbm = -174.0 + 10.0 * std::log10(cfg.bandwidth_hz) + 6.0;
  const double cs_snr_db = -82.0 - noise_dbm;  // CS threshold as an SNR
  double spacing_m = radius_m;
  while (snr_at_distance_db(cfg.pathloss, spacing_m, 17.0, cfg.bandwidth_hz) >
         cs_snr_db) {
    spacing_m *= 1.1;
  }

  bu::section("topology");
  constexpr std::size_t kGrid = 3;
  constexpr std::size_t kClients = 6;
  const Deployment grid = make_grid(kGrid, spacing_m, kClients, radius_m);
  std::printf("  client radius : %6.1f m\n", radius_m);
  std::printf("  AP spacing    : %6.1f m (CS range edge)\n", spacing_m);
  std::printf("  nodes         : %6zu (%zu APs + %zu clients)\n",
              grid.nodes.size(), kGrid * kGrid, grid.flows.size());

  bu::section("single-cell reference");
  const Deployment cell = make_grid(1, spacing_m, kClients, radius_m);
  Rng cell_rng(11);
  const auto single = simulate_network(cfg, cell.nodes, cell.flows, cell_rng);
  std::printf("  throughput %.2f Mbps, data-failure rate %.3f\n",
              single.aggregate_throughput_mbps, single.data_failure_rate());

  bu::section("9-BSS co-channel grid");
  // --latency arms the frame-lifecycle layer on the representative grid
  // run: per-flow delay attribution histograms land in `lat_reg`, the
  // windowed series and auditor verdict in the result. Observers never
  // consume RNG, so throughput numbers are identical either way.
  obs::Registry lat_reg;
  if (bu::latency()) {
    cfg.lifecycle.enabled = true;
    cfg.registry = &lat_reg;
  }
  Rng grid_rng(11);
  const auto multi = simulate_network(cfg, grid.nodes, grid.flows, grid_rng);
  double rate_sum = 0.0;
  std::size_t starved = 0;
  for (const auto& f : multi.flows) {
    rate_sum += f.mean_data_rate_mbps;
    if (f.delivered == 0) ++starved;
  }
  const double mean_rate = rate_sum / static_cast<double>(multi.flows.size());
  const double reuse =
      multi.aggregate_throughput_mbps /
      std::max(single.aggregate_throughput_mbps, 1e-9);
  std::printf("  throughput %.2f Mbps (%.2fx one cell)\n",
              multi.aggregate_throughput_mbps, reuse);
  std::printf("  mean ARF data rate %.1f Mbps, Jain fairness %.3f\n",
              mean_rate, multi.jain_fairness());
  std::printf("  data frames %llu, failure rate %.3f, starved flows %zu\n",
              static_cast<unsigned long long>(multi.data_tx_count),
              multi.data_failure_rate(), starved);

  bu::section("replicated mean ARF rate");
  // The ARF claim is about the grid's expected rate, not one seed's
  // draw: over 100 seeds the per-seed mean ARF rate spreads ~1.3 Mbps
  // around ~13 Mbps, so a single seed lands on either side of the
  // 12 Mbps bar after any change to the fading draws. The gate reads the
  // mean of kReplications independent runs instead (standard error
  // ~0.35 Mbps). The runs share one fading pool and are bitwise
  // identical for any lane count.
  constexpr std::size_t kReplications = 16;
  net::NetworkConfig rep_cfg = cfg;
  rep_cfg.lifecycle.enabled = false;
  rep_cfg.registry = nullptr;
  net::BatchOptions batch;
  batch.root_seed = 11;
  const auto reps = net::simulate_network_batch(rep_cfg, grid.nodes,
                                                grid.flows, kReplications,
                                                batch);
  double rep_sum = 0.0;
  double rep_sq = 0.0;
  for (const auto& run : reps) {
    double sum = 0.0;
    for (const auto& f : run.flows) sum += f.mean_data_rate_mbps;
    const double rate = sum / static_cast<double>(run.flows.size());
    rep_sum += rate;
    rep_sq += rate * rate;
  }
  const double n_reps = static_cast<double>(reps.size());
  const double rep_rate = rep_sum / n_reps;
  const double rep_se = std::sqrt(
      std::max(rep_sq / n_reps - rep_rate * rep_rate, 0.0) / (n_reps - 1.0));
  std::printf("  %zu runs: mean ARF data rate %.2f Mbps (standard error "
              "%.2f)\n",
              reps.size(), rep_rate, rep_se);

  bu::metric("nodes", static_cast<double>(grid.nodes.size()));
  bu::metric("single_cell_throughput_mbps", single.aggregate_throughput_mbps);
  bu::metric("grid_throughput_mbps", multi.aggregate_throughput_mbps);
  bu::metric("spatial_reuse_factor", reuse);
  bu::metric("mean_arf_rate_mbps", mean_rate);
  bu::metric("replicated_arf_rate_mbps", rep_rate);
  bu::metric("jain_fairness", multi.jain_fairness());
  bu::metric("data_frames_simulated", static_cast<double>(multi.data_tx_count));

  bool audit_ok = true;
  if (bu::latency()) {
    bu::section("frame lifecycle (--latency)");
    const auto& lc = multi.lifecycle;
    // Per-flow tail latency: one series per percentile, x = flow index.
    std::vector<double> flow_idx;
    std::vector<double> p50, p95, p99, p999;
    for (std::size_t f = 0; f < grid.flows.size(); ++f) {
      const obs::Histogram* h = lat_reg.find_histogram(
          "lifecycle.delay_s", {{"flow", std::to_string(f)}});
      if (!h || h->count() == 0) continue;
      flow_idx.push_back(static_cast<double>(f));
      p50.push_back(h->percentile(50.0) * 1e3);
      p95.push_back(h->percentile(95.0) * 1e3);
      p99.push_back(h->percentile(99.0) * 1e3);
      p999.push_back(h->percentile(99.9) * 1e3);
    }
    bu::series("flow_delay_p50_ms", "flow", flow_idx, "p50 (ms)", p50);
    bu::series("flow_delay_p95_ms", "flow", std::vector<double>(flow_idx),
               "p95 (ms)", p95);
    bu::series("flow_delay_p99_ms", "flow", std::vector<double>(flow_idx),
               "p99 (ms)", p99);
    bu::series("flow_delay_p999_ms", "flow", std::vector<double>(flow_idx),
               "p99.9 (ms)", p999);
    const obs::Histogram* agg = lat_reg.find_histogram("lifecycle.delay_s");
    if (agg && agg->count() > 0) {
      bu::metric("delay_p50_ms", agg->percentile(50.0) * 1e3);
      bu::metric("delay_p95_ms", agg->percentile(95.0) * 1e3);
      bu::metric("delay_p99_ms", agg->percentile(99.0) * 1e3);
      bu::metric("delay_p999_ms", agg->percentile(99.9) * 1e3);
      std::printf("  delay p50/p95/p99/p99.9: %.2f / %.2f / %.2f / %.2f ms\n",
                  agg->percentile(50.0) * 1e3, agg->percentile(95.0) * 1e3,
                  agg->percentile(99.0) * 1e3, agg->percentile(99.9) * 1e3);
    }
    // Where the delay went, summed over all delivered frames.
    const auto& tot = lc.ledger.total;
    bu::metric("delay_queueing_share",
               tot.total_s() > 0.0 ? tot.queueing_s / tot.total_s() : 0.0);
    bu::metric("delay_contention_share",
               tot.total_s() > 0.0 ? tot.contention_s / tot.total_s() : 0.0);
    bu::metric("delay_airtime_share",
               tot.total_s() > 0.0 ? tot.airtime_s / tot.total_s() : 0.0);
    bu::metric("delay_retry_share",
               tot.total_s() > 0.0 ? tot.retry_s / tot.total_s() : 0.0);
    // Windowed time series for warmup/non-stationarity inspection.
    bu::series("goodput_mbps_t", "t (s)", lc.series.t_s, "goodput (Mbps)",
               lc.series.goodput_mbps);
    bu::series("collision_rate_t", "t (s)", lc.series.t_s, "collision rate",
               lc.series.collision_rate);
    bu::metric("warmup_windows", static_cast<double>(lc.series.warmup_windows));
    bu::metric("stationarity_ratio", lc.series.stationarity_ratio);
    bu::metric("lifecycle_breaches", static_cast<double>(lc.breaches));
    std::printf("  delivered %llu, dropped %llu, in flight %llu; "
                "auditor breaches %llu\n",
                static_cast<unsigned long long>(lc.ledger.delivered),
                static_cast<unsigned long long>(lc.ledger.dropped),
                static_cast<unsigned long long>(lc.ledger.in_flight),
                static_cast<unsigned long long>(lc.breaches));
    for (const std::string& m : lc.breach_messages) {
      std::printf("  BREACH: %s\n", m.c_str());
    }
    audit_ok = lc.breaches == 0;
  }

  const bool ok = audit_ok && grid.nodes.size() >= 50 &&
                  single.total_delivered > 0 &&
                  reuse > 1.5 && reuse < 9.0 && starved == 0 &&
                  rep_rate > 12.0;
  bu::verdict(ok,
              "%zu-node grid reaches %.1f Mbps = %.1fx one cell (reuse "
              "without a free lunch), every flow progresses, mean ARF rate "
              "%.1f Mbps over %zu runs",
              grid.nodes.size(), multi.aggregate_throughput_mbps, reuse,
              rep_rate, reps.size());
  return ok ? 0 : 1;
}
