// The deterministic parallel Monte-Carlo engine: seed derivation,
// pool scheduling, and the bitwise thread-count-independence contract
// that every retrofitted bench and link runner relies on.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/bits.h"
#include "common/units.h"
#include "core/link.h"
#include "net/netsim.h"
#include "obs/perf.h"
#include "par/montecarlo.h"
#include "par/pool.h"
#include "phy/convolutional.h"
#include "phy/ldpc.h"

namespace wlan {
namespace {

// --- Seed derivation -------------------------------------------------

TEST(DeriveSeed, DeterministicAndCounterSensitive) {
  const std::uint64_t s = par::derive_seed(1, 2, 3);
  EXPECT_EQ(s, par::derive_seed(1, 2, 3));
  EXPECT_NE(s, par::derive_seed(1, 2, 4));
  EXPECT_NE(s, par::derive_seed(1, 3, 3));
  EXPECT_NE(s, par::derive_seed(2, 2, 3));
  // Swapping point and trial must not collide (the counters are
  // absorbed with distinct multipliers).
  EXPECT_NE(par::derive_seed(1, 2, 3), par::derive_seed(1, 3, 2));
}

TEST(DeriveSeed, NoCollisionsInASweepSizedGrid) {
  std::vector<std::uint64_t> seen;
  for (std::uint64_t p = 0; p < 64; ++p) {
    for (std::uint64_t t = 0; t < 64; ++t) {
      seen.push_back(par::derive_seed(42, p, t));
    }
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

// --- ThreadPool ------------------------------------------------------

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  for (const unsigned jobs : {1u, 2u, 8u}) {
    par::ThreadPool pool(jobs);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(hits.size(), 7, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  par::ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.parallel_for(8, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      pool.parallel_for(16, 2, [&](std::size_t ib, std::size_t ie) {
        total.fetch_add(static_cast<int>(ie - ib));
      });
    }
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  par::ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100, 1,
                        [&](std::size_t b, std::size_t) {
                          if (b == 57) throw std::runtime_error("chunk 57");
                        }),
      std::runtime_error);
  // The pool must stay fully usable after a failed run.
  std::atomic<int> count{0};
  pool.parallel_for(64, 4, [&](std::size_t b, std::size_t e) {
    count.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(count.load(), 64);
}

// --- montecarlo / sweep determinism ----------------------------------

// Floating-point accumulation is order-sensitive, so this catches any
// schedule leak: partials must merge in chunk order, never completion
// order.
TEST(Montecarlo, FloatSumBitwiseIdenticalAcrossThreadCounts) {
  auto run = [](unsigned jobs) {
    par::SweepOptions opt;
    opt.root_seed = 99;
    opt.jobs = jobs;
    return par::montecarlo<double>(
        10000, 0, opt,
        [](std::uint64_t, std::size_t, Rng& rng, double& acc) {
          acc += rng.gaussian() * rng.uniform(0.1, 10.0);
        },
        [](double& acc, const double& partial) { acc += partial; });
  };
  const double serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
}

// A C7-style coded-BER sweep (convolutional vs LDPC over AWGN) — the
// actual workload the benches run, bit-for-bit equal at 1 and 8 lanes.
TEST(Montecarlo, LdpcSweepBitwiseIdenticalAcrossThreadCounts) {
  const phy::LdpcCode code(648, 324, 11);
  struct Cell {
    std::size_t conv_err = 0;
    std::size_t ldpc_err = 0;
  };
  auto run = [&](unsigned jobs) {
    par::SweepOptions opt;
    opt.root_seed = 7;
    opt.jobs = jobs;
    return par::sweep<Cell>(
        3, 8, opt,
        [&](std::uint64_t point, std::size_t, Rng& rng, Cell& acc) {
          const double ebn0_db = 1.0 + static_cast<double>(point);
          const double sigma = std::sqrt(1.0 / db_to_lin(ebn0_db));
          Bits info = rng.random_bits(324);
          for (std::size_t i = 318; i < 324; ++i) info[i] = 0;
          const Bits coded = phy::convolutional_encode(info);
          RVec llrs(coded.size());
          for (std::size_t i = 0; i < coded.size(); ++i) {
            const double tx = coded[i] ? -1.0 : 1.0;
            llrs[i] = 2.0 * (tx + sigma * rng.gaussian()) / (sigma * sigma);
          }
          acc.conv_err +=
              hamming_distance(phy::viterbi_decode(llrs, true), info);

          const Bits info2 = rng.random_bits(324);
          const Bits cw = code.encode(info2);
          RVec cllrs(648);
          for (std::size_t i = 0; i < 648; ++i) {
            const double tx = cw[i] ? -1.0 : 1.0;
            cllrs[i] = 2.0 * (tx + sigma * rng.gaussian()) / (sigma * sigma);
          }
          acc.ldpc_err += hamming_distance(code.decode(cllrs, 50).info, info2);
        },
        [](Cell& acc, const Cell& part) {
          acc.conv_err += part.conv_err;
          acc.ldpc_err += part.ldpc_err;
        });
  };
  const auto serial = run(1);
  const auto parallel = run(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t p = 0; p < serial.size(); ++p) {
    EXPECT_EQ(serial[p].conv_err, parallel[p].conv_err) << "point " << p;
    EXPECT_EQ(serial[p].ldpc_err, parallel[p].ldpc_err) << "point " << p;
  }
}

// Span profiling during a parallel sweep: every decode's "ldpc_decode"
// span lands in the initiator's profile via the shard drains — same call
// counts whether the trials ran on 1 or 8 lanes (wall times differ;
// counts cannot).
TEST(Montecarlo, ProfilingShardCountsIndependentOfThreadCount) {
  const phy::LdpcCode code(128, 64, 5);
  auto count_decodes = [&](unsigned jobs) {
    obs::perf::SpanProfile profile;
    obs::perf::enable_span_profiling(profile);
    par::SweepOptions opt;
    opt.jobs = jobs;
    par::montecarlo<int>(
        40, 0, opt,
        [&](std::uint64_t, std::size_t, Rng& rng, int&) {
          RVec llrs(128);
          for (auto& l : llrs) l = rng.gaussian();
          code.decode(llrs, 5);
        },
        [](int&, const int&) {});
    obs::perf::disable_span_profiling();
    std::uint64_t calls = 0;
    for (const auto& [path, stats] : profile.spans()) {
      if (path.ends_with(";ldpc_decode")) calls += stats.calls;
    }
    return calls;
  };
  const auto serial = count_decodes(1);
  EXPECT_EQ(serial, 40u);
  EXPECT_EQ(serial, count_decodes(8));
}

// --- link runners ----------------------------------------------------

TEST(LinkRunners, OfdmLinkIdenticalAcrossThreadCounts) {
  auto run = [](unsigned jobs) {
    par::set_default_jobs(jobs);
    Rng rng(123);
    const LinkResult r =
        run_ofdm_link(phy::OfdmMcs::k12Mbps, 100, 30, 6.0, rng);
    par::set_default_jobs(0);
    return r;
  };
  const LinkResult serial = run(1);
  const LinkResult parallel = run(8);
  EXPECT_EQ(serial.packets, parallel.packets);
  EXPECT_EQ(serial.packet_errors, parallel.packet_errors);
  EXPECT_EQ(serial.bits, parallel.bits);
  EXPECT_EQ(serial.bit_errors, parallel.bit_errors);
}

// --- simulate_network_batch ------------------------------------------

TEST(NetsimBatch, ResultsAndMergedRegistryIdenticalAcrossThreadCounts) {
  // Five nodes: two crossing saturated flows plus a Poisson uplink.
  std::vector<net::NodeConfig> nodes(5);
  nodes[0].position = {0.0, 0.0};
  nodes[1].position = {30.0, 0.0};
  nodes[2].position = {15.0, 10.0};
  nodes[3].position = {15.0, -10.0};
  nodes[4].position = {15.0, 0.0};
  const std::vector<net::Flow> flows = {{0, 4}, {1, 4}, {2, 4, 500.0}};
  net::NetworkConfig cfg;
  cfg.duration_s = 0.2;

  auto run = [&](unsigned jobs) {
    net::BatchOptions opt;
    opt.root_seed = 31;
    opt.jobs = jobs;
    auto merged = std::make_unique<obs::Registry>();
    opt.registry = merged.get();
    auto results = net::simulate_network_batch(cfg, nodes, flows, 6, opt);
    return std::make_pair(std::move(results), merged->snapshot_json());
  };

  const auto [serial, serial_snapshot] = run(1);
  const auto [parallel, parallel_snapshot] = run(8);
  ASSERT_EQ(serial.size(), 6u);
  ASSERT_EQ(parallel.size(), 6u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].total_delivered, parallel[i].total_delivered);
    EXPECT_EQ(serial[i].data_tx_count, parallel[i].data_tx_count);
    EXPECT_EQ(serial[i].data_failures, parallel[i].data_failures);
    EXPECT_EQ(serial[i].aggregate_throughput_mbps,
              parallel[i].aggregate_throughput_mbps);
    ASSERT_EQ(serial[i].flows.size(), parallel[i].flows.size());
    for (std::size_t f = 0; f < serial[i].flows.size(); ++f) {
      EXPECT_EQ(serial[i].flows[f].delivered, parallel[i].flows[f].delivered);
      EXPECT_EQ(serial[i].flows[f].throughput_mbps,
                parallel[i].flows[f].throughput_mbps);
      EXPECT_EQ(serial[i].flows[f].mean_delay_s,
                parallel[i].flows[f].mean_delay_s);
    }
  }
  // Per-run registries merge in run order, so even the full metric
  // snapshot (counters, gauges, histograms) is schedule-independent.
  EXPECT_EQ(serial_snapshot, parallel_snapshot);
}

TEST(NetsimBatch, PerModelResultsIdenticalAcrossThreadCounts) {
  // The PER error model adds RNG consumers (shadowing, fading-pool
  // indices, per-frame reception draws): every draw must come from
  // the run's own stream so the batch stays bitwise schedule-independent.
  const auto setup = net::make_hidden_terminal_setup(150.0);
  net::NetworkConfig cfg;
  cfg.duration_s = 0.15;
  cfg.error_model.model = net::RxModel::kPerModel;
  cfg.error_model.shadowing_sigma_db = 5.0;
  cfg.error_model.realizations = 8;
  cfg.rate_control = net::RateControlMode::kArf;

  auto run = [&](unsigned jobs) {
    net::BatchOptions opt;
    opt.root_seed = 77;
    opt.jobs = jobs;
    auto merged = std::make_unique<obs::Registry>();
    opt.registry = merged.get();
    auto results =
        net::simulate_network_batch(cfg, setup.nodes, setup.flows, 5, opt);
    return std::make_pair(std::move(results), merged->snapshot_json());
  };

  const auto [serial, serial_snapshot] = run(1);
  const auto [parallel, parallel_snapshot] = run(8);
  ASSERT_EQ(serial.size(), 5u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].total_delivered, parallel[i].total_delivered);
    EXPECT_EQ(serial[i].data_failures, parallel[i].data_failures);
    EXPECT_EQ(serial[i].aggregate_throughput_mbps,
              parallel[i].aggregate_throughput_mbps);
    for (std::size_t f = 0; f < serial[i].flows.size(); ++f) {
      EXPECT_EQ(serial[i].flows[f].delivered, parallel[i].flows[f].delivered);
      EXPECT_EQ(serial[i].flows[f].mean_data_rate_mbps,
                parallel[i].flows[f].mean_data_rate_mbps);
    }
  }
  EXPECT_EQ(serial_snapshot, parallel_snapshot);
}

TEST(EpochStats, AggregatesRounds) {
  par::EpochStats stats;
  EXPECT_EQ(stats.utilization(8), 0.0);
  EXPECT_EQ(stats.imbalance(), 0.0);

  // Two rounds of 4 shards: busy sums and per-round maxima accumulate.
  const double round1[4] = {1.0, 1.0, 1.0, 1.0};
  const double round2[4] = {2.0, 1.0, 1.0, 0.0};
  stats.record_round(2.0, round1, 4);
  stats.record_round(2.0, round2, 4);
  EXPECT_EQ(stats.rounds, 2u);
  EXPECT_EQ(stats.tasks, 4u);
  EXPECT_DOUBLE_EQ(stats.wall_s, 4.0);
  EXPECT_DOUBLE_EQ(stats.busy_s, 8.0);
  EXPECT_DOUBLE_EQ(stats.max_busy_s, 3.0);  // 1.0 + 2.0
  // busy / (wall * lanes) = 8 / (4 * 4)
  EXPECT_DOUBLE_EQ(stats.utilization(4), 0.5);
  // max_busy / (busy / tasks) = 3 / 2
  EXPECT_DOUBLE_EQ(stats.imbalance(), 1.5);
  // Clamped to 1 when busy exceeds lanes * wall (timer skew).
  EXPECT_DOUBLE_EQ(stats.utilization(1), 1.0);
}

// Every task runs exactly once per round, and end_round sits between
// rounds: plain per-task counters, written by whichever participant
// claimed the task, must read `r` at task time and `r + 1` at round end.
TEST(RunRounds, EveryTaskOncePerRoundBetweenRoundEnds) {
  for (unsigned jobs : {1u, 3u, 8u}) {
    par::ThreadPool pool(jobs);
    constexpr std::size_t kTasks = 7;
    constexpr std::uint32_t kRounds = 200;
    std::vector<std::uint32_t> runs(kTasks, 0);
    std::atomic<std::size_t> misplaced{0};
    std::uint32_t ends = 0;
    par::run_rounds(
        pool, kTasks,
        [&](std::uint32_t r, std::size_t i) {
          if (runs[i] != r) misplaced.fetch_add(1);
          ++runs[i];
        },
        [&](std::uint32_t r) {
          for (const std::uint32_t n : runs)
            if (n != r + 1) misplaced.fetch_add(1);
          ++ends;
          return r + 1 < kRounds;
        });
    EXPECT_EQ(misplaced.load(), 0u) << "jobs " << jobs;
    EXPECT_EQ(ends, kRounds) << "jobs " << jobs;
    for (const std::uint32_t n : runs) EXPECT_EQ(n, kRounds);
  }
}

TEST(RunRounds, FirstExceptionEndsTheRunAtTheRoundEnd) {
  par::ThreadPool pool(4);
  std::atomic<int> ran_late{0};
  std::uint32_t ends = 0;
  EXPECT_THROW(par::run_rounds(
                   pool, 5,
                   [&](std::uint32_t r, std::size_t i) {
                     if (r == 3 && i == 2) throw std::runtime_error("tile");
                     if (r > 3) ran_late.fetch_add(1);
                   },
                   [&](std::uint32_t) {
                     ++ends;
                     return true;
                   }),
               std::runtime_error);
  EXPECT_EQ(ends, 3u);  // rounds 0-2 ended; round 3 failed
  EXPECT_EQ(ran_late.load(), 0);
  // The pool stays usable.
  std::atomic<int> sum{0};
  pool.parallel_for(10, 1, [&](std::size_t b, std::size_t) { sum += b; });
  EXPECT_EQ(sum.load(), 45);
}

TEST(NetsimBatch, RunsDifferFromEachOther) {
  std::vector<net::NodeConfig> nodes(2);
  nodes[1].position = {10.0, 0.0};
  net::NetworkConfig cfg;
  cfg.duration_s = 0.2;
  net::BatchOptions opt;
  opt.root_seed = 5;
  const auto runs =
      net::simulate_network_batch(cfg, nodes, {{0, 1, 800.0}}, 4, opt);
  // Independent Poisson arrivals: at least one pair of runs must
  // deliver different counts (all-equal would mean seed reuse).
  bool any_difference = false;
  for (std::size_t i = 1; i < runs.size(); ++i) {
    if (runs[i].flows[0].delivered != runs[0].flows[0].delivered) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

}  // namespace
}  // namespace wlan
