// wlanbench — the repository benchmark driver.
//
//   wlanbench --workload <link|city-per|city-border> --seed <n>
//             --seconds <s> --trace <0|1>
//
// One process, min(4, nproc) worker lanes. The untraced run (--trace 0)
// repeats the workload's pass until --seconds have elapsed and reports
// end-to-end medians; set-up is timed several times (link: 15 cold
// set-ups, each in a forked child; cities: one set-up pass before each
// timed pass) and reported as a median too. The traced run (--trace 1) alternates untraced and traced
// passes for --seconds, then times each layer's public calls from here
// and reports the per-layer metrics. Every pass is checked; stdout ends
// with the host context, the seed-determined output digest and one JSON
// result line.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "par/pool.h"
#include "workloads.h"

namespace {

using namespace wlanbench;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::optional<Workload> workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = parse_workload(value);
      have_workload = a.workload.has_value();
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (!(a.seconds > 0.0 && a.seconds <= 120.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      a.trace = value == "1";
      continue;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) return false;
  }
  return have_workload;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Runs `pass` until `seconds` have elapsed, at least `min_passes` times.
void repeat_for(double seconds, std::size_t min_passes,
                const std::function<void()>& pass) {
  const auto t0 = Clock::now();
  for (std::size_t n = 0; n < min_passes || seconds_since(t0) < seconds; ++n) {
    pass();
  }
}

/// Accumulates every pass's checks; a pass whose seed-determined outputs
/// differ from the first pass of its kind fails all its operations.
class Ledger {
 public:
  void record(const Outcome& o, std::string& first_digest) {
    Outcome checked = o;
    if (first_digest.empty()) {
      first_digest = o.digest;
    } else if (o.digest != first_digest) {
      std::fprintf(stderr, "outputs differ between passes of one seed\n");
      checked.failed = checked.attempted;
    }
    total_.attempted += checked.attempted;
    total_.failed += checked.failed;
  }
  void record(const Outcome& o) {
    total_.attempted += o.attempted;
    total_.failed += o.failed;
  }
  const Outcome& total() const { return total_; }

 private:
  Outcome total_;
};

/// Pool telemetry of one traced pass on the default pool.
struct PoolSample {
  double utilization = 0.0;
  double imbalance = 0.0;
  double steal_ratio = 0.0;
};

template <class Pass>
PoolSample with_telemetry(double& wall_s, Pass&& pass) {
  wlan::par::ThreadPool& pool = wlan::par::default_pool();
  pool.reset_telemetry();
  wlan::par::set_telemetry_enabled(true);
  const auto t0 = Clock::now();
  pass();
  wall_s = seconds_since(t0);
  wlan::par::set_telemetry_enabled(false);
  const wlan::par::PoolTelemetry t = pool.telemetry();
  const wlan::par::LaneTelemetry sum = t.totals();
  PoolSample s;
  s.utilization = t.utilization(wall_s);
  s.imbalance = t.imbalance();
  s.steal_ratio = sum.steal_attempts
                      ? static_cast<double>(sum.steal_successes) /
                            static_cast<double>(sum.steal_attempts)
                      : 0.0;
  return s;
}

void fold_pool(const std::vector<PoolSample>& samples, Report& rep) {
  std::vector<double> u, i, s;
  for (const PoolSample& p : samples) {
    u.push_back(p.utilization);
    i.push_back(p.imbalance);
    s.push_back(p.steal_ratio);
  }
  rep.par_utilization = median(u);
  rep.par_imbalance = median(i);
  rep.par_steal_ratio = median(s);
}

constexpr std::size_t kMinPasses = 3;
/// Traced runs alternate untraced and traced passes: at least 2 pairs.
constexpr std::size_t kMinTracedPairs = 2;

struct Run {
  const Args& args;
  const Host& host;
  Report rep;
  Ledger ledger;
  std::string digest;  // seed-determined outputs of the first pass
};

/// Times one cold link set-up in a forked child. The parent has run no
/// library code and started no thread yet, so the child starts as cold as
/// a fresh process: it spins up the pool and makes the warm-up calls
/// (thread-local FFT plans and workspaces, LDPC tables, first-touch page
/// faults). A warm process repeating the warm-up would miss most of that.
/// Returns the child's set-up seconds, or NaN when it did not report.
double cold_link_setup(const LinkSweep& sweep, unsigned lanes, Ledger& ledger) {
  struct ChildReport {
    double seconds;
    std::uint64_t attempted;
    std::uint64_t failed;
  };
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(nullptr);  // the child must not inherit unflushed output
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    ChildReport r{};
    try {
      wlan::par::set_default_jobs(lanes);
      const auto t0 = Clock::now();
      const Outcome o = run_link_warmup(sweep);
      r = {seconds_since(t0), o.attempted, o.failed};
    } catch (...) {
      _exit(1);
    }
    _exit(write(fds[1], &r, sizeof r) == sizeof r ? 0 : 1);
  }
  close(fds[1]);
  ChildReport r{};
  const bool got = read(fds[0], &r, sizeof r) == sizeof r;
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  Outcome o;
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "link set-up child failed\n");
    o.attempted = o.failed = 1;
    ledger.record(o);
    return std::nan("");
  }
  o.attempted = r.attempted;
  o.failed = r.failed;
  ledger.record(o);
  return r.seconds;
}

void run_link(Run& run) {
  const LinkSweep sweep = make_link_sweep(run.args.seed);

  // Set-up: the median of 15 cold set-ups, each in a child of its own.
  // This must come before anything in this process starts a thread.
  std::vector<double> setup;
  for (int k = 0; k < 15; ++k) {
    const double s = cold_link_setup(sweep, run.host.lanes, run.ledger);
    if (!std::isnan(s)) setup.push_back(s);
  }
  run.rep.setup_s = median(setup);
  // Warm this process the same way before the timed passes.
  run.ledger.record(run_link_warmup(sweep));

  std::vector<double> walls, rates, traced_walls;
  std::vector<PoolSample> pool;
  std::string traced_digest;
  const auto untraced = [&] {
    const auto t0 = Clock::now();
    const Outcome o = run_link_sweep(sweep);
    walls.push_back(seconds_since(t0));
    rates.push_back(o.work / o.work_s);
    std::fprintf(stderr, "link pass: %.3f s\n", walls.back());
    run.ledger.record(o, run.digest);
  };
  if (!run.args.trace) {
    repeat_for(run.args.seconds, kMinPasses, untraced);
    run.rep.wall_s = median(walls);
    run.rep.work_per_s = median(rates);
    return;
  }
  repeat_for(run.args.seconds, kMinTracedPairs, [&] {
    untraced();
    double wall = 0.0;
    Outcome o;
    pool.push_back(with_telemetry(wall, [&] { o = run_link_sweep(sweep); }));
    traced_walls.push_back(wall);
    run.ledger.record(o, traced_digest);
  });
  fold_pool(pool, run.rep);
  run.rep.trace_overhead_s = median(traced_walls) - median(walls);
}

/// Alternates set-up passes (plan + zero-duration simulate), untraced
/// passes and, in traced runs, audited passes of a city until `seconds`
/// have elapsed, so every kind samples the same stretch of host load;
/// fills the city fields of `run.rep`.
void measure_city(Run& run, const City& city, double seconds, bool trace) {
  const double duration = city.config.duration_s;
  std::vector<double> setup, setup_sim;
  const auto setup_pass = [&] {
    const CityPass p = run_city(city, 0.0, false);
    setup.push_back(p.plan_s + p.simulate_s);
    setup_sim.push_back(p.simulate_s);
    std::fprintf(stderr, "%s set-up: plan %.3f s, simulate %.3f s\n",
                 city.name.c_str(), p.plan_s, p.simulate_s);
    run.ledger.record(p.outcome);
  };

  std::vector<double> walls, rates, plans, sims, traced_walls;
  std::vector<PoolSample> pool;
  std::vector<CityPass> passes;
  std::string traced_digest;
  const auto untraced = [&] {
    CityPass p = run_city(city, duration, false);
    walls.push_back(p.plan_s + p.simulate_s);
    rates.push_back(p.outcome.work / p.outcome.work_s);
    std::fprintf(stderr, "%s pass: plan %.3f s, simulate %.3f s\n",
                 city.name.c_str(), p.plan_s, p.simulate_s);
    plans.push_back(p.plan_s);
    sims.push_back(p.simulate_s);
    run.ledger.record(p.outcome, run.digest);
    passes.push_back(std::move(p));
  };
  if (!trace) {
    repeat_for(seconds, kMinPasses, [&] {
      setup_pass();
      untraced();
    });
    run.rep.setup_s = median(setup);
    run.rep.wall_s = median(walls);
    run.rep.work_per_s = median(rates);
    return;
  }
  std::uint64_t breaches = 0;
  repeat_for(seconds, seconds > 0.0 ? kMinTracedPairs : 1, [&] {
    setup_pass();
    untraced();
    double wall = 0.0;
    CityPass p;
    pool.push_back(with_telemetry(wall, [&] { p = run_city(city, duration, true); }));
    traced_walls.push_back(wall);
    breaches += p.result.lifecycle.breaches;
    run.ledger.record(p.outcome, traced_digest);
  });
  fold_pool(pool, run.rep);
  run.rep.trace_overhead_s = median(traced_walls) - median(walls);
  run.rep.net_setup_s = median(setup_sim);
  run.rep.net_plan_s = median(plans);
  run.rep.net_events_s = median(sims) - run.rep.net_setup_s;
  run.rep.audit_breaches = static_cast<double>(breaches);

  // Wall-clock border fields from the median-wall pass; the counts are
  // seed-determined and equal in every pass.
  const double mid = median(walls);
  const CityPass* chosen = &passes.front();
  for (const CityPass& p : passes) {
    if (std::abs(p.plan_s + p.simulate_s - mid) <
        std::abs(chosen->plan_s + chosen->simulate_s - mid)) {
      chosen = &p;
    }
  }
  const wlan::net::NetworkResult& r = chosen->result;
  run.rep.border = r.border;
  run.rep.sim_events = static_cast<double>(chosen->events);
  run.rep.mac_data_tx = static_cast<double>(r.data_tx_count);
  run.rep.mac_data_failure_rate = r.data_failure_rate();
  std::uint64_t retries = 0;
  for (const wlan::net::FlowStats& f : r.flows) retries += f.retries;
  run.rep.mac_retries_per_tx =
      r.data_tx_count ? static_cast<double>(retries) /
                            static_cast<double>(r.data_tx_count)
                      : 0.0;
}

/// The small bordered city the traced run uses for the net layers a
/// workload does not exercise itself.
City border_probe(std::uint64_t seed) { return make_city_border(seed, 4, 0.02); }

/// Per-layer probes every traced run reports: the link kernels at one
/// lane, the PER-model dictionary, and (where the workload has no city of
/// that kind) a small bordered city.
void probe_layers(Run& run, bool need_net, bool need_border) {
  wlan::par::set_default_jobs(1);
  run.rep.link = probe_link_layers(make_link_sweep(run.args.seed));
  wlan::par::set_default_jobs(run.host.lanes);
  run.rep.model = probe_net_model(make_city_per(run.args.seed));
  if (!need_net && !need_border) return;

  Run probe{run.args, run.host, {}, {}, {}};
  measure_city(probe, border_probe(run.args.seed), 0.0, true);
  run.ledger.record(probe.ledger.total());
  const Report& p = probe.rep;
  run.rep.border = p.border;
  if (!need_net) return;
  run.rep.net_plan_s = p.net_plan_s;
  run.rep.net_setup_s = p.net_setup_s;
  run.rep.net_events_s = p.net_events_s;
  run.rep.sim_events = p.sim_events;
  run.rep.mac_data_tx = p.mac_data_tx;
  run.rep.mac_data_failure_rate = p.mac_data_failure_rate;
  run.rep.mac_retries_per_tx = p.mac_retries_per_tx;
  run.rep.audit_breaches = p.audit_breaches;
}

void print_result(bool correct, const Outcome& total,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(total.attempted),
              static_cast<unsigned long long>(total.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: wlanbench --workload <link|city-per|city-border> "
                 "--seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  const Host host = detect_host();
  wlan::par::set_default_jobs(host.lanes);
  std::printf("host nproc=%u lanes=%u isa=%s compiler=\"%s\" build=%s\n",
              host.nproc, host.lanes, host.isa.c_str(), host.compiler.c_str(),
              host.build_type.c_str());

  Run run{args, host, {}, {}, {}};
  try {
    switch (*args.workload) {
      case Workload::kLink:
        run_link(run);
        if (args.trace) probe_layers(run, true, true);
        break;
      case Workload::kCityPer:
        measure_city(run, make_city_per(args.seed), args.seconds, args.trace);
        if (args.trace) probe_layers(run, false, true);
        break;
      case Workload::kCityBorder:
        measure_city(run, make_city_border(args.seed, 12, 0.1), args.seconds,
                     args.trace);
        if (args.trace) probe_layers(run, false, false);
        break;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wlanbench: %s\n", e.what());
    return 1;
  }
  run.rep.peak_rss_mb = peak_rss_mb();

  std::printf("%s", run.digest.c_str());
  std::printf("digest fnv1a64=%s\n", fnv1a64_hex(run.digest).c_str());
  const std::vector<Metric> metrics =
      args.trace ? per_layer_metrics(run.rep) : end_to_end_metrics(run.rep);
  bool finite = true;
  for (const Metric& m : metrics) finite = finite && std::isfinite(m.value);
  const Outcome& total = run.ledger.total();
  print_result(finite && total.failed == 0 && total.attempted > 0, total,
               metrics);
  return 0;
}
