#include "net/netsim.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "common/check.h"
#include "net/engine.h"
#include "net/merge.h"
#include "net/shard.h"
#include "obs/perf.h"
#include "par/montecarlo.h"
#include "par/pool.h"

namespace wlan::net {
namespace {

using detail::BorderMsg;
using detail::Engine;
using detail::kNone;
using detail::per_table_keys;
using detail::ShardOutput;

void validate_network(const std::vector<NodeConfig>& nodes,
                      const std::vector<Flow>& flows) {
  check(nodes.size() >= 2, "network needs at least two nodes");
  check(!flows.empty(), "network needs at least one flow");
  for (const Flow& f : flows) {
    check(f.source < nodes.size() && f.destination < nodes.size(),
          "flow endpoints out of range");
  }
}

/// The one driver every plan runs through: engines set up on the pool,
/// conservative-time lockstep rounds, finalize on the pool, merge in
/// shard order.
///
/// The rounds run on `par::run_rounds`: persistent participants, one
/// per pool lane up to the tile count, cross every round on one atomic
/// gate. Each per-tile engine simulates its private horizon [t, t+L)
/// after routing its own inbox: the messages the previous executed
/// round left in the outboxes of its peer tiles (double-buffered by
/// round parity), taken in ascending source-tile order and generation
/// order within each outbox. L is the plan's lookahead: influence
/// stamped inside round k applies at or after boundary (k+1)*L, so
/// everything a round needs was generated by the round before, and the
/// message order seen by any engine is a pure function of the plan —
/// bitwise identical at any jobs count, and identical to the fused
/// reference engine (`fused`) that queues the same records locally.
/// The thread ending a round records its stats, counts its messages,
/// skips idle epochs and publishes the next. A plan without cross-tile
/// edges (components, one shard, the unbounded monolith plan) or a
/// single engine is just one final round with no messages, whose tasks
/// build, run and finalize their engines.
NetworkResult run_plan(const NetworkConfig& config,
                       const std::vector<NodeConfig>& nodes,
                       const std::vector<Flow>& flows, const ShardPlan& plan,
                       unsigned jobs, bool fused, std::uint64_t root,
                       const FadingPool* fading) {
  const std::size_t n_engines = fused ? 1 : plan.shards.size();
  const bool single = n_engines == 1;
  const bool lockstep = !single && plan.border;
  check(!lockstep || plan.lookahead_s > 0.0,
        "border plan carries no lookahead");

  // One engine writes straight into the caller's registry and sink;
  // several get private registries (merged in shard order) and share
  // one synchronized sink, so the caller's is never raced.
  std::optional<obs::SynchronizedTraceSink> synced;
  if (config.trace && !single) synced.emplace(*config.trace);
  obs::TraceSink* trace = synced ? &*synced : config.trace;

  par::SweepOptions pool_opt;
  pool_opt.jobs = single ? 1 : jobs;
  std::unique_ptr<par::ThreadPool> owned;
  par::ThreadPool& pool = par::detail::select_pool(pool_opt, owned);
  const unsigned lanes = pool.size();

  // Every stream is per-entity, so construction and finalize commute.
  std::vector<ShardOutput> outputs(n_engines);
  std::vector<std::unique_ptr<Engine>> engines(n_engines);
  const auto build = [&](std::size_t s) {
    obs::Registry* registry = config.registry;
    if (!single) {
      outputs[s].registry = std::make_unique<obs::Registry>();
      registry = outputs[s].registry.get();
    }
    engines[s] = std::make_unique<Engine>(config, nodes, flows, plan,
                                          fused ? kNone : s, root, fading,
                                          registry, trace);
    engines[s]->start();
  };
  const auto finish = [&](std::size_t s) {
    outputs[s].result = engines[s]->finalize();
    outputs[s].node_ids = engines[s]->node_ids();
    outputs[s].flow_ids = engines[s]->flow_ids();
    engines[s].reset();
  };
  const auto phase = [&](const char* name, const auto& fn) {
    const obs::perf::ScopedSpan span(name);
    const std::uint64_t t0 = par::detail::monotonic_ns();
    pool.parallel_for(n_engines, 1, [&](std::size_t b, std::size_t e) {
      for (std::size_t s = b; s < e; ++s) fn(s);
    });
    return static_cast<double>(par::detail::monotonic_ns() - t0) * 1e-9;
  };

  // Lockstep tiles all live across rounds, so they are built and
  // finalized in phases of their own. Without lockstep nothing crosses
  // engines, and the single round builds, runs and finalizes each
  // engine in one task: only the engines in flight hold memory, not
  // every shard of a city at once.
  const double setup_s = lockstep ? phase("net.setup", build) : 0.0;
  par::EpochStats epochs;
  std::vector<double> busy_s(n_engines, 0.0);
  std::uint64_t messages = 0;
  {
    const obs::perf::ScopedSpan span("net.events");
    const double lookahead = plan.lookahead_s;
    const std::size_t n_full =
        lockstep ? static_cast<std::size_t>(
                       std::floor(config.duration_s / lookahead))
                 : 0;
    // Written only by the thread ending a round, read by the tasks of
    // the next: run_rounds orders the two.
    std::size_t k = 0;  // epoch of the round in flight
    bool final_round = n_full == 0;
    double bound = final_round ? config.duration_s : lookahead;
    // Per tile, written by the task running it: the messages it sent,
    // by executed-round parity, and its earliest pending event.
    struct alignas(64) TileSlot {
      std::array<std::vector<BorderMsg>, 2> sent;
      double next_s = 0.0;
    };
    std::vector<TileSlot> slots(n_engines);
    std::uint64_t round0 = par::detail::monotonic_ns();

    const auto tile = [&](std::uint32_t r, std::size_t s) {
      if (!lockstep) build(s);
      const std::uint64_t t0 = par::detail::monotonic_ns();
      Engine& engine = *engines[s];
      if (r > 0) {
        for (const std::uint32_t src : engine.peer_tiles())
          for (const BorderMsg& msg : slots[src].sent[(r - 1) & 1])
            if (msg.target_tile == s) engine.inject_border(msg);
      }
      if (final_round) {
        engine.run_final(bound);
      } else {
        engine.run_before(bound);
      }
      std::vector<BorderMsg>& sent = slots[s].sent[r & 1];
      sent.clear();
      sent.swap(engine.outbox());
      slots[s].next_s = engine.next_time();
      busy_s[s] = static_cast<double>(par::detail::monotonic_ns() - t0) * 1e-9;
      if (!lockstep) finish(s);
    };
    const auto end_round = [&](std::uint32_t r) {
      const std::uint64_t now = par::detail::monotonic_ns();
      epochs.record_round(static_cast<double>(now - round0) * 1e-9,
                          busy_s.data(), n_engines);
      round0 = now;
      if (final_round) return false;
      std::size_t sent = 0;
      for (const TileSlot& slot : slots) sent += slot.sent[r & 1].size();
      messages += sent;
      if (sent > 0) {
        ++k;
      } else {
        // Idle skip: nothing is in flight and run_before drained every
        // event below the boundary, so the earliest pending event
        // bounds the next epoch that can do work. Messages travel
        // exactly one epoch, so skipping empty ones reorders nothing.
        double min_next = std::numeric_limits<double>::infinity();
        for (const TileSlot& slot : slots)
          min_next = std::min(min_next, slot.next_s);
        std::size_t k_next = n_full;
        if (std::isfinite(min_next)) {
          const double e = std::floor(min_next / lookahead);
          if (e < static_cast<double>(n_full))
            k_next = std::max(k + 1, static_cast<std::size_t>(e));
        }
        k = k_next;
      }
      final_round = k >= n_full;
      bound = final_round ? config.duration_s
                          : static_cast<double>(k + 1) * lookahead;
      return true;
    };
    par::run_rounds(pool, n_engines, tile, end_round);
  }
  const double finalize_s = lockstep ? phase("net.finalize", finish) : 0.0;

  const std::uint64_t merge0 = par::detail::monotonic_ns();
  NetworkResult total =
      single ? std::move(outputs[0].result)
             : merge_shard_outputs(config, nodes.size(), flows.size(),
                                   outputs);
  if (plan.border) {
    total.border.tiles = plan.shards.size();
    total.border.epochs = epochs.rounds;
    total.border.messages = messages;
    total.border.lookahead_s = plan.lookahead_s;
    total.border.wall_s = epochs.wall_s;
    total.border.utilization = epochs.utilization(lanes);
    total.border.imbalance = epochs.imbalance();
    total.border.setup_s = setup_s;
    total.border.busy_s = epochs.busy_s;
    total.border.critical_path_s = epochs.max_busy_s;
    total.border.finalize_s = finalize_s;
    total.border.merge_s =
        static_cast<double>(par::detail::monotonic_ns() - merge0) * 1e-9;
  }
  return total;
}

/// One engine over every node: the monolithic simulation, as the
/// single round of the unbounded plan.
NetworkResult run_monolith(const NetworkConfig& config,
                           const std::vector<NodeConfig>& nodes,
                           const std::vector<Flow>& flows, std::uint64_t root,
                           const FadingPool* fading) {
  ShardPlan plan;
  {
    const obs::perf::ScopedSpan span("net.plan");
    ShardOptions monolithic;
    monolithic.cutoff_margin_db = std::numeric_limits<double>::infinity();
    plan = plan_shards(config, nodes, monolithic);
  }
  return run_plan(config, nodes, flows, plan, 1, false, root, fading);
}

/// The fading pool every engine of one simulate call reads, profiled as
/// its own row under net.setup. PER model only: a threshold run builds
/// none and draws nothing.
std::optional<FadingPool> call_fading_pool(const NetworkConfig& config,
                                           unsigned jobs) {
  if (config.error_model.model != RxModel::kPerModel) return std::nullopt;
  const obs::perf::ScopedSpan setup("net.setup");
  const obs::perf::ScopedSpan span("net.fading_pool");
  return FadingPool(per_table_keys(config), config.error_model, jobs);
}

}  // namespace

NetworkResult simulate_network(const NetworkConfig& config,
                               const std::vector<NodeConfig>& nodes,
                               const std::vector<Flow>& flows, Rng& rng) {
  validate_network(nodes, flows);
  const std::optional<FadingPool> fading = call_fading_pool(config, 0);
  return run_monolith(config, nodes, flows, rng.next_u64(),
                      fading ? &*fading : nullptr);
}

NetworkResult simulate_network_sharded(const NetworkConfig& config,
                                       const std::vector<NodeConfig>& nodes,
                                       const std::vector<Flow>& flows,
                                       const ShardOptions& options, Rng& rng,
                                       const ShardPlan* plan) {
  validate_network(nodes, flows);
  ShardPlan local_plan;
  if (!plan) {
    const obs::perf::ScopedSpan span("net.plan");
    local_plan = plan_shards(config, nodes, options, &flows);
    plan = &local_plan;
  }
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const Flow& flow = flows[f];
    check(plan->shard_of[flow.source] == plan->shard_of[flow.destination],
          "flow " + std::to_string(f) + " (" + std::to_string(flow.source) +
              " -> " + std::to_string(flow.destination) +
              ") spans shards " +
              std::to_string(plan->shard_of[flow.source]) + " and " +
              std::to_string(plan->shard_of[flow.destination]) +
              (plan->border
                   ? "; pass the flows to plan_shards so endpoint "
                     "clusters share a tile"
                   : "; component sharding cannot couple them — widen "
                     "cutoff_margin_db or enable ShardOptions::border"));
  }
  const std::optional<FadingPool> pool = call_fading_pool(config, options.jobs);
  return run_plan(config, nodes, flows, *plan, options.jobs,
                  options.border_reference, rng.next_u64(),
                  pool ? &*pool : nullptr);
}

std::vector<NetworkResult> simulate_network_batch(
    const NetworkConfig& config, const std::vector<NodeConfig>& nodes,
    const std::vector<Flow>& flows, std::size_t n_runs,
    const BatchOptions& options) {
  check(n_runs > 0, "simulate_network_batch requires at least one run");
  validate_network(nodes, flows);
  const std::optional<FadingPool> pool = call_fading_pool(config, options.jobs);
  const FadingPool* fading = pool ? &*pool : nullptr;

  // One synchronized wrapper shared by every run; the caller's sink is
  // never touched from two threads at once.
  std::optional<obs::SynchronizedTraceSink> synced;
  if (config.trace) synced.emplace(*config.trace);

  struct RunOutput {
    NetworkResult result;
    std::unique_ptr<obs::Registry> registry;
  };

  par::SweepOptions opt;
  opt.root_seed = options.root_seed;
  opt.jobs = options.jobs;
  std::vector<RunOutput> outputs =
      par::map(n_runs, opt, [&](std::size_t, Rng& run_rng) {
        NetworkConfig run_config = config;
        RunOutput out;
        out.registry = std::make_unique<obs::Registry>();
        run_config.registry = out.registry.get();
        if (synced) run_config.trace = &*synced;
        out.result = run_monolith(run_config, nodes, flows,
                                  run_rng.next_u64(), fading);
        return out;
      });

  std::vector<NetworkResult> results;
  results.reserve(n_runs);
  for (RunOutput& out : outputs) {
    if (options.registry) options.registry->merge(*out.registry);
    results.push_back(std::move(out.result));
  }
  return results;
}

HiddenTerminalSetup make_hidden_terminal_setup(double sender_spacing_m) {
  HiddenTerminalSetup setup;
  // Senders at the ends, receiver in the middle. With enough spacing the
  // senders fall below each other's CS threshold while both still reach
  // the receiver.
  NodeConfig a;
  a.position = {0.0, 0.0};
  NodeConfig b;
  b.position = {sender_spacing_m, 0.0};
  NodeConfig ap;
  ap.position = {sender_spacing_m / 2.0, 0.0};
  setup.nodes = {a, b, ap};
  setup.flows = {{0, 2}, {1, 2}};
  return setup;
}

}  // namespace wlan::net
