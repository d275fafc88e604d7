#include "net/shard.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/units.h"
#include "mac/timing.h"
#include "par/montecarlo.h"
#include "par/pool.h"

namespace wlan::net {
namespace {

struct CellKey {
  std::int64_t x = 0;
  std::int64_t y = 0;
  bool operator==(const CellKey& o) const { return x == o.x && y == o.y; }
};

struct CellHash {
  std::size_t operator()(const CellKey& k) const {
    // SplitMix64-style mix of the two coordinates.
    std::uint64_t h = static_cast<std::uint64_t>(k.x) * 0x9E3779B97F4A7C15ull;
    h ^= static_cast<std::uint64_t>(k.y) + 0xBF58476D1CE4E5B9ull + (h << 6) +
         (h >> 2);
    h *= 0x94D049BB133111EBull;
    return static_cast<std::size_t>(h ^ (h >> 31));
  }
};

/// Union-find with path halving; components of the coupling graph.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i)
      parent_[i] = static_cast<std::uint32_t>(i);
  }
  std::uint32_t find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    // Attach the larger root under the smaller so component roots are
    // always the smallest member (stable, input-order independent).
    if (b < a) std::swap(a, b);
    parent_[b] = a;
  }

 private:
  std::vector<std::uint32_t> parent_;
};

/// Nodes binned into square cells by one counting sort over the bounding
/// box of the occupied cells: cell c holds members[start[c] ..
/// start[c + 1]), ascending, and cells are row-major, `width` per row.
struct CellGrid {
  std::size_t width = 0;
  std::size_t height = 0;
  std::vector<std::uint32_t> start;
  std::vector<std::uint32_t> members;
  std::vector<std::size_t> cell_of;  ///< per node
};

/// Bins nodes into cells of edge 1 / inv_cell (one cell when inv_cell is
/// 0), keyed floor(x * inv_cell), floor(y * inv_cell). A layout sparse
/// enough to need more than ~4 cells per node merges cells k x k, k a
/// power of two: a merged cell's 3x3 neighbourhood covers the original
/// cell's, so merging adds candidate pairs but never drops one.
CellGrid bin_nodes(const std::vector<NodeConfig>& nodes, double inv_cell) {
  const std::size_t n = nodes.size();
  std::vector<std::int64_t> cx(n);
  std::vector<std::int64_t> cy(n);
  std::int64_t x0 = std::numeric_limits<std::int64_t>::max();
  std::int64_t y0 = x0;
  std::int64_t x1 = std::numeric_limits<std::int64_t>::min();
  std::int64_t y1 = x1;
  for (std::size_t i = 0; i < n; ++i) {
    const mesh::Point& p = nodes[i].position;
    cx[i] = static_cast<std::int64_t>(std::floor(p.x * inv_cell));
    cy[i] = static_cast<std::int64_t>(std::floor(p.y * inv_cell));
    x0 = std::min(x0, cx[i]);
    x1 = std::max(x1, cx[i]);
    y0 = std::min(y0, cy[i]);
    y1 = std::max(y1, cy[i]);
  }
  // Offsets from the box corner, in unsigned arithmetic so any int64
  // span fits.
  const auto offset = [](std::int64_t v, std::int64_t lo) {
    return static_cast<std::uint64_t>(v) - static_cast<std::uint64_t>(lo);
  };
  const double budget = 4.0 * static_cast<double>(n) + 64.0;
  std::uint64_t k = 1;
  while (static_cast<double>(offset(x1, x0) / k + 1) *
             static_cast<double>(offset(y1, y0) / k + 1) >
         budget) {
    k *= 2;
  }

  CellGrid g;
  g.width = static_cast<std::size_t>(offset(x1, x0) / k + 1);
  g.height = static_cast<std::size_t>(offset(y1, y0) / k + 1);
  g.start.assign(g.width * g.height + 1, 0);
  g.cell_of.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    g.cell_of[i] = static_cast<std::size_t>(offset(cy[i], y0) / k) * g.width +
                   static_cast<std::size_t>(offset(cx[i], x0) / k);
    ++g.start[g.cell_of[i] + 1];
  }
  for (std::size_t c = 0; c + 1 < g.start.size(); ++c)
    g.start[c + 1] += g.start[c];
  g.members.resize(n);
  std::vector<std::uint32_t> fill(g.start.begin(), g.start.end() - 1);
  for (std::size_t i = 0; i < n; ++i)
    g.members[fill[g.cell_of[i]]++] = static_cast<std::uint32_t>(i);
  return g;
}

/// Largest power of two <= x. Epoch boundaries k * lookahead must be
/// exact doubles so that a record stamped at u >= j*L, once delayed by
/// L, can never round below the (j+1)*L boundary (monotone rounding of
/// u + L with L a power of two guarantees fl(u + L) >= (j+1)*L).
double pow2_floor(double x) {
  check(x > 0.0 && std::isfinite(x), "pow2_floor needs a finite positive x");
  return std::exp2(std::floor(std::log2(x)));
}

}  // namespace

ShardPlan plan_shards(const NetworkConfig& config,
                      const std::vector<NodeConfig>& nodes,
                      const ShardOptions& options,
                      const std::vector<Flow>* flows) {
  const std::size_t n = nodes.size();
  check(n >= 1, "plan_shards needs at least one node");
  check(n < std::numeric_limits<std::uint32_t>::max(),
        "plan_shards node count exceeds uint32 indexing");
  check(!(options.cutoff_margin_db < 0.0), "cutoff_margin_db must be >= 0");
  if (flows) {
    for (const Flow& f : *flows)
      check(f.source < n && f.destination < n,
            "plan_shards: flow endpoint out of range");
  }

  ShardPlan plan;
  const bool bounded = std::isfinite(options.cutoff_margin_db);
  if (bounded) {
    // The weakest level any node could care about: a signal below both
    // its carrier-sense threshold and its noise floor can neither defer
    // it nor measurably degrade its SINR. Take the deployment-wide min
    // so one sensitive node widens the cutoff for everyone.
    double floor_dbm = std::numeric_limits<double>::infinity();
    double max_tx_dbm = -std::numeric_limits<double>::infinity();
    for (const NodeConfig& node : nodes) {
      const double noise_dbm =
          thermal_noise_dbm(config.bandwidth_hz, node.noise_figure_db);
      floor_dbm =
          std::min(floor_dbm, std::min(node.cs_threshold_dbm, noise_dbm));
      max_tx_dbm = std::max(max_tx_dbm, node.tx_power_dbm);
    }
    plan.cutoff_rx_dbm = floor_dbm - options.cutoff_margin_db;
    plan.cutoff_radius_m = std::max(
        config.pathloss.distance_for_path_loss(max_tx_dbm - plan.cutoff_rx_dbm),
        1.0);
  } else {
    plan.cutoff_rx_dbm = -std::numeric_limits<double>::infinity();
    plan.cutoff_radius_m = std::numeric_limits<double>::infinity();
  }

  // Border tiles depend on geometry and flows only, so they are known
  // before the rows and the row pass can find the shortest cross-tile
  // distance.
  if (options.border) {
    plan.border = true;
    const double border_tile =
        options.border_tile_m > 0.0 ? options.border_tile_m
                                    : plan.cutoff_radius_m;
    check(std::isfinite(border_tile) && border_tile > 0.0,
          "border mode needs a finite tile: set border_tile_m or use a "
          "finite cutoff_margin_db");
    const double inv_border = 1.0 / border_tile;
    auto tile_of = [inv_border](const mesh::Point& p) {
      return CellKey{
          static_cast<std::int64_t>(std::floor(p.x * inv_border)),
          static_cast<std::int64_t>(std::floor(p.y * inv_border))};
    };
    // Flow endpoints (and, transitively, flows sharing endpoints) must
    // land in one tile: every node of a flow-connected cluster adopts
    // the tile of the cluster's smallest member.
    UnionFind cluster(n);
    if (flows) {
      for (const Flow& f : *flows)
        cluster.unite(static_cast<std::uint32_t>(f.source),
                      static_cast<std::uint32_t>(f.destination));
    }
    plan.shard_of.assign(n, 0);
    std::unordered_map<CellKey, std::uint32_t, CellHash> tile_index;
    tile_index.reserve(256);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t rep = cluster.find(static_cast<std::uint32_t>(i));
      const CellKey key = tile_of(nodes[rep].position);
      auto [it, inserted] = tile_index.emplace(
          key, static_cast<std::uint32_t>(plan.shards.size()));
      if (inserted) plan.shards.emplace_back();
      plan.shard_of[i] = it->second;
      plan.shards[it->second].push_back(static_cast<std::uint32_t>(i));
    }
  }

  // Adjacency rows. Nodes are binned into cells whose edge is the
  // cutoff radius (one cell when unbounded), so a coupled pair is at
  // most one cell apart and candidates come from the 3x3 neighbourhood.
  // Chunks of rows run on the pool `options.jobs` selects (inline for
  // one chunk, as for an unbounded plan) in three passes:
  //  1. Each pair is tested once, from its smaller node i: row i's
  //     coupled j > i go, sorted, into the chunk's buffer (the upper
  //     row), and i is counted into row j's lower part. The shortest
  //     cross-tile distance is found here.
  //  2. A prefix sum of row lengths lays out row_offset; each chunk
  //     copies its upper rows into place and scatters i into the
  //     lower part of each of its rows' j.
  //  3. Lower parts are sorted. Row i is its lower part (< i) then its
  //     upper part (> i), so it is ascending.
  // Both directions of a pair share one distance and one predicate
  // call, and the lower parts are sorted, so the CSR is the same for
  // any chunking and lane count.
  const CellGrid grid = bin_nodes(nodes, bounded ? 1.0 / plan.cutoff_radius_m
                                                 : 0.0);
  const double cutoff = plan.cutoff_rx_dbm;
  const double radius_sq = plan.cutoff_radius_m * plan.cutoff_radius_m;
  constexpr std::size_t kRowsPerChunk = 64;
  const std::size_t n_chunks =
      bounded ? (n + kRowsPerChunk - 1) / kRowsPerChunk : 1;
  const auto chunk_rows = [&](std::size_t c) {
    return std::pair{c * n / n_chunks, (c + 1) * n / n_chunks};
  };
  std::unique_ptr<par::ThreadPool> owned;
  par::ThreadPool* pool = nullptr;
  if (n_chunks > 1) {
    par::SweepOptions pool_opt;
    pool_opt.jobs = options.jobs;
    pool = &par::detail::select_pool(pool_opt, owned);
  }
  const auto for_each_chunk = [&](const auto& body) {
    if (pool == nullptr) {
      body(0);
      return;
    }
    pool->parallel_for(n_chunks, 1, [&](std::size_t b, std::size_t e) {
      for (std::size_t c = b; c < e; ++c) body(c);
    });
  };

  std::vector<std::vector<std::uint32_t>> upper(n_chunks);
  std::vector<std::uint32_t> upper_len(n, 0);
  std::vector<std::uint32_t> lower_len(n, 0);
  std::vector<double> chunk_min_d(n_chunks,
                                  std::numeric_limits<double>::infinity());
  for_each_chunk([&](std::size_t c) {
    std::vector<std::uint32_t>& out = upper[c];
    double min_d = std::numeric_limits<double>::infinity();
    const auto [begin, end] = chunk_rows(c);
    for (std::size_t i = begin; i < end; ++i) {
      const mesh::Point& pi = nodes[i].position;
      const std::size_t x = grid.cell_of[i] % grid.width;
      const std::size_t y = grid.cell_of[i] / grid.width;
      const std::size_t x_lo = x == 0 ? 0 : x - 1;
      const std::size_t x_hi = std::min(x + 1, grid.width - 1);
      const std::size_t y_lo = y == 0 ? 0 : y - 1;
      const std::size_t y_hi = std::min(y + 1, grid.height - 1);
      const std::size_t row_begin = out.size();
      for (std::size_t yy = y_lo; yy <= y_hi; ++yy) {
        const std::uint32_t m_end = grid.start[yy * grid.width + x_hi + 1];
        for (std::uint32_t m = grid.start[yy * grid.width + x_lo]; m < m_end;
             ++m) {
          const std::uint32_t j = grid.members[m];
          if (j <= i) continue;
          const mesh::Point& pj = nodes[j].position;
          const double ddx = pj.x - pi.x;
          const double ddy = pj.y - pi.y;
          // Cheap reject: beyond the cutoff radius even the strongest
          // transmitter is below the cutoff, up to rounding at the
          // radius itself, where the reject decides.
          if (ddx * ddx + ddy * ddy > radius_sq) continue;
          // Exact test, symmetric by construction: a pair is kept when
          // either direction's deterministic received power clears the
          // cutoff. Same clamped-distance convention as the engine.
          const double d = std::max(mesh::distance(pi, pj), 0.5);
          if (bounded) {
            const double loss = config.pathloss.path_loss_db(d);
            if (!(nodes[i].tx_power_dbm - loss >= cutoff ||
                  nodes[j].tx_power_dbm - loss >= cutoff))
              continue;
          }
          out.push_back(j);
          std::atomic_ref<std::uint32_t>(lower_len[j]).fetch_add(
              1, std::memory_order_relaxed);
          if (plan.border && plan.shard_of[i] != plan.shard_of[j])
            min_d = std::min(min_d, d);
        }
      }
      std::sort(out.begin() + static_cast<std::ptrdiff_t>(row_begin),
                out.end());
      upper_len[i] = static_cast<std::uint32_t>(out.size() - row_begin);
    }
    chunk_min_d[c] = min_d;
  });

  plan.row_offset.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i)
    plan.row_offset[i + 1] = plan.row_offset[i] + lower_len[i] + upper_len[i];
  plan.nbr.resize(plan.row_offset[n]);
  // lower_len counts down as the scatter claims each row's slots.
  for_each_chunk([&](std::size_t c) {
    const auto [begin, end] = chunk_rows(c);
    const std::uint32_t* src = upper[c].data();
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t* src_end = src + upper_len[i];
      std::copy(src, src_end,
                plan.nbr.begin() + static_cast<std::ptrdiff_t>(
                                       plan.row_offset[i + 1] - upper_len[i]));
      for (; src != src_end; ++src) {
        const std::uint32_t slot =
            std::atomic_ref<std::uint32_t>(lower_len[*src])
                .fetch_sub(1, std::memory_order_relaxed) - 1;
        plan.nbr[plan.row_offset[*src] + slot] =
            static_cast<std::uint32_t>(i);
      }
    }
    upper[c] = {};
  });
  for_each_chunk([&](std::size_t c) {
    const auto [begin, end] = chunk_rows(c);
    for (std::size_t i = begin; i < end; ++i) {
      const auto row = plan.nbr.begin();
      std::sort(row + static_cast<std::ptrdiff_t>(plan.row_offset[i]),
                row + static_cast<std::ptrdiff_t>(plan.row_offset[i + 1] -
                                                  upper_len[i]));
    }
  });

  if (!plan.border) {
    // Connected components = shards, numbered by smallest member. The
    // CSR is symmetric, so uniting each row's upper part covers every
    // pair.
    UnionFind uf(n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t e = plan.row_offset[i]; e < plan.row_offset[i + 1];
           ++e)
        if (plan.nbr[e] > i)
          uf.unite(static_cast<std::uint32_t>(i), plan.nbr[e]);
    // A root is its component's smallest member, so it is met first.
    plan.shard_of.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t root = uf.find(static_cast<std::uint32_t>(i));
      if (root == i) {
        plan.shard_of[i] = static_cast<std::uint32_t>(plan.shards.size());
        plan.shards.emplace_back();
      } else {
        plan.shard_of[i] = plan.shard_of[root];
      }
      plan.shards[plan.shard_of[i]].push_back(static_cast<std::uint32_t>(i));
    }
  } else {
    // Lookahead: the minimum cross-border reaction time of a NAV or
    // interference change — one slot (the fastest a station acts on new
    // channel state) plus the shortest cross-tile coupled distance at
    // the speed of light — rounded down to a power of two (see
    // pow2_floor). A user-supplied delay is rounded the same way.
    const double min_d =
        *std::min_element(chunk_min_d.begin(), chunk_min_d.end());
    plan.min_border_m = std::isfinite(min_d) ? min_d : 0.0;
    const double slot_s = mac::mac_timing(config.generation).slot_s;
    const double phys =
        options.border_delay_s > 0.0
            ? options.border_delay_s
            : slot_s + plan.min_border_m / kSpeedOfLight;
    plan.lookahead_s = pow2_floor(phys);
  }
  return plan;
}

}  // namespace wlan::net
