#include "net/errormodel.h"

#include <algorithm>
#include <cmath>
#include <complex>

#include "common/check.h"
#include "common/units.h"
#include "par/montecarlo.h"
#include "phy/ht.h"
#include "phy/ofdm.h"

namespace wlan::net {
namespace {

constexpr double kRateTolMbps = 0.05;

phy::OfdmMcs ofdm_mcs_for_rate(double rate_mbps) {
  for (std::size_t i = 0; i < 8; ++i) {
    const auto mcs = static_cast<phy::OfdmMcs>(i);
    if (std::abs(phy::ofdm_mcs_info(mcs).data_rate_mbps - rate_mbps) <
        kRateTolMbps) {
      return mcs;
    }
  }
  check(false, "no OFDM MCS matches the requested PHY rate");
  return phy::OfdmMcs{};
}

unsigned ht_mcs_for_rate(double rate_mbps) {
  for (unsigned m = 0; m < 8; ++m) {
    const double r = phy::ht_data_rate_mbps(m, phy::HtBandwidth::k20MHz,
                                            phy::HtGuardInterval::kLong);
    if (std::abs(r - rate_mbps) < kRateTolMbps) return m;
  }
  check(false, "no HT base MCS (20 MHz, long GI) matches the requested rate");
  return 0;
}

DsssCckRate dsss_rate_for(double rate_mbps) {
  if (std::abs(rate_mbps - 1.0) < kRateTolMbps) return DsssCckRate::k1Mbps;
  if (std::abs(rate_mbps - 2.0) < kRateTolMbps) return DsssCckRate::k2Mbps;
  if (std::abs(rate_mbps - 5.5) < kRateTolMbps) return DsssCckRate::k5_5Mbps;
  if (std::abs(rate_mbps - 11.0) < kRateTolMbps) return DsssCckRate::k11Mbps;
  check(false, "no DSSS/CCK rate matches the requested PHY rate");
  return DsssCckRate::k1Mbps;
}

/// The uniform mean-SNR grid every table samples.
RVec table_grid(const ErrorModelConfig& config) {
  const auto n = static_cast<std::size_t>((config.table_max_snr_db -
                                           config.table_min_snr_db) /
                                              config.table_step_db +
                                          0.5) +
                 1;
  RVec grid;
  grid.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    grid.push_back(config.table_min_snr_db +
                   static_cast<double>(i) * config.table_step_db);
  }
  return grid;
}

bool is_dsss(mac::PhyGeneration gen) {
  return gen == mac::PhyGeneration::kDsss || gen == mac::PhyGeneration::kHrDsss;
}

/// One frozen block-fading realization: a TDL for the OFDM/HT tone
/// grids, or one flat Rayleigh gain for a narrowband DSSS/CCK waveform.
struct Fade {
  channel::Tdl tdl;
  double flat_gain_db = 0.0;
};

Fade draw_fade(mac::PhyGeneration gen, const ErrorModelConfig& config,
               Rng& rng) {
  Fade fade;
  if (is_dsss(gen)) {
    const Cplx h = channel::flat_fading_coefficient(rng);
    fade.flat_gain_db = lin_to_db(std::max(std::norm(h), 1e-12));
  } else {
    fade.tdl = make_tdl(rng, config.profile, 20e6);
  }
  return fade;
}

/// Appends one table per PSDU size in `psdus` for realization `fade` at
/// one rate. OFDM/HT sizes share one EESM sweep of the whole SNR grid
/// (the grid evaluator hoists the per-tone conversions); only the AWGN
/// curve lookup depends on the size.
void append_tables(mac::PhyGeneration gen, double rate_mbps,
                   std::span<const std::size_t> psdus, const Fade& fade,
                   const ErrorModelConfig& config, const RVec& grid,
                   RVec& eff, std::vector<PerTable>& out) {
  const double lo = config.table_min_snr_db;
  const double step = config.table_step_db;
  const auto wrap = [&](auto&& awgn_per) {
    for (const std::size_t psdu : psdus) {
      RVec per;
      per.reserve(eff.size());
      for (const double e : eff) per.push_back(awgn_per(e, psdu));
      out.emplace_back(lo, step, std::move(per));
    }
  };
  switch (gen) {
    case mac::PhyGeneration::kOfdm: {
      const phy::OfdmMcs mcs = ofdm_mcs_for_rate(rate_mbps);
      eesm_effective_snr_grid_db(ofdm_tone_gains_db(fade.tdl), eesm_beta(mcs),
                                 grid, eff);
      wrap([&](double e, std::size_t psdu) {
        return ofdm_awgn_per(mcs, e, psdu);
      });
      break;
    }
    case mac::PhyGeneration::kHt: {
      const unsigned mcs = ht_mcs_for_rate(rate_mbps);
      eesm_effective_snr_grid_db(ht20_tone_gains_db(fade.tdl),
                                 ht_eesm_beta(mcs), grid, eff);
      wrap([&](double e, std::size_t psdu) {
        return ht_awgn_per(mcs, e, psdu);
      });
      break;
    }
    case mac::PhyGeneration::kDsss:
    case mac::PhyGeneration::kHrDsss: {
      const DsssCckRate rate = dsss_rate_for(rate_mbps);
      for (const std::size_t psdu : psdus) {
        out.emplace_back(lo, config.table_max_snr_db, step, [&](double snr_db) {
          return dsss_awgn_per(rate, snr_db + fade.flat_gain_db, psdu);
        });
      }
      break;
    }
  }
}

}  // namespace

LinkPerModel::LinkPerModel(mac::PhyGeneration gen, double rate_mbps,
                           std::size_t psdu_bytes,
                           const ErrorModelConfig& config, Rng& rng) {
  check(config.realizations > 0,
        "the PER model needs at least one fading realization");
  const RVec grid = table_grid(config);
  RVec eff(grid.size());
  auto tables = std::make_shared<std::vector<PerTable>>();
  tables->reserve(config.realizations);
  const std::size_t psdus[] = {psdu_bytes};
  for (std::size_t r = 0; r < config.realizations; ++r) {
    append_tables(gen, rate_mbps, psdus, draw_fade(gen, config, rng), config,
                  grid, eff, *tables);
    index_.push_back(static_cast<std::uint32_t>(r));
  }
  tables_ = std::move(tables);
}

void LinkPerModel::per_batch(std::span<const double> sinr_db,
                             std::span<const std::uint32_t> realization,
                             std::span<double> out) const {
  check(sinr_db.size() == realization.size() && sinr_db.size() == out.size(),
        "per_batch spans must have equal sizes");
  for (std::size_t i = 0; i < sinr_db.size(); ++i) {
    out[i] = (*tables_)[index_[realization[i]]].lookup(sinr_db[i]);
  }
}

FadingPool::FadingPool(std::span<const PerTableKey> keys,
                       const ErrorModelConfig& config, unsigned jobs)
    : realizations_(config.realizations) {
  check(config.realizations > 0,
        "the PER model needs at least one fading realization");
  check(!keys.empty(), "a fading pool needs at least one table key");
  const bool dsss = is_dsss(keys.front().gen);
  // Distinct keys, grouped by (generation, rate): one sweep per group.
  struct Group {
    mac::PhyGeneration gen;
    double rate_mbps;
    std::vector<std::size_t> psdus;
  };
  std::vector<Group> groups;
  for (const PerTableKey& key : keys) {
    check(is_dsss(key.gen) == dsss,
          "a fading pool serves one fading family (OFDM/HT or DSSS)");
    auto g = std::find_if(groups.begin(), groups.end(), [&](const Group& x) {
      return x.gen == key.gen && x.rate_mbps == key.rate_mbps;
    });
    if (g == groups.end()) {
      groups.push_back({key.gen, key.rate_mbps, {}});
      g = groups.end() - 1;
    }
    if (std::find(g->psdus.begin(), g->psdus.end(), key.psdu_bytes) ==
        g->psdus.end())
      g->psdus.push_back(key.psdu_bytes);
  }
  // Key order follows the groups, which is the order each entry's
  // tables come out of append_tables.
  for (const Group& g : groups) {
    for (const std::size_t psdu : g.psdus)
      keys_.push_back({g.gen, g.rate_mbps, psdu});
  }

  const RVec grid = table_grid(config);
  par::SweepOptions opt;
  opt.root_seed = kSeed;
  opt.jobs = jobs;
  std::vector<std::vector<PerTable>> by_entry =
      par::map(kEntries, opt, [&](std::size_t, Rng& rng) {
        const Fade fade = draw_fade(keys_.front().gen, config, rng);
        RVec eff(grid.size());
        std::vector<PerTable> out;
        out.reserve(keys_.size());
        for (const Group& g : groups)
          append_tables(g.gen, g.rate_mbps, g.psdus, fade, config, grid, eff,
                        out);
        return out;
      });
  tables_.reserve(keys_.size());
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    auto tables = std::make_shared<std::vector<PerTable>>();
    tables->reserve(kEntries);
    for (std::vector<PerTable>& entry : by_entry)
      tables->push_back(std::move(entry[i]));
    tables_.push_back(std::move(tables));
  }
}

const std::shared_ptr<const std::vector<PerTable>>& FadingPool::tables_of(
    const PerTableKey& key) const {
  const auto it = std::find(keys_.begin(), keys_.end(), key);
  check(it != keys_.end(), "the fading pool has no tables for this key");
  return tables_[static_cast<std::size_t>(it - keys_.begin())];
}

LinkPerModel FadingPool::link(const PerTableKey& key, Rng& rng) const {
  std::vector<std::uint32_t> index(realizations_);
  for (std::uint32_t& i : index)
    i = static_cast<std::uint32_t>(rng.uniform_int(kEntries));
  return LinkPerModel(tables_of(key), std::move(index));
}

const PerTable& FadingPool::table(const PerTableKey& key,
                                  std::size_t entry) const {
  check(entry < kEntries, "fading pool entry out of range");
  return (*tables_of(key))[entry];
}

}  // namespace wlan::net
