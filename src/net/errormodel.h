// Reception error models for the network simulator.
//
// The legacy model (`RxModel::kSinrThreshold`, the default) delivers a
// frame iff its SINR clears a hard threshold — fast, but it produces
// cliff-edge coverage and ignores rate, frame length, and fading. The
// PER model (`RxModel::kPerModel`) replaces the threshold with the
// link-to-system abstraction. Each simulate call builds one
// `FadingPool`: K frozen block-fading realizations, each reduced to a
// mean-SINR -> PER table (EESM effective SNR -> calibrated AWGN curve,
// scaled to the frame's PSDU length) per (rate, PSDU size) the network
// sends. Realizations are i.i.d., so a directed link is just a handful
// of indices into the pool; a frame picks one of its link's indices,
// interpolates that table at its mean SINR, and survives a Bernoulli
// draw. The hot path is one table interpolation plus two RNG draws —
// no exp/log — and set-up costs one EESM sweep per rate per pool
// entry, whatever the number of links.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "channel/fading.h"
#include "common/rng.h"
#include "core/abstraction.h"
#include "mac/timing.h"

namespace wlan::net {

/// How the simulator decides whether a frame is received.
enum class RxModel {
  kSinrThreshold,  ///< legacy hard threshold on SINR (the default)
  kPerModel,       ///< EESM/PER abstraction + Bernoulli draw
};

/// Configuration of the PER reception model. All fields are ignored when
/// `model == kSinrThreshold` (and the simulator then consumes no extra
/// RNG draws, keeping legacy runs bitwise identical).
struct ErrorModelConfig {
  RxModel model = RxModel::kSinrThreshold;
  /// Delay profile of the per-link block-fading realizations.
  channel::DelayProfile profile = channel::DelayProfile::kOffice;
  /// Log-normal shadowing sigma applied once per node pair (symmetric),
  /// on top of the deterministic path loss. 0 disables shadowing.
  double shadowing_sigma_db = 0.0;
  /// Fading realizations per directed link: indices into the call's
  /// pool of `FadingPool::kEntries` realizations, drawn uniformly once
  /// per link. Each frame picks one of them uniformly (block fading per
  /// frame, i.i.d. across frames). A standalone `LinkPerModel` draws
  /// this many private realizations instead.
  std::size_t realizations = 16;
  /// Minimum worst-case SINR for the receiver to acquire the preamble at
  /// all; below it the frame is lost outright. The calibrated PER curves
  /// cover payload decoding only and scale with payload length, so
  /// without this gate a 20-byte RTS "survives" an equal-power collision
  /// (~0 dB SINR) most of the time — in reality preamble correlation and
  /// the PLCP header die first.
  double preamble_capture_db = 4.0;
  /// SNR grid of the precomputed PER tables. Lookups clamp to the ends.
  double table_min_snr_db = -15.0;
  double table_max_snr_db = 50.0;
  double table_step_db = 0.5;
};

/// PER model of one directed link at one PHY rate and PSDU size:
/// `realizations` frozen fading draws, each a mean-SINR -> PER table
/// (EESM effective SNR -> calibrated AWGN curve, scaled to `psdu_bytes`).
/// DSSS/CCK links use a flat (single-tap Rayleigh) coefficient per
/// realization; OFDM and HT links use a TDL realization sampled on their
/// data-tone grids. The tables are shared and immutable; the model holds
/// the indices of its realizations among them.
class LinkPerModel {
 public:
  LinkPerModel() = default;

  /// Standalone model: a private pool of `config.realizations` entries
  /// drawn from `rng` (in realization order), indices 0..R-1.
  /// `rate_mbps` must name a calibrated rate of the generation's curve
  /// family (OFDM: the eight 802.11a/g rates; HT: base MCS 0..7 20 MHz
  /// long-GI rates; DSSS/HR-DSSS: 1, 2, 5.5, 11 Mbps).
  LinkPerModel(mac::PhyGeneration gen, double rate_mbps,
               std::size_t psdu_bytes, const ErrorModelConfig& config,
               Rng& rng);

  std::size_t realizations() const { return index_.size(); }

  /// PER of realization `realization` at mean SINR `sinr_db`.
  double per(double sinr_db, std::size_t realization) const {
    return (*tables_)[index_[realization]].lookup(sinr_db);
  }

  /// Gathered batch lookup: out[i] = per(sinr_db[i], realization[i]).
  /// One call per shard-step instead of one per frame keeps the table
  /// walks together while the tables are hot in cache.
  void per_batch(std::span<const double> sinr_db,
                 std::span<const std::uint32_t> realization,
                 std::span<double> out) const;

 private:
  friend class FadingPool;
  LinkPerModel(std::shared_ptr<const std::vector<PerTable>> tables,
               std::vector<std::uint32_t> index)
      : tables_(std::move(tables)), index_(std::move(index)) {}

  std::shared_ptr<const std::vector<PerTable>> tables_;
  std::vector<std::uint32_t> index_;  // realization -> entry of *tables_
};

/// The PER tables one kind of frame reads: PHY generation, rate, and
/// PSDU size.
struct PerTableKey {
  mac::PhyGeneration gen = mac::PhyGeneration::kOfdm;
  double rate_mbps = 0.0;
  std::size_t psdu_bytes = 0;
  bool operator==(const PerTableKey&) const = default;
};

/// The fading codebook of one simulate call: `kEntries` frozen channel
/// realizations (TDLs of `config.profile` at 20 MHz for OFDM/HT, flat
/// Rayleigh coefficients for DSSS/CCK) and, for each requested key, one
/// PER table per entry. Keys that share a generation and rate share one
/// EESM sweep per entry (RTS and ACK at the basic rate).
///
/// Entry k is drawn from its own stream, Rng(par::derive_seed(kSeed, k,
/// 0)), so the pool is a pure function of the keys and the config —
/// never of a run seed, shard or tile layout, or the lane count — and
/// every engine of a call can read one const pool concurrently.
class FadingPool {
 public:
  /// Realizations in the pool. A fixed codebook of K i.i.d. entries
  /// misses the population mean PER by about sigma/sqrt(K), and that
  /// bias is the same for every link, run and seed. 4096 is the
  /// smallest power of two whose measured bias stays within 0.01 PER
  /// on the 24 Mbps waterfall; see tests/test_errormodel.cpp.
  static constexpr std::size_t kEntries = 4096;
  /// Root of the per-entry seed derivation.
  static constexpr std::uint64_t kSeed = 0x6661646570306f6cull;

  /// Builds `kEntries` x (distinct keys) tables on `jobs` lanes (0 =
  /// the default pool); the result does not depend on `jobs`. All keys
  /// must share one fading family (OFDM/HT or DSSS/HR-DSSS).
  FadingPool(std::span<const PerTableKey> keys, const ErrorModelConfig& config,
             unsigned jobs = 0);

  /// A link over `config.realizations` entries of `key`'s tables, the
  /// entry indices drawn uniformly from `rng`.
  LinkPerModel link(const PerTableKey& key, Rng& rng) const;

  /// The table of `key` at pool entry `entry`.
  const PerTable& table(const PerTableKey& key, std::size_t entry) const;

  /// Tables held: kEntries x distinct keys.
  std::size_t table_count() const { return kEntries * keys_.size(); }

 private:
  const std::shared_ptr<const std::vector<PerTable>>& tables_of(
      const PerTableKey& key) const;

  std::size_t realizations_ = 0;
  std::vector<PerTableKey> keys_;
  std::vector<std::shared_ptr<const std::vector<PerTable>>> tables_;
};

}  // namespace wlan::net
