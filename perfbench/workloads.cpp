#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <sstream>

#include "channel/awgn.h"
#include "common/rng.h"
#include "core/link.h"
#include "dsp/fft.h"
#include "dsp/simd.h"
#include "net/errormodel.h"
#include "obs/metrics.h"
#include "par/montecarlo.h"
#include "phy/convolutional.h"
#include "phy/ldpc.h"
#include "phy/ofdm.h"
#include "phy/workspace.h"

namespace wlanbench {

using wlan::Bits;
using wlan::Bytes;
using wlan::CVec;
using wlan::LinkResult;
using wlan::Rng;
namespace net = wlan::net;
namespace phy = wlan::phy;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Seed-derivation points of the probes, clear of the sweep's cell
/// indices.
constexpr std::uint64_t kProbePoint = 1u << 20;

bool cell_ok(const LinkResult& r, std::size_t packets, std::size_t psdu) {
  return r.packets == packets && r.packet_errors <= r.packets &&
         r.bits == packets * psdu * 8 && r.bit_errors <= r.bits &&
         r.per() >= 0.0 && r.per() <= 1.0;
}

/// Runs one cell, timing the runner call; records its checks.
template <class Call>
LinkResult run_cell(Outcome& out, std::vector<bool>& ok, std::size_t packets,
                    std::size_t psdu, Call&& call) {
  LinkResult r;
  bool good = true;
  const auto t0 = Clock::now();
  try {
    r = call();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "link cell failed: %s\n", e.what());
    good = false;
  }
  out.work_s += seconds_since(t0);
  out.work += static_cast<double>(packets);
  ++out.attempted;
  ok.push_back(good && cell_ok(r, packets, psdu));
  return r;
}

void count_failed(Outcome& out, const std::vector<bool>& ok) {
  out.failed += static_cast<std::uint64_t>(std::count(ok.begin(), ok.end(), false));
}

std::string rate_label(double mbps) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%gM", mbps);
  return buf;
}

std::string ht_label(const phy::HtConfig& c) {
  return "mcs" + std::to_string(c.mcs) +
         (c.coding == phy::HtCoding::kLdpc ? "-ldpc" : "-bcc");
}

/// TGax-style apartment-block city: `buildings` x `buildings` buildings on
/// a `pitch_m` street grid, `apartments` x `apartments` apartments 10 m
/// apart in each, every apartment one AP plus 3 STAs on a 2 m ring, each
/// STA a saturated uplink.
void build_city(City& city, std::size_t buildings, double pitch_m,
                std::size_t apartments) {
  constexpr double kApartmentPitchM = 10.0;
  constexpr std::size_t kStas = 3;
  constexpr double kStaRadiusM = 2.0;
  for (std::size_t by = 0; by < buildings; ++by) {
    for (std::size_t bx = 0; bx < buildings; ++bx) {
      for (std::size_t ay = 0; ay < apartments; ++ay) {
        for (std::size_t ax = 0; ax < apartments; ++ax) {
          const double x = static_cast<double>(bx) * pitch_m +
                           static_cast<double>(ax) * kApartmentPitchM;
          const double y = static_cast<double>(by) * pitch_m +
                           static_cast<double>(ay) * kApartmentPitchM;
          const std::size_t ap = city.nodes.size();
          city.nodes.push_back({{x, y}});
          for (std::size_t s = 0; s < kStas; ++s) {
            const double angle = 2.0 * M_PI * static_cast<double>(s) /
                                 static_cast<double>(kStas);
            city.nodes.push_back({{x + kStaRadiusM * std::cos(angle),
                                   y + kStaRadiusM * std::sin(angle)}});
            city.flows.push_back({city.nodes.size() - 1, ap});
          }
        }
      }
    }
  }
}

/// SNR at which a PER series first crosses `target` (linear
/// interpolation); NaN when it never does.
double crossing_db(const std::vector<double>& snrs,
                   const std::vector<double>& per, double target) {
  for (std::size_t i = 0; i < per.size(); ++i) {
    if (per[i] == target) return snrs[i];
    if (i + 1 >= per.size()) break;
    if ((per[i] - target) * (per[i + 1] - target) >= 0.0) continue;
    const double t = (target - per[i]) / (per[i + 1] - per[i]);
    return snrs[i] + t * (snrs[i + 1] - snrs[i]);
  }
  return std::nan("");
}

/// Trapezoid area under a PER curve, in dB: how far past the grid's first
/// SNR the waterfall sits.
double waterfall_area_db(const std::vector<double>& snrs,
                         const std::vector<double>& per) {
  double area = 0.0;
  for (std::size_t i = 0; i + 1 < per.size(); ++i) {
    area += 0.5 * (per[i] + per[i + 1]) * (snrs[i + 1] - snrs[i]);
  }
  return area;
}

}  // namespace

// ---------------------------------------------------------------------------

Host detect_host() {
  Host h;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    h.nproc = static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  h.lanes = std::min(4u, h.nproc);
  h.isa = wlan::dsp::simd::isa_name(wlan::dsp::simd::compiled_isa());
  if (!wlan::dsp::simd::vector_enabled()) h.isa += " (vector kernels off)";
#if defined(__clang__)
  h.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  h.compiler = "gcc " __VERSION__;
#else
  h.compiler = "unknown";
#endif
  h.build_type = WLANBENCH_BUILD_TYPE;
  return h;
}

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "link") return Workload::kLink;
  if (name == "city-per") return Workload::kCityPer;
  if (name == "city-border") return Workload::kCityBorder;
  return std::nullopt;
}

std::string fnv1a64_hex(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ---------------------------------------------------------------------------
// link
// ---------------------------------------------------------------------------

LinkSweep make_link_sweep(std::uint64_t seed) {
  LinkSweep s;
  s.seed = seed;
  for (double snr = 2.0; snr <= 26.0; snr += 2.0) s.ofdm_snrs_db.push_back(snr);
  s.ofdm_packets = 40;
  for (const unsigned mcs : {3u, 11u}) {
    for (const phy::HtCoding coding : {phy::HtCoding::kBcc, phy::HtCoding::kLdpc}) {
      phy::HtConfig c;
      c.mcs = mcs;
      c.coding = coding;
      s.ht_configs.push_back(c);
    }
  }
  for (double snr = 6.0; snr <= 24.0; snr += 2.0) s.ht_snrs_db.push_back(snr);
  s.ht_packets = 96;
  return s;
}

Outcome run_link_sweep(const LinkSweep& sweep) {
  Outcome out;
  std::ostringstream digest;
  std::uint64_t cell = 0;

  // (a) 802.11a/g ladder through the scalar runner.
  std::vector<bool> ok;
  std::vector<std::vector<double>> per(phy::kAllOfdmMcs.size());
  for (std::size_t m = 0; m < phy::kAllOfdmMcs.size(); ++m) {
    const phy::OfdmMcs mcs = phy::kAllOfdmMcs[m];
    digest << "link.ofdm." << rate_label(phy::ofdm_mcs_info(mcs).data_rate_mbps)
           << " errors";
    for (const double snr : sweep.ofdm_snrs_db) {
      Rng rng(wlan::par::derive_seed(sweep.seed, cell++, 0));
      const LinkResult r =
          run_cell(out, ok, sweep.ofdm_packets, sweep.psdu_bytes, [&] {
            return wlan::run_ofdm_link(mcs, sweep.psdu_bytes,
                                       sweep.ofdm_packets, snr, rng);
          });
      per[m].push_back(r.per());
      digest << ' ' << r.packet_errors << '/' << r.bit_errors;
    }
    digest << '\n';
  }
  // The C4 waterfall: each step up the ladder needs more SNR (1 dB of
  // slack for the famously close 9/12 Mbps pair), and the top rate gets
  // through at high SNR.
  bool ladder = true;
  double top_goodput = 0.0;
  for (std::size_t m = 0; m < per.size(); ++m) {
    const double rate = phy::ofdm_mcs_info(phy::kAllOfdmMcs[m]).data_rate_mbps;
    for (const double p : per[m]) top_goodput = std::max(top_goodput, rate * (1.0 - p));
    const double req = crossing_db(sweep.ofdm_snrs_db, per[m], 0.10);
    if (std::isnan(req)) ladder = false;
    if (m > 0) {
      const double prev = crossing_db(sweep.ofdm_snrs_db, per[m - 1], 0.10);
      if (req + 1.0 < prev) ladder = false;
    }
  }
  if (!ladder || top_goodput <= 50.0) {
    std::fprintf(stderr, "link: OFDM waterfall check failed (peak %.1f Mbps)\n",
                 top_goodput);
    std::fill(ok.begin(), ok.end(), false);
  }
  count_failed(out, ok);

  // (b) 802.11n BCC vs LDPC through the batched runner, TGn office.
  ok.clear();
  std::vector<std::vector<double>> ht_per(sweep.ht_configs.size());
  for (std::size_t c = 0; c < sweep.ht_configs.size(); ++c) {
    const phy::HtConfig& config = sweep.ht_configs[c];
    digest << "link.ht." << ht_label(config) << " errors";
    for (const double snr : sweep.ht_snrs_db) {
      Rng rng(wlan::par::derive_seed(sweep.seed, cell++, 0));
      const LinkResult r =
          run_cell(out, ok, sweep.ht_packets, sweep.psdu_bytes, [&] {
            return wlan::run_ht_link_batched(
                config, sweep.psdu_bytes, sweep.ht_packets, snr, rng,
                {sweep.ht_batch_lanes, false},
                wlan::channel::DelayProfile::kOffice);
          });
      ht_per[c].push_back(r.per());
      digest << ' ' << r.packet_errors << '/' << r.bit_errors;
    }
    digest << '\n';
  }
  // The C7 check: every curve falls through 10% PER inside the grid, and
  // at each MCS LDPC's waterfall sits no more than 1 dB to the right of
  // BCC's. The waterfall position is the area under the PER curve (its
  // SNR extent above the grid's start), which at these packet counts is
  // far steadier from seed to seed than a single interpolated crossing.
  bool coding = true;
  for (std::size_t c = 0; c + 1 < sweep.ht_configs.size(); c += 2) {
    for (const std::size_t k : {c, c + 1}) {
      if (std::isnan(crossing_db(sweep.ht_snrs_db, ht_per[k], 0.10))) coding = false;
    }
    const double gain_db = waterfall_area_db(sweep.ht_snrs_db, ht_per[c]) -
                           waterfall_area_db(sweep.ht_snrs_db, ht_per[c + 1]);
    if (gain_db <= -1.0) coding = false;
  }
  if (!coding) {
    std::fprintf(stderr, "link: HT BCC/LDPC waterfall check failed\n");
    std::fill(ok.begin(), ok.end(), false);
  }
  count_failed(out, ok);
  out.digest = digest.str();
  return out;
}

Outcome run_link_warmup(const LinkSweep& sweep) {
  Outcome out;
  std::vector<bool> ok;
  Rng rng(wlan::par::derive_seed(sweep.seed, kProbePoint, 1));
  for (const phy::OfdmMcs mcs : phy::kAllOfdmMcs) {
    run_cell(out, ok, 1, sweep.psdu_bytes, [&] {
      return wlan::run_ofdm_link(mcs, sweep.psdu_bytes, 1, 20.0, rng);
    });
  }
  for (const phy::HtConfig& config : sweep.ht_configs) {
    run_cell(out, ok, 1, sweep.psdu_bytes, [&] {
      return wlan::run_ht_link_batched(config, sweep.psdu_bytes, 1, 20.0, rng,
                                       {sweep.ht_batch_lanes, false},
                                       wlan::channel::DelayProfile::kOffice);
    });
  }
  count_failed(out, ok);
  return out;
}

// ---------------------------------------------------------------------------
// cities
// ---------------------------------------------------------------------------

City make_city_per(std::uint64_t seed) {
  City city;
  city.name = "city-per";
  city.seed = seed;
  net::NetworkConfig& cfg = city.config;
  cfg.duration_s = 0.5;
  cfg.payload_bytes = 1000;
  cfg.error_model.model = net::RxModel::kPerModel;
  // 3-sigma shadowing (12 dB) stays inside the planner's 15 dB margin,
  // so decoupling buildings across the street is sound.
  cfg.error_model.shadowing_sigma_db = 4.0;
  cfg.error_model.realizations = 8;
  cfg.pathloss.exponent_after = 5.0;
  // jobs = 0: the default pool, which main() sizes to the host's lanes,
  // so its telemetry covers the shard sweep.
  city.options.jobs = 0;
  // 3 x 3 apartments per building keeps a pass near 2 s, so a run takes
  // enough passes for a steady median on a shared host.
  build_city(city, 10, 160.0, 3);
  city.expect_shards = 100;
  return city;
}

City make_city_border(std::uint64_t seed, std::size_t grid, double duration_s) {
  constexpr double kPitchM = 120.0;
  City city;
  city.name = "city-border";
  city.seed = seed;
  net::NetworkConfig& cfg = city.config;
  cfg.duration_s = duration_s;
  cfg.payload_bytes = 1000;
  cfg.pathloss.exponent_after = 5.0;
  build_city(city, grid, kPitchM, 5);
  // 120 m pitch leaves an 80 m street gap inside the cutoff radius, so
  // component sharding finds a single component.
  city.components =
      net::plan_shards(cfg, city.nodes, net::ShardOptions{}, &city.flows)
          .shards.size();
  city.options.border = true;
  city.options.border_tile_m = 2.0 * kPitchM;  // 2 x 2 buildings per tile
  return city;
}

CityPass run_city(const City& city, double duration_s, bool audit) {
  CityPass pass;
  Outcome& out = pass.outcome;
  wlan::obs::Registry registry;
  net::NetworkConfig cfg = city.config;
  cfg.duration_s = duration_s;
  cfg.registry = &registry;
  cfg.lifecycle.enabled = audit;
  cfg.lifecycle.audit = audit;
  ++out.attempted;
  try {
    const auto t0 = Clock::now();
    const net::ShardPlan plan =
        net::plan_shards(cfg, city.nodes, city.options, &city.flows);
    pass.plan_s = seconds_since(t0);
    pass.shards = plan.shards.size();
    Rng rng(city.seed);
    const auto t1 = Clock::now();
    pass.result = net::simulate_network_sharded(cfg, city.nodes, city.flows,
                                                city.options, rng, &plan);
    pass.simulate_s = seconds_since(t1);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: simulate failed: %s\n", city.name.c_str(), e.what());
    ++out.failed;
    return pass;
  }
  const net::NetworkResult& r = pass.result;
  if (const wlan::obs::Counter* c = registry.find_counter("sim.events_executed")) {
    pass.events = c->value();
  }

  std::uint64_t delivered = 0;
  for (const net::FlowStats& f : r.flows) delivered += f.delivered;
  std::vector<const char*> broken;
  if (delivered != r.total_delivered) broken.push_back("per-flow delivered sum");
  if (r.data_failures > r.data_tx_count) broken.push_back("data failures > data tx");
  if (duration_s == 0.0 ? r.total_delivered != 0 : r.total_delivered == 0) {
    broken.push_back("delivered count");
  }
  if (city.expect_shards != 0 && pass.shards != city.expect_shards) {
    broken.push_back("shard count");
  }
  if (city.options.border) {
    if (city.components != 1) broken.push_back("more than one component");
    if (pass.shards < 2) broken.push_back("fewer than 2 tiles");
    if (duration_s > 0.0 && r.border.messages == 0) broken.push_back("no border messages");
  }
  if (audit && r.lifecycle.breaches != 0) broken.push_back("lifecycle auditor breach");
  for (const char* what : broken) {
    std::fprintf(stderr, "%s: check failed: %s\n", city.name.c_str(), what);
  }
  if (!broken.empty()) ++out.failed;

  const double nodes = static_cast<double>(city.nodes.size());
  out.work = nodes * duration_s;
  out.work_s = pass.plan_s + pass.simulate_s;
  std::ostringstream digest;
  digest << city.name << " duration_s=" << duration_s
         << (audit ? " audited" : "") << " delivered=" << r.total_delivered
         << " data_tx=" << r.data_tx_count
         << " data_failures=" << r.data_failures << " events=" << pass.events
         << " epochs=" << r.border.epochs << " messages=" << r.border.messages
         << " snapshot_fnv1a64=" << fnv1a64_hex(registry.snapshot_json()) << '\n';
  out.digest = digest.str();
  return pass;
}

// ---------------------------------------------------------------------------
// layer probes
// ---------------------------------------------------------------------------

double LinkLayers::unattributed_share() const {
  return ofdm_link_us > 0.0
             ? 1.0 - (ofdm_tx_us + awgn_us + ofdm_rx_us) / ofdm_link_us
             : 0.0;
}

LinkLayers probe_link_layers(const LinkSweep& sweep) {
  using wlan::channel::DelayProfile;
  constexpr double kSnrDb = 20.0;
  constexpr std::size_t kPackets = 16;  // per OFDM MCS and per HT config
  LinkLayers L;
  Rng rng(wlan::par::derive_seed(sweep.seed, kProbePoint, 2));
  phy::Workspace& ws = phy::tls_workspace();
  const std::size_t psdu = sweep.psdu_bytes;

  // OFDM: the scalar runner per packet, and the three calls it composes
  // (transmit, AWGN, receive) timed one by one on the same packets.
  Bytes bytes(psdu);
  Bytes decoded;
  CVec wave;
  double link_s = 0.0, tx_s = 0.0, awgn_s = 0.0, rx_s = 0.0;
  for (const phy::OfdmMcs mcs : phy::kAllOfdmMcs) {
    const phy::OfdmPhy ofdm(mcs);
    for (std::size_t p = 0; p <= kPackets; ++p) {  // packet 0 warms up
      rng.fill_bytes(bytes);
      auto t0 = Clock::now();
      ofdm.transmit_into(bytes, wave, ws);
      const double tx = seconds_since(t0);
      t0 = Clock::now();
      const double noise_var = wlan::channel::add_awgn_snr(wave, rng, kSnrDb);
      const double awgn = seconds_since(t0);
      t0 = Clock::now();
      ofdm.receive_into(wave, psdu, noise_var, decoded, ws);
      const double rx = seconds_since(t0);
      if (p == 0) continue;
      tx_s += tx;
      awgn_s += awgn;
      rx_s += rx;
    }
    const auto t0 = Clock::now();
    wlan::run_ofdm_link(mcs, psdu, kPackets, kSnrDb, rng);
    link_s += seconds_since(t0);
  }
  const double ofdm_packets =
      static_cast<double>(kPackets * phy::kAllOfdmMcs.size());
  L.ofdm_link_us = 1e6 * link_s / ofdm_packets;
  L.ofdm_tx_us = 1e6 * tx_s / ofdm_packets;
  L.awgn_us = 1e6 * awgn_s / ofdm_packets;
  L.ofdm_rx_us = 1e6 * rx_s / ofdm_packets;

  // HT: channel draws, one batched link call per lane group, and the
  // batched runner per packet.
  const std::size_t lanes = sweep.ht_batch_lanes;
  double draw_s = 0.0, batch_s = 0.0, ht_link_s = 0.0;
  std::size_t batch_packets = 0;  // one channel draw per packet
  std::vector<Bytes> psdus(lanes, Bytes(psdu));
  std::vector<Bytes> out(lanes);
  std::vector<std::vector<wlan::linalg::CMatrix>> tones(lanes);
  std::vector<Rng> lane_rngs;
  for (std::size_t l = 0; l < lanes; ++l) {
    lane_rngs.emplace_back(wlan::par::derive_seed(sweep.seed, kProbePoint + 1, l));
  }
  std::vector<phy::HtPhy::TxLane> tx(lanes);
  for (const phy::HtConfig& config : sweep.ht_configs) {
    const phy::HtPhy ht(config);
    for (std::size_t group = 0; group <= kPackets / lanes; ++group) {
      for (std::size_t l = 0; l < lanes; ++l) {  // group 0 warms up
        rng.fill_bytes(psdus[l]);
        const auto t0 = Clock::now();
        tones[l] = ht.draw_channel(rng, DelayProfile::kOffice);
        if (group > 0) draw_s += seconds_since(t0);
        tx[l] = {psdus[l], &tones[l], &lane_rngs[l]};
      }
      const auto t0 = Clock::now();
      ht.simulate_link_batch_into(tx, kSnrDb, out, false, ws);
      if (group == 0) continue;
      batch_s += seconds_since(t0);
      batch_packets += lanes;
    }
    const auto t0 = Clock::now();
    wlan::run_ht_link_batched(config, psdu, kPackets, kSnrDb, rng,
                              {lanes, false}, DelayProfile::kOffice);
    ht_link_s += seconds_since(t0);
  }
  L.ht_draw_us = 1e6 * draw_s / static_cast<double>(batch_packets);
  L.ht_batch_us = 1e6 * batch_s / static_cast<double>(batch_packets);
  L.ht_link_us = 1e6 * ht_link_s /
                 static_cast<double>(kPackets * sweep.ht_configs.size());

  // Viterbi on one 500-byte packet's rate-1/2 lattice (service + PSDU +
  // zero tail), soft BPSK LLRs at a noisy working point.
  {
    constexpr std::size_t kCalls = 24;
    const std::size_t n_info = 16 + 8 * psdu + 6;
    Bits info(n_info, 0);
    for (std::size_t i = 0; i + 6 < n_info; ++i) info[i] = rng.next_u64() & 1u;
    const Bits coded = phy::convolutional_encode(info);
    std::vector<double> llrs(coded.size());
    Bits decoded_bits;
    double s = 0.0;
    for (std::size_t call = 0; call <= kCalls; ++call) {  // call 0 warms up
      for (std::size_t i = 0; i < coded.size(); ++i) {
        llrs[i] = 2.0 * ((coded[i] ? -1.0 : 1.0) + rng.gaussian(0.0, 0.8));
      }
      const auto t0 = Clock::now();
      phy::viterbi_decode_into(llrs, /*terminated=*/true, decoded_bits, ws);
      if (call > 0) s += seconds_since(t0);
    }
    L.viterbi_us = 1e6 * s / static_cast<double>(kCalls);
  }

  // LDPC: the 802.11n-sized rate-1/2 code HtPhy uses (n = 648, seed 12),
  // BPSK over AWGN near its waterfall so blocks take several iterations.
  {
    constexpr std::size_t kBlocks = 64;
    const phy::LdpcCode code(648, 324, 12);
    Bits info(code.info_length());
    Bits codeword;
    std::vector<double> llrs(code.block_length());
    phy::LdpcCode::DecodeResult result;
    const double sigma = std::sqrt(1.0 / (2.0 * code.rate() * std::pow(10.0, 0.15)));
    double s = 0.0;
    double iterations = 0.0;
    for (std::size_t b = 0; b <= kBlocks; ++b) {  // block 0 warms up
      for (auto& bit : info) bit = rng.next_u64() & 1u;
      code.encode_into(info, codeword);
      for (std::size_t i = 0; i < codeword.size(); ++i) {
        const double y = (codeword[i] ? -1.0 : 1.0) + rng.gaussian(0.0, sigma);
        llrs[i] = 2.0 * y / (sigma * sigma);
      }
      const auto t0 = Clock::now();
      code.decode_into(llrs, 40, 0.8, result, ws);
      if (b == 0) continue;
      s += seconds_since(t0);
      iterations += result.iterations;
    }
    L.ldpc_decode_us = 1e6 * s / static_cast<double>(kBlocks);
    L.ldpc_iterations = iterations / static_cast<double>(kBlocks);
  }

  // 64-point forward FFT over a batch of distinct buffers.
  {
    constexpr std::size_t kBuffers = 256;
    constexpr std::size_t kReps = 16;
    const wlan::dsp::FftPlan& plan = wlan::dsp::plan_for(64);
    std::vector<CVec> source(kBuffers, CVec(64));
    for (CVec& v : source) {
      for (auto& x : v) x = rng.cgaussian();
    }
    std::vector<CVec> work = source;
    double s = 0.0;
    for (std::size_t rep = 0; rep <= kReps; ++rep) {  // rep 0 warms up
      work = source;
      const auto t0 = Clock::now();
      for (CVec& v : work) plan.forward(v);
      if (rep > 0) s += seconds_since(t0);
    }
    L.fft64_ns = 1e9 * s / static_cast<double>(kBuffers * kReps);
  }
  return L;
}

NetModelLayers probe_net_model(const City& city) {
  constexpr std::size_t kBuilds = 16;
  constexpr std::size_t kLookups = 4096;
  constexpr std::size_t kReps = 64;
  const net::NetworkConfig& cfg = city.config;
  NetModelLayers M;
  Rng rng(wlan::par::derive_seed(city.seed, kProbePoint, 3));
  // A data frame's PSDU: payload plus the 28-byte MAC header and FCS.
  const std::size_t psdu = cfg.payload_bytes + 28;
  net::LinkPerModel model;
  double build_s = 0.0;
  for (std::size_t b = 0; b <= kBuilds; ++b) {  // build 0 warms up
    const auto t0 = Clock::now();
    model = net::LinkPerModel(cfg.generation, cfg.data_rate_mbps, psdu,
                              cfg.error_model, rng);
    if (b > 0) build_s += seconds_since(t0);
  }
  M.link_model_build_us = 1e6 * build_s / static_cast<double>(kBuilds);

  std::vector<double> sinr(kLookups);
  std::vector<std::uint32_t> realization(kLookups);
  std::vector<double> per(kLookups);
  for (std::size_t i = 0; i < kLookups; ++i) {
    sinr[i] = rng.uniform(-5.0, 35.0);
    realization[i] = static_cast<std::uint32_t>(rng.uniform_int(model.realizations()));
  }
  double lookup_s = 0.0;
  for (std::size_t rep = 0; rep <= kReps; ++rep) {  // rep 0 warms up
    const auto t0 = Clock::now();
    model.per_batch(sinr, realization, per);
    if (rep > 0) lookup_s += seconds_since(t0);
  }
  M.per_lookup_ns = 1e9 * lookup_s / static_cast<double>(kLookups * kReps);
  return M;
}

// ---------------------------------------------------------------------------
// metrics
// ---------------------------------------------------------------------------

std::vector<Metric> end_to_end_metrics(const Report& r) {
  return {
      {"wall_s", "s", r.wall_s},
      {"setup_s", "s", r.setup_s},
      {"work_per_s", "1/s", r.work_per_s},
      {"peak_rss_mb", "MB", r.peak_rss_mb},
  };
}

std::vector<Metric> per_layer_metrics(const Report& r) {
  const auto& b = r.border;
  return {
      {"core.ofdm_link_us", "us", r.link.ofdm_link_us},
      {"core.ht_link_us", "us", r.link.ht_link_us},
      {"phy.ofdm_tx_us", "us", r.link.ofdm_tx_us},
      {"phy.ofdm_rx_us", "us", r.link.ofdm_rx_us},
      {"channel.awgn_us", "us", r.link.awgn_us},
      {"channel.ht_draw_us", "us", r.link.ht_draw_us},
      {"phy.viterbi_us", "us", r.link.viterbi_us},
      {"phy.ldpc_decode_us", "us", r.link.ldpc_decode_us},
      {"phy.ldpc_iterations", "count", r.link.ldpc_iterations},
      {"phy.ht_batch_us", "us", r.link.ht_batch_us},
      {"dsp.fft64_ns", "ns", r.link.fft64_ns},
      {"link.unattributed_share", "ratio", r.link.unattributed_share()},
      {"par.utilization", "ratio", r.par_utilization},
      {"par.imbalance", "ratio", r.par_imbalance},
      {"par.steal_ratio", "ratio", r.par_steal_ratio},
      {"net.plan_s", "s", r.net_plan_s},
      {"net.setup_s", "s", r.net_setup_s},
      {"net.events_s", "s", r.net_events_s},
      {"net.link_model_build_us", "us", r.model.link_model_build_us},
      {"net.per_lookup_ns", "ns", r.model.per_lookup_ns},
      {"net.audit_breaches", "count", r.audit_breaches},
      {"sim.events", "count", r.sim_events},
      {"sim.events_per_s", "1/s",
       r.net_events_s > 0.0 ? r.sim_events / r.net_events_s : 0.0},
      {"mac.data_tx", "count", r.mac_data_tx},
      {"mac.data_failure_rate", "ratio", r.mac_data_failure_rate},
      {"mac.retries_per_tx", "ratio", r.mac_retries_per_tx},
      {"net.border.setup_s", "s", b.setup_s},
      {"net.border.epoch_wall_s", "s", b.wall_s},
      {"net.border.busy_s", "s", b.busy_s},
      {"net.border.critical_path_s", "s", b.critical_path_s},
      {"net.border.barrier_s", "s", b.wall_s - b.critical_path_s},
      {"net.border.finalize_s", "s", b.finalize_s},
      {"net.border.merge_s", "s", b.merge_s},
      {"net.border.epochs", "count", static_cast<double>(b.epochs)},
      {"net.border.messages", "count", static_cast<double>(b.messages)},
      {"net.border.utilization", "ratio", b.utilization},
      {"net.border.imbalance", "ratio", b.imbalance},
      {"trace_overhead_s", "s", r.trace_overhead_s},
  };
}

}  // namespace wlanbench
