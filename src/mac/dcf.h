// Slotted saturation simulator of 802.11 contention: DCF and 802.11e EDCA.
//
// Classic slotted model of the distributed coordination function:
// saturated stations contend with binary exponential backoff; one
// transmitter in a slot is a success (subject to a channel packet-error
// probability), two or more collide. RTS/CTS and 802.11n A-MPDU
// aggregation with block ack are supported. The slot-synchronous
// abstraction is the standard one (Bianchi 2000) and is exact for
// saturated DCF at slot resolution.
//
// Every station belongs to an access category. A plain DCF station is
// the kDcf category: AIFSN 2 (DIFS) and the PHY's CWmin/CWmax. The four
// 802.11e EDCA categories differentiate by AIFS (longer deferral for
// lower priority), CWmin/CWmax (shorter backoff for higher priority) and
// TXOP (burst time for voice/video). The paper closes by arguing future
// WLAN standards need more protocol attention; mixing categories
// reproduces EDCA's canonical result: under load, voice/video keep their
// throughput and access delay while best effort and background absorb
// the congestion.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "mac/timing.h"
#include "obs/trace.h"

namespace wlan::mac {

/// Plain DCF and the four EDCA access categories.
enum class AccessCategory { kDcf, kVoice, kVideo, kBestEffort, kBackground };

/// Stable display name, e.g. "DCF" or "AC_VO".
const char* access_category_name(AccessCategory ac);

/// Channel-access parameters of one category.
struct EdcaParams {
  unsigned aifsn;    ///< AIFS = SIFS + aifsn * slot (DIFS at aifsn 2)
  unsigned cw_min;
  unsigned cw_max;
  double txop_s;     ///< burst limit; 0 = one exchange per access
};

/// The standard's default parameter set for a category, from the
/// generation's aCWmin/aCWmax (MacTiming cw_min/cw_max). kDcf is
/// {2, aCWmin, aCWmax, 0}. The 802.11e rows: AC_VO {2, (aCWmin+1)/4-1,
/// (aCWmin+1)/2-1}, AC_VI {2, (aCWmin+1)/2-1, aCWmin}, AC_BE {3, aCWmin,
/// aCWmax}, AC_BK {7, aCWmin, aCWmax}; TXOP limits 3.264/6.016 ms
/// (VO/VI) on DSSS PHYs, 1.504/3.008 ms on OFDM and HT.
EdcaParams edca_defaults(AccessCategory ac, PhyGeneration generation);

/// One saturated contending station (a single category queue).
struct EdcaStation {
  AccessCategory category = AccessCategory::kDcf;
  std::size_t payload_bytes = 1500;
};

struct DcfConfig {
  PhyGeneration generation = PhyGeneration::kOfdm;
  double data_rate_mbps = 54.0;
  double basic_rate_mbps = 24.0;  ///< control-frame rate
  std::vector<EdcaStation> stations = std::vector<EdcaStation>(1);
  unsigned retry_limit = 7;
  bool rts_cts = false;
  double packet_error_rate = 0.0;  ///< channel PER applied per MPDU
  double duration_s = 2.0;

  // 802.11n extras.
  std::size_t n_ss = 1;
  bool short_gi = false;
  std::size_t ampdu_frames = 1;  ///< >1 enables A-MPDU + block ack

  /// Optional slot-level event trace (ARRIVAL, TX_START, RX_OK/RX_FAIL,
  /// TX_END, COLLISION, DROP; detail = access category name);
  /// null = disabled, zero overhead.
  obs::TraceSink* trace = nullptr;
};

struct DcfStationResult {
  double throughput_mbps = 0.0;
  /// Head of queue to the end of the delivering access, one sample per
  /// successful access of this station: a TXOP burst or an A-MPDU is
  /// one sample, not one per MPDU (see DcfResult::mean_access_delay_s).
  double mean_access_delay_s = 0.0;
  std::uint64_t delivered = 0;
  std::uint64_t collisions = 0;
};

/// Frame accounting is per MPDU and conserves mass:
/// `offered_frames == delivered_frames + dropped + pending_frames`.
/// Inside a partially-delivered A-MPDU or TXOP burst, each lost MPDU
/// keeps its own retry count and is either retransmitted in a later
/// burst or dropped once it exceeds the retry limit — it never silently
/// vanishes.
struct DcfResult {
  double throughput_mbps = 0.0;        ///< delivered payload bits / time
  double collision_probability = 0.0;  ///< colliding tx / all tx attempts
  /// Head of queue to the end of the delivering access. One sample per
  /// successful access, not per MPDU: a TXOP burst or an A-MPDU adds
  /// one sample, measured to the end of the whole burst (its last ack
  /// or block ack, plus DIFS).
  double mean_access_delay_s = 0.0;
  double busy_airtime_fraction = 0.0;
  std::uint64_t delivered_frames = 0;
  std::uint64_t attempts = 0;          ///< transmission attempts (bursts)
  std::uint64_t collisions = 0;
  std::uint64_t dropped = 0;           ///< MPDUs past the retry limit
  std::uint64_t offered_frames = 0;    ///< MPDUs that entered the MAC
  std::uint64_t pending_frames = 0;    ///< MPDUs still queued at the end
  std::vector<DcfStationResult> stations;  ///< in `DcfConfig::stations` order
};

/// Runs the saturated contention simulation.
DcfResult simulate_dcf(const DcfConfig& config, Rng& rng);

/// Theoretical upper bound on MAC goodput for the first station alone,
/// with no contention (AIFS + backoff(mean) + burst + SIFS + ACK cycle).
/// Useful as a sanity reference for the simulator and for
/// MAC-efficiency tables.
double dcf_single_station_goodput_mbps(const DcfConfig& config);

}  // namespace wlan::mac
