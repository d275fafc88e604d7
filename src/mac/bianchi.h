// Bianchi's analytic model of saturated DCF (Bianchi, JSAC 2000).
//
// The standard closed-form check for any DCF simulator: model each
// station's backoff as a bidimensional Markov chain, solve the fixed
// point between the per-slot transmission probability tau and the
// conditional collision probability p, then assemble saturation
// throughput from slot-type probabilities and durations. This module
// implements the model so the slotted simulator (mac/dcf.h) and the
// event-driven simulator (net/netsim.h) can be validated against theory.
// Its slot durations are the slotted loop's for plain DCF stations
// (non-HT, no A-MPDU): T_s is [RTS + SIFS + CTS + SIFS +] data + SIFS +
// ACK + DIFS, and T_c is the colliding PPDU (or the RTS) plus
// EIFS = SIFS + ACK + DIFS.
#pragma once

#include <cstddef>

#include "mac/timing.h"

namespace wlan::mac {

struct BianchiInput {
  std::size_t n_stations = 10;
  PhyGeneration generation = PhyGeneration::kOfdm;
  double data_rate_mbps = 54.0;
  double basic_rate_mbps = 24.0;
  std::size_t payload_bytes = 1500;
  bool rts_cts = false;
};

struct BianchiResult {
  double tau = 0.0;                  ///< per-slot transmission probability
  double collision_probability = 0;  ///< conditional collision prob p
  double throughput_mbps = 0.0;      ///< aggregate saturation throughput
};

/// Solves the tau/p fixed point (binary exponential backoff, CWmin/CWmax
/// from the generation's MAC timing) and evaluates saturation throughput.
BianchiResult bianchi_saturation(const BianchiInput& input);

}  // namespace wlan::mac
