// 802.11 frame-synchronous scrambler, polynomial S(x) = x^7 + x^4 + 1.
//
// Used by every 802.11 PHY generation to whiten the PSDU. Scrambling is an
// involution given the same seed, so the same routine descrambles.
#pragma once

#include <cstdint>
#include <span>

#include "common/types.h"

namespace wlan::phy {

/// Scrambles (or descrambles) a bit sequence with the 127-bit m-sequence
/// generated by x^7 + x^4 + 1, starting from the 7-bit nonzero `seed`.
Bits scramble(std::span<const std::uint8_t> bits, std::uint8_t seed = 0x7F);

/// As scramble, writing into `out` (same size). In-place safe: `out` may
/// alias `bits`.
void scramble_to(std::span<const std::uint8_t> bits, std::uint8_t seed,
                 std::span<std::uint8_t> out);

/// Descrambles every lane of a lane-major bit block (dsp/batch.h:
/// soa[i * lanes + l] is bit i of lane l, each lane scrambled from `seed`
/// at bit 0) and packs lane l's bits [first_bit, first_bit + 8 * n_bytes)
/// LSB first into out[l], resized to n_bytes. Equal to scramble_to on
/// each lane followed by the byte packing; the sequence is generated
/// once for all lanes and no lane is copied out.
void descramble_lanes_to_bytes(std::span<const std::uint8_t> soa,
                               std::size_t lanes, std::uint8_t seed,
                               std::size_t first_bit, std::size_t n_bytes,
                               std::span<Bytes> out);

}  // namespace wlan::phy
