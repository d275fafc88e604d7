#include "phy/scrambler.h"

#include "common/check.h"

namespace wlan::phy {

namespace {

std::uint8_t initial_state(std::uint8_t seed) {
  check((seed & 0x7Fu) != 0, "scrambler seed must be a nonzero 7-bit value");
  return seed & 0x7Fu;  // bits x1..x7 in LSBs
}

// Next sequence bit: the feedback x7 xor x4 (bits 6 and 3 of the
// register), which also shifts in.
std::uint8_t next_bit(std::uint8_t& state) {
  const std::uint8_t fb =
      static_cast<std::uint8_t>(((state >> 6) ^ (state >> 3)) & 1u);
  state = static_cast<std::uint8_t>(((state << 1) | fb) & 0x7Fu);
  return fb;
}

}  // namespace

void scramble_to(std::span<const std::uint8_t> bits, std::uint8_t seed,
                 std::span<std::uint8_t> out) {
  check(out.size() == bits.size(), "scramble output size mismatch");
  std::uint8_t state = initial_state(seed);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    out[i] = static_cast<std::uint8_t>((bits[i] ^ next_bit(state)) & 1u);
  }
}

void descramble_lanes_to_bytes(std::span<const std::uint8_t> soa,
                               std::size_t lanes, std::uint8_t seed,
                               std::size_t first_bit, std::size_t n_bytes,
                               std::span<Bytes> out) {
  check(lanes > 0 && out.size() == lanes &&
            soa.size() >= (first_bit + 8 * n_bytes) * lanes,
        "descramble_lanes_to_bytes: block too short for the lanes");
  for (Bytes& bytes : out) bytes.resize(n_bytes);
  std::uint8_t state = initial_state(seed);
  for (std::size_t i = 0; i < first_bit; ++i) next_bit(state);
  for (std::size_t j = 0; j < n_bytes; ++j) {
    // The byte's eight sequence bits, shared by every lane.
    unsigned seq = 0;
    for (unsigned b = 0; b < 8; ++b) seq |= unsigned{next_bit(state)} << b;
    const std::uint8_t* const bits = soa.data() + (first_bit + 8 * j) * lanes;
    for (std::size_t l = 0; l < lanes; ++l) {
      unsigned byte = 0;
      for (unsigned b = 0; b < 8; ++b) {
        byte |= (bits[b * lanes + l] & 1u) << b;
      }
      out[l][j] = static_cast<std::uint8_t>(byte ^ seq);
    }
  }
}

Bits scramble(std::span<const std::uint8_t> bits, std::uint8_t seed) {
  Bits out(bits.size());
  scramble_to(bits, seed, out);
  return out;
}

}  // namespace wlan::phy
