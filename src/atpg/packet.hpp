// Fixed-width bit packet for wide parallel-fault simulation.
//
// A Packet<W> is W machine words (64*W lanes) treated as one flat bit
// vector.  The simulator's two-plane gate equations are pure bitwise
// AND/OR/NOT, so widening a lane word to a packet of W words turns every
// gate evaluation into W independent word operations over contiguous
// storage -- a loop GCC/Clang autovectorize to 256-bit SIMD for the
// fault simulator's W=4 at -O2 without any intrinsics or target-specific
// code.
//
// Lane numbering is little-endian across words: lane L lives in bit
// (L % 64) of word L/64, so word 0 bit 0 is lane 0 (the good machine) at
// every width, and the W=1 packet is bit-for-bit the historical plain
// uint64_t lane word.
#pragma once

#include <cstdint>

namespace hlts::atpg {

template <int W>
struct Packet {
  static_assert(W >= 1, "packet must have at least one word");
  static constexpr int kWords = W;
  static constexpr int kLanes = 64 * W;

  std::uint64_t w[W];

  static constexpr Packet zero() {
    Packet p{};
    return p;
  }
  static constexpr Packet ones() {
    Packet p{};
    for (int i = 0; i < W; ++i) p.w[i] = ~std::uint64_t{0};
    return p;
  }
  /// All-ones when `bit` is set, all-zeros otherwise -- the broadcast the
  /// detection step uses to smear the good machine's lane-0 value.
  static constexpr Packet broadcast(bool bit) {
    return bit ? ones() : zero();
  }

  constexpr void set_lane(int lane) {
    w[lane >> 6] |= std::uint64_t{1} << (lane & 63);
  }
  [[nodiscard]] constexpr bool lane(int lane) const {
    return (w[lane >> 6] >> (lane & 63)) & 1;
  }
  [[nodiscard]] constexpr bool any() const {
    std::uint64_t acc = 0;
    for (int i = 0; i < W; ++i) acc |= w[i];
    return acc != 0;
  }

  constexpr Packet& operator&=(const Packet& o) {
    for (int i = 0; i < W; ++i) w[i] &= o.w[i];
    return *this;
  }
  constexpr Packet& operator|=(const Packet& o) {
    for (int i = 0; i < W; ++i) w[i] |= o.w[i];
    return *this;
  }
  constexpr Packet& operator^=(const Packet& o) {
    for (int i = 0; i < W; ++i) w[i] ^= o.w[i];
    return *this;
  }

  friend constexpr Packet operator&(Packet a, const Packet& b) {
    a &= b;
    return a;
  }
  friend constexpr Packet operator|(Packet a, const Packet& b) {
    a |= b;
    return a;
  }
  friend constexpr Packet operator^(Packet a, const Packet& b) {
    a ^= b;
    return a;
  }
  friend constexpr Packet operator~(Packet a) {
    for (int i = 0; i < W; ++i) a.w[i] = ~a.w[i];
    return a;
  }
  friend constexpr bool operator==(const Packet& a, const Packet& b) {
    std::uint64_t diff = 0;
    for (int i = 0; i < W; ++i) diff |= a.w[i] ^ b.w[i];
    return diff == 0;
  }
  friend constexpr bool operator!=(const Packet& a, const Packet& b) {
    return !(a == b);
  }
};

}  // namespace hlts::atpg
