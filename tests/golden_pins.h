// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// Helpers for golden pins: fixed-seed runs whose exact output (tape draw
// counts, estimate bits, serialized state) is compared against constants
// recorded from the reference implementation. A pin catches what a
// tolerance test cannot: one extra random draw or one flipped low bit.

#ifndef WBS_TESTS_GOLDEN_PINS_H_
#define WBS_TESTS_GOLDEN_PINS_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "common/random.h"

namespace wbs::golden {

/// Order-sensitive 64-bit digest step: folds `word` into `h`.
inline uint64_t Fold(uint64_t h, uint64_t word) {
  uint64_t s = h ^ word;
  return SplitMix64(&s);
}

inline uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

/// Digest of a word sequence (e.g. core::StateWriter::words()).
inline uint64_t Digest(const std::vector<uint64_t>& words) {
  uint64_t h = 0;
  for (uint64_t w : words) h = Fold(h, w);
  return h;
}

/// A skewed item stream drawn from its own SplitMix64 sequence, never from
/// the algorithm's tape: a quarter of the updates each on two planted items,
/// a quarter on a 64-item warm set, and a quarter uniform over `universe`.
inline std::vector<uint64_t> SkewedItems(uint64_t n, uint64_t universe,
                                         uint64_t seed) {
  const uint64_t planted_a = universe / 3;
  const uint64_t planted_b = universe / 5 + 1;
  std::vector<uint64_t> out;
  out.reserve(n);
  uint64_t s = seed;
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t r = SplitMix64(&s);
    switch (r & 3) {
      case 0: out.push_back(planted_a); break;
      case 1: out.push_back(planted_b); break;
      case 2: out.push_back(1000 + (r >> 2) % 64); break;
      default: out.push_back((r >> 2) % universe); break;
    }
  }
  return out;
}

}  // namespace wbs::golden

#endif  // WBS_TESTS_GOLDEN_PINS_H_
