// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// Bit-level utilities and information-theoretic space accounting.
//
// The paper's results are statements about *bits of memory*, so every data
// structure in this library reports SpaceBits(): the number of bits a careful
// encoder would need to write down the structure's current state. The helpers
// here define the costing conventions used across modules.

#ifndef WBS_COMMON_BITS_H_
#define WBS_COMMON_BITS_H_

#include <bit>
#include <cstdint>
#include <cstddef>
#include <cstring>
#include <type_traits>

namespace wbs {

/// `n` words of type T copied between host order and little-endian order,
/// the byte order of every serialized state (the copy is the conversion on
/// a little-endian host). Either side may be unaligned.
template <typename T>
void CopyLittleEndian(void* dst, const void* src, size_t n) {
  static_assert(std::is_integral_v<T> && (sizeof(T) == 4 || sizeof(T) == 8));
  if (n == 0) return;  // an empty vector's data() may be null
  std::memcpy(dst, src, n * sizeof(T));
  if constexpr (std::endian::native == std::endian::big) {
    auto* words = static_cast<char*>(dst);
    for (size_t i = 0; i < n; ++i, words += sizeof(T)) {
      std::make_unsigned_t<T> w = 0;
      std::memcpy(&w, words, sizeof(w));
      if constexpr (sizeof(T) == 4) {
        w = __builtin_bswap32(w);
      } else {
        w = __builtin_bswap64(w);
      }
      std::memcpy(words, &w, sizeof(w));
    }
  }
}

/// Number of bits needed to represent the nonnegative value v (>= 1 bit).
/// BitsForValue(0) == 1 by convention (a register holding 0 still exists).
inline uint64_t BitsForValue(uint64_t v) {
  return v == 0 ? 1 : static_cast<uint64_t>(std::bit_width(v));
}

/// Bits to index into a universe of size n (ceil(log2 n)), >= 1.
inline uint64_t BitsForUniverse(uint64_t n) {
  if (n <= 2) return 1;
  return static_cast<uint64_t>(std::bit_width(n - 1));
}

/// Bits to store a counter that may reach up to max_count.
inline uint64_t BitsForCounter(uint64_t max_count) {
  return BitsForValue(max_count);
}

/// ceil(log2(x)) for x >= 1.
inline uint64_t CeilLog2(uint64_t x) {
  if (x <= 1) return 0;
  return static_cast<uint64_t>(std::bit_width(x - 1));
}

/// floor(log2(x)) for x >= 1.
inline uint64_t FloorLog2(uint64_t x) {
  return static_cast<uint64_t>(std::bit_width(x)) - 1;
}

/// Round up to the next power of two.
inline uint64_t NextPow2(uint64_t x) { return std::bit_ceil(x); }

/// True if x is a power of two (x > 0).
inline bool IsPow2(uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

/// Reverse the low `width` bits of x.
inline uint64_t ReverseBits(uint64_t x, int width) {
  uint64_t r = 0;
  for (int i = 0; i < width; ++i) {
    r = (r << 1) | ((x >> i) & 1);
  }
  return r;
}

/// Accumulates the space cost of a composite structure. Each component adds
/// its contribution; Total() is what SpaceBits() implementations return.
class SpaceMeter {
 public:
  SpaceMeter() = default;

  /// Add the cost of one value register currently holding `v`.
  void AddValue(uint64_t v) { bits_ += BitsForValue(v); }

  /// Add the cost of one identifier drawn from a universe of size `n`.
  void AddUniverseId(uint64_t n) { bits_ += BitsForUniverse(n); }

  /// Add a raw bit count (e.g. a fixed-width field).
  void AddBits(uint64_t bits) { bits_ += bits; }

  uint64_t Total() const { return bits_; }

 private:
  uint64_t bits_ = 0;
};

}  // namespace wbs

#endif  // WBS_COMMON_BITS_H_
