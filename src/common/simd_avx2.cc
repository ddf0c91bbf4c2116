// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// AVX2 kernel table: 4×u64 lanes for the mod-q and hash kernels, 8×u32
// message-parallel lanes for SHA-256, 128-bit carry-less multiplies for
// CRC-32. Compiled with -mavx2 -mpclmul for x86 targets only (see
// CMakeLists); callers reach it solely through the dispatch table after a
// runtime __builtin_cpu_supports check.
//
// Correctness notes that make the lane code simple:
//   * q < 2^62 (BarrettQ::kMaxModulus), so every compared quantity — sums
//     below 2q, operands below q — fits in 62..63 bits. Signed 64-bit lane
//     compares (_mm256_cmpgt_epi64) are therefore exact without the usual
//     sign-bias XOR.
//   * Wrapping uint64 lane arithmetic is exact mod 2^64, so `a - b + q`
//     computed with wraparound equals the scalar two-branch SubMod.
//   * The Shoup product for the SIS column update lands in [0, 2q); one
//     conditional subtract yields the canonical residue, bit-identical to
//     BarrettQ::MulMod (see DESIGN.md "Barrett lane-split").

#include "common/simd_internal.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include "common/modmath.h"

namespace wbs::simd::internal {
namespace {

constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kMix1 = 0xbf58476d1ce4e5b9ULL;
constexpr uint64_t kMix2 = 0x94d049bb133111ebULL;
constexpr uint64_t kAmsRowSalt = 0xd1342543de82ef95ULL;

inline __m256i Load(const uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
inline void Store(uint64_t* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

// Low 64 bits of a*b per lane (AVX2 has only 32x32→64 multiplies).
inline __m256i Mullo64(__m256i a, __m256i b) {
  const __m256i lo = _mm256_mul_epu32(a, b);  // a_lo * b_lo
  const __m256i mid = _mm256_add_epi64(
      _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),   // a_hi * b_lo
      _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)));  // a_lo * b_hi
  return _mm256_add_epi64(lo, _mm256_slli_epi64(mid, 32));
}

// High 64 bits of a*b per lane, exact carries via 4-way 32-bit split.
inline __m256i Mulhi64(__m256i a, __m256i b) {
  const __m256i mask32 = _mm256_set1_epi64x(0xffffffffLL);
  const __m256i ah = _mm256_srli_epi64(a, 32);
  const __m256i bh = _mm256_srli_epi64(b, 32);
  const __m256i ll = _mm256_mul_epu32(a, b);
  const __m256i lh = _mm256_mul_epu32(a, bh);
  const __m256i hl = _mm256_mul_epu32(ah, b);
  const __m256i hh = _mm256_mul_epu32(ah, bh);
  // carry out of bits [32, 64) of the full product
  const __m256i mid = _mm256_add_epi64(
      _mm256_add_epi64(_mm256_srli_epi64(ll, 32), _mm256_and_si256(lh, mask32)),
      _mm256_and_si256(hl, mask32));
  return _mm256_add_epi64(
      _mm256_add_epi64(hh, _mm256_srli_epi64(lh, 32)),
      _mm256_add_epi64(_mm256_srli_epi64(hl, 32), _mm256_srli_epi64(mid, 32)));
}

// r - (r >= q ? q : 0) for r in [0, 2q), q < 2^62: signed compare is exact.
inline __m256i CondSubQ(__m256i r, __m256i vq) {
  const __m256i lt = _mm256_cmpgt_epi64(vq, r);  // r < q
  return _mm256_sub_epi64(r, _mm256_andnot_si256(lt, vq));
}

// SplitMix64 finalizer on 4 lanes (input is the already-incremented state).
inline __m256i SplitMix4(__m256i z) {
  z = Mullo64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)),
              _mm256_set1_epi64x(int64_t(kMix1)));
  z = Mullo64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)),
              _mm256_set1_epi64x(int64_t(kMix2)));
  return _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
}

void Avx2AccumulateMod(uint64_t* acc, const uint64_t* add, size_t n,
                       uint64_t q) {
  const __m256i vq = _mm256_set1_epi64x(int64_t(q));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    Store(acc + i, CondSubQ(_mm256_add_epi64(Load(acc + i), Load(add + i)),
                            vq));
  }
  ScalarAccumulateMod(acc + i, add + i, n - i, q);
}

void Avx2SubtractMod(uint64_t* acc, const uint64_t* sub, size_t n,
                     uint64_t q) {
  const __m256i vq = _mm256_set1_epi64x(int64_t(q));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i a = Load(acc + i);
    const __m256i b = Load(sub + i);
    const __m256i lt = _mm256_cmpgt_epi64(b, a);  // a < b → wrap, add q back
    const __m256i r = _mm256_add_epi64(_mm256_sub_epi64(a, b),
                                       _mm256_and_si256(lt, vq));
    Store(acc + i, r);
  }
  ScalarSubtractMod(acc + i, sub + i, n - i, q);
}

void Avx2SisColumnUpdate(uint64_t* v, const uint64_t* col,
                         const uint64_t* shoup, size_t n, uint64_t d,
                         const wbs::BarrettQ& bq) {
  const __m256i vq = _mm256_set1_epi64x(int64_t(bq.q));
  const __m256i vd = _mm256_set1_epi64x(int64_t(d));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i w = Load(col + i);
    const __m256i wp = Load(shoup + i);
    // Shoup: q_est = hi64(w' * d); r = w*d - q_est*q  ∈ [0, 2q).
    const __m256i q_est = Mulhi64(wp, vd);
    const __m256i r = CondSubQ(
        _mm256_sub_epi64(Mullo64(w, vd), Mullo64(q_est, vq)), vq);
    Store(v + i, CondSubQ(_mm256_add_epi64(Load(v + i), r), vq));
  }
  ScalarSisColumnUpdate(v + i, col + i, shoup + i, n - i, d, bq);
}

void Avx2AmsRowMix(int64_t* counters, size_t rows, const uint64_t* mix,
                   const int64_t* deltas, size_t count) {
  const __m256i vgolden = _mm256_set1_epi64x(int64_t(kGolden));
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i zero = _mm256_setzero_si256();
  for (size_t j = 0; j < rows; ++j) {
    const __m256i vsalt = _mm256_set1_epi64x(int64_t(uint64_t(j) * kAmsRowSalt));
    __m256i accum = zero;  // wrapping u64 lane sums; order-independent
    size_t t = 0;
    for (; t + 4 <= count; t += 4) {
      const __m256i z = SplitMix4(_mm256_add_epi64(
          _mm256_xor_si256(Load(mix + t), vsalt), vgolden));
      // sign bit set → +delta, clear → -delta (two's complement via mask).
      const __m256i neg =
          _mm256_cmpeq_epi64(_mm256_and_si256(z, one), zero);
      const __m256i d = Load(reinterpret_cast<const uint64_t*>(deltas) + t);
      accum = _mm256_add_epi64(
          accum, _mm256_sub_epi64(_mm256_xor_si256(d, neg), neg));
    }
    alignas(32) uint64_t lanes[4];
    Store(lanes, accum);
    uint64_t c = uint64_t(counters[j]) + lanes[0] + lanes[1] + lanes[2] +
                 lanes[3];
    // Scalar tail inline (ScalarAmsRowMix would re-derive the salt from a
    // row index of 0, not j, so it cannot serve as the tail here).
    for (; t < count; ++t) {
      uint64_t s = (mix[t] ^ (uint64_t(j) * kAmsRowSalt)) + kGolden;
      s = (s ^ (s >> 30)) * kMix1;
      s = (s ^ (s >> 27)) * kMix2;
      s ^= s >> 31;
      c += (s & 1) ? uint64_t(deltas[t]) : uint64_t(0) - uint64_t(deltas[t]);
    }
    counters[j] = int64_t(c);
  }
}

void Avx2HashItems(const uint64_t* items, size_t n, uint64_t* out) {
  const __m256i vgolden = _mm256_set1_epi64x(int64_t(kGolden));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    Store(out + i, SplitMix4(_mm256_add_epi64(
                       _mm256_xor_si256(Load(items + i), vgolden), vgolden)));
  }
  ScalarHashItems(items + i, n - i, out + i);
}

// ---------------------------------------------------------------------------
// 8-message-parallel SHA-256: one 16-byte salt||item message per 32-bit
// lane, all eight compressed in lock step. Only w2/w3 differ across lanes.

inline __m256i Rotr32(__m256i x, int n) {
  return _mm256_or_si256(_mm256_srli_epi32(x, n), _mm256_slli_epi32(x, 32 - n));
}

constexpr uint32_t kShaK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

}  // namespace

void Avx2Sha256Salted8(uint64_t salt, const uint64_t* items, uint64_t* out) {
  alignas(32) uint32_t hi[8];
  alignas(32) uint32_t lo[8];
  for (int i = 0; i < 8; ++i) {
    hi[i] = uint32_t(items[i] >> 32);
    lo[i] = uint32_t(items[i]);
  }
  __m256i w[64];
  w[0] = _mm256_set1_epi32(int32_t(uint32_t(salt >> 32)));
  w[1] = _mm256_set1_epi32(int32_t(uint32_t(salt)));
  w[2] = _mm256_load_si256(reinterpret_cast<const __m256i*>(hi));
  w[3] = _mm256_load_si256(reinterpret_cast<const __m256i*>(lo));
  w[4] = _mm256_set1_epi32(int32_t(0x80000000u));
  for (int i = 5; i < 15; ++i) w[i] = _mm256_setzero_si256();
  w[15] = _mm256_set1_epi32(128);
  for (int i = 16; i < 64; ++i) {
    const __m256i s0 = _mm256_xor_si256(
        _mm256_xor_si256(Rotr32(w[i - 15], 7), Rotr32(w[i - 15], 18)),
        _mm256_srli_epi32(w[i - 15], 3));
    const __m256i s1 = _mm256_xor_si256(
        _mm256_xor_si256(Rotr32(w[i - 2], 17), Rotr32(w[i - 2], 19)),
        _mm256_srli_epi32(w[i - 2], 10));
    w[i] = _mm256_add_epi32(_mm256_add_epi32(w[i - 16], s0),
                            _mm256_add_epi32(w[i - 7], s1));
  }
  const __m256i init0 = _mm256_set1_epi32(int32_t(0x6a09e667u));
  const __m256i init1 = _mm256_set1_epi32(int32_t(0xbb67ae85u));
  __m256i a = init0;
  __m256i b = init1;
  __m256i c = _mm256_set1_epi32(int32_t(0x3c6ef372u));
  __m256i d = _mm256_set1_epi32(int32_t(0xa54ff53au));
  __m256i e = _mm256_set1_epi32(int32_t(0x510e527fu));
  __m256i f = _mm256_set1_epi32(int32_t(0x9b05688cu));
  __m256i g = _mm256_set1_epi32(int32_t(0x1f83d9abu));
  __m256i h = _mm256_set1_epi32(int32_t(0x5be0cd19u));
  for (int i = 0; i < 64; ++i) {
    const __m256i s1 = _mm256_xor_si256(
        _mm256_xor_si256(Rotr32(e, 6), Rotr32(e, 11)), Rotr32(e, 25));
    const __m256i ch = _mm256_xor_si256(
        _mm256_and_si256(e, f), _mm256_andnot_si256(e, g));
    const __m256i temp1 = _mm256_add_epi32(
        _mm256_add_epi32(_mm256_add_epi32(h, s1), _mm256_add_epi32(ch, w[i])),
        _mm256_set1_epi32(int32_t(kShaK[i])));
    const __m256i s0 = _mm256_xor_si256(
        _mm256_xor_si256(Rotr32(a, 2), Rotr32(a, 13)), Rotr32(a, 22));
    const __m256i maj = _mm256_xor_si256(
        _mm256_xor_si256(_mm256_and_si256(a, b), _mm256_and_si256(a, c)),
        _mm256_and_si256(b, c));
    const __m256i temp2 = _mm256_add_epi32(s0, maj);
    h = g;
    g = f;
    f = e;
    e = _mm256_add_epi32(d, temp1);
    d = c;
    c = b;
    b = a;
    a = _mm256_add_epi32(temp1, temp2);
  }
  alignas(32) uint32_t s0_lanes[8];
  alignas(32) uint32_t s1_lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(s0_lanes),
                     _mm256_add_epi32(init0, a));
  _mm256_store_si256(reinterpret_cast<__m256i*>(s1_lanes),
                     _mm256_add_epi32(init1, b));
  for (int i = 0; i < 8; ++i) {
    out[i] = (uint64_t(s0_lanes[i]) << 32) | s1_lanes[i];
  }
}

namespace {

// ---- CRC-32 by carry-less multiplication ---------------------------------
//
// Gopal et al., "Fast CRC Computation for Generic Polynomials Using
// PCLMULQDQ Instruction" (Intel, 2009), in the bit-reflected domain of the
// IEEE polynomial P. Four 128-bit lanes fold 64 bytes per step (k1, k2 =
// x^(4*128+32), x^(4*128-32) mod P), then collapse into one lane that folds
// 16 bytes per step (k3, k4 = x^(128+32), x^(128-32) mod P); 128 bits then
// fold to 64 (k4, k5 = x^64 mod P), and a Barrett reduction (P' = P with its
// x^32 term, mu = floor(x^64 / P)) leaves the 32-bit register.

/// The CRC-32 register after `len` bytes from `crc`; `len` is a multiple of
/// 16 and at least 64.
uint32_t PclmulFold(uint32_t crc, const uint8_t* p, size_t len) {
  const auto load = [](const uint8_t* q) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
  };
  // One fold step: x*k (each 64-bit half by its constant) plus the next data.
  const auto fold = [](__m128i x, __m128i k, __m128i next) {
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                       _mm_clmulepi64_si128(x, k, 0x11)),
                         next);
  };
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);  // mu, P'
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x1 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(int(crc)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  len -= 64;
  for (; len >= 64; p += 64, len -= 64) {
    x1 = fold(x1, k1k2, load(p));
    x2 = fold(x2, k1k2, load(p + 16));
    x3 = fold(x3, k1k2, load(p + 32));
    x4 = fold(x4, k1k2, load(p + 48));
  }
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; len >= 16; p += 16, len -= 16) x1 = fold(x1, k3k4, load(p));

  // 128 → 64 bits, then 64 → 32 by Barrett reduction.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00),
      _mm_srli_si128(x1, 4));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return uint32_t(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

}  // namespace

uint32_t PclmulCrc32(const void* data, size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = 0xffffffffu;
  if (len >= 64) {
    const size_t folded = len & ~size_t{15};
    crc = PclmulFold(crc, p, folded);
    p += folded;
    len -= folded;
  }
  return Crc32Slice8(crc, p, len) ^ 0xffffffffu;
}

const KernelDispatch* Avx2Table() {
  static const KernelDispatch table = {
      "avx2",
      4,
      &Avx2AccumulateMod,
      &Avx2SubtractMod,
      &Avx2SisColumnUpdate,
      &Avx2AmsRowMix,
      &Avx2HashItems,
      &Avx2Sha256Salted8,
      &PclmulCrc32,
  };
  return &table;
}

}  // namespace wbs::simd::internal

#else  // !x86

namespace wbs::simd::internal {
const KernelDispatch* Avx2Table() { return nullptr; }
}  // namespace wbs::simd::internal

#endif
