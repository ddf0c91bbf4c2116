// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// AVX-512 kernel table: 8×u64 lanes using F+DQ (native 64-bit mullo and
// mask-register unsigned compares, so none of the AVX2 signed-compare or
// 32-bit-decomposition workarounds are needed except for mulhi, which has
// no 512-bit instruction either). Compiled with -mavx512f -mavx512dq for
// x86 targets only; selected at runtime only when the CPU reports both.
// The SHA-256 entry reuses the AVX2 8-lane implementation — the primitive
// is batched 8 messages at a time, so 16 u32 lanes would run half empty —
// and the CRC-32 entry the AVX2 file's 128-bit PCLMULQDQ fold.

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

inline __m512i Load(const uint64_t* p) { return _mm512_loadu_si512(p); }
inline void Store(uint64_t* p, __m512i v) { _mm512_storeu_si512(p, v); }

// r - (r >= q ? q : 0) for r in [0, 2q).
inline __m512i CondSubQ(__m512i r, __m512i vq) {
  const __mmask8 ge = _mm512_cmpge_epu64_mask(r, vq);
  return _mm512_mask_sub_epi64(r, ge, r, vq);
}

// High 64 bits of a*b per lane (no 512-bit mulhi instruction; same 4-way
// 32-bit decomposition as the AVX2 path).
inline __m512i Mulhi64(__m512i a, __m512i b) {
  const __m512i mask32 = _mm512_set1_epi64(0xffffffffLL);
  const __m512i ah = _mm512_srli_epi64(a, 32);
  const __m512i bh = _mm512_srli_epi64(b, 32);
  const __m512i ll = _mm512_mul_epu32(a, b);
  const __m512i lh = _mm512_mul_epu32(a, bh);
  const __m512i hl = _mm512_mul_epu32(ah, b);
  const __m512i hh = _mm512_mul_epu32(ah, bh);
  const __m512i mid = _mm512_add_epi64(
      _mm512_add_epi64(_mm512_srli_epi64(ll, 32), _mm512_and_si512(lh, mask32)),
      _mm512_and_si512(hl, mask32));
  return _mm512_add_epi64(
      _mm512_add_epi64(hh, _mm512_srli_epi64(lh, 32)),
      _mm512_add_epi64(_mm512_srli_epi64(hl, 32), _mm512_srli_epi64(mid, 32)));
}

inline __m512i SplitMix8(__m512i z) {
  z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 30)),
                         _mm512_set1_epi64(int64_t(kMix1)));
  z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 27)),
                         _mm512_set1_epi64(int64_t(kMix2)));
  return _mm512_xor_si512(z, _mm512_srli_epi64(z, 31));
}

void Avx512AccumulateMod(uint64_t* acc, const uint64_t* add, size_t n,
                         uint64_t q) {
  const __m512i vq = _mm512_set1_epi64(int64_t(q));
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    Store(acc + i,
          CondSubQ(_mm512_add_epi64(Load(acc + i), Load(add + i)), vq));
  }
  ScalarAccumulateMod(acc + i, add + i, n - i, q);
}

void Avx512SubtractMod(uint64_t* acc, const uint64_t* sub, size_t n,
                       uint64_t q) {
  const __m512i vq = _mm512_set1_epi64(int64_t(q));
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i a = Load(acc + i);
    const __m512i b = Load(sub + i);
    const __mmask8 lt = _mm512_cmplt_epu64_mask(a, b);
    const __m512i r = _mm512_sub_epi64(a, b);
    Store(acc + i, _mm512_mask_add_epi64(r, lt, r, vq));
  }
  ScalarSubtractMod(acc + i, sub + i, n - i, q);
}

// Eight rows per step; the last step masks off the lanes past n, so no row
// falls to the scalar Barrett loop.
void Avx512SisColumnUpdate(uint64_t* v, const uint64_t* col,
                           const uint64_t* shoup, size_t n, uint64_t d,
                           const wbs::BarrettQ& bq) {
  const __m512i vq = _mm512_set1_epi64(int64_t(bq.q));
  const __m512i vd = _mm512_set1_epi64(int64_t(d));
  for (size_t i = 0; i < n; i += 8) {
    const __mmask8 m =
        n - i >= 8 ? __mmask8(0xff) : __mmask8((1u << (n - i)) - 1);
    const __m512i w = _mm512_maskz_loadu_epi64(m, col + i);
    // Shoup: q_est = hi64(w' * d); r = w*d - q_est*q  ∈ [0, 2q).
    const __m512i q_est =
        Mulhi64(_mm512_maskz_loadu_epi64(m, shoup + i), vd);
    const __m512i r =
        CondSubQ(_mm512_sub_epi64(_mm512_mullo_epi64(w, vd),
                                  _mm512_mullo_epi64(q_est, vq)),
                 vq);
    _mm512_mask_storeu_epi64(
        v + i, m,
        CondSubQ(_mm512_add_epi64(_mm512_maskz_loadu_epi64(m, v + i), r), vq));
  }
}

void Avx512AmsRowMix(int64_t* counters, size_t rows, const uint64_t* mix,
                     const int64_t* deltas, size_t count) {
  const __m512i vgolden = _mm512_set1_epi64(int64_t(kGolden));
  const __m512i one = _mm512_set1_epi64(1);
  for (size_t j = 0; j < rows; ++j) {
    const __m512i vsalt = _mm512_set1_epi64(int64_t(uint64_t(j) * kAmsRowSalt));
    __m512i accum = _mm512_setzero_si512();
    size_t t = 0;
    for (; t + 8 <= count; t += 8) {
      const __m512i z = SplitMix8(_mm512_add_epi64(
          _mm512_xor_si512(Load(mix + t), vsalt), vgolden));
      const __mmask8 plus = _mm512_test_epi64_mask(z, one);  // sign bit set
      const __m512i d = Load(reinterpret_cast<const uint64_t*>(deltas) + t);
      accum = _mm512_mask_add_epi64(_mm512_sub_epi64(accum, d), plus,
                                    accum, d);
    }
    // Wrapping horizontal sum; _mm512_reduce_add_epi64 wraps identically.
    uint64_t c = uint64_t(counters[j]) + uint64_t(_mm512_reduce_add_epi64(accum));
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

void Avx512HashItems(const uint64_t* items, size_t n, uint64_t* out) {
  const __m512i vgolden = _mm512_set1_epi64(int64_t(kGolden));
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    Store(out + i, SplitMix8(_mm512_add_epi64(
                       _mm512_xor_si512(Load(items + i), vgolden), vgolden)));
  }
  ScalarHashItems(items + i, n - i, out + i);
}

}  // namespace

const KernelDispatch* Avx512Table() {
  static const KernelDispatch table = {
      "avx512",
      8,
      &Avx512AccumulateMod,
      &Avx512SubtractMod,
      &Avx512SisColumnUpdate,
      &Avx512AmsRowMix,
      &Avx512HashItems,
      &Avx2Sha256Salted8,
      &PclmulCrc32,
  };
  return &table;
}

}  // namespace wbs::simd::internal

#else  // !x86

namespace wbs::simd::internal {
const KernelDispatch* Avx512Table() { return nullptr; }
}  // namespace wbs::simd::internal

#endif
