// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// NEON kernel table for aarch64: 2×u64 lanes for the add/sub merge kernels
// (NEON has 64-bit lane add/sub/compare but no 64×64 multiply, so the
// multiply-heavy kernels — Shoup column update, SplitMix, SHA-256 — and
// the slicing-by-8 CRC-32 stay on the scalar reference implementations).
// aarch64 mandates NEON, so no runtime feature check is needed beyond the
// compile-time arch gate.

#include "common/simd_internal.h"

#if defined(__aarch64__)

#include <arm_neon.h>

namespace wbs::simd::internal {
namespace {

void NeonAccumulateMod(uint64_t* acc, const uint64_t* add, size_t n,
                       uint64_t q) {
  const uint64x2_t vq = vdupq_n_u64(q);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t s = vaddq_u64(vld1q_u64(acc + i), vld1q_u64(add + i));
    const uint64x2_t ge = vcgeq_u64(s, vq);  // all-ones where s >= q
    vst1q_u64(acc + i, vsubq_u64(s, vandq_u64(ge, vq)));
  }
  ScalarAccumulateMod(acc + i, add + i, n - i, q);
}

void NeonSubtractMod(uint64_t* acc, const uint64_t* sub, size_t n,
                     uint64_t q) {
  const uint64x2_t vq = vdupq_n_u64(q);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t a = vld1q_u64(acc + i);
    const uint64x2_t b = vld1q_u64(sub + i);
    const uint64x2_t lt = vcltq_u64(a, b);  // wrap under zero → add q back
    vst1q_u64(acc + i, vaddq_u64(vsubq_u64(a, b), vandq_u64(lt, vq)));
  }
  ScalarSubtractMod(acc + i, sub + i, n - i, q);
}

}  // namespace

const KernelDispatch* NeonTable() {
  static const KernelDispatch table = {
      "neon",
      2,
      &NeonAccumulateMod,
      &NeonSubtractMod,
      &ScalarSisColumnUpdate,
      &ScalarAmsRowMix,
      &ScalarHashItems,
      &ScalarSha256Salted8,
      &ScalarCrc32,
  };
  return &table;
}

}  // namespace wbs::simd::internal

#else  // !aarch64

namespace wbs::simd::internal {
const KernelDispatch* NeonTable() { return nullptr; }
}  // namespace wbs::simd::internal

#endif
