// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// Internal glue between the per-ISA kernel translation units and the
// dispatch core in simd.cc. Not part of the public surface — include
// common/simd.h instead.
//
// Each ISA file (simd_avx2.cc / simd_avx512.cc / simd_neon.cc) is compiled
// with that ISA's flags and exposes exactly one table getter; a getter
// returns nullptr when its ISA is compiled out for the target arch, so the
// selection logic in simd.cc stays arch-agnostic. ISA files fall back to
// the Scalar* reference kernels below for entries they do not specialize
// and for vector-remainder tails — the scalar kernels are the definition
// of correct output, everything else must match them bit for bit.

#ifndef WBS_COMMON_SIMD_INTERNAL_H_
#define WBS_COMMON_SIMD_INTERNAL_H_

#include "common/simd.h"

namespace wbs::simd::internal {

// Per-ISA tables. nullptr when compiled out (wrong target arch); the
// caller additionally checks runtime CPU support before selecting one.
const KernelDispatch* Avx2Table();
const KernelDispatch* Avx512Table();
const KernelDispatch* NeonTable();

// Portable reference kernels (defined in simd.cc). Bit-exact ports of the
// pre-dispatch scalar code paths; see each KernelDispatch field for the
// contract.
void ScalarAccumulateMod(uint64_t* acc, const uint64_t* add, size_t n,
                         uint64_t q);
void ScalarSubtractMod(uint64_t* acc, const uint64_t* sub, size_t n,
                       uint64_t q);
void ScalarSisColumnUpdate(uint64_t* v, const uint64_t* col,
                           const uint64_t* shoup, size_t n, uint64_t d,
                           const wbs::BarrettQ& bq);
void ScalarAmsRowMix(int64_t* counters, size_t rows, const uint64_t* mix,
                     const int64_t* deltas, size_t count);
void ScalarHashItems(const uint64_t* items, size_t n, uint64_t* out);
void ScalarSha256Salted8(uint64_t salt, const uint64_t* items, uint64_t* out);
uint32_t ScalarCrc32(const void* data, size_t len);
/// Slicing-by-8 over `len` bytes from the CRC-32 register `crc` (the state
/// before the final inversion): ScalarCrc32 runs it from 0xffffffff, and
/// the folding entry finishes its tail with it.
uint32_t Crc32Slice8(uint32_t crc, const uint8_t* p, size_t len);

#if defined(__x86_64__) || defined(__i386__)
// The AVX2 8-lane SHA-256 (one message per 32-bit lane) is the widest
// useful shape for this primitive — the AVX-512 table points at the same
// function rather than duplicating it at 16 lanes nobody batches for.
void Avx2Sha256Salted8(uint64_t salt, const uint64_t* items, uint64_t* out);
// CRC-32 by 128-bit PCLMULQDQ folding, shared by both x86 tables for the
// same reason (simd_avx2.cc, compiled with -mpclmul).
uint32_t PclmulCrc32(const void* data, size_t len);
#endif

}  // namespace wbs::simd::internal

#endif  // WBS_COMMON_SIMD_INTERNAL_H_
