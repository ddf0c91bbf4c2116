// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// Runtime-dispatched data-parallel kernels for the engine's hot loops.
//
// The scalar Barrett kernels of src/common/modmath.h left vector lanes on
// the table; this layer vectorizes them behind a `KernelDispatch` table
// selected ONCE at startup from the CPU's actual feature set (AVX-512 /
// AVX2 on x86-64, NEON on aarch64, a portable scalar fallback everywhere).
// Every entry is bit-identical to the scalar path — a modular residue in
// [0, q) is unique, so any correct reduction strategy produces the same
// words; 64-bit integer sums commute mod 2^64 — and the kernel fuzz suite
// (tests/kernel_simd_test.cc) plus a Debug-mode paranoia re-check in the
// callers assert exactly that.
//
// Selection: the best table supported by the CPU wins. The x86 tables also
// need PCLMULQDQ and SSE4.1 for their CRC-32 entry; a CPU without them gets
// the scalar table. The environment
// variable WBS_ENGINE_KERNEL=scalar|avx2|avx512|neon forces a level (for
// tests and A/B benches); forcing a level this CPU cannot run falls back to
// scalar rather than crashing. The choice is made on first use and cached.
//
// Alignment contract: NONE. Every vector kernel uses unaligned loads and
// handles arbitrary (including odd and zero) span lengths with a scalar
// tail (masked lanes for the AVX-512 SIS column update), so callers never
// pad or align buffers. All mod-q kernels require
// q < 2^62 (the BarrettQ bound — it also guarantees sums and 2q fit a
// signed 64-bit lane compare) and entries already reduced into [0, q).

#ifndef WBS_COMMON_SIMD_H_
#define WBS_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace wbs {
struct BarrettQ;  // modmath.h
}

namespace wbs::simd {

/// One resolved kernel table. All function pointers are always non-null:
/// per-ISA tables fill any entry they do not specialize with the scalar
/// implementation, so callers dispatch unconditionally.
struct KernelDispatch {
  /// Table identifier: "scalar", "avx2", "avx512", "neon".
  const char* name;
  /// 64-bit lanes the mod-q kernels process per vector step (1 = scalar).
  int lanes;

  /// acc[i] = (acc[i] + add[i]) mod q over n entries already in [0, q).
  void (*accumulate_mod)(uint64_t* acc, const uint64_t* add, size_t n,
                         uint64_t q);
  /// acc[i] = (acc[i] - sub[i]) mod q over n entries already in [0, q).
  void (*subtract_mod)(uint64_t* acc, const uint64_t* sub, size_t n,
                       uint64_t q);
  /// v[i] = (v[i] + d * col[i]) mod q — the SIS column update. `shoup` is
  /// the precomputed companion array shoup[i] = floor(col[i] * 2^64 / q)
  /// (see SisMatrix::Materialize); `d` is already reduced into [0, q). The
  /// Shoup product w*d - hi64(w'*d)*q lands in [0, 2q) and one conditional
  /// subtract yields the exact canonical residue, so the result matches
  /// BarrettQ::MulMod word for word. AVX-512 runs its n % 8 tail rows as
  /// one masked Shoup step; `bq` serves the scalar tail/fallback.
  void (*sis_column_update)(uint64_t* v, const uint64_t* col,
                            const uint64_t* shoup, size_t n, uint64_t d,
                            const wbs::BarrettQ& bq);
  /// counters[j] += sum_t sign(mix[t] ^ j*kAmsRowSalt) * deltas[t] for all
  /// `rows` rows — the batched AMS row mix. sign() is the AmsF2Sketch
  /// SplitMix64 parity; lane sums reassociate freely because 64-bit
  /// addition commutes mod 2^64.
  void (*ams_row_mix)(int64_t* counters, size_t rows, const uint64_t* mix,
                      const int64_t* deltas, size_t count);
  /// out[i] = SplitMix64(items[i] ^ kGolden) — the TopologyView::SlotOf
  /// hash before its modulo, for the scatter path's 8-wide hash+bucket.
  void (*hash_items)(const uint64_t* items, size_t n, uint64_t* out);
  /// Eight independent single-block SHA-256 messages salt||item (8 bytes
  /// big-endian each, one padded compression per message); out[i] is the
  /// first 8 digest bytes as a big-endian uint64 — the Sha256Crhf::HashU64
  /// preimage/truncation layout, exactly.
  void (*sha256_salted8)(uint64_t salt, const uint64_t* items,
                         uint64_t* out);
  /// CRC-32 of `len` bytes at any address (IEEE 802.3 polynomial,
  /// bit-reflected: the zlib/PNG checksum, so "123456789" gives 0xCBF43926
  /// and the empty input 0) — wire::Crc32, over every framed byte. The
  /// scalar entry is slicing-by-8. The x86 entries fold the 16-byte blocks
  /// of an input of at least 64 bytes by carry-less multiplication
  /// (PCLMULQDQ, four 128-bit lanes, then one, then a Barrett reduction to
  /// 32 bits) and finish the last len % 16 bytes with slicing-by-8; they
  /// read no byte outside [data, data + len).
  uint32_t (*crc32)(const void* data, size_t len);
};

/// The table selected for this process (CPU detection + WBS_ENGINE_KERNEL
/// override, resolved once on first call and cached).
const KernelDispatch& Kernels();

/// The table registered under `name`, or nullptr. Compiled-out ISAs (e.g.
/// "neon" on x86) and levels this CPU cannot execute return nullptr.
const KernelDispatch* KernelByName(const std::string& name);

/// Every table this CPU can actually run, best-first. Always contains at
/// least the scalar table; the kernel fuzz suite iterates this.
std::vector<const KernelDispatch*> AvailableKernels();

/// Human-readable detected ISA summary, e.g. "avx512,avx2" or "neon" or
/// "scalar-only" — the `cpu_features` field of the bench JSONL rows.
std::string DetectedCpuFeatures();

namespace internal {
/// Re-runs kernel selection (re-reading WBS_ENGINE_KERNEL). Test/bench
/// hook only — racing it against live kernel calls is benign (the pointer
/// swap is atomic) but the forced table applies to calls that start after.
void ReselectKernels();
}  // namespace internal

}  // namespace wbs::simd

#endif  // WBS_COMMON_SIMD_H_
