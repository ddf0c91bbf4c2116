// Copyright (c) wbstream authors. Licensed under the MIT license.

#include "common/simd.h"

#include <atomic>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <cstring>

#include "common/modmath.h"
#include "common/simd_internal.h"

namespace wbs::simd {
namespace internal {
namespace {

// SplitMix64 (common/random.h) — duplicated here so the kernel layer has a
// single self-contained definition to vectorize against. kGolden is both
// the stream increment and the TopologyView::SlotOf pre-xor; kAmsRowSalt
// is the AmsF2Sketch per-row salt multiplier. Constants must stay in lock
// step with random.h / topology.h / moments/ams.cc (asserted by the
// bit-identity fuzz suite).
constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kMix1 = 0xbf58476d1ce4e5b9ULL;
constexpr uint64_t kMix2 = 0x94d049bb133111ebULL;
constexpr uint64_t kAmsRowSalt = 0xd1342543de82ef95ULL;

inline uint64_t SplitMix(uint64_t z) {
  z = (z ^ (z >> 30)) * kMix1;
  z = (z ^ (z >> 27)) * kMix2;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Single-block SHA-256 (reference compression, FIPS 180-4). Self-contained
// copy of crypto/sha256.cc's ProcessBlock specialized to the 16-byte
// salt||item message Sha256Crhf::HashU64 hashes, so src/common does not
// grow a dependency on src/crypto. The fuzz suite pins this against the
// streaming Sha256 class.

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

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

// First 8 digest bytes (big-endian) of SHA-256(salt_be8 || item_be8).
uint64_t Sha256SaltedOne(uint64_t salt, uint64_t item) {
  // The padded single block: 16 message bytes, 0x80, zeros, bit count 128.
  uint32_t w[64];
  w[0] = uint32_t(salt >> 32);
  w[1] = uint32_t(salt);
  w[2] = uint32_t(item >> 32);
  w[3] = uint32_t(item);
  w[4] = 0x80000000u;
  for (int i = 5; i < 15; ++i) w[i] = 0;
  w[15] = 128;
  for (int i = 16; i < 64; ++i) {
    const uint32_t s0 =
        Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const uint32_t s1 =
        Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  uint32_t a = 0x6a09e667, b = 0xbb67ae85, c = 0x3c6ef372, d = 0xa54ff53a;
  uint32_t e = 0x510e527f, f = 0x9b05688c, g = 0x1f83d9ab, h = 0x5be0cd19;
  for (int i = 0; i < 64; ++i) {
    const uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
    const uint32_t ch = (e & f) ^ (~e & g);
    const uint32_t temp1 = h + s1 + ch + kShaK[i] + w[i];
    const uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
    const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }
  const uint32_t s0 = 0x6a09e667 + a;
  const uint32_t s1 = 0xbb67ae85 + b;
  return (uint64_t(s0) << 32) | s1;
}

// Slicing-by-8 tables for CRC-32 (IEEE, reflected). Row 0 is the bytewise
// table; row k carries a byte's contribution k bytes further, so one step
// folds eight input bytes with eight independent lookups.
struct Crc32Tables {
  uint32_t t[8][256];
};

constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    tables.t[0][i] = c;
  }
  for (int k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables.t[k - 1][i];
      tables.t[k][i] = (prev >> 8) ^ tables.t[0][prev & 0xffu];
    }
  }
  return tables;
}

constexpr Crc32Tables kCrc32 = MakeCrc32Tables();

inline uint32_t LoadLe32(const uint8_t* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

}  // namespace

uint32_t Crc32Slice8(uint32_t crc, const uint8_t* p, size_t len) {
  const auto& t = kCrc32.t;
  for (; len >= 8; p += 8, len -= 8) {
    const uint32_t lo = crc ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
          t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) crc = t[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  return crc;
}

uint32_t ScalarCrc32(const void* data, size_t len) {
  return Crc32Slice8(0xffffffffu, static_cast<const uint8_t*>(data), len) ^
         0xffffffffu;
}

void ScalarAccumulateMod(uint64_t* acc, const uint64_t* add, size_t n,
                         uint64_t q) {
  for (size_t i = 0; i < n; ++i) {
    const uint64_t s = acc[i] + add[i];
    acc[i] = s >= q ? s - q : s;
  }
}

void ScalarSubtractMod(uint64_t* acc, const uint64_t* sub, size_t n,
                       uint64_t q) {
  for (size_t i = 0; i < n; ++i) {
    acc[i] = acc[i] >= sub[i] ? acc[i] - sub[i] : acc[i] + (q - sub[i]);
  }
}

void ScalarSisColumnUpdate(uint64_t* v, const uint64_t* col,
                           const uint64_t* shoup, size_t n, uint64_t d,
                           const wbs::BarrettQ& bq) {
  (void)shoup;  // the Barrett context alone defines the scalar path
  for (size_t i = 0; i < n; ++i) {
    v[i] = bq.AddMod(v[i], bq.MulMod(d, col[i]));
  }
}

void ScalarAmsRowMix(int64_t* counters, size_t rows, const uint64_t* mix,
                     const int64_t* deltas, size_t count) {
  for (size_t j = 0; j < rows; ++j) {
    const uint64_t row_salt = uint64_t(j) * kAmsRowSalt;
    int64_t c = counters[j];
    for (size_t t = 0; t < count; ++t) {
      const uint64_t z = SplitMix((mix[t] ^ row_salt) + kGolden);
      c += (z & 1) ? deltas[t] : -deltas[t];
    }
    counters[j] = c;
  }
}

void ScalarHashItems(const uint64_t* items, size_t n, uint64_t* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = SplitMix((items[i] ^ kGolden) + kGolden);
  }
}

void ScalarSha256Salted8(uint64_t salt, const uint64_t* items, uint64_t* out) {
  for (int i = 0; i < 8; ++i) out[i] = Sha256SaltedOne(salt, items[i]);
}

}  // namespace internal

namespace {

const KernelDispatch kScalar = {
    "scalar",
    1,
    &internal::ScalarAccumulateMod,
    &internal::ScalarSubtractMod,
    &internal::ScalarSisColumnUpdate,
    &internal::ScalarAmsRowMix,
    &internal::ScalarHashItems,
    &internal::ScalarSha256Salted8,
    &internal::ScalarCrc32,
};

// Both x86 tables carry the PCLMULQDQ CRC-32 entry (its Barrett step
// extracts a lane with SSE4.1), so each is selectable only where the CPU
// reports those too.
bool CpuHasPclmul() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

bool CpuHasAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && CpuHasPclmul();
#else
  return false;
#endif
}

bool CpuHasAvx512() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512dq") && CpuHasPclmul();
#else
  return false;
#endif
}

bool CpuHasNeon() {
#if defined(__aarch64__)
  return true;  // NEON is architecturally mandatory on aarch64
#else
  return false;
#endif
}

// Best-supported-first candidate order.
const KernelDispatch* SelectBest() {
  if (CpuHasAvx512()) {
    if (const KernelDispatch* k = internal::Avx512Table()) return k;
  }
  if (CpuHasAvx2()) {
    if (const KernelDispatch* k = internal::Avx2Table()) return k;
  }
  if (CpuHasNeon()) {
    if (const KernelDispatch* k = internal::NeonTable()) return k;
  }
  return &kScalar;
}

const KernelDispatch* Select() {
  if (const char* env = std::getenv("WBS_ENGINE_KERNEL");
      env != nullptr && env[0] != '\0') {
    // An unknown name or a level this CPU cannot run degrades to scalar —
    // a bad env var must never crash or silently mis-execute.
    const KernelDispatch* forced = KernelByName(env);
    return forced != nullptr ? forced : &kScalar;
  }
  return SelectBest();
}

std::atomic<const KernelDispatch*> g_kernels{nullptr};

}  // namespace

const KernelDispatch& Kernels() {
  const KernelDispatch* k = g_kernels.load(std::memory_order_acquire);
  if (k == nullptr) {
    k = Select();
    g_kernels.store(k, std::memory_order_release);
  }
  return *k;
}

const KernelDispatch* KernelByName(const std::string& name) {
  if (name == "scalar") return &kScalar;
  if (name == "avx2" && CpuHasAvx2()) return internal::Avx2Table();
  if (name == "avx512" && CpuHasAvx512()) return internal::Avx512Table();
  if (name == "neon" && CpuHasNeon()) return internal::NeonTable();
  return nullptr;
}

std::vector<const KernelDispatch*> AvailableKernels() {
  std::vector<const KernelDispatch*> out;
  if (CpuHasAvx512()) {
    if (const KernelDispatch* k = internal::Avx512Table()) out.push_back(k);
  }
  if (CpuHasAvx2()) {
    if (const KernelDispatch* k = internal::Avx2Table()) out.push_back(k);
  }
  if (CpuHasNeon()) {
    if (const KernelDispatch* k = internal::NeonTable()) out.push_back(k);
  }
  out.push_back(&kScalar);
  return out;
}

std::string DetectedCpuFeatures() {
  std::string s;
  if (CpuHasAvx512()) s += "avx512,";
  if (CpuHasAvx2()) s += "avx2,";
  if (CpuHasNeon()) s += "neon,";
  if (s.empty()) return "scalar-only";
  s.pop_back();
  return s;
}

void internal::ReselectKernels() {
  g_kernels.store(Select(), std::memory_order_release);
}

}  // namespace wbs::simd

namespace wbs {

// Dispatch-routed definitions of the modmath.h merge kernels. In Debug the
// selected table is re-checked against the scalar reference on every call
// (the paranoia half of the bit-identity contract); Release trusts the fuzz
// suite and pays only the indirect call.
void AccumulateMod(uint64_t* acc, const uint64_t* add, size_t n, uint64_t q) {
#ifndef NDEBUG
  const simd::KernelDispatch& k = simd::Kernels();
  if (k.lanes > 1 && n > 0) {
    std::vector<uint64_t> want(acc, acc + n);
    simd::internal::ScalarAccumulateMod(want.data(), add, n, q);
    k.accumulate_mod(acc, add, n, q);
    assert(std::memcmp(acc, want.data(), n * sizeof(uint64_t)) == 0 &&
           "vector AccumulateMod diverged from scalar");
    return;
  }
#endif
  simd::Kernels().accumulate_mod(acc, add, n, q);
}

void SubtractMod(uint64_t* acc, const uint64_t* sub, size_t n, uint64_t q) {
#ifndef NDEBUG
  const simd::KernelDispatch& k = simd::Kernels();
  if (k.lanes > 1 && n > 0) {
    std::vector<uint64_t> want(acc, acc + n);
    simd::internal::ScalarSubtractMod(want.data(), sub, n, q);
    k.subtract_mod(acc, sub, n, q);
    assert(std::memcmp(acc, want.data(), n * sizeof(uint64_t)) == 0 &&
           "vector SubtractMod diverged from scalar");
    return;
  }
#endif
  simd::Kernels().subtract_mod(acc, sub, n, q);
}

}  // namespace wbs
