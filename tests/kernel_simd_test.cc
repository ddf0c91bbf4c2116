// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// Bit-identity fuzz suite for the runtime-dispatched SIMD kernels
// (common/simd.h). The contract under test is exact: every table that
// AvailableKernels() reports runnable on this CPU must produce the same
// words as the scalar table on every input — moduli at both ends of the
// BarrettQ range (q = 2, q near 2^62, non-prime q), zero/odd/vector-width
// lengths, unaligned spans — and forcing a level through WBS_ENGINE_KERNEL
// must leave whole-engine answers unchanged across all six sketch
// families. The CRC-32 entry must match a bitwise reference at every length
// and offset that reaches its folds and tails. Also home to the BarrettQ
// modulus-bound regression tests.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/modmath.h"
#include "common/simd.h"
#include "crypto/crhf.h"
#include "engine/topology.h"
#include "engine_test_util.h"
#include "stream/updates.h"

namespace wbs {
namespace {

// Moduli chosen to stress reduction edge cases: the smallest legal q, tiny
// primes, a power of two, composites (Barrett/Shoup make no primality
// assumption), a large prime, and the largest legal q (all-ones in 62 bits,
// maximally close to the 2q < 2^63 lane-compare bound).
const uint64_t kModuli[] = {
    2,
    3,
    97,
    uint64_t{1} << 20,                        // power of two, composite
    (uint64_t{1} << 20) + 2,                  // even composite
    1000000007,                               // large prime
    (uint64_t{1} << 61) + 1,                  // composite, > 2^61
    (uint64_t{1} << 62) - 2,                  // even, near the bound
    BarrettQ::kMaxModulus,                    // (1 << 62) - 1, the bound
};

// Lengths around every vector width in play (2/4/8 lanes) plus zero and
// primes, so tails of every size (scalar, or the SIS update's masked
// AVX-512 step) get exercised.
const size_t kLengths[] = {0,  1,  2,  3,  4,  5,  6,  7,  8,  9,
                           15, 16, 17, 31, 33, 64, 65, 100};

std::vector<uint64_t> RandomResidues(std::mt19937_64& rng, size_t n,
                                     uint64_t q) {
  std::vector<uint64_t> v(n);
  for (auto& x : v) x = rng() % q;
  return v;
}

// ------------------------------------------------------- dispatch surface --

TEST(KernelDispatchTest, AvailableKernelsEndsWithScalar) {
  auto kernels = simd::AvailableKernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels.back()->name, "scalar");
  EXPECT_EQ(kernels.back()->lanes, 1);
  for (const auto* k : kernels) {
    ASSERT_NE(k->accumulate_mod, nullptr) << k->name;
    ASSERT_NE(k->subtract_mod, nullptr) << k->name;
    ASSERT_NE(k->sis_column_update, nullptr) << k->name;
    ASSERT_NE(k->ams_row_mix, nullptr) << k->name;
    ASSERT_NE(k->hash_items, nullptr) << k->name;
    ASSERT_NE(k->sha256_salted8, nullptr) << k->name;
    ASSERT_NE(k->crc32, nullptr) << k->name;
  }
}

TEST(KernelDispatchTest, KernelByNameRoundTrips) {
  for (const auto* k : simd::AvailableKernels()) {
    EXPECT_EQ(simd::KernelByName(k->name), k);
  }
  EXPECT_EQ(simd::KernelByName("bogus"), nullptr);
  EXPECT_FALSE(simd::DetectedCpuFeatures().empty());
}

// RAII guard: forces WBS_ENGINE_KERNEL for a scope, restores the previous
// value (or unset state) and re-runs selection on exit so later tests in
// this binary see the environment they started with.
class ForcedKernel {
 public:
  explicit ForcedKernel(const char* name) {
    const char* prev = std::getenv("WBS_ENGINE_KERNEL");
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    if (name == nullptr) {
      ::unsetenv("WBS_ENGINE_KERNEL");
    } else {
      ::setenv("WBS_ENGINE_KERNEL", name, 1);
    }
    simd::internal::ReselectKernels();
  }
  ~ForcedKernel() {
    if (had_prev_) {
      ::setenv("WBS_ENGINE_KERNEL", prev_.c_str(), 1);
    } else {
      ::unsetenv("WBS_ENGINE_KERNEL");
    }
    simd::internal::ReselectKernels();
  }

 private:
  bool had_prev_ = false;
  std::string prev_;
};

TEST(KernelDispatchTest, EnvForcesEachAvailableLevel) {
  for (const auto* k : simd::AvailableKernels()) {
    ForcedKernel forced(k->name);
    EXPECT_STREQ(simd::Kernels().name, k->name);
  }
}

TEST(KernelDispatchTest, UnknownForcedLevelFallsBackToScalar) {
  ForcedKernel forced("not-an-isa");
  EXPECT_STREQ(simd::Kernels().name, "scalar");
}

TEST(KernelDispatchTest, UnsetEnvSelectsBestAvailable) {
  ForcedKernel forced(nullptr);
  EXPECT_STREQ(simd::Kernels().name, simd::AvailableKernels().front()->name);
}

// ------------------------------------------------- mod-q kernel bit fuzz --

TEST(KernelSimdTest, AccumulateAndSubtractMatchScalarEverywhere) {
  std::mt19937_64 rng(0x5eedu);
  const auto kernels = simd::AvailableKernels();
  const simd::KernelDispatch* scalar = kernels.back();
  for (uint64_t q : kModuli) {
    for (size_t n : kLengths) {
      // +1 so an offset-by-one view exists even at the longest length; the
      // offset view is 8-byte but not vector-width aligned.
      std::vector<uint64_t> acc0 = RandomResidues(rng, n + 1, q);
      std::vector<uint64_t> add = RandomResidues(rng, n + 1, q);
      for (size_t off : {size_t{0}, size_t{1}}) {
        std::vector<uint64_t> want(acc0.begin() + off, acc0.end());
        scalar->accumulate_mod(want.data(), add.data() + off, n, q);
        for (const auto* k : kernels) {
          std::vector<uint64_t> got(acc0.begin() + off, acc0.end());
          k->accumulate_mod(got.data(), add.data() + off, n, q);
          ASSERT_EQ(got, want) << k->name << " q=" << q << " n=" << n
                               << " off=" << off;
        }
        std::vector<uint64_t> want_sub(acc0.begin() + off, acc0.end());
        scalar->subtract_mod(want_sub.data(), add.data() + off, n, q);
        for (const auto* k : kernels) {
          std::vector<uint64_t> got(acc0.begin() + off, acc0.end());
          k->subtract_mod(got.data(), add.data() + off, n, q);
          ASSERT_EQ(got, want_sub) << k->name << " q=" << q << " n=" << n
                                   << " off=" << off;
        }
      }
    }
  }
}

TEST(KernelSimdTest, AccumulateModAgainstNaiveReference) {
  // Pin the scalar kernel itself against first-principles u128 arithmetic
  // so the fuzz above is anchored, not just self-consistent.
  std::mt19937_64 rng(7);
  for (uint64_t q : kModuli) {
    std::vector<uint64_t> acc = RandomResidues(rng, 33, q);
    std::vector<uint64_t> add = RandomResidues(rng, 33, q);
    std::vector<uint64_t> want(acc.size());
    for (size_t i = 0; i < acc.size(); ++i) {
      want[i] = uint64_t((u128(acc[i]) + add[i]) % q);
    }
    for (const auto* k : simd::AvailableKernels()) {
      std::vector<uint64_t> got = acc;
      k->accumulate_mod(got.data(), add.data(), got.size(), q);
      ASSERT_EQ(got, want) << k->name << " q=" << q;
    }
  }
}

TEST(KernelSimdTest, SisColumnUpdateMatchesBarrettMulAdd) {
  std::mt19937_64 rng(0xc01u);
  for (uint64_t q : kModuli) {
    const BarrettQ bq(q);
    for (size_t n : kLengths) {
      const std::vector<uint64_t> col = RandomResidues(rng, n, q);
      std::vector<uint64_t> shoup(n);
      for (size_t i = 0; i < n; ++i) {
        shoup[i] = uint64_t((u128(col[i]) << 64) / q);
      }
      const std::vector<uint64_t> v0 = RandomResidues(rng, n, q);
      // Sweep d over the interesting residues, not just random ones.
      for (uint64_t d : {uint64_t{0}, uint64_t{1}, q - 1, rng() % q}) {
        std::vector<uint64_t> want = v0;
        for (size_t i = 0; i < n; ++i) {
          want[i] = bq.AddMod(want[i], bq.MulMod(col[i], d));
        }
        for (const auto* k : simd::AvailableKernels()) {
          std::vector<uint64_t> got = v0;
          k->sis_column_update(got.data(), col.data(), shoup.data(), n, d, bq);
          ASSERT_EQ(got, want) << k->name << " q=" << q << " n=" << n
                               << " d=" << d;
        }
      }
    }
  }
}

TEST(KernelSimdTest, AmsRowMixMatchesScalar) {
  std::mt19937_64 rng(0xa35u);
  const auto kernels = simd::AvailableKernels();
  const simd::KernelDispatch* scalar = kernels.back();
  for (size_t rows : {size_t{1}, size_t{3}, size_t{8}}) {
    for (size_t count : kLengths) {
      std::vector<uint64_t> mix(count);
      std::vector<int64_t> deltas(count);
      for (size_t t = 0; t < count; ++t) {
        mix[t] = rng();
        deltas[t] = int64_t(rng() % 2001) - 1000;  // turnstile: both signs
      }
      std::vector<int64_t> base(rows);
      for (auto& c : base) c = int64_t(rng());
      std::vector<int64_t> want = base;
      scalar->ams_row_mix(want.data(), rows, mix.data(), deltas.data(), count);
      for (const auto* k : kernels) {
        std::vector<int64_t> got = base;
        k->ams_row_mix(got.data(), rows, mix.data(), deltas.data(), count);
        ASSERT_EQ(got, want) << k->name << " rows=" << rows
                             << " count=" << count;
      }
    }
  }
}

// --------------------------------------------------- hash/scatter kernels --

TEST(KernelSimdTest, HashItemsMatchesTopologySlotOf) {
  std::mt19937_64 rng(0x11a5u);
  for (size_t num_slots : {size_t{1}, size_t{7}, size_t{64}, size_t{96}}) {
    std::vector<uint64_t> items(65);
    for (auto& it : items) it = rng();
    items[0] = 0;  // degenerate item
    for (const auto* k : simd::AvailableKernels()) {
      for (size_t n : {size_t{0}, size_t{1}, size_t{8}, items.size()}) {
        std::vector<uint64_t> out(n);
        k->hash_items(items.data(), n, out.data());
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(size_t(out[i] % num_slots),
                    engine::TopologyView::SlotOf(items[i], num_slots))
              << k->name << " i=" << i << " slots=" << num_slots;
        }
      }
    }
  }
}

TEST(KernelSimdTest, Sha256Salted8MatchesStreamingCrhf) {
  std::mt19937_64 rng(0x5a17u);
  for (uint64_t salt : {uint64_t{0}, uint64_t{0xdeadbeef}, rng()}) {
    // output_bits=64: HashU64 returns the untruncated first-8-bytes word,
    // exactly what the raw kernel emits.
    const crypto::Sha256Crhf crhf(salt, 64);
    uint64_t items[8];
    uint64_t out[8];
    for (int round = 0; round < 16; ++round) {
      for (auto& it : items) it = rng();
      if (round == 0) items[0] = 0;
      for (const auto* k : simd::AvailableKernels()) {
        k->sha256_salted8(salt, items, out);
        for (int i = 0; i < 8; ++i) {
          ASSERT_EQ(out[i], crhf.HashU64(items[i]))
              << k->name << " salt=" << salt << " lane=" << i;
        }
      }
    }
  }
}

TEST(KernelSimdTest, HashU64x8HonorsTruncation) {
  const crypto::Sha256Crhf crhf(42, 20);  // truncated universe
  uint64_t items[8];
  uint64_t out[8];
  for (int i = 0; i < 8; ++i) items[i] = uint64_t(i) * 0x9e3779b97f4a7c15ULL;
  crhf.HashU64x8(items, out);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(out[i], crhf.HashU64(items[i]));
    EXPECT_LT(out[i], uint64_t{1} << 20);
  }
}

// --------------------------------------------------------------- CRC-32 --

/// Bitwise CRC-32 (IEEE, reflected): the definition every table's crc32
/// entry must match.
uint32_t BitwiseCrc32(const uint8_t* p, size_t len) {
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < len; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xedb88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xffffffffu;
}

TEST(KernelSimdTest, Crc32MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  // Lengths 0..1,100 drive the four-lane fold (64 bytes a step), the
  // one-lane fold, every len % 16 remainder and every slicing-by-8 tail;
  // offsets 0..15 start the input at every position of a 16-byte block.
  // Each input ends exactly where its heap allocation ends, so ASan
  // reports any read past it.
  constexpr size_t kMaxLen = 1100;
  std::mt19937_64 rng(0xc3c32u);
  std::vector<uint8_t> source(16 + kMaxLen);
  for (auto& b : source) b = uint8_t(rng());
  const auto kernels = simd::AvailableKernels();
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t len = 0; len <= kMaxLen; ++len) {
      const auto buf = std::make_unique<uint8_t[]>(offset + len);
      std::memcpy(buf.get(), source.data(), offset + len);
      const uint8_t* p = buf.get() + offset;
      const uint32_t want = BitwiseCrc32(p, len);
      for (const auto* k : kernels) {
        ASSERT_EQ(k->crc32(p, len), want)
            << k->name << " offset " << offset << " len " << len;
      }
    }
  }
  const char kCheck[] = "123456789";
  for (const auto* k : kernels) {
    EXPECT_EQ(k->crc32(kCheck, 9), 0xCBF43926u) << k->name;
    EXPECT_EQ(k->crc32(nullptr, 0), 0u) << k->name;
  }
}

// -------------------------------------------- engine-level forced dispatch --

// Deterministic insertion-only stream legal for all six families.
stream::TurnstileStream SkewedStream(uint64_t universe, size_t n) {
  std::mt19937_64 rng(0xfeedu);
  stream::TurnstileStream s;
  s.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    // Zipf-ish: frequent small items plus a uniform tail.
    const uint64_t item =
        (i % 3 == 0) ? (rng() % 8) : (rng() % universe);
    s.push_back({item, int64_t(1 + rng() % 3)});
  }
  return s;
}

std::string Fingerprint(const engine::SketchSummary& s) {
  std::string fp = s.sketch + "|updates=" + std::to_string(s.updates);
  if (s.has_scalar) {
    // Bit-exact double comparison: same kernel words => same estimate bits.
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(s.scalar));
    std::memcpy(&bits, &s.scalar, sizeof(bits));
    fp += "|scalar=" + std::to_string(bits);
  }
  for (const auto& it : s.items) {
    uint64_t bits;
    std::memcpy(&bits, &it.estimate, sizeof(bits));
    fp += "|" + std::to_string(it.item) + ":" + std::to_string(bits);
  }
  return fp;
}

TEST(KernelSimdEngineTest, AllSixFamiliesBitIdenticalUnderForcedDispatch) {
  const std::vector<std::string> families = {"misra_gries", "ams_f2",
                                             "sis_l0",      "rank_decision",
                                             "robust_hh",   "crhf_hh"};
  engine::SketchConfig cfg;
  cfg.universe = uint64_t{1} << 12;
  cfg.seed = 99;
  const stream::TurnstileStream stream = SkewedStream(cfg.universe, 4096);

  std::vector<std::string> reference;  // fingerprints under forced scalar
  for (const auto* k : simd::AvailableKernels()) {
    ForcedKernel forced(k->name);
    // 2 shards exercises the SIMD scatter path; inline appliers keep the
    // run single-threaded and deterministic.
    auto client = engine::MakeClient(families, cfg, 2, 0);
    ASSERT_NE(client, nullptr);
    ASSERT_TRUE(engine::Replay(client.get(), stream, 512,
                               engine::ReplayChurn::kDisabled)
                    .ok());
    std::vector<std::string> fps;
    for (const auto& f : families) {
      auto handle = client->Handle(f);
      ASSERT_TRUE(handle.ok()) << f;
      auto summary = client->RawSummary(handle.value());
      ASSERT_TRUE(summary.ok()) << f;
      fps.push_back(Fingerprint(summary.value()));
    }
    if (reference.empty()) {
      reference = std::move(fps);
    } else {
      for (size_t i = 0; i < families.size(); ++i) {
        EXPECT_EQ(fps[i], reference[i])
            << families[i] << " diverges under kernel " << k->name;
      }
    }
  }
}

// ----------------------------------------------- BarrettQ modulus bounds --

TEST(BarrettBoundsTest, MakeAcceptsFullLegalRange) {
  ASSERT_TRUE(BarrettQ::Make(2).ok());
  ASSERT_TRUE(BarrettQ::Make(BarrettQ::kMaxModulus).ok());
}

TEST(BarrettBoundsTest, MakeRejectsOutOfRange) {
  for (uint64_t bad : {uint64_t{0}, uint64_t{1}, uint64_t{1} << 62,
                       (uint64_t{1} << 62) + 12345, ~uint64_t{0}}) {
    auto r = BarrettQ::Make(bad);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument) << bad;
  }
}

TEST(BarrettBoundsTest, BoundaryModulusReducesExactly) {
  // At the very top of the legal range every intermediate in MulMod is as
  // large as it can get; pin the result against u128 arithmetic.
  const uint64_t q = BarrettQ::kMaxModulus;
  auto bq = BarrettQ::Make(q);
  ASSERT_TRUE(bq.ok());
  std::mt19937_64 rng(3);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t a = rng() % q;
    const uint64_t b = rng() % q;
    ASSERT_EQ(bq.value().MulMod(a, b), uint64_t(u128(a) * b % q));
    ASSERT_EQ(bq.value().AddMod(a, b), uint64_t((u128(a) + b) % q));
  }
  // q - 1 squared is the single largest product.
  ASSERT_EQ(bq.value().MulMod(q - 1, q - 1),
            uint64_t(u128(q - 1) * (q - 1) % q));
}

}  // namespace
}  // namespace wbs
