// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// The engine wire format: primitive and frame round trips, corruption /
// truncation / version-byte rejection, and — for every builtin sketch
// family — serialize → deserialize → Summary() bit-identity on Zipf,
// planted-heavy-hitter, and churn workloads. Corrupted or truncated state
// must come back as a Status error, never a crash or a silent accept.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "engine/backend.h"
#include "engine/registry.h"
#include "engine/sketch.h"
#include "engine/wire.h"
#include "stream/workload.h"

namespace wbs::engine {
namespace {

// ---------------------------------------------------------- primitives --

TEST(WirePrimitivesTest, RoundTripAndBitExactDoubles) {
  wire::Writer w;
  w.U8(0xab);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefULL);
  w.I64(-42);
  w.F64(0.1);  // not exactly representable: must survive bit-for-bit
  w.F64(-0.0);
  w.Str("hello");

  wire::Reader r(w.data());
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  int64_t i64;
  double d1, d2;
  std::string s;
  ASSERT_TRUE(r.U8(&u8).ok());
  ASSERT_TRUE(r.U32(&u32).ok());
  ASSERT_TRUE(r.U64(&u64).ok());
  ASSERT_TRUE(r.I64(&i64).ok());
  ASSERT_TRUE(r.F64(&d1).ok());
  ASSERT_TRUE(r.F64(&d2).ok());
  ASSERT_TRUE(r.Str(&s).ok());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(d1, 0.1);
  EXPECT_TRUE(d2 == 0.0 && std::signbit(d2));
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(r.ExpectEnd().ok());
}

TEST(WirePrimitivesTest, TruncatedReadsAreErrorsNotCrashes) {
  wire::Writer w;
  w.U32(7);
  {
    wire::Reader r(w.data());
    uint64_t v;
    EXPECT_FALSE(r.U64(&v).ok());  // only 4 bytes available
  }
  {
    // String length prefix claims more bytes than the buffer holds.
    wire::Writer lying;
    lying.U32(1000);
    lying.Bytes("xy", 2);
    wire::Reader r(lying.data());
    std::string s;
    EXPECT_FALSE(r.Str(&s).ok());
  }
}

// --------------------------------------------------------------- frames --

TEST(WireFrameTest, RoundTrip) {
  const std::string payload = "some payload bytes";
  std::string frame = wire::EncodeFrame(wire::kUpdateBatch, payload);
  uint8_t type;
  std::string_view got;
  ASSERT_TRUE(wire::DecodeFrame(frame, &type, &got).ok());
  EXPECT_EQ(type, wire::kUpdateBatch);
  EXPECT_EQ(got, payload);
}

TEST(WireFrameTest, EveryFlippedByteIsRejected) {
  std::string frame = wire::EncodeFrame(wire::kSketchState, "payload-data");
  for (size_t pos = 0; pos < frame.size(); ++pos) {
    std::string corrupted = frame;
    corrupted[pos] = char(corrupted[pos] ^ 0x40);
    uint8_t type;
    std::string_view payload;
    EXPECT_FALSE(wire::DecodeFrame(corrupted, &type, &payload).ok())
        << "flip at byte " << pos << " went undetected";
  }
}

TEST(WireFrameTest, TruncatedFrameIsRejected) {
  std::string frame = wire::EncodeFrame(wire::kSketchState, "payload-data");
  for (size_t len = 0; len < frame.size(); ++len) {
    uint8_t type;
    std::string_view payload;
    EXPECT_FALSE(
        wire::DecodeFrame(std::string_view(frame).substr(0, len), &type,
                          &payload)
            .ok())
        << "prefix of length " << len << " accepted";
  }
}

TEST(WireFrameTest, WrongFormatVersionIsRejectedWithVersionError) {
  std::string frame = wire::EncodeFrame(wire::kSketchState, "payload");
  // Patch the version byte AND recompute the checksum, so the version check
  // (not the CRC) is what rejects the frame.
  frame[4] = char(wire::kFormatVersion + 1);
  const size_t body_len = frame.size() - 8;
  uint32_t crc = wire::Crc32(frame.data() + 4, body_len);
  for (int i = 0; i < 4; ++i) {
    frame[frame.size() - 4 + size_t(i)] = char(crc >> (8 * i));
  }
  uint8_t type;
  std::string_view payload;
  Status s = wire::DecodeFrame(frame, &type, &payload);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("version"), std::string::npos) << s.ToString();
}

// --------------------------------------------------------------- CRC-32 --

/// Bitwise CRC-32 (IEEE, reflected): the reference the table-driven
/// wire::Crc32 must match at every length and alignment.
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

TEST(WireCrc32Test, KnownAnswers) {
  EXPECT_EQ(wire::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(wire::Crc32("", 0), 0u);
  EXPECT_EQ(wire::Crc32(nullptr, 0), 0u);
}

TEST(WireCrc32Test, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  uint64_t state = 0xc5c32;
  std::vector<uint8_t> buf(8 + 100);
  for (int round = 0; round < 4; ++round) {
    for (uint8_t& b : buf) b = uint8_t(SplitMix64(&state));
    for (size_t offset = 0; offset < 8; ++offset) {
      for (size_t len = 0; len <= 100; ++len) {
        const uint8_t* p = buf.data() + offset;
        ASSERT_EQ(wire::Crc32(p, len), BitwiseCrc32(p, len))
            << "round " << round << " offset " << offset << " len " << len;
      }
    }
  }
}

TEST(WireCrc32Test, GoldenFrameBytesAreStable) {
  // Running engine_shardd daemons accept exactly these bytes: a change to
  // the checksum or the frame layout must bump kFormatVersion, not
  // silently alter them.
  ASSERT_EQ(wire::kFormatVersion, 1);
  const std::vector<stream::TurnstileUpdate> updates{{7, 1}, {9, -1}};
  wire::Writer w;
  wire::EncodeUpdates(updates.data(), updates.size(), &w);
  const std::string frame = wire::EncodeFrame(wire::kUpdateBatch, w.data());
  static const char kGoldenHex[] =
      "2a00000001020200000000000000070000000000000001000000000000000900"
      "000000000000ffffffffffffffffc0d05d6b";
  std::string hex;
  for (unsigned char c : frame) {
    static const char kDigits[] = "0123456789abcdef";
    hex += kDigits[c >> 4];
    hex += kDigits[c & 0xf];
  }
  EXPECT_EQ(hex, kGoldenHex);
}

TEST(WireCrc32Test, SeededApplyFrameChecksumIsStable) {
  // A 65,562-byte kReqApplySeq frame of 4,096 seeded updates, whose
  // checksum runs the carry-less-multiply fold's four-lane loop. Size and
  // CRC were recorded with the slicing-by-8 checksum and the per-word
  // codecs, before the update batch moved as one block.
  uint64_t state = 20261020;
  std::vector<stream::TurnstileUpdate> batch(4096);
  for (auto& u : batch) {
    u.item = SplitMix64(&state) % (uint64_t{1} << 20);
    u.delta = int64_t(SplitMix64(&state) % 7) - 3;
  }
  wire::Writer w;
  w.U64(7);
  wire::EncodeUpdates(batch.data(), batch.size(), &w);
  const std::string frame = wire::EncodeFrame(wire::kReqApplySeq, w.data());
  ASSERT_EQ(frame.size(), 65562u);
  uint32_t crc = 0;
  std::memcpy(&crc, frame.data() + frame.size() - 4, sizeof(crc));
  EXPECT_EQ(crc, 0x16c0c3fau);
  EXPECT_EQ(wire::Crc32(frame.data() + 4, frame.size() - 8), 0x16c0c3fau);
}

TEST(WireCodecTest, UpdateBatchRoundTrip) {
  std::vector<stream::TurnstileUpdate> in{{1, 5}, {42, -3}, {7, 0}};
  wire::Writer w;
  wire::EncodeUpdates(in.data(), in.size(), &w);
  wire::Reader r(w.data());
  std::vector<stream::TurnstileUpdate> out;
  ASSERT_TRUE(wire::DecodeUpdates(&r, &out).ok());
  ASSERT_TRUE(r.ExpectEnd().ok());
  ASSERT_EQ(out.size(), in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].item, in[i].item);
    EXPECT_EQ(out[i].delta, in[i].delta);
  }
}

TEST(WireCodecTest, StatusRoundTrip) {
  for (const Status& in :
       {Status::OK(), Status::InvalidArgument("bad arg"),
        Status::ResourceExhausted("valve"), Status::Unimplemented("nope")}) {
    wire::Writer w;
    wire::EncodeStatus(in, &w);
    wire::Reader r(w.data());
    Status out;
    ASSERT_TRUE(wire::DecodeStatus(&r, &out).ok());
    EXPECT_EQ(out.code(), in.code());
    EXPECT_EQ(out.message(), in.message());
  }
}

// ---------------------------------------------- sketch state round trips --

SketchConfig WireTestConfig(uint64_t universe, uint64_t seed) {
  SketchConfig cfg;
  cfg.universe = universe;
  cfg.seed = seed;
  cfg.shard_seed = seed * 31 + 7;
  cfg.rank.n = 16;
  cfg.rank.k = 4;
  return cfg;
}

std::unique_ptr<Sketch> MakeSketch(const std::string& name,
                                   const SketchConfig& cfg) {
  auto sketch = SketchRegistry::Global().Create(name, cfg);
  EXPECT_TRUE(sketch.ok()) << sketch.status().ToString();
  return std::move(sketch).value();
}

void ApplyStream(Sketch* sketch, const stream::TurnstileStream& s,
                 size_t batch = 512) {
  for (size_t off = 0; off < s.size(); off += batch) {
    UpdateBatch b;
    b.data = s.data() + off;
    b.size = std::min(batch, s.size() - off);
    ASSERT_TRUE(sketch->ApplyBatch(b).ok());
  }
}

void ExpectSummariesIdentical(const SketchSummary& got,
                              const SketchSummary& want,
                              const std::string& context) {
  EXPECT_EQ(got.sketch, want.sketch) << context;
  EXPECT_EQ(got.has_scalar, want.has_scalar) << context;
  EXPECT_EQ(got.scalar, want.scalar) << context;
  EXPECT_EQ(got.updates, want.updates) << context;
  ASSERT_EQ(got.items.size(), want.items.size()) << context;
  for (size_t i = 0; i < got.items.size(); ++i) {
    EXPECT_EQ(got.items[i].item, want.items[i].item) << context;
    EXPECT_EQ(got.items[i].estimate, want.items[i].estimate) << context;
  }
}

/// serialize → deserialize → Summary() must be bit-identical to the
/// original's Summary() for every family, on every workload shape.
void CheckRoundTrip(const std::string& name, const SketchConfig& cfg,
                    const stream::TurnstileStream& s,
                    const std::string& context) {
  auto original = MakeSketch(name, cfg);
  ApplyStream(original.get(), s);

  auto frame = SerializeSketch(*original);
  ASSERT_TRUE(frame.ok()) << name << ": " << frame.status().ToString();
  auto restored = DeserializeSketch(name, cfg, frame.value());
  ASSERT_TRUE(restored.ok()) << name << ": " << restored.status().ToString();

  ExpectSummariesIdentical(restored.value()->Summary(), original->Summary(),
                           name + " on " + context);

  // A restored sketch must also merge like the original's snapshot clone:
  // fold both into fresh accumulators and compare those too.
  auto via_original = MakeSketch(name, cfg);
  auto via_restored = MakeSketch(name, cfg);
  ASSERT_TRUE(via_original->MergeFrom(*original).ok()) << name;
  ASSERT_TRUE(via_restored->MergeFrom(*restored.value()).ok()) << name;
  ExpectSummariesIdentical(via_restored->Summary(), via_original->Summary(),
                           name + " merged, on " + context);
}

stream::TurnstileStream ZipfTurnstile(uint64_t universe, size_t n,
                                      uint64_t seed) {
  wbs::RandomTape tape(seed);
  tape.set_logging(false);
  auto items = stream::ZipfStream(universe, n, 1.2, &tape);
  stream::TurnstileStream s;
  s.reserve(items.size());
  for (const auto& u : items) s.push_back({u.item, 1});
  return s;
}

TEST(SketchStateRoundTripTest, AllFamiliesOnZipf) {
  const SketchConfig cfg = WireTestConfig(1 << 12, 17);
  auto zipf = ZipfTurnstile(1 << 12, 20000, 51);
  for (const char* name :
       {"misra_gries", "ams_f2", "sis_l0", "robust_hh", "crhf_hh"}) {
    CheckRoundTrip(name, cfg, zipf, "zipf");
  }
}

TEST(SketchStateRoundTripTest, AllFamiliesOnPlantedHeavyHitters) {
  const uint64_t universe = 1 << 14;
  const SketchConfig cfg = WireTestConfig(universe, 23);
  wbs::RandomTape tape(52);
  tape.set_logging(false);
  std::vector<uint64_t> planted;
  auto items = stream::PlantedHeavyHitterStream(universe, 20000, 3, 0.2,
                                                &tape, &planted);
  stream::TurnstileStream s;
  s.reserve(items.size());
  for (const auto& u : items) s.push_back({u.item, 1});
  for (const char* name :
       {"misra_gries", "ams_f2", "sis_l0", "robust_hh", "crhf_hh"}) {
    CheckRoundTrip(name, cfg, s, "planted");
  }
}

TEST(SketchStateRoundTripTest, TurnstileFamiliesOnChurn) {
  const uint64_t universe = 1 << 12;
  const SketchConfig cfg = WireTestConfig(universe, 29);
  wbs::RandomTape tape(53);
  tape.set_logging(false);
  auto s = stream::InsertDeleteChurnStream(universe, 120, 2500, &tape);
  for (const char* name : {"ams_f2", "sis_l0"}) {
    CheckRoundTrip(name, cfg, s, "churn");
  }
}

TEST(SketchStateRoundTripTest, RankDecision) {
  SketchConfig cfg = WireTestConfig(1 << 10, 31);
  stream::TurnstileStream diag;
  for (size_t i = 0; i < cfg.rank.k; ++i) {
    diag.push_back({uint64_t(i) * cfg.rank.n + i, 1});
  }
  diag.push_back({3, 5});
  diag.push_back({3, -5});  // cancelling turnstile pair
  CheckRoundTrip("rank_decision", cfg, diag, "diagonal");
}

TEST(SketchStateRoundTripTest, FreshSketchRoundTrips) {
  const SketchConfig cfg = WireTestConfig(1 << 10, 37);
  for (const char* name : {"misra_gries", "ams_f2", "sis_l0",
                           "rank_decision", "robust_hh", "crhf_hh"}) {
    CheckRoundTrip(name, cfg, {}, "empty stream");
  }
}

// ------------------------------------------------- hostile state inputs --

TEST(SketchStateValidationTest, CorruptedByteIsRejectedForEveryFamily) {
  const SketchConfig cfg = WireTestConfig(1 << 12, 41);
  auto zipf = ZipfTurnstile(1 << 12, 4000, 54);
  for (const char* name : {"misra_gries", "ams_f2", "sis_l0", "robust_hh"}) {
    auto sketch = MakeSketch(name, cfg);
    ApplyStream(sketch.get(), zipf);
    auto frame = SerializeSketch(*sketch);
    ASSERT_TRUE(frame.ok()) << name;
    std::string corrupted = frame.value();
    // Flip a byte in the middle of the state payload: the frame checksum
    // must catch it before any family-level decoding runs.
    corrupted[corrupted.size() / 2] ^= 0x10;
    auto restored = DeserializeSketch(name, cfg, corrupted);
    EXPECT_FALSE(restored.ok()) << name;
  }
}

TEST(SketchStateValidationTest, TruncatedStateIsRejected) {
  const SketchConfig cfg = WireTestConfig(1 << 12, 43);
  auto zipf = ZipfTurnstile(1 << 12, 4000, 55);
  auto sketch = MakeSketch("ams_f2", cfg);
  ApplyStream(sketch.get(), zipf);
  auto frame = SerializeSketch(*sketch);
  ASSERT_TRUE(frame.ok());
  for (size_t keep : {size_t(0), size_t(6), frame.value().size() / 2,
                      frame.value().size() - 1}) {
    auto restored =
        DeserializeSketch("ams_f2", cfg, frame.value().substr(0, keep));
    EXPECT_FALSE(restored.ok()) << "kept " << keep << " bytes";
  }
}

TEST(SketchStateValidationTest, ForeignSketchNameIsRejected) {
  const SketchConfig cfg = WireTestConfig(1 << 12, 47);
  auto ams = MakeSketch("ams_f2", cfg);
  auto frame = SerializeSketch(*ams);
  ASSERT_TRUE(frame.ok());
  // ams_f2 state offered to a misra_gries instance: name check fires.
  auto restored = DeserializeSketch("misra_gries", cfg, frame.value());
  EXPECT_FALSE(restored.ok());
}

TEST(SketchStateValidationTest, MismatchedSharedRandomnessIsRejected) {
  const SketchConfig cfg_a = WireTestConfig(1 << 12, 49);
  SketchConfig cfg_b = cfg_a;
  cfg_b.seed = cfg_a.seed + 1;  // different sign matrix / oracle
  auto zipf = ZipfTurnstile(1 << 12, 2000, 56);
  for (const char* name : {"ams_f2", "sis_l0", "rank_decision"}) {
    auto sketch = MakeSketch(name, cfg_a);
    if (std::string(name) != "rank_decision") {
      ApplyStream(sketch.get(), zipf);
    }
    auto frame = SerializeSketch(*sketch);
    ASSERT_TRUE(frame.ok()) << name;
    auto restored = DeserializeSketch(name, cfg_b, frame.value());
    EXPECT_FALSE(restored.ok())
        << name << ": state from a different seed was accepted";
  }
}

TEST(SketchStateValidationTest, SisStateOutOfRangeOrMisSizedIsRejected) {
  // Past the frame checksum: a re-framed sis_l0 payload whose last residue
  // is not reduced mod q, or whose residue count is off by one, fails.
  const SketchConfig cfg = WireTestConfig(1 << 12, 57);
  auto sketch = MakeSketch("sis_l0", cfg);
  ApplyStream(sketch.get(), ZipfTurnstile(1 << 12, 2000, 58));
  auto frame = SerializeSketch(*sketch);
  ASSERT_TRUE(frame.ok());
  uint8_t type;
  std::string_view payload;
  ASSERT_TRUE(wire::DecodeFrame(frame.value(), &type, &payload).ok());
  auto restore = [&](const std::string& p) {
    return DeserializeSketch("sis_l0", cfg,
                             wire::EncodeFrame(wire::kSketchState, p));
  };
  ASSERT_TRUE(restore(std::string(payload)).ok());
  std::string unreduced(payload);
  for (size_t i = unreduced.size() - 8; i < unreduced.size(); ++i) {
    unreduced[i] = char(0xff);
  }
  EXPECT_FALSE(restore(unreduced).ok());
  EXPECT_FALSE(restore(std::string(payload.substr(0, payload.size() - 8)))
                   .ok());
  EXPECT_FALSE(restore(std::string(payload) + std::string(8, '\0')).ok());
}

TEST(SketchStateValidationTest, WrongStateVersionByteIsRejected) {
  const SketchConfig cfg = WireTestConfig(1 << 12, 53);
  auto sketch = MakeSketch("ams_f2", cfg);
  auto frame = SerializeSketch(*sketch);
  ASSERT_TRUE(frame.ok());
  // Decode the frame, bump the per-family state-version byte (right after
  // the name), and re-frame so the checksum stays valid.
  uint8_t type;
  std::string_view payload;
  ASSERT_TRUE(wire::DecodeFrame(frame.value(), &type, &payload).ok());
  std::string patched(payload);
  const size_t version_pos = 4 + std::string("ams_f2").size();
  ASSERT_LT(version_pos, patched.size());
  patched[version_pos] = char(patched[version_pos] + 1);
  std::string reframed = wire::EncodeFrame(wire::kSketchState, patched);
  auto restored = DeserializeSketch("ams_f2", cfg, reframed);
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.status().message().find("version"), std::string::npos)
      << restored.status().ToString();
}

}  // namespace
}  // namespace wbs::engine
