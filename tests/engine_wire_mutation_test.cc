// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// Hostile bytes against the decoders that read untrusted input. Seeded,
// structure-aware mutations of valid wire inputs — an apply request, every
// builtin family's state frame, a hello that carries a shard spec, and a
// metrics response — go to DecodeFrame, DecodeUpdates, DeserializeSketch,
// DecodeHello and DecodeMetricSamples. Each decoder must return OK or a
// Status: never crash, never read outside its buffer (the ASan+UBSan CI
// job runs this suite). A mutated frame body is re-sealed — its length and
// CRC recomputed — so the mutation reaches the decoder, not the checksum.
//
// Mutations: bit flips, byte sets, truncation, extension, and every u32 and
// u64 at every offset of a body overwritten with 0, its own value +-1,
// 2^31, 2^32-1 and 2^64-1, which covers each length and count field. Seeds
// and counts are fixed.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "engine/backend.h"
#include "engine/metrics.h"
#include "engine/registry.h"
#include "engine/sketch.h"
#include "engine/tcp_transport.h"
#include "engine/wire.h"

namespace wbs::engine {
namespace {

/// A frame around `body` (version byte + type byte + payload) with its
/// length and checksum recomputed.
std::string Seal(std::string_view body) {
  wire::Writer w;
  w.U32(uint32_t(body.size()));
  w.Bytes(body.data(), body.size());
  w.U32(wire::Crc32(body.data(), body.size()));
  return w.Take();
}

/// The body (version byte + type byte + payload) of a well-formed frame.
std::string BodyOf(const std::string& frame) {
  return frame.substr(4, frame.size() - 8);
}

/// One valid input and the decoder chain its receiver runs on it.
struct Target {
  std::string name;
  std::string frame;
  std::function<Status(std::string_view frame)> decode;
};

/// What one batch of mutations did to a target.
struct Tally {
  size_t fed = 0;
  size_t rejected = 0;
  size_t checksum_rejects = 0;  ///< must stay 0 for re-sealed frames
};

void Feed(const Target& t, const std::string& frame, Tally* tally) {
  const Status s = t.decode(frame);
  ++tally->fed;
  if (!s.ok()) {
    ++tally->rejected;
    if (s.message().find("checksum") != std::string::npos) {
      ++tally->checksum_rejects;
    }
  }
}

/// Overwrites the width-byte little-endian word at `offset`.
void PutWord(std::string* s, size_t offset, size_t width, uint64_t v) {
  for (size_t i = 0; i < width; ++i) (*s)[offset + i] = char(v >> (8 * i));
}

uint64_t GetWord(const std::string& s, size_t offset, size_t width) {
  uint64_t v = 0;
  for (size_t i = 0; i < width; ++i) {
    v |= uint64_t(uint8_t(s[offset + i])) << (8 * i);
  }
  return v;
}

/// Every u32 and u64 at every offset of the body, overwritten with each
/// hostile value, re-sealed.
Tally OverwriteFields(const Target& t) {
  const std::string body = BodyOf(t.frame);
  Tally tally;
  for (size_t width : {size_t{4}, size_t{8}}) {
    for (size_t off = 0; off + width <= body.size(); ++off) {
      const uint64_t truth = GetWord(body, off, width);
      for (uint64_t v : {uint64_t{0}, truth - 1, truth + 1, uint64_t{1} << 31,
                         uint64_t{0xffffffff}, ~uint64_t{0}}) {
        std::string m = body;
        PutWord(&m, off, width, v);
        Feed(t, Seal(m), &tally);
      }
    }
  }
  return tally;
}

/// One to three stacked random edits: a bit flip, a byte set, a truncation
/// or an extension.
std::string RandomEdits(std::string s, std::mt19937_64& rng) {
  const int edits = 1 + int(rng() % 3);
  for (int e = 0; e < edits; ++e) {
    switch (rng() % 4) {
      case 0:
        if (!s.empty()) s[rng() % s.size()] ^= char(1u << (rng() % 8));
        break;
      case 1:
        if (!s.empty()) s[rng() % s.size()] = char(rng());
        break;
      case 2:
        s.resize(s.empty() ? 0 : rng() % s.size());
        break;
      default:
        for (size_t n = 1 + rng() % 16; n > 0; --n) s.push_back(char(rng()));
        break;
    }
  }
  return s;
}

/// Random edits of the body, re-sealed.
Tally RandomBodyEdits(const Target& t, uint64_t seed, int rounds) {
  std::mt19937_64 rng(seed);
  const std::string body = BodyOf(t.frame);
  Tally tally;
  for (int i = 0; i < rounds; ++i) {
    Feed(t, Seal(RandomEdits(body, rng)), &tally);
  }
  return tally;
}

/// Random edits of the whole frame, not re-sealed: DecodeFrame's own length
/// and checksum checks are the target.
Tally RandomFrameEdits(const Target& t, uint64_t seed, int rounds) {
  std::mt19937_64 rng(seed);
  Tally tally;
  for (int i = 0; i < rounds; ++i) Feed(t, RandomEdits(t.frame, rng), &tally);
  return tally;
}

// ---- the valid inputs ------------------------------------------------------

SketchConfig HarnessConfig() {
  SketchConfig cfg;
  cfg.universe = uint64_t{1} << 12;
  cfg.seed = 11;
  cfg.shard_seed = 12;
  cfg.misra_gries.counters = 8;
  cfg.ams.rows = 8;
  cfg.rank.n = 8;
  cfg.rank.k = 2;
  return cfg;
}

std::vector<stream::TurnstileUpdate> SeededUpdates(size_t n, uint64_t seed,
                                                   bool insertion_only) {
  std::mt19937_64 rng(seed);
  std::vector<stream::TurnstileUpdate> out(n);
  for (auto& u : out) {
    u.item = rng() % 64;
    u.delta = insertion_only ? int64_t(1 + rng() % 3) : int64_t(rng() % 7) - 3;
  }
  return out;
}

Target ApplyTarget() {
  const auto batch = SeededUpdates(24, 0xa991, false);
  wire::Writer w;
  w.U64(5);  // apply sequence
  wire::EncodeUpdates(batch.data(), batch.size(), &w);
  return {"apply", wire::EncodeFrame(wire::kReqApplySeq, w.data()),
          [](std::string_view frame) {
            uint8_t type = 0;
            std::string_view payload;
            Status s = wire::DecodeFrame(frame, &type, &payload);
            if (!s.ok()) return s;
            wire::Reader r(payload);
            uint64_t seq = 0;
            std::vector<stream::TurnstileUpdate> updates;
            if (s = r.U64(&seq); !s.ok()) return s;
            if (s = wire::DecodeUpdates(&r, &updates); !s.ok()) return s;
            return r.ExpectEnd();
          }};
}

Target StateTarget(const std::string& family) {
  const SketchConfig cfg = HarnessConfig();
  auto sketch = SketchRegistry::Global().Create(family, cfg);
  EXPECT_TRUE(sketch.ok()) << family << ": " << sketch.status().ToString();
  // Turnstile updates for the families that take deletions.
  const bool turnstile = family == "ams_f2" || family == "sis_l0" ||
                         family == "rank_decision";
  const auto updates = SeededUpdates(200, 0x57a7e, !turnstile);
  for (const auto& u : updates) {
    stream::TurnstileUpdate v = u;
    // rank_decision reads an item as a (row, col) entry of its n x n matrix.
    if (family == "rank_decision") v.item %= cfg.rank.n * cfg.rank.n;
    EXPECT_TRUE(sketch.value()->Update(v).ok()) << family;
  }
  auto frame = SerializeSketch(*sketch.value());
  EXPECT_TRUE(frame.ok()) << family;
  return {family, frame.value(), [family, cfg](std::string_view frame) {
            auto restored = DeserializeSketch(family, cfg, std::string(frame));
            if (!restored.ok()) return restored.status();
            // An accepted state must also answer and re-serialize.
            (void)restored.value()->Summary();
            return SerializeSketch(*restored.value()).status();
          }};
}

Target HelloTarget() {
  TcpHello hello;
  hello.channel = 1;
  hello.session_token = 0x70c3;
  hello.shard_id = 3;
  hello.has_spec = true;
  hello.spec.sketches = {"misra_gries", "sis_l0", "crhf_hh"};
  hello.spec.config = HarnessConfig();
  hello.spec.snapshot_min_updates = 64;
  wire::Writer w;
  EncodeHello(hello, &w);
  return {"hello", wire::EncodeFrame(wire::kReqHello, w.data()),
          [](std::string_view frame) {
            uint8_t type = 0;
            std::string_view payload;
            Status s = wire::DecodeFrame(frame, &type, &payload);
            if (!s.ok()) return s;
            wire::Reader r(payload);
            TcpHello out;
            if (s = DecodeHello(&r, &out); !s.ok()) return s;
            return r.ExpectEnd();
          }};
}

Target MetricsTarget() {
  std::vector<MetricSample> samples(3);
  samples[0].name = "engine.shard.0.updates_total";
  samples[0].kind = MetricKind::kCounter;
  samples[0].value = 12345;
  samples[1].name = "engine.shard.0.epoch";
  samples[1].kind = MetricKind::kGauge;
  samples[1].value = 7;
  samples[2].name = "engine.shard.0.serialize_us";
  samples[2].kind = MetricKind::kHistogram;
  samples[2].count = 6;
  samples[2].sum = 90;
  samples[2].buckets.assign(Histogram::kBuckets, 0);
  samples[2].buckets[3] = 2;
  samples[2].buckets[5] = 4;
  wire::Writer w;
  wire::EncodeStatus(Status::OK(), &w);
  wire::EncodeMetricSamples(samples, &w);
  return {"metrics", wire::EncodeFrame(wire::kResp, w.data()),
          [](std::string_view frame) {
            uint8_t type = 0;
            std::string_view payload;
            Status s = wire::DecodeFrame(frame, &type, &payload);
            if (!s.ok()) return s;
            wire::Reader r(payload);
            Status remote;
            std::vector<MetricSample> out;
            if (s = wire::DecodeStatus(&r, &remote); !s.ok()) return s;
            if (s = wire::DecodeMetricSamples(&r, &out); !s.ok()) return s;
            return r.ExpectEnd();
          }};
}

std::vector<Target> AllTargets() {
  std::vector<Target> targets = {ApplyTarget(), HelloTarget(),
                                 MetricsTarget()};
  for (const char* family : {"misra_gries", "ams_f2", "sis_l0",
                             "rank_decision", "robust_hh", "crhf_hh"}) {
    targets.push_back(StateTarget(family));
  }
  return targets;
}

// ---- the harness -----------------------------------------------------------

TEST(WireMutationTest, ValidInputsDecode) {
  for (const Target& t : AllTargets()) {
    EXPECT_TRUE(t.decode(t.frame).ok()) << t.name;
  }
}

TEST(WireMutationTest, OverwrittenFieldsReachTheDecoders) {
  for (const Target& t : AllTargets()) {
    const Tally tally = OverwriteFields(t);
    // Re-sealed, so no mutation may die at the checksum, and the decoder
    // must reject some of them (a truncating count, a foreign name, ...).
    EXPECT_EQ(tally.checksum_rejects, 0u) << t.name;
    EXPECT_GT(tally.rejected, 0u) << t.name;
    EXPECT_LT(tally.rejected, tally.fed) << t.name;
  }
}

TEST(WireMutationTest, RandomBodyEditsReachTheDecoders) {
  uint64_t seed = 0xb0d1;
  for (const Target& t : AllTargets()) {
    const Tally tally = RandomBodyEdits(t, seed++, 1500);
    EXPECT_EQ(tally.checksum_rejects, 0u) << t.name;
    EXPECT_GT(tally.rejected, 0u) << t.name;
  }
}

TEST(WireMutationTest, UnsealedFrameEditsNeverCrashDecodeFrame) {
  uint64_t seed = 0xf4a3e;
  for (const Target& t : AllTargets()) {
    const Tally tally = RandomFrameEdits(t, seed++, 1500);
    EXPECT_GT(tally.rejected, 0u) << t.name;
  }
}

TEST(WireMutationTest, EverySingleBitFlipFailsTheChecksum) {
  // CRC-32 detects every single-bit error, so an unsealed flip anywhere in
  // the body must be a checksum rejection, never a decoder's problem.
  for (const Target& t : AllTargets()) {
    for (size_t byte = 4; byte + 4 < t.frame.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string m = t.frame;
        m[byte] ^= char(1 << bit);
        const Status s = t.decode(m);
        ASSERT_FALSE(s.ok()) << t.name << " byte " << byte << " bit " << bit;
        ASSERT_NE(s.message().find("checksum"), std::string::npos)
            << t.name << ": " << s.ToString();
      }
    }
  }
}

}  // namespace
}  // namespace wbs::engine
