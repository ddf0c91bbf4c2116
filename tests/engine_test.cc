// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// The sharded ingestion engine: registry wiring, batched-update semantics,
// shard-merge correctness against single-instance references and exact
// ground truth (Zipf, planted heavy hitters, insert/delete churn), and
// bit-for-bit determinism under a fixed seed regardless of thread count.
// Uses the typed engine::Client surface (handles + typed queries); the
// seed-era Driver shim is gone (see src/engine/README.md for the
// historical migration table).

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "distinct/l0_estimator.h"
#include "engine/backend.h"
#include "engine/client.h"
#include "engine/registry.h"
#include "stream/frequency_oracle.h"
#include "stream/workload.h"

#include "engine_test_util.h"
#include "golden_pins.h"

namespace wbs::engine {
namespace {

SketchConfig TestConfig(uint64_t universe, uint64_t seed) {
  return SketchConfig{}
      .WithUniverse(universe)
      .WithSeed(seed)
      .With(HeavyHitterOptions{}.WithEps(0.1).WithPhi(0.2))
      .With(MisraGriesOptions{}.WithCounters(64))
      .With(AmsOptions{}.WithRows(48));
}

// ---------------------------------------------------------------- registry --

TEST(SketchRegistryTest, BuiltinsRegistered) {
  auto names = SketchRegistry::Global().Names();
  for (const char* expected : {"misra_gries", "ams_f2", "sis_l0",
                               "rank_decision", "robust_hh", "crhf_hh"}) {
    EXPECT_TRUE(std::count(names.begin(), names.end(), expected))
        << "missing builtin: " << expected;
  }
}

TEST(SketchRegistryTest, BuiltinFamiliesDeclared) {
  auto family = [](const char* name) {
    auto f = SketchRegistry::Global().FamilyOf(name);
    EXPECT_TRUE(f.ok()) << name;
    return f.value();
  };
  EXPECT_EQ(family("misra_gries"), SketchFamily::kHeavyHitter);
  EXPECT_EQ(family("robust_hh"), SketchFamily::kHeavyHitter);
  EXPECT_EQ(family("crhf_hh"), SketchFamily::kHeavyHitter);
  EXPECT_EQ(family("ams_f2"), SketchFamily::kScalarEstimate);
  EXPECT_EQ(family("sis_l0"), SketchFamily::kScalarEstimate);
  EXPECT_EQ(family("rank_decision"), SketchFamily::kRankVerdict);
  EXPECT_FALSE(SketchRegistry::Global().FamilyOf("no_such_sketch").ok());
}

TEST(SketchRegistryTest, CreateUnknownFails) {
  auto r = SketchRegistry::Global().Create("no_such_sketch", SketchConfig{});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kNotFound);
}

TEST(SketchRegistryTest, DuplicateRegistrationRejected) {
  auto s = SketchRegistry::Global().Register(
      "misra_gries", [](const SketchConfig&) -> std::unique_ptr<Sketch> {
        return nullptr;
      });
  EXPECT_FALSE(s.ok());
}

TEST(SketchRegistryTest, HostileConfigsRejectedBeforeTheFactory) {
  // Each builtin family vets the config it reads before anything is
  // allocated: out-of-range exponents and dimensions above the family's cap
  // come back InvalidArgument, and the shipped defaults pass.
  const SketchConfig base = TestConfig(1 << 10, 3);
  for (const std::string& name : SketchRegistry::Global().Names()) {
    if (name.rfind("test_", 0) == 0) continue;  // registered by other tests
    EXPECT_TRUE(SketchRegistry::Global().Create(name, base).ok()) << name;
  }
  struct Case {
    const char* sketch;
    const char* what;
    SketchConfig config;
  };
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  auto with = [&base](auto edit) {
    SketchConfig c = base;
    edit(c);
    return c;
  };
  const std::vector<Case> cases = {
      {"misra_gries", "no counters",
       with([](SketchConfig& c) { c.misra_gries.counters = 0; })},
      {"misra_gries", "counters above the cap",
       with([](SketchConfig& c) { c.misra_gries.counters = size_t{1} << 40; })},
      {"misra_gries", "universe above the cap",
       with([](SketchConfig& c) { c.universe = ~uint64_t{0}; })},
      {"ams_f2", "rows above the cap",
       with([](SketchConfig& c) { c.ams.rows = size_t{1} << 62; })},
      {"ams_f2", "no rows", with([](SketchConfig& c) { c.ams.rows = 0; })},
      {"sis_l0", "eps >= 1", with([](SketchConfig& c) { c.sis_l0.eps = 1.5; })},
      {"sis_l0", "eps NaN", with([](SketchConfig& c) { c.sis_l0.eps = nan; })},
      {"sis_l0", "c >= 1/2", with([](SketchConfig& c) { c.sis_l0.c = 0.5; })},
      {"sis_l0", "c <= 0", with([](SketchConfig& c) { c.sis_l0.c = 0; })},
      {"sis_l0", "chunk state above the cap",
       with([](SketchConfig& c) {
         c.universe = uint64_t{1} << 40;
         c.sis_l0.eps = 0.05;
       })},
      {"sis_l0", "matrix above the cap",
       with([](SketchConfig& c) {
         c.universe = uint64_t{1} << 30;
         c.sis_l0.eps = 0.95;
       })},
      // chunk width 32: 4 * f_inf * 32 = 2^61 + 128 passes the modulus cap.
      {"sis_l0", "4 f_inf chunk width above the modulus cap",
       with([](SketchConfig& c) {
         c.sis_l0.f_inf_bound = (uint64_t{1} << 54) + 1;
       })},
      {"rank_decision", "k > n",
       with([](SketchConfig& c) { c.rank.k = c.rank.n + 1; })},
      {"rank_decision", "k = 0", with([](SketchConfig& c) { c.rank.k = 0; })},
      {"rank_decision", "sketch above the cap",
       with([](SketchConfig& c) { c.rank.n = size_t{1} << 40; })},
      {"rank_decision", "q < 2", with([](SketchConfig& c) { c.rank.q = 1; })},
      {"rank_decision", "q >= 2^62",
       with([](SketchConfig& c) { c.rank.q = uint64_t{1} << 63; })},
      {"robust_hh", "eps >= 1", with([](SketchConfig& c) { c.hh.eps = 1; })},
      {"robust_hh", "eps below 2^-20",
       with([](SketchConfig& c) { c.hh.eps = 1e-300; })},
      {"robust_hh", "delta <= 0", with([](SketchConfig& c) { c.hh.delta = 0; })},
      {"crhf_hh", "eps NaN", with([](SketchConfig& c) { c.hh.eps = nan; })},
      {"crhf_hh", "phi <= 0", with([](SketchConfig& c) { c.hh.phi = -1; })},
      {"crhf_hh", "phi below 2^-20",
       with([](SketchConfig& c) { c.hh.phi = 1e-300; })},
      {"crhf_hh", "universe above the cap",
       with([](SketchConfig& c) { c.universe = uint64_t{1} << 63; })},
  };
  // 4 * f_inf * 32 = 2^61 exactly: the cap itself is a legal target.
  EXPECT_TRUE(SketchRegistry::Global()
                  .Create("sis_l0", with([](SketchConfig& c) {
                            c.sis_l0.f_inf_bound = uint64_t{1} << 54;
                          }))
                  .ok());
  for (const Case& c : cases) {
    auto r = SketchRegistry::Global().Create(c.sketch, c.config);
    ASSERT_FALSE(r.ok()) << c.sketch << ": " << c.what;
    EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument)
        << c.sketch << ": " << c.what << ": " << r.status().ToString();
  }

  // Client::Create takes the same path, so a hostile config fails there.
  ClientOptions opts;
  opts.ingest.num_shards = 2;
  opts.ingest.sketches = {"ams_f2"};
  opts.ingest.config = with([](SketchConfig& c) { c.ams.rows = size_t{1} << 62; });
  auto client = Client::Create(opts);
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), Status::Code::kInvalidArgument);
}

TEST(SketchRegistryTest, CustomSketchRoundTrip) {
  // A user-registered sketch participates in the engine like any builtin;
  // with the default kGeneric family every typed query kind is allowed.
  class CountingSketch final : public Sketch {
   public:
    const std::string& name() const override {
      static const std::string n = "test_counting";
      return n;
    }
    Status Update(const stream::TurnstileUpdate& u) override {
      net_ += u.delta;
      return Status::OK();
    }
    SketchSummary Summary() const override {
      SketchSummary s;
      s.sketch = "test_counting";
      s.has_scalar = true;
      s.scalar = double(net_);
      return s;
    }
    Status MergeFrom(const Sketch& other) override {
      net_ += int64_t(static_cast<const CountingSketch&>(other).net_);
      return Status::OK();
    }
    uint64_t SpaceBits() const override { return 64; }

   private:
    int64_t net_ = 0;
  };
  ASSERT_TRUE(SketchRegistry::Global()
                  .Register("test_counting",
                            [](const SketchConfig&) {
                              return std::make_unique<CountingSketch>();
                            })
                  .ok());
  // Pinned to the in-process backend: CountingSketch implements no wire
  // format (Sketch::SerializeState default), so its state cannot cross a
  // remote shard boundary — engine_backend_test pins the Unimplemented
  // error a tcp engine surfaces for such sketches.
  auto client = MakeClient({"test_counting"}, TestConfig(1 << 10, 7), 4, 0,
                           InProcessBackendFactory());
  wbs::RandomTape tape(7);
  auto s = stream::UniformStream(1 << 10, 5000, &tape);
  ASSERT_TRUE(Replay(client.get(), s).ok());
  ASSERT_TRUE(client->Finish().ok());
  auto handle = client->Handle("test_counting");
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(handle.value().family(), SketchFamily::kGeneric);
  auto scalar = client->QueryScalar(handle.value());
  ASSERT_TRUE(scalar.ok());
  EXPECT_DOUBLE_EQ(scalar.value().value, 5000.0);
}

// ---------------------------------------------------------------- batching --

TEST(EngineBatchTest, BatchedEqualsUnbatchedForLinearSketches) {
  // Linear sketches pre-aggregate duplicates inside a batch; by linearity
  // the resulting state is identical to per-update ingestion.
  const uint64_t universe = 1 << 12;
  wbs::RandomTape tape(11);
  auto s = stream::ZipfStream(universe, 20000, 1.2, &tape);
  SketchConfig cfg = TestConfig(universe, 42);

  for (const char* name : {"ams_f2", "sis_l0"}) {
    auto unbatched = SketchRegistry::Global().Create(name, cfg);
    auto batched = SketchRegistry::Global().Create(name, cfg);
    ASSERT_TRUE(unbatched.ok() && batched.ok());
    std::vector<stream::TurnstileUpdate> turnstile;
    turnstile.reserve(s.size());
    for (const auto& u : s) turnstile.push_back({u.item, 1});
    for (const auto& u : turnstile) {
      ASSERT_TRUE(unbatched.value()->Update(u).ok());
    }
    ASSERT_TRUE(batched.value()
                    ->ApplyBatch({turnstile.data(), turnstile.size()})
                    .ok());
    SketchSummary a = unbatched.value()->Summary();
    SketchSummary b = batched.value()->Summary();
    EXPECT_EQ(a.scalar, b.scalar) << name;  // exact: linearity
    EXPECT_EQ(a.updates, b.updates) << name;
  }
}

TEST(EngineBatchTest, BatchedMisraGriesKeepsDeterministicGuarantee) {
  // Weighted aggregation may change which counters survive eviction, but
  // never the Misra-Gries guarantee: estimates underestimate by at most
  // processed/(k+1).
  const uint64_t universe = 1 << 12;
  wbs::RandomTape tape(13);
  auto s = stream::ZipfStream(universe, 30000, 1.1, &tape);
  stream::FrequencyOracle truth(universe);
  truth.AddStream(s);
  SketchConfig cfg = TestConfig(universe, 42);

  auto batched = SketchRegistry::Global().Create("misra_gries", cfg);
  ASSERT_TRUE(batched.ok());
  std::vector<stream::TurnstileUpdate> turnstile;
  for (const auto& u : s) turnstile.push_back({u.item, 1});
  ASSERT_TRUE(
      batched.value()->ApplyBatch({turnstile.data(), turnstile.size()}).ok());
  SketchSummary summary = batched.value()->Summary();
  const double bound =
      double(s.size()) / double(cfg.misra_gries.counters + 1);
  for (const auto& [item, f] : truth.frequencies()) {
    const double est = summary.Estimate(item);
    EXPECT_LE(est, double(f) + 1e-9) << item;          // never overestimates
    EXPECT_GE(est, double(f) - bound - 1e-9) << item;  // bounded underestimate
  }
}

TEST(EngineBatchTest, InsertionOnlySketchRejectsNegativeDelta) {
  SketchConfig cfg = TestConfig(1 << 10, 3);
  auto mg = SketchRegistry::Global().Create("misra_gries", cfg);
  ASSERT_TRUE(mg.ok());
  EXPECT_FALSE(mg.value()->Update({5, -1}).ok());
  auto hh = SketchRegistry::Global().Create("robust_hh", cfg);
  ASSERT_TRUE(hh.ok());
  EXPECT_FALSE(hh.value()->Update({5, -1}).ok());
}

// The sampling wrappers (robust_hh, crhf_hh) expand a weighted delta into
// unit updates and sample each unit, so their batch path must reproduce the
// per-update path exactly: same tape draws, same answer bits, same error at
// the same position.

// A duplicate-heavy stream of weighted deltas: half the updates on two
// planted items, a quarter on a 32-item warm set, a quarter uniform; about
// one delta in five is 3 and one in sixteen is 0.
std::vector<stream::TurnstileUpdate> DuplicateHeavyUpdates(size_t n,
                                                           uint64_t universe,
                                                           uint64_t seed) {
  std::vector<stream::TurnstileUpdate> out;
  out.reserve(n);
  uint64_t s = seed;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t r = SplitMix64(&s);
    const uint64_t pick = r & 7;
    const uint64_t item = pick < 2   ? 7
                          : pick < 4 ? universe / 2 + 3
                          : pick < 6 ? 100 + (r >> 3) % 32
                                     : (r >> 3) % universe;
    int64_t delta = (r >> 32) % 5 == 0 ? 3 : 1;
    if ((r >> 40) % 16 == 0) delta = 0;
    out.push_back({item, delta});
  }
  return out;
}

/// Feeds `updates` in `batch`-sized ApplyBatch calls, attaching the shared
/// pre-aggregation the way the in-process cell does when `aggregated` is
/// set. Stops at the first error, like the ingestor.
Status ApplyInBatches(Sketch* sketch,
                      const std::vector<stream::TurnstileUpdate>& updates,
                      size_t batch, bool aggregated) {
  std::vector<stream::TurnstileUpdate> agg;
  FlatItemIndex index;
  for (size_t base = 0; base < updates.size(); base += batch) {
    UpdateBatch b{updates.data() + base,
                  std::min(batch, updates.size() - base)};
    if (aggregated) {
      auto [effective, has_negative] =
          AggregateUpdates(b.data, b.size, &agg, &index);
      b.aggregated = agg.data();
      b.aggregated_size = agg.size();
      b.effective_updates = effective;
      b.has_negative_delta = has_negative;
    }
    if (Status s = sketch->ApplyBatch(b); !s.ok()) return s;
  }
  return Status::OK();
}

/// The per-update reference: Update() in order, stopping at the first error.
Status ApplyOneByOne(Sketch* sketch,
                     const std::vector<stream::TurnstileUpdate>& updates) {
  for (const auto& u : updates) {
    if (Status s = sketch->Update(u); !s.ok()) return s;
  }
  return Status::OK();
}

struct SummaryPin {
  uint64_t items = 0;
  uint64_t digest = 0;  ///< every item and estimate bit, in order
  uint64_t updates = 0;
  uint64_t space_bits = 0;
  bool operator==(const SummaryPin&) const = default;
};

std::ostream& operator<<(std::ostream& os, const SummaryPin& p) {
  return os << std::hex << "{" << p.items << ", 0x" << p.digest << ", 0x"
            << p.updates << ", 0x" << p.space_bits << "}" << std::dec;
}

SummaryPin PinOf(const Sketch& sketch) {
  const SketchSummary s = sketch.Summary();
  SummaryPin p;
  p.items = s.items.size();
  for (const auto& wi : s.items) {
    p.digest = golden::Fold(p.digest, wi.item);
    p.digest = golden::Fold(p.digest, golden::Bits(wi.estimate));
  }
  p.updates = s.updates;
  p.space_bits = sketch.SpaceBits();
  return p;
}

TEST(EngineBatchTest, SamplingSketchGoldenPins) {
  // Recorded once from the reference implementation, batches of 256 with
  // the shared aggregation attached.
  struct Case {
    const char* name;
    SummaryPin want;
  };
  const Case cases[] = {
      {"robust_hh", {21, 0x5b9de8062af66767, 61450, 0x1eb}},
      {"crhf_hh", {2, 0x4f2e31563ac4bd02, 61450, 0x465}},
  };
  const uint64_t universe = 1 << 20;
  const auto updates = DuplicateHeavyUpdates(65536, universe, 401);
  SketchConfig cfg = TestConfig(universe, 42);
  cfg.shard_seed = 7;
  for (const Case& c : cases) {
    auto sketch = SketchRegistry::Global().Create(c.name, cfg);
    ASSERT_TRUE(sketch.ok());
    ASSERT_TRUE(
        ApplyInBatches(sketch.value().get(), updates, 256, true).ok());
    EXPECT_EQ(PinOf(*sketch.value()), c.want) << c.name;
  }
}

TEST(EngineBatchTest, SamplingBatchPathMatchesPerUpdatePath) {
  const uint64_t universe = 1 << 20;
  SketchConfig cfg = TestConfig(universe, 42);
  cfg.shard_seed = 9;
  const auto clean = DuplicateHeavyUpdates(4096, universe, 402);
  struct Fault {
    const char* what;
    stream::TurnstileUpdate bad;
    Status::Code code;
  };
  // Item 7 recurs throughout every batch, so the largest delta also
  // overflows the aggregation and leaves item 7 in the aggregated view more
  // than once.
  const Fault faults[] = {
      {"negative delta", {7, -1}, Status::Code::kInvalidArgument},
      {"delta above the expansion cap",
       {7, (int64_t{1} << 20) + 1},
       Status::Code::kInvalidArgument},
      {"overflowing delta",
       {7, std::numeric_limits<int64_t>::max()},
       Status::Code::kInvalidArgument},
      {"item outside the universe", {universe, 3}, Status::Code::kOutOfRange},
  };
  for (const char* name : {"robust_hh", "crhf_hh"}) {
    for (bool aggregated : {false, true}) {
      const std::string where = std::string(name) +
                                (aggregated ? " aggregated" : " raw");
      {
        auto ref = SketchRegistry::Global().Create(name, cfg);
        auto got = SketchRegistry::Global().Create(name, cfg);
        ASSERT_TRUE(ref.ok() && got.ok());
        ASSERT_TRUE(ApplyOneByOne(ref.value().get(), clean).ok());
        ASSERT_TRUE(
            ApplyInBatches(got.value().get(), clean, 512, aggregated).ok());
        EXPECT_EQ(PinOf(*got.value()), PinOf(*ref.value())) << where;
      }
      // Position 1000 lies inside the second 512-update batch.
      for (size_t k : {size_t{0}, size_t{1000}, clean.size() - 1}) {
        for (const Fault& f : faults) {
          auto updates = clean;
          updates[k] = f.bad;
          auto ref = SketchRegistry::Global().Create(name, cfg);
          auto got = SketchRegistry::Global().Create(name, cfg);
          ASSERT_TRUE(ref.ok() && got.ok());
          const Status want = ApplyOneByOne(ref.value().get(), updates);
          const Status have =
              ApplyInBatches(got.value().get(), updates, 512, aggregated);
          EXPECT_EQ(want.code(), f.code) << where << ", " << f.what;
          EXPECT_EQ(have.code(), f.code) << where << ", " << f.what
                                         << " at " << k;
          EXPECT_EQ(PinOf(*got.value()), PinOf(*ref.value()))
              << where << ", " << f.what << " at " << k;
        }
      }
    }
  }
}

// The state-level families under golden pins: a skewed and a churn stream
// through ApplyBatch with the shared aggregation attached, in batches of 512
// and 2,048. A pin covers the SerializeSketch frame, the Summary() scalar
// bits and items, and SpaceBits(), so a change to the aggregation, the
// apply kernels or the state layout that moves one bit shows here.

/// golden::SkewedItems with weighted deltas: one in eight is 0 and one in
/// five is 3; with `churn`, a quarter of the updates delete instead.
std::vector<stream::TurnstileUpdate> PinStream(size_t n, uint64_t universe,
                                               uint64_t seed, bool churn) {
  const auto items = golden::SkewedItems(n, universe, seed);
  std::vector<stream::TurnstileUpdate> out;
  out.reserve(n);
  uint64_t s = ~seed;
  for (uint64_t item : items) {
    const uint64_t r = SplitMix64(&s);
    int64_t delta = r % 5 == 0 ? 3 : 1;
    if ((r >> 8) % 8 == 0) delta = 0;
    if (churn && (r >> 16) % 4 == 0) delta = -delta - int64_t((r >> 24) % 2);
    out.push_back({item, delta});
  }
  return out;
}

/// Order-sensitive digest of a frame's bytes.
uint64_t FrameDigest(const std::string& frame) {
  uint64_t h = frame.size();
  for (unsigned char c : frame) h = golden::Fold(h, c);
  return h;
}

struct StatePin {
  uint64_t frame = 0;   ///< FrameDigest(SerializeSketch(...))
  uint64_t scalar = 0;  ///< Summary().scalar bits
  SummaryPin summary;   ///< items, their digest, updates and SpaceBits()
  bool operator==(const StatePin&) const = default;
};

std::ostream& operator<<(std::ostream& os, const StatePin& p) {
  return os << std::hex << "{0x" << p.frame << ", 0x" << p.scalar << ", "
            << p.summary << "}" << std::dec;
}

TEST(EngineBatchTest, StateFamilyGoldenPins) {
  // Recorded from the reference implementation (std::unordered_map
  // aggregation, per-chunk SIS vectors, scalar-tail SIS kernels). The
  // misra_gries frames list their counters item-ascending
  // (MisraGries::CounterEntries), so their digests do not depend on the
  // summary's internal layout.
  struct Case {
    const char* name;
    bool churn;
    size_t batch;
    StatePin want;
  };
  const Case cases[] = {
      {"misra_gries", false, 512,
       {0xb4e476916f5babd4, 0x0, {40, 0x473cf20b2d2a1ff3, 0x37c4, 0x375}}},
      {"misra_gries", false, 2048,
       {0x4ab807b407470cdf, 0x0, {48, 0x8f546b3fd6b21130, 0x37c4, 0x41c}}},
      {"ams_f2", false, 512,
       {0x8b52253a99c490f3, 0x41884df08aaaaaab, {0, 0x0, 0x37c4, 0x297}}},
      {"ams_f2", false, 2048,
       {0x8b52253a99c490f3, 0x41884df08aaaaaab, {0, 0x0, 0x37c4, 0x297}}},
      {"ams_f2", true, 512,
       {0x165fdf2c9da46c92, 0x415f4731aaaaaaab, {0, 0x0, 0x38cc, 0x249}}},
      {"ams_f2", true, 2048,
       {0x165fdf2c9da46c92, 0x415f4731aaaaaaab, {0, 0x0, 0x38cc, 0x249}}},
      {"sis_l0", false, 512,
       {0xd154df1c5dc51224, 0x408ef80000000000, {0, 0x0, 0x37c4, 0x5b800}}},
      {"sis_l0", false, 2048,
       {0xd154df1c5dc51224, 0x408ef80000000000, {0, 0x0, 0x37c4, 0x5b800}}},
      {"sis_l0", true, 512,
       {0x7e67ebf205599f75, 0x408f100000000000, {0, 0x0, 0x38cc, 0x5b800}}},
      {"sis_l0", true, 2048,
       {0x7e67ebf205599f75, 0x408f100000000000, {0, 0x0, 0x38cc, 0x5b800}}},
      {"rank_decision", false, 512,
       {0x1e7f6e670995ce45, 0x3ff0000000000000, {0, 0x0, 0x37c4, 0x2800}}},
      {"rank_decision", false, 2048,
       {0x1e7f6e670995ce45, 0x3ff0000000000000, {0, 0x0, 0x37c4, 0x2800}}},
      {"rank_decision", true, 512,
       {0x1a517515a9b45259, 0x3ff0000000000000, {0, 0x0, 0x38cc, 0x2800}}},
      {"rank_decision", true, 2048,
       {0x1a517515a9b45259, 0x3ff0000000000000, {0, 0x0, 0x38cc, 0x2800}}},
  };
  const uint64_t universe = 1 << 20;
  const uint64_t rank_cells = 64 * 64;  // RankOptions{} n x n matrix
  SketchConfig cfg = TestConfig(universe, 42);
  cfg.shard_seed = 11;
  for (const Case& c : cases) {
    const bool rank = std::string(c.name) == "rank_decision";
    const auto updates =
        PinStream(16384, rank ? rank_cells : universe, 403, c.churn);
    auto sketch = SketchRegistry::Global().Create(c.name, cfg);
    ASSERT_TRUE(sketch.ok());
    ASSERT_TRUE(
        ApplyInBatches(sketch.value().get(), updates, c.batch, true).ok())
        << c.name;
    auto frame = SerializeSketch(*sketch.value());
    ASSERT_TRUE(frame.ok());
    StatePin got;
    got.frame = FrameDigest(frame.value());
    got.scalar = golden::Bits(sketch.value()->Summary().scalar);
    got.summary = PinOf(*sketch.value());
    EXPECT_EQ(got, c.want) << c.name << (c.churn ? " churn" : " skewed")
                           << " batch=" << c.batch;
  }
}

TEST(EngineBatchTest, FlatAggregationMatchesUnorderedMap) {
  // The engine's flat table and the std::unordered_map instantiation give
  // the same aggregation entry for entry, including first-occurrence order,
  // dropped zero deltas and the overflow rule; the tables are reused across
  // inputs, as a shard reuses them across batches.
  const uint64_t universe = 1 << 16;
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  wbs::RandomTape tape(31);
  std::vector<std::pair<std::string, std::vector<stream::TurnstileUpdate>>>
      inputs;
  std::vector<stream::TurnstileUpdate> zipf;
  for (const auto& u : stream::ZipfStream(universe, 4096, 1.2, &tape)) {
    zipf.push_back({u.item, 1});
  }
  inputs.emplace_back("zipf", zipf);
  inputs.emplace_back(
      "churn", stream::InsertDeleteChurnStream(universe, 300, 900, &tape));
  std::vector<stream::TurnstileUpdate> distinct, same, zeros;
  for (uint64_t i = 0; i < 3000; ++i) {
    distinct.push_back({i * 0x9e3779b97f4a7c15ULL, int64_t(i % 7) - 3});
    same.push_back({12345, int64_t(i % 5) - 1});
    zeros.push_back({i % 17, 0});
  }
  zeros.push_back({3, 2});
  inputs.emplace_back("all-distinct", distinct);
  inputs.emplace_back("all-same", same);
  inputs.emplace_back("zero deltas", zeros);
  inputs.emplace_back("overflowing pair",
                      std::vector<stream::TurnstileUpdate>{
                          {9, kMax}, {4, 1}, {9, kMax}, {9, -kMax}, {4, -2}});
  inputs.emplace_back("empty", std::vector<stream::TurnstileUpdate>{});

  FlatItemIndex flat;
  std::unordered_map<uint64_t, size_t> map;
  std::vector<stream::TurnstileUpdate> got, want;
  for (const auto& [what, in] : inputs) {
    const auto got_info = AggregateUpdates(in.data(), in.size(), &got, &flat);
    const auto want_info = AggregateUpdates(in.data(), in.size(), &want, &map);
    EXPECT_EQ(got_info, want_info) << what;
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].item, want[i].item) << what << " entry " << i;
      EXPECT_EQ(got[i].delta, want[i].delta) << what << " entry " << i;
    }
  }
  // The overflow rule, spelled out: the second INT64_MAX for item 9 stays
  // its own entry, and later duplicates fold into the first one.
  const auto& pair = inputs[inputs.size() - 2].second;
  AggregateUpdates(pair.data(), pair.size(), &got, &flat);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].item, 9u);
  EXPECT_EQ(got[0].delta, 0);
  EXPECT_EQ(got[1].item, 4u);
  EXPECT_EQ(got[1].delta, -1);
  EXPECT_EQ(got[2].item, 9u);
  EXPECT_EQ(got[2].delta, kMax);
}

// A builtin sketch of `cfg` after `updates` unit updates on 13 items.
std::unique_ptr<Sketch> MakeFed(const std::string& name,
                                const SketchConfig& cfg, uint64_t updates) {
  auto created = SketchRegistry::Global().Create(name, cfg);
  EXPECT_TRUE(created.ok()) << name;
  if (!created.ok()) return nullptr;
  std::unique_ptr<Sketch> sketch = std::move(created).value();
  for (uint64_t i = 0; i < updates; ++i) {
    EXPECT_TRUE(sketch->Update({i % 13, 1}).ok()) << name;
  }
  return sketch;
}

// The sketch's serialized frame, or "" when it does not serialize.
std::string FrameOf(const Sketch& sketch) {
  auto frame = SerializeSketch(sketch);
  EXPECT_TRUE(frame.ok()) << sketch.name();
  return frame.ok() ? frame.value() : std::string();
}

// Both merge templates check the other side's family before touching
// state: each of the 30 cross-family pairs is InvalidArgument from MergeFrom
// and from UnmergeFrom, and the target's frame is unchanged. A same-family
// UnmergeFrom draws the line the merge cache relies on: the linear families
// subtract the merged shard back out, the others are Unimplemented (the
// cache then refolds from scratch).
TEST(EngineBatchTest, MergeTypeMismatchRejected) {
  const std::string names[] = {"misra_gries", "ams_f2",    "sis_l0",
                               "rank_decision", "robust_hh", "crhf_hh"};
  const SketchConfig cfg = TestConfig(1 << 10, 3);

  size_t pairs = 0;
  for (const std::string& target_name : names) {
    auto target = MakeFed(target_name, cfg, 40);
    ASSERT_NE(target, nullptr);
    const std::string before = FrameOf(*target);
    for (const std::string& other_name : names) {
      if (other_name == target_name) continue;
      ++pairs;
      auto other = MakeFed(other_name, cfg, 40);
      ASSERT_NE(other, nullptr);
      const std::string pair = target_name + " <- " + other_name;
      EXPECT_EQ(target->MergeFrom(*other).code(),
                Status::Code::kInvalidArgument)
          << pair;
      EXPECT_EQ(target->UnmergeFrom(*other).code(),
                Status::Code::kInvalidArgument)
          << pair;
      EXPECT_EQ(FrameOf(*target), before) << pair;
    }
  }
  EXPECT_EQ(pairs, 30u);

  for (const std::string& name : names) {
    const bool linear =
        name == "ams_f2" || name == "sis_l0" || name == "rank_decision";
    auto target = MakeFed(name, cfg, 0);
    auto other = MakeFed(name, cfg, 40);
    ASSERT_TRUE(target != nullptr && other != nullptr);
    const std::string fresh = FrameOf(*target);
    ASSERT_TRUE(target->MergeFrom(*other).ok()) << name;
    const std::string merged = FrameOf(*target);
    EXPECT_EQ(target->UnmergeFrom(*other).code(),
              linear ? Status::Code::kOk : Status::Code::kUnimplemented)
        << name;
    EXPECT_EQ(FrameOf(*target), linear ? fresh : merged) << name;
  }
}

// ------------------------------------------------- shard merge vs reference --

// Linear sketches: a sharded run's merged state must be bit-identical to a
// single-shard run over the same stream, on both insertion (Zipf) and
// turnstile (churn) workloads.
TEST(EngineMergeTest, LinearSketchesShardMergeExactOnZipf) {
  const uint64_t universe = 1 << 12;
  wbs::RandomTape tape(21);
  auto s = stream::ZipfStream(universe, 40000, 1.1, &tape);
  SketchConfig cfg = TestConfig(universe, 99);

  auto sharded = MakeClient({"ams_f2", "sis_l0"}, cfg, 4, 0);
  auto single = MakeClient({"ams_f2", "sis_l0"}, cfg, 1, 0);
  ASSERT_TRUE(Replay(sharded.get(), s).ok());
  ASSERT_TRUE(Replay(single.get(), s).ok());
  ASSERT_TRUE(sharded->Finish().ok());
  ASSERT_TRUE(single->Finish().ok());

  for (const char* name : {"ams_f2", "sis_l0"}) {
    auto merged = sharded->QueryScalar(sharded->Handle(name).value());
    auto reference = single->QueryScalar(single->Handle(name).value());
    ASSERT_TRUE(merged.ok() && reference.ok()) << name;
    EXPECT_EQ(merged.value().value, reference.value().value) << name;
    EXPECT_EQ(merged.value().updates, reference.value().updates) << name;
  }
}

TEST(EngineMergeTest, LinearSketchesShardMergeExactOnChurn) {
  const uint64_t universe = 1 << 12;
  wbs::RandomTape tape(22);
  auto s = stream::InsertDeleteChurnStream(universe, /*live=*/100,
                                           /*churn=*/3000, &tape);
  stream::FrequencyOracle truth(universe);
  truth.AddStream(s);
  ASSERT_EQ(truth.L0(), 100u);  // deletions truly cancel

  SketchConfig cfg = TestConfig(universe, 7);
  auto sharded = MakeClient({"ams_f2", "sis_l0"}, cfg, 4, 0);
  auto single = MakeClient({"ams_f2", "sis_l0"}, cfg, 1, 0);
  ASSERT_TRUE(Replay(sharded.get(), s).ok());
  ASSERT_TRUE(Replay(single.get(), s).ok());
  ASSERT_TRUE(sharded->Finish().ok());
  ASSERT_TRUE(single->Finish().ok());

  for (const char* name : {"ams_f2", "sis_l0"}) {
    auto merged = sharded->QueryScalar(sharded->Handle(name).value());
    auto reference = single->QueryScalar(single->Handle(name).value());
    ASSERT_TRUE(merged.ok() && reference.ok()) << name;
    EXPECT_EQ(merged.value().value, reference.value().value) << name;
  }

  // And both match ground truth within the configured guarantees:
  // SIS-L0 answers in [L0 / chunk_width, min(L0, num_chunks)].
  auto l0 = sharded->QueryScalar(sharded->Handle("sis_l0").value());
  ASSERT_TRUE(l0.ok());
  const auto params = distinct::SisL0Params::Derive(
      universe, cfg.sis_l0.eps, cfg.sis_l0.c, cfg.sis_l0.f_inf_bound);
  EXPECT_GE(l0.value().value,
            double(truth.L0()) / double(params.chunk_width) - 1e-9);
  EXPECT_LE(l0.value().value, double(truth.L0()) + 1e-9);
}

TEST(EngineMergeTest, MisraGriesShardMergeExactWithoutEviction) {
  // With capacity above the stream's support size no counter is ever
  // evicted, so shard-merged Misra-Gries equals the single-shard run AND
  // exact ground truth — the "exact" half of the merge contract.
  const uint64_t universe = 256;
  wbs::RandomTape tape(31);
  auto s = stream::ZipfStream(universe, 20000, 1.05, &tape);
  stream::FrequencyOracle truth(universe);
  truth.AddStream(s);

  SketchConfig cfg = TestConfig(universe, 5);
  cfg.misra_gries.counters = 512;  // > universe: no eviction anywhere
  auto sharded = MakeClient({"misra_gries"}, cfg, 4, 0);
  auto single = MakeClient({"misra_gries"}, cfg, 1, 0);
  ASSERT_TRUE(Replay(sharded.get(), s).ok());
  ASSERT_TRUE(Replay(single.get(), s).ok());
  ASSERT_TRUE(sharded->Finish().ok());
  ASSERT_TRUE(single->Finish().ok());

  auto mg_sharded = sharded->Handle("misra_gries").value();
  auto mg_single = single->Handle("misra_gries").value();
  auto merged = sharded->RawSummary(mg_sharded);
  auto reference = single->RawSummary(mg_single);
  ASSERT_TRUE(merged.ok() && reference.ok());
  ASSERT_EQ(merged.value().items.size(), reference.value().items.size());
  for (const auto& [item, f] : truth.frequencies()) {
    // Typed point queries against both clients agree with exact truth.
    auto a = sharded->QueryPoint(mg_sharded, item);
    auto b = single->QueryPoint(mg_single, item);
    ASSERT_TRUE(a.ok() && b.ok()) << item;
    EXPECT_DOUBLE_EQ(a.value().estimate, double(f)) << item;
    EXPECT_DOUBLE_EQ(b.value().estimate, double(f)) << item;
    EXPECT_TRUE(a.value().tracked);
  }
}

TEST(EngineMergeTest, MisraGriesShardMergeKeepsGuaranteeUnderEviction) {
  const uint64_t universe = 1 << 14;
  wbs::RandomTape tape(33);
  auto s = stream::ZipfStream(universe, 50000, 1.1, &tape);
  stream::FrequencyOracle truth(universe);
  truth.AddStream(s);

  SketchConfig cfg = TestConfig(universe, 5);
  cfg.misra_gries.counters = 64;
  auto sharded = MakeClient({"misra_gries"}, cfg, 4, 0);
  ASSERT_TRUE(Replay(sharded.get(), s).ok());
  ASSERT_TRUE(sharded->Finish().ok());
  auto mg = sharded->Handle("misra_gries").value();

  // Merged summary: never overestimates, and underestimates by at most
  // m/(k+1). Each decrement round, in any shard or in the merge, removes
  // (k+1)·d of the m counted weight, so the rounds an item sits through
  // total at most m/(k+1), however the stream is partitioned.
  const double bound =
      double(s.size()) / double(cfg.misra_gries.counters + 1);
  for (const auto& [item, f] : truth.frequencies()) {
    auto point = sharded->QueryPoint(mg, item);
    ASSERT_TRUE(point.ok()) << item;
    EXPECT_LE(point.value().estimate, double(f) + 1e-9) << item;
    EXPECT_GE(point.value().estimate, double(f) - bound - 1e-9) << item;
  }
}

TEST(EngineMergeTest, PlantedHeavyHittersRecoveredAfterShardMerge) {
  const uint64_t universe = 1 << 20;
  const uint64_t m = 50000;
  int robust_misses = 0, crhf_misses = 0;
  for (int trial = 0; trial < 3; ++trial) {
    wbs::RandomTape tape(400 + trial);
    std::vector<uint64_t> planted;
    auto s = stream::PlantedHeavyHitterStream(universe, m, 3, 0.2, &tape,
                                              &planted);
    SketchConfig cfg = TestConfig(universe, 1000 + trial);
    auto client =
        MakeClient({"misra_gries", "robust_hh", "crhf_hh"}, cfg, 4, 0);
    ASSERT_TRUE(Replay(client.get(), s).ok());
    ASSERT_TRUE(client->Finish().ok());

    // Misra-Gries is deterministic: every 20%-heavy item must be reported
    // with an estimate above f - m/(k+1), the single-summary bound, which
    // shard merges keep.
    auto mg = client->Handle("misra_gries").value();
    const double mg_bound =
        double(m) / double(cfg.misra_gries.counters + 1);
    for (uint64_t id : planted) {
      auto point = client->QueryPoint(mg, id);
      ASSERT_TRUE(point.ok());
      EXPECT_GE(point.value().estimate, 0.2 * double(m) - mg_bound - 1e-9)
          << "trial " << trial << " item " << id;
    }
    // Sampling sketches: candidate-list union across shards must contain the
    // planted items with the configured probability; tally misses via the
    // typed top-k surface (k larger than any candidate list).
    auto robust = client->QueryTopK(client->Handle("robust_hh").value(),
                                    1 << 20);
    auto crhf = client->QueryTopK(client->Handle("crhf_hh").value(), 1 << 20);
    ASSERT_TRUE(robust.ok() && crhf.ok());
    for (uint64_t id : planted) {
      std::set<uint64_t> robust_items, crhf_items;
      for (const auto& wi : robust.value().items) robust_items.insert(wi.item);
      for (const auto& wi : crhf.value().items) crhf_items.insert(wi.item);
      robust_misses += robust_items.count(id) ? 0 : 1;
      crhf_misses += crhf_items.count(id) ? 0 : 1;
    }
  }
  EXPECT_LE(robust_misses, 2);
  EXPECT_LE(crhf_misses, 2);
}

TEST(EngineMergeTest, RankDecisionShardMergeExact) {
  // Stream a diagonal matrix entry-wise: rank grows to rank k; the sharded
  // merged sketch must agree with the single-shard run at every checkpoint.
  SketchConfig cfg = TestConfig(1, 17);
  cfg.rank.n = 32;
  cfg.rank.k = 8;
  stream::TurnstileStream diag;
  for (size_t i = 0; i < 8; ++i) {
    diag.push_back({uint64_t(i) * cfg.rank.n + i, 1});  // A[i][i] += 1
  }
  auto sharded = MakeClient({"rank_decision"}, cfg, 4, 0);
  auto single = MakeClient({"rank_decision"}, cfg, 1, 0);
  ASSERT_TRUE(Replay(sharded.get(), diag, /*batch=*/3).ok());
  ASSERT_TRUE(Replay(single.get(), diag, /*batch=*/3).ok());
  ASSERT_TRUE(sharded->Finish().ok());
  ASSERT_TRUE(single->Finish().ok());
  auto merged = sharded->QueryRank(sharded->Handle("rank_decision").value());
  auto reference = single->QueryRank(single->Handle("rank_decision").value());
  ASSERT_TRUE(merged.ok() && reference.ok());
  EXPECT_EQ(merged.value().rank_at_least_k, reference.value().rank_at_least_k);
  EXPECT_TRUE(merged.value().rank_at_least_k);  // rank 8 >= k = 8
}

// ------------------------------------------------------------- determinism --

TEST(EngineDeterminismTest, SummariesIdenticalAcrossThreadCounts) {
  const uint64_t universe = 1 << 14;
  wbs::RandomTape tape(55);
  auto zipf = stream::ZipfStream(universe, 30000, 1.1, &tape);
  auto churn = stream::InsertDeleteChurnStream(universe, 200, 2000, &tape);

  auto run = [&](size_t threads) {
    SketchConfig cfg = TestConfig(universe, 2024);
    // Turnstile-capable set so the churn stream can ride along.
    auto client = MakeClient({"ams_f2", "sis_l0"}, cfg, 4, threads);
    EXPECT_TRUE(Replay(client.get(), zipf, 512).ok());
    EXPECT_TRUE(Replay(client.get(), churn, 512).ok());
    EXPECT_TRUE(client->Finish().ok());
    std::vector<ScalarEstimate> out;
    for (const char* name : {"ams_f2", "sis_l0"}) {
      auto scalar = client->QueryScalar(client->Handle(name).value());
      EXPECT_TRUE(scalar.ok()) << name;
      out.push_back(scalar.value());
    }
    return out;
  };

  auto reference = run(0);
  for (size_t threads : {1u, 2u, 4u}) {
    auto got = run(threads);
    ASSERT_EQ(got.size(), reference.size()) << threads << " threads";
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].value, reference[i].value)
          << "sketch " << i << " with " << threads << " threads";
      EXPECT_EQ(got[i].updates, reference[i].updates)
          << "sketch " << i << " with " << threads << " threads";
    }
  }
}

TEST(EngineDeterminismTest, SamplingSketchDeterministicAcrossThreadCounts) {
  const uint64_t universe = 1 << 16;
  wbs::RandomTape tape(66);
  auto s = stream::ZipfStream(universe, 20000, 1.2, &tape);

  auto run = [&](size_t threads) {
    SketchConfig cfg = TestConfig(universe, 77);
    auto client = MakeClient({"robust_hh", "misra_gries"}, cfg, 4, threads);
    EXPECT_TRUE(Replay(client.get(), s).ok());
    EXPECT_TRUE(client->Finish().ok());
    auto robust = client->QueryTopK(client->Handle("robust_hh").value(),
                                    1 << 20);
    auto mg = client->QueryTopK(client->Handle("misra_gries").value(),
                                1 << 20);
    EXPECT_TRUE(robust.ok() && mg.ok());
    return std::make_pair(std::move(robust).value(), std::move(mg).value());
  };

  auto [robust_ref, mg_ref] = run(0);
  for (size_t threads : {1u, 4u}) {
    auto [robust, mg] = run(threads);
    ASSERT_EQ(robust.items.size(), robust_ref.items.size());
    for (size_t i = 0; i < robust.items.size(); ++i) {
      EXPECT_EQ(robust.items[i].item, robust_ref.items[i].item);
      EXPECT_EQ(robust.items[i].estimate, robust_ref.items[i].estimate);
    }
    ASSERT_EQ(mg.items.size(), mg_ref.items.size());
    for (size_t i = 0; i < mg.items.size(); ++i) {
      EXPECT_EQ(mg.items[i].item, mg_ref.items[i].item);
      EXPECT_EQ(mg.items[i].estimate, mg_ref.items[i].estimate);
    }
  }
}

// ------------------------------------------------------------------ client --

TEST(EngineClientTest, SlotOfIsStableAndCoversShards) {
  std::set<size_t> hit;
  for (uint64_t item = 0; item < 1000; ++item) {
    size_t shard = TopologyView::SlotOf(item, 8);
    EXPECT_EQ(shard, TopologyView::SlotOf(item, 8));
    EXPECT_LT(shard, 8u);
    hit.insert(shard);
  }
  EXPECT_EQ(hit.size(), 8u);  // 1000 items must touch all 8 shards
}

TEST(EngineClientTest, SubmitAfterFinishFails) {
  ClientOptions opts;
  opts.ingest.num_shards = 2;
  opts.ingest.sketches = {"ams_f2"};
  opts.ingest.config = TestConfig(1 << 10, 1);
  auto client = Client::Create(opts);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value()->Finish().ok());
  stream::TurnstileUpdate u{1, 1};
  EXPECT_FALSE(client.value()->Submit(&u, 1).ok());
  EXPECT_FALSE(client.value()->TrySubmit(&u, 1).ok());
}

TEST(EngineClientTest, WorkerErrorSurfacesOnFlush) {
  ClientOptions opts;
  opts.ingest.num_shards = 2;
  opts.ingest.num_threads = 2;
  opts.ingest.sketches = {"ams_f2"};
  opts.ingest.config = TestConfig(/*universe=*/16, 1);
  auto client = Client::Create(opts);
  ASSERT_TRUE(client.ok());
  stream::TurnstileUpdate bad{1 << 20, 1};  // out of universe
  Status submit = client.value()->Submit(&bad, 1).status();
  Status flush = client.value()->Flush();
  EXPECT_FALSE(submit.ok() && flush.ok());
}

TEST(EngineClientTest, UnknownSketchNameRejectedAtCreate) {
  ClientOptions opts;
  opts.ingest.num_shards = 2;
  opts.ingest.sketches = {"definitely_not_registered"};
  auto client = Client::Create(opts);
  EXPECT_FALSE(client.ok());
}

TEST(EngineClientTest, CellFactoryErrorFailsCreate) {
  ClientOptions opts;
  opts.ingest.num_shards = 4;
  opts.ingest.num_threads = 2;
  opts.ingest.sketches = {"ams_f2"};
  opts.ingest.config = TestConfig(1 << 10, 1);
  opts.ingest.backend = [](const BackendOptions& cell)
      -> Result<std::unique_ptr<ShardBackend>> {
    if (cell.shard == 2) return Status::Unavailable("no cell for shard 2");
    return InProcessBackendFactory()(cell);
  };
  auto client = Client::Create(opts);
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), Status::Code::kUnavailable);
}

TEST(EngineClientTest, SpaceBitsAccumulatesAcrossShards) {
  SketchConfig cfg = TestConfig(1 << 10, 9);
  auto client = MakeClient({"misra_gries"}, cfg, 4, 0);
  wbs::RandomTape tape(9);
  auto s = stream::UniformStream(1 << 10, 2000, &tape);
  ASSERT_TRUE(Replay(client.get(), s).ok());
  ASSERT_TRUE(client->Finish().ok());
  EXPECT_GT(client->SpaceBits(), 0u);
}

}  // namespace
}  // namespace wbs::engine
