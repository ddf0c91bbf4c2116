// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// The dynamic shard topology: the versioned routing layer (slot table,
// generations), live scale-out (AddShards) and live shard handoff
// (MoveShard), and mixed backend placement (even ids in-process, odd ids
// behind self-hosted tcp).
//
// The load-bearing guarantees pinned here:
//   * the initial slot table reproduces the legacy hash-mod-shards
//     partition bit-for-bit;
//   * a mid-ingest MoveShard preserves query answers — summaries right
//     after a handoff are bit-identical to right before (all six builtin
//     families), and runs that continue ingesting afterwards stay
//     bit-identical to a no-handoff run for the state-exact families
//     (misra_gries, ams_f2, sis_l0, rank_decision) on Zipf / planted /
//     churn workloads, across in-process, tcp, and mixed placements
//     and both handoff targets;
//   * the sampling families (robust_hh, crhf_hh) continue as mergeable
//     frozen-prefix + fresh-sampler summaries: identical across every
//     placement pattern, with planted heavy hitters still recovered;
//   * post-scale-out estimates equal a single-topology reference merge
//     (bit-identical for the linear families, exact for eviction-free
//     Misra-Gries), because answers merge over all substreams ever;
//   * topology operations linearize at batch barriers while quiescence-
//     free queries keep answering, and a failed operation (e.g. a sketch
//     with no wire format) leaves the topology untouched.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "engine/backend.h"
#include "engine/client.h"
#include "engine/registry.h"
#include "engine/remote_backend.h"
#include "engine/topology.h"
#include "stream/frequency_oracle.h"
#include "stream/workload.h"

#include "engine_test_util.h"

namespace wbs::engine {
namespace {

SketchConfig TestConfig(uint64_t universe, uint64_t seed) {
  return SketchConfig{}.WithUniverse(universe).WithSeed(seed);
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

struct BackendCase {
  const char* name;
  BackendFactory factory;
};

std::vector<BackendCase> AllPlacements() {
  return {{"inprocess", InProcessBackendFactory()},
          {"tcp", TcpBackendFactory()},
          {"mixed", BackendFactoryByName("mixed").value()}};
}

/// Element-wise bit-identity of two summaries.
void ExpectSummariesIdentical(const SketchSummary& got,
                              const SketchSummary& want,
                              const std::string& context) {
  EXPECT_EQ(got.has_scalar, want.has_scalar) << context;
  EXPECT_EQ(got.scalar, want.scalar) << context;
  EXPECT_EQ(got.updates, want.updates) << context;
  ASSERT_EQ(got.items.size(), want.items.size()) << context;
  for (size_t i = 0; i < got.items.size(); ++i) {
    EXPECT_EQ(got.items[i].item, want.items[i].item) << context;
    EXPECT_EQ(got.items[i].estimate, want.items[i].estimate) << context;
  }
}

/// Replays `s` in `batch`-sized submissions, invoking `mid` between the
/// first and second half (a deterministic batch boundary).
Status ReplayWithMidpoint(Client* client, const stream::TurnstileStream& s,
                          size_t batch,
                          const std::function<Status()>& mid) {
  const size_t batches = (s.size() + batch - 1) / batch;
  size_t index = 0;
  for (size_t off = 0; off < s.size(); off += batch, ++index) {
    if (index == batches / 2) {
      if (Status ms = mid(); !ms.ok()) return ms;
    }
    auto t = client->Submit(s.data() + off,
                            std::min(batch, s.size() - off));
    if (!t.ok()) return t.status();
  }
  return Status::OK();
}

// ------------------------------------------------------------ slot table --

TEST(ShardTopologyTest, InitialTableReproducesLegacyPartition) {
  for (size_t shards : {1u, 3u, 4u, 8u}) {
    auto view =
        ShardTopology::MakeInitial(std::vector<ShardPlacement>(shards), 16);
    EXPECT_EQ(view->generation, 1u);
    EXPECT_EQ(view->num_shards(), shards);
    EXPECT_EQ(view->num_slots(), shards * 16);
    for (uint64_t item = 0; item < 4000; ++item) {
      ASSERT_EQ(view->ShardFor(item), TopologyView::SlotOf(item, shards))
          << "item " << item << " with " << shards << " shards";
    }
  }
}

TEST(ShardTopologyTest, AddedShardsStealSlotsEvenly) {
  // 4 x 16 = 64 slots
  auto base = ShardTopology::MakeInitial(std::vector<ShardPlacement>(4), 16);
  std::vector<ShardPlacement> added(2);  // null backends: routing-only test
  auto grown = ShardTopology::WithAddedShards(*base, added);
  EXPECT_EQ(grown->generation, 2u);
  EXPECT_EQ(grown->num_shards(), 6u);
  const size_t target = grown->num_slots() / grown->num_shards();  // 10
  size_t total = 0, old_min = SIZE_MAX, old_max = 0;
  for (size_t s = 0; s < grown->num_shards(); ++s) {
    const size_t owned = grown->SlotsOwnedBy(s);
    total += owned;
    if (s >= 4) {
      EXPECT_EQ(owned, target) << "new shard " << s;
    } else {
      old_min = std::min(old_min, owned);
      old_max = std::max(old_max, owned);
    }
  }
  EXPECT_EQ(total, grown->num_slots());
  EXPECT_LE(old_max - old_min, 1u);  // even stealing
  // Slots that did not move keep their owner: routing only changes for
  // items whose slot was stolen.
  size_t moved = 0;
  for (size_t slot = 0; slot < base->num_slots(); ++slot) {
    if (base->slot_to_shard[slot] != grown->slot_to_shard[slot]) ++moved;
  }
  EXPECT_EQ(moved, 2 * target);
}

// -------------------------------------------------- handoff: bit fidelity --

// Summaries right after a handoff must be bit-identical to right before,
// for ALL SIX builtin families — the serialized snapshot states are the
// transfer format and the transfer loses nothing. Runs on the env-selected
// backend, so CI pins it per placement.
TEST(TopologyHandoffTest, SummariesIdenticalAcrossTheMove) {
  const uint64_t universe = 1 << 12;
  auto s = ZipfTurnstile(universe, 20000, 301);
  SketchConfig cfg = TestConfig(universe, 31);
  const std::vector<std::string> sketches = {
      "misra_gries", "ams_f2", "sis_l0", "robust_hh", "crhf_hh"};
  auto client = MakeClient(sketches, cfg, 4, 2);
  ASSERT_TRUE(Replay(client.get(), s, 1024, ReplayChurn::kDisabled).ok());
  ASSERT_TRUE(client->Flush().ok());

  std::vector<SketchSummary> before;
  for (const std::string& name : sketches) {
    auto summary = client->RawSummary(client->Handle(name).value());
    ASSERT_TRUE(summary.ok()) << name;
    before.push_back(std::move(summary).value());
  }
  const uint64_t generation = client->Topology().generation;

  for (size_t shard = 0; shard < 2; ++shard) {  // move two of the four
    ASSERT_TRUE(client->MoveShard(shard, InProcessBackendFactory()).ok());
    // The recorded trace spans are the single source of handoff phase
    // timings and transfer sizes.
    TraceSpan move;
    for (const auto& span : client->TraceSpans()) {
      if (span.name == "move_shard" && span.Attr("shard") == shard) {
        move = span;
      }
    }
    ASSERT_EQ(move.name, "move_shard") << "shard " << shard;
    EXPECT_GT(move.Attr("state_bytes"), 0u);
  }
  EXPECT_EQ(client->Topology().generation, generation + 2);

  for (size_t i = 0; i < sketches.size(); ++i) {
    auto after = client->RawSummary(client->Handle(sketches[i]).value());
    ASSERT_TRUE(after.ok()) << sketches[i];
    ExpectSummariesIdentical(after.value(), before[i],
                             sketches[i] + " across the move");
  }
  ASSERT_TRUE(client->Finish().ok());
}

// ------------------------------------- handoff: mid-ingest bit-identity --

// A run that hands a shard off mid-stream and KEEPS INGESTING must end
// bit-identical to a run that never moved anything, for the state-exact
// families — across every placement pattern and both handoff targets.
void CheckMidIngestMovePreservesAnswers(
    const stream::TurnstileStream& s, const SketchConfig& cfg,
    const std::vector<std::string>& sketches, const BackendFactory& primary,
    const BackendFactory& target, const std::string& context) {
  auto reference = MakeClient(sketches, cfg, 4, 2, primary);
  ASSERT_TRUE(Replay(reference.get(), s, 1024, ReplayChurn::kDisabled).ok());
  ASSERT_TRUE(reference->Finish().ok());

  auto moved = MakeClient(sketches, cfg, 4, 2, primary);
  ASSERT_TRUE(ReplayWithMidpoint(moved.get(), s, 1024, [&] {
                return moved->MoveShard(1, target);
              }).ok());
  ASSERT_TRUE(moved->Finish().ok());

  for (const std::string& name : sketches) {
    auto got = moved->RawSummary(moved->Handle(name).value());
    auto want = reference->RawSummary(reference->Handle(name).value());
    ASSERT_TRUE(got.ok() && want.ok()) << name << " " << context;
    ExpectSummariesIdentical(got.value(), want.value(), name + " " + context);
  }
}

TEST(TopologyHandoffTest, MidIngestMoveBitIdenticalOnZipf) {
  const uint64_t universe = 1 << 12;
  auto s = ZipfTurnstile(universe, 24000, 302);
  SketchConfig cfg = TestConfig(universe, 33);
  const std::vector<std::string> sketches = {"misra_gries", "ams_f2",
                                             "sis_l0"};
  for (const BackendCase& primary : AllPlacements()) {
    for (const BackendCase& target :
         {BackendCase{"inprocess", InProcessBackendFactory()},
          BackendCase{"tcp", TcpBackendFactory()}}) {
      CheckMidIngestMovePreservesAnswers(
          s, cfg, sketches, primary.factory, target.factory,
          std::string("primary=") + primary.name + " target=" + target.name);
    }
  }
}

TEST(TopologyHandoffTest, MidIngestMoveBitIdenticalOnChurn) {
  const uint64_t universe = 1 << 12;
  wbs::RandomTape tape(303);
  tape.set_logging(false);
  auto s = stream::InsertDeleteChurnStream(universe, 120, 2500, &tape);
  SketchConfig cfg = TestConfig(universe, 35);
  CheckMidIngestMovePreservesAnswers(s, cfg, {"ams_f2", "sis_l0"},
                                     InProcessBackendFactory(),
                                     TcpBackendFactory(),
                                     "churn inprocess->tcp");
  CheckMidIngestMovePreservesAnswers(s, cfg, {"ams_f2", "sis_l0"},
                                     TcpBackendFactory(),
                                     InProcessBackendFactory(),
                                     "churn tcp->inprocess");
}

TEST(TopologyHandoffTest, MidIngestMoveBitIdenticalOnRankDecision) {
  SketchConfig cfg = TestConfig(1, 17);
  cfg.rank.n = 32;
  cfg.rank.k = 8;
  stream::TurnstileStream diag;
  for (size_t i = 0; i < 8; ++i) {
    diag.push_back({uint64_t(i) * cfg.rank.n + i, 1});
  }
  auto reference = MakeClient({"rank_decision"}, cfg, 2, 1,
                              InProcessBackendFactory());
  ASSERT_TRUE(Replay(reference.get(), diag, 2, ReplayChurn::kDisabled).ok());
  ASSERT_TRUE(reference->Finish().ok());
  auto moved = MakeClient({"rank_decision"}, cfg, 2, 1,
                          InProcessBackendFactory());
  ASSERT_TRUE(ReplayWithMidpoint(moved.get(), diag, 2, [&] {
                return moved->MoveShard(0, TcpBackendFactory());
              }).ok());
  ASSERT_TRUE(moved->Finish().ok());
  auto got = moved->QueryRank(moved->Handle("rank_decision").value());
  auto want =
      reference->QueryRank(reference->Handle("rank_decision").value());
  ASSERT_TRUE(got.ok() && want.ok());
  EXPECT_EQ(got.value().rank_at_least_k, want.value().rank_at_least_k);
  EXPECT_TRUE(got.value().rank_at_least_k);
}

// A handoff retires the source cell instead of keeping it: the moved
// engine's space is that of an engine that never moved, not that plus the
// retired placement's state.
TEST(TopologyHandoffTest, MoveShardDoesNotDoubleCountSpace) {
  const uint64_t universe = 1 << 12;
  auto s = ZipfTurnstile(universe, 20000, 311);
  SketchConfig cfg = TestConfig(universe, 53);
  const std::vector<std::string> sketches = {"ams_f2", "sis_l0"};
  auto reference = MakeClient(sketches, cfg, 4, 2, InProcessBackendFactory());
  ASSERT_TRUE(Replay(reference.get(), s, 1024, ReplayChurn::kDisabled).ok());
  ASSERT_TRUE(reference->Finish().ok());

  auto moved = MakeClient(sketches, cfg, 4, 2, InProcessBackendFactory());
  ASSERT_TRUE(ReplayWithMidpoint(moved.get(), s, 1024, [&] {
                return moved->MoveShard(0, InProcessBackendFactory());
              }).ok());
  ASSERT_TRUE(moved->Finish().ok());
  EXPECT_EQ(moved->SpaceBits(), reference->SpaceBits());
}

// --------------------------------------------- handoff: sampling families --

// Sampler internals do not cross the wire, so a moved sampling shard
// continues as frozen-prefix + fresh-sampler. That continuation is
// deterministic and placement-independent: the same handoff schedule must
// produce IDENTICAL answers on in-process, tcp, and mixed engines —
// and planted heavy hitters must still be recovered.
TEST(TopologyHandoffTest, SamplingHandoffIdenticalAcrossPlacements) {
  const uint64_t universe = 1 << 16;
  wbs::RandomTape tape(304);
  tape.set_logging(false);
  std::vector<uint64_t> planted;
  auto items = stream::PlantedHeavyHitterStream(universe, 30000, 3, 0.2,
                                                &tape, &planted);
  stream::TurnstileStream s;
  s.reserve(items.size());
  for (const auto& u : items) s.push_back({u.item, 1});
  SketchConfig cfg = TestConfig(universe, 37);
  const std::vector<std::string> sketches = {"misra_gries", "robust_hh",
                                             "crhf_hh"};

  std::vector<std::vector<SketchSummary>> results;
  for (const BackendCase& placement : AllPlacements()) {
    auto client = MakeClient(sketches, cfg, 4, 2, placement.factory);
    ASSERT_TRUE(ReplayWithMidpoint(client.get(), s, 1024, [&] {
                  return client->MoveShard(2, InProcessBackendFactory());
                }).ok())
        << placement.name;
    ASSERT_TRUE(client->Finish().ok()) << placement.name;
    std::vector<SketchSummary> summaries;
    for (const std::string& name : sketches) {
      auto summary = client->RawSummary(client->Handle(name).value());
      ASSERT_TRUE(summary.ok()) << name << " on " << placement.name;
      summaries.push_back(std::move(summary).value());
    }
    results.push_back(std::move(summaries));
  }
  for (size_t p = 1; p < results.size(); ++p) {
    for (size_t i = 0; i < sketches.size(); ++i) {
      ExpectSummariesIdentical(results[p][i], results[0][i],
                               sketches[i] + " placement " +
                                   AllPlacements()[p].name);
    }
  }
  // Recall: every planted 20%-heavy item is still reported by the union of
  // frozen-prefix and fresh-sampler candidates (allow the same slack as
  // the no-handoff planted suite).
  int robust_misses = 0, crhf_misses = 0;
  for (size_t i = 1; i <= 2; ++i) {  // robust_hh, crhf_hh
    for (uint64_t id : planted) {
      bool found = false;
      for (const auto& wi : results[0][i].items) found |= wi.item == id;
      (i == 1 ? robust_misses : crhf_misses) += found ? 0 : 1;
    }
  }
  EXPECT_LE(robust_misses, 1);
  EXPECT_LE(crhf_misses, 1);
}

// ---------------------------------------------------------------- scale-out --

// Post-scale-out answers equal a single-topology reference merge: the
// linear families are bit-identical under ANY partitioning of the stream
// (state merges are sums), and eviction-free Misra-Gries stays exact.
TEST(TopologyScaleOutTest, MidIngestAddShardsPreservesLinearAnswers) {
  const uint64_t universe = 1 << 12;
  auto zipf = ZipfTurnstile(universe, 24000, 305);
  wbs::RandomTape tape(306);
  tape.set_logging(false);
  auto churn = stream::InsertDeleteChurnStream(universe, 150, 2500, &tape);
  SketchConfig cfg = TestConfig(universe, 41);

  for (const stream::TurnstileStream* s : {&zipf, &churn}) {
    auto reference =
        MakeClient({"ams_f2", "sis_l0"}, cfg, 4, 2, InProcessBackendFactory());
    ASSERT_TRUE(
        Replay(reference.get(), *s, 1024, ReplayChurn::kDisabled).ok());
    ASSERT_TRUE(reference->Finish().ok());

    for (const BackendCase& cell :
         {BackendCase{"inprocess", InProcessBackendFactory()},
          BackendCase{"tcp", TcpBackendFactory()}}) {
      auto grown = MakeClient({"ams_f2", "sis_l0"}, cfg, 4, 2,
                              InProcessBackendFactory());
      ASSERT_TRUE(ReplayWithMidpoint(grown.get(), *s, 1024, [&] {
                    return grown->AddShards(3, cell.factory);
                  }).ok());
      ASSERT_TRUE(grown->Finish().ok());
      EXPECT_EQ(grown->num_shards(), 7u);

      for (const char* name : {"ams_f2", "sis_l0"}) {
        auto got = grown->QueryScalar(grown->Handle(name).value());
        auto want = reference->QueryScalar(reference->Handle(name).value());
        ASSERT_TRUE(got.ok() && want.ok()) << name;
        EXPECT_EQ(got.value().value, want.value().value)
            << name << " cells=" << cell.name;
        EXPECT_EQ(got.value().updates, want.value().updates) << name;
      }
    }
  }
}

TEST(TopologyScaleOutTest, EvictionFreeMisraGriesStaysExactAcrossScaleOut) {
  const uint64_t universe = 256;
  auto s = ZipfTurnstile(universe, 16000, 307);
  stream::FrequencyOracle truth(universe);
  for (const auto& u : s) truth.Add(u.item, u.delta);
  SketchConfig cfg = TestConfig(universe, 43);
  cfg.misra_gries.counters = 512;  // > universe: no eviction anywhere

  auto client = MakeClient({"misra_gries"}, cfg, 2, 0);
  ASSERT_TRUE(ReplayWithMidpoint(client.get(), s, 1024, [&] {
                return client->AddShards(2);
              }).ok());
  ASSERT_TRUE(client->Finish().ok());
  auto mg = client->Handle("misra_gries").value();
  for (const auto& [item, f] : truth.frequencies()) {
    auto point = client->QueryPoint(mg, item);
    ASSERT_TRUE(point.ok()) << item;
    EXPECT_DOUBLE_EQ(point.value().estimate, double(f)) << item;
  }
}

TEST(TopologyScaleOutTest, PlantedHeavyHittersRecoveredAcrossScaleOut) {
  const uint64_t universe = 1 << 16;
  wbs::RandomTape tape(308);
  tape.set_logging(false);
  std::vector<uint64_t> planted;
  auto items = stream::PlantedHeavyHitterStream(universe, 30000, 3, 0.2,
                                                &tape, &planted);
  stream::TurnstileStream s;
  s.reserve(items.size());
  for (const auto& u : items) s.push_back({u.item, 1});
  SketchConfig cfg = TestConfig(universe, 45);
  auto client = MakeClient({"robust_hh", "crhf_hh"}, cfg, 4, 2);
  ASSERT_TRUE(ReplayWithMidpoint(client.get(), s, 1024, [&] {
                return client->AddShards(4);
              }).ok());
  ASSERT_TRUE(client->Finish().ok());
  int misses = 0;
  for (const char* name : {"robust_hh", "crhf_hh"}) {
    auto top = client->QueryTopK(client->Handle(name).value(), 1 << 20);
    ASSERT_TRUE(top.ok()) << name;
    for (uint64_t id : planted) {
      bool found = false;
      for (const auto& wi : top.value().items) found |= wi.item == id;
      misses += found ? 0 : 1;
    }
  }
  EXPECT_LE(misses, 2);
}

// ------------------------------------------------------ failure semantics --

TEST(TopologyFailureTest, UnserializableSketchLeavesTopologyUnchanged) {
  class OpaqueSketch final : public Sketch {
   public:
    const std::string& name() const override {
      static const std::string n = "topology_opaque";
      return n;
    }
    Status Update(const stream::TurnstileUpdate& u) override {
      net_ += u.delta;
      return Status::OK();
    }
    SketchSummary Summary() const override {
      SketchSummary s;
      s.sketch = "topology_opaque";
      s.has_scalar = true;
      s.scalar = double(net_);
      return s;
    }
    Status MergeFrom(const Sketch& other) override {
      net_ += static_cast<const OpaqueSketch&>(other).net_;
      return Status::OK();
    }
    uint64_t SpaceBits() const override { return 64; }

   private:
    int64_t net_ = 0;
  };
  static bool registered = [] {
    return SketchRegistry::Global()
        .Register("topology_opaque",
                  [](const SketchConfig&) {
                    return std::make_unique<OpaqueSketch>();
                  })
        .ok();
  }();
  ASSERT_TRUE(registered);

  auto client = MakeClient({"topology_opaque"}, TestConfig(1 << 10, 5), 2, 1,
                           InProcessBackendFactory());
  stream::TurnstileStream s{{1, 1}, {2, 1}, {3, 1}, {4, 1}};
  ASSERT_TRUE(SubmitAll(*client, s).ok());
  ASSERT_TRUE(client->Flush().ok());
  const uint64_t generation = client->Topology().generation;
  Status moved = client->MoveShard(0, InProcessBackendFactory());
  ASSERT_FALSE(moved.ok());
  EXPECT_EQ(moved.code(), Status::Code::kUnimplemented) << moved.ToString();
  EXPECT_EQ(client->Topology().generation, generation);
  // The engine keeps working after the failed op.
  ASSERT_TRUE(SubmitAll(*client, s).ok());
  ASSERT_TRUE(client->Finish().ok());
  auto scalar = client->QueryScalar(client->Handle("topology_opaque").value());
  ASSERT_TRUE(scalar.ok());
  EXPECT_DOUBLE_EQ(scalar.value().value, 8.0);
}

TEST(TopologyFailureTest, MoveOfNeverIngestedShardWorks) {
  // A shard with no published state moves as a fresh cell (no frames to
  // ship) and ingests correctly afterwards.
  SketchConfig cfg = TestConfig(1 << 10, 7);
  auto client = MakeClient({"ams_f2"}, cfg, 2, 0);
  ASSERT_TRUE(client->MoveShard(1, TcpBackendFactory()).ok());
  auto s = ZipfTurnstile(1 << 10, 4000, 309);
  ASSERT_TRUE(Replay(client.get(), s, 1024, ReplayChurn::kDisabled).ok());
  ASSERT_TRUE(client->Finish().ok());
  auto reference = MakeClient({"ams_f2"}, cfg, 2, 0,
                              InProcessBackendFactory());
  ASSERT_TRUE(
      Replay(reference.get(), s, 1024, ReplayChurn::kDisabled).ok());
  ASSERT_TRUE(reference->Finish().ok());
  auto got = client->QueryScalar(client->Handle("ams_f2").value());
  auto want = reference->QueryScalar(reference->Handle("ams_f2").value());
  ASSERT_TRUE(got.ok() && want.ok());
  EXPECT_EQ(got.value().value, want.value().value);
}

// --------------------------------------------------- live queries vs ops --

TEST(TopologyLiveTest, QueriesKeepAnsweringThroughTopologyOps) {
  const uint64_t universe = 1 << 12;
  auto s = ZipfTurnstile(universe, 120000, 310);
  SketchConfig cfg = TestConfig(universe, 51);
  auto client = MakeClient({"ams_f2", "sis_l0"}, cfg, 4, 2);
  auto f2 = client->Handle("ams_f2").value();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> query_errors{0};
  uint64_t last_updates = 0;
  std::atomic<bool> monotone{true};
  std::thread querier([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto r = client->QueryScalar(f2);
      if (!r.ok()) {
        ++query_errors;
        continue;
      }
      if (r.value().updates < last_updates) monotone = false;
      last_updates = r.value().updates;
    }
  });

  const size_t batch = 2048;
  const size_t batches = (s.size() + batch - 1) / batch;
  size_t index = 0;
  for (size_t off = 0; off < s.size(); off += batch, ++index) {
    if (index == batches / 4) {
      ASSERT_TRUE(client->AddShards(2).ok());
    }
    if (index == batches / 2) {
      ASSERT_TRUE(client->MoveShard(0, TcpBackendFactory()).ok());
    }
    if (index == 3 * batches / 4) {
      ASSERT_TRUE(client->MoveShard(5, InProcessBackendFactory()).ok());
    }
    ASSERT_TRUE(
        client->Submit(s.data() + off, std::min(batch, s.size() - off)).ok());
  }
  ASSERT_TRUE(client->Flush().ok());
  stop.store(true, std::memory_order_relaxed);
  querier.join();
  ASSERT_TRUE(client->Finish().ok());
  EXPECT_EQ(query_errors.load(), 0u);
  EXPECT_TRUE(monotone.load());
  EXPECT_EQ(client->num_shards(), 6u);
  EXPECT_EQ(client->Topology().generation, 4u);

  // Final answer equals a single-topology reference (linear family).
  auto reference = MakeClient({"ams_f2", "sis_l0"}, cfg, 1, 0,
                              InProcessBackendFactory());
  ASSERT_TRUE(
      Replay(reference.get(), s, 4096, ReplayChurn::kDisabled).ok());
  ASSERT_TRUE(reference->Finish().ok());
  auto got = client->QueryScalar(f2);
  auto want = reference->QueryScalar(reference->Handle("ams_f2").value());
  ASSERT_TRUE(got.ok() && want.ok());
  EXPECT_EQ(got.value().value, want.value().value);
  EXPECT_EQ(got.value().updates, uint64_t(s.size()));
}

}  // namespace
}  // namespace wbs::engine
