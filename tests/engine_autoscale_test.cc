// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// The autoscaling control plane (PR 9): slot-level migration (MoveSlots)
// and the load-driven controller that issues reshard operations itself.
//
// The load-bearing guarantees pinned here:
//   * the slot table's owned-slot bookkeeping is exact under every
//     mutation (MakeInitial, WithAddedShards, WithMovedSlots), and
//     WithMovedSlots rejects malformed requests without touching the base;
//   * a slot move is ROUTING-ONLY: summaries right after a MoveSlots are
//     bit-identical to right before for all six builtin families (no
//     sketch state moves — the source keeps its frozen prefix
//     merge-visible), across in-process and TCP placements;
//   * a run that peels slots mid-ingest and keeps ingesting ends
//     bit-identical to a never-moved reference for the linear families
//     (ams_f2, sis_l0, rank_decision), across both placements —
//     the same merge-over-all-shards-ever argument as scale-out;
//   * the controller scales out on a hot load (manual-mode EvaluateOnce,
//     deterministic) and the post-scale-out answers still equal a static
//     single-topology reference;
//   * anti-flap hysteresis: under a flapping load the controller takes at
//     most ONE reshard action per cooldown window — every further due
//     decision is suppressed and counted;
//   * a hot slot is rebalanced via MoveSlots WITHOUT a whole-shard
//     handoff (shard count unchanged, only slot ownership shifts), and
//     the answers still match a static reference;
//   * a dead shard is never selected as a migration destination — by the
//     controller's destination picker, and by MoveSlots itself (direct
//     calls onto a dead destination fail Unavailable with the topology
//     untouched).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "engine/autoscaler.h"
#include "engine/backend.h"
#include "engine/client.h"
#include "engine/remote_backend.h"
#include "engine/topology.h"
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

/// The placements slot moves must be transparent to. TCP here is the
/// self-hosted factory: every shard behind a real localhost socket.
std::vector<BackendCase> SlotMovePlacements() {
  return {{"inprocess", InProcessBackendFactory()},
          {"tcp", TcpBackendFactory()}};
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

/// A client with the autoscaler in MANUAL mode (no controller thread):
/// tests drive it with EvaluateOnce, so every decision is a deterministic
/// function of the submitted load.
std::unique_ptr<Client> MakeAutoscaleClient(
    std::vector<std::string> sketches, const SketchConfig& cfg, size_t shards,
    size_t threads, AutoscaleOptions autoscale, size_t slot_sample_shift,
    BackendFactory backend = InProcessBackendFactory()) {
  ClientOptions opts;
  opts.ingest.num_shards = shards;
  opts.ingest.num_threads = threads;
  opts.ingest.sketches = std::move(sketches);
  opts.ingest.config = cfg;
  opts.ingest.backend = std::move(backend);
  opts.ingest.slot_sample_shift = slot_sample_shift;
  opts.ingest.autoscale = std::move(autoscale);
  opts.ingest.autoscale.enabled = true;
  opts.ingest.autoscale.evaluation_interval_ms = 0;  // manual
  auto client = Client::Create(opts);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(client).value();
}

bool PollUntil(const std::function<bool()>& pred, int timeout_ms = 30000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

/// First `n` distinct items (from `start`) the INITIAL topology routes to
/// `shard` — lets a test aim load at a specific shard.
std::vector<uint64_t> ItemsForShard(size_t shard, size_t num_shards,
                                    uint64_t universe, size_t n,
                                    uint64_t start = 0) {
  std::vector<uint64_t> items;
  for (uint64_t item = start; item < universe && items.size() < n; ++item) {
    if (TopologyView::SlotOf(item, num_shards) == shard) {
      items.push_back(item);
    }
  }
  EXPECT_EQ(items.size(), n) << "universe too small for shard " << shard;
  return items;
}

Status SubmitAll(Client* client, const stream::TurnstileStream& s,
                 size_t batch = 1024) {
  for (size_t off = 0; off < s.size(); off += batch) {
    auto t = client->Submit(s.data() + off, std::min(batch, s.size() - off));
    if (!t.ok()) return t.status();
  }
  return client->Flush();
}

// ------------------------------------------------- slot-table bookkeeping --

TEST(SlotTableTest, OwnedSlotBookkeepingIsExact) {
  // 4 x 16 = 64 slots
  auto base = ShardTopology::MakeInitial(std::vector<ShardPlacement>(4), 16);
  size_t total = 0;
  for (size_t s = 0; s < base->num_shards(); ++s) {
    size_t brute = 0;
    for (uint32_t owner : base->slot_to_shard) {
      if (owner == s) ++brute;
    }
    EXPECT_EQ(base->SlotsOwnedBy(s), brute) << "shard " << s;
    auto ids = base->OwnedSlotIds(s);
    ASSERT_EQ(ids.size(), brute) << "shard " << s;
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    for (uint32_t id : ids) EXPECT_EQ(base->slot_to_shard[id], s);
    total += brute;
  }
  EXPECT_EQ(total, base->num_slots());

  // Scale-out keeps the counts exact for old and new shards alike.
  std::vector<ShardPlacement> added(2);
  auto grown = ShardTopology::WithAddedShards(*base, added);
  for (size_t s = 0; s < grown->num_shards(); ++s) {
    size_t brute = 0;
    for (uint32_t owner : grown->slot_to_shard) {
      if (owner == s) ++brute;
    }
    EXPECT_EQ(grown->SlotsOwnedBy(s), brute) << "grown shard " << s;
  }

  // A slot move re-points exactly the requested slots and bumps BOTH
  // generations (routing changed, so routers must re-scatter).
  auto owned0 = base->OwnedSlotIds(0);
  ASSERT_GE(owned0.size(), 4u);
  std::vector<uint32_t> slots(owned0.begin(), owned0.begin() + 3);
  auto moved = ShardTopology::WithMovedSlots(*base, slots, 2);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  const TopologyView& v = *moved.value();
  EXPECT_EQ(v.generation, base->generation + 1);
  EXPECT_EQ(v.routing_generation, base->routing_generation + 1);
  EXPECT_EQ(v.SlotsOwnedBy(0), base->SlotsOwnedBy(0) - 3);
  EXPECT_EQ(v.SlotsOwnedBy(2), base->SlotsOwnedBy(2) + 3);
  for (uint32_t slot : slots) EXPECT_EQ(v.slot_to_shard[slot], 2u);
  // Untouched slots keep their owner.
  size_t changed = 0;
  for (size_t slot = 0; slot < v.num_slots(); ++slot) {
    if (v.slot_to_shard[slot] != base->slot_to_shard[slot]) ++changed;
  }
  EXPECT_EQ(changed, slots.size());

  // Duplicate slot ids in one request move (and count) once.
  auto dup =
      ShardTopology::WithMovedSlots(*base, {owned0[3], owned0[3]}, 1);
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(dup.value()->SlotsOwnedBy(0), base->SlotsOwnedBy(0) - 1);
  EXPECT_EQ(dup.value()->SlotsOwnedBy(1), base->SlotsOwnedBy(1) + 1);
}

TEST(SlotTableTest, WithMovedSlotsRejectsMalformedRequests) {
  // 3 x 16 = 48 slots
  auto base = ShardTopology::MakeInitial(std::vector<ShardPlacement>(3), 16);
  auto owned0 = base->OwnedSlotIds(0);
  auto owned1 = base->OwnedSlotIds(1);
  ASSERT_FALSE(owned0.empty());
  ASSERT_FALSE(owned1.empty());

  auto empty = ShardTopology::WithMovedSlots(*base, {}, 1);
  EXPECT_EQ(empty.status().code(), Status::Code::kInvalidArgument);
  auto bad_dest = ShardTopology::WithMovedSlots(*base, {owned0[0]}, 3);
  EXPECT_EQ(bad_dest.status().code(), Status::Code::kOutOfRange);
  auto bad_slot = ShardTopology::WithMovedSlots(
      *base, {uint32_t(base->num_slots())}, 1);
  EXPECT_EQ(bad_slot.status().code(), Status::Code::kOutOfRange);
  auto two_sources =
      ShardTopology::WithMovedSlots(*base, {owned0[0], owned1[0]}, 2);
  EXPECT_EQ(two_sources.status().code(), Status::Code::kInvalidArgument);
  auto self_move = ShardTopology::WithMovedSlots(*base, {owned0[0]}, 0);
  EXPECT_EQ(self_move.status().code(), Status::Code::kInvalidArgument);
}

// --------------------------------------------------- slot-move bit fidelity --

// A slot move carries NO sketch state (the source keeps its frozen prefix
// merge-visible), so summaries right after MoveSlots must be bit-identical
// to right before — for ALL SIX builtin families, on every placement the
// engine supports, including real TCP sockets. rank_decision is covered by
// the mid-ingest suite below (it needs its own matrix-coordinate stream).
TEST(SlotMoveFidelityTest, SummariesIdenticalAcrossTheMove) {
  const uint64_t universe = 1 << 12;
  auto s = ZipfTurnstile(universe, 20000, 901);
  SketchConfig cfg = TestConfig(universe, 91);
  const std::vector<std::string> sketches = {
      "misra_gries", "ams_f2", "sis_l0", "robust_hh", "crhf_hh"};
  // The engine builds its initial table with the same deterministic layout,
  // so the slot ids each shard owns are computable up front.
  auto initial = ShardTopology::MakeInitial(std::vector<ShardPlacement>(4), 16);
  auto owned0 = initial->OwnedSlotIds(0);
  auto owned2 = initial->OwnedSlotIds(2);

  for (const BackendCase& placement : SlotMovePlacements()) {
    auto client = MakeClient(sketches, cfg, 4, 2, placement.factory);
    ASSERT_TRUE(Replay(client.get(), s, 1024, ReplayChurn::kDisabled).ok())
        << placement.name;
    ASSERT_TRUE(client->Flush().ok()) << placement.name;

    std::vector<SketchSummary> before;
    for (const std::string& name : sketches) {
      auto summary = client->RawSummary(client->Handle(name).value());
      ASSERT_TRUE(summary.ok()) << name << " on " << placement.name;
      before.push_back(std::move(summary).value());
    }
    const uint64_t generation = client->Topology().generation;

    // Peel half of shard 0's slots onto shard 1, then a few of shard 2's
    // onto shard 3 — two sources, two destinations, one table each.
    std::vector<uint32_t> first(owned0.begin(),
                                owned0.begin() + owned0.size() / 2);
    ASSERT_TRUE(client->MoveSlots(0, first, 1).ok()) << placement.name;
    std::vector<uint32_t> second(owned2.begin(), owned2.begin() + 4);
    ASSERT_TRUE(client->MoveSlots(2, second, 3).ok()) << placement.name;
    EXPECT_EQ(client->Topology().generation, generation + 2)
        << placement.name;
    EXPECT_EQ(client->Topology().slots_per_shard[0],
              owned0.size() - first.size())
        << placement.name;
    EXPECT_EQ(client->Topology().slots_per_shard[1],
              owned0.size() + first.size())
        << placement.name;

    // The move is observable in the trace, not in any answer.
    bool saw_move_span = false;
    for (const auto& span : client->TraceSpans()) {
      if (span.name != "move_slots") continue;
      saw_move_span = true;
      EXPECT_GT(span.Attr("slots"), 0u) << placement.name;
    }
    EXPECT_TRUE(saw_move_span) << placement.name;

    for (size_t i = 0; i < sketches.size(); ++i) {
      auto after = client->RawSummary(client->Handle(sketches[i]).value());
      ASSERT_TRUE(after.ok()) << sketches[i] << " on " << placement.name;
      ExpectSummariesIdentical(
          after.value(), before[i],
          sketches[i] + " across MoveSlots on " + placement.name);
    }
    ASSERT_TRUE(client->Finish().ok()) << placement.name;
  }
}

// A run that peels slots mid-stream and KEEPS INGESTING must end
// bit-identical to a run that never moved anything, for the linear
// families — answers merge over all shards ever, so re-partitioning the
// suffix is invisible. Pinned across both placements.
TEST(SlotMoveFidelityTest, MidIngestMoveSlotsBitIdenticalOnZipf) {
  const uint64_t universe = 1 << 12;
  auto s = ZipfTurnstile(universe, 24000, 902);
  SketchConfig cfg = TestConfig(universe, 93);
  const std::vector<std::string> sketches = {"ams_f2", "sis_l0"};
  auto initial = ShardTopology::MakeInitial(std::vector<ShardPlacement>(4), 16);
  auto owned1 = initial->OwnedSlotIds(1);
  std::vector<uint32_t> slots(owned1.begin(), owned1.begin() + 6);

  auto reference =
      MakeClient(sketches, cfg, 4, 2, InProcessBackendFactory());
  ASSERT_TRUE(Replay(reference.get(), s, 1024, ReplayChurn::kDisabled).ok());
  ASSERT_TRUE(reference->Finish().ok());

  for (const BackendCase& placement : SlotMovePlacements()) {
    auto moved = MakeClient(sketches, cfg, 4, 2, placement.factory);
    const size_t batch = 1024;
    const size_t batches = (s.size() + batch - 1) / batch;
    size_t index = 0;
    for (size_t off = 0; off < s.size(); off += batch, ++index) {
      if (index == batches / 2) {
        ASSERT_TRUE(moved->MoveSlots(1, slots, 2).ok()) << placement.name;
      }
      ASSERT_TRUE(
          moved->Submit(s.data() + off, std::min(batch, s.size() - off)).ok())
          << placement.name;
    }
    ASSERT_TRUE(moved->Finish().ok()) << placement.name;
    for (const std::string& name : sketches) {
      auto got = moved->QueryScalar(moved->Handle(name).value());
      auto want = reference->QueryScalar(reference->Handle(name).value());
      ASSERT_TRUE(got.ok() && want.ok()) << name << " " << placement.name;
      EXPECT_EQ(got.value().value, want.value().value)
          << name << " on " << placement.name;
      EXPECT_EQ(got.value().updates, want.value().updates)
          << name << " on " << placement.name;
    }
  }
}

TEST(SlotMoveFidelityTest, MidIngestMoveSlotsBitIdenticalOnRankDecision) {
  SketchConfig cfg = TestConfig(1, 17);
  cfg.rank.n = 32;
  cfg.rank.k = 8;
  stream::TurnstileStream diag;
  for (size_t i = 0; i < 8; ++i) {
    diag.push_back({uint64_t(i) * cfg.rank.n + i, 1});
  }
  auto reference =
      MakeClient({"rank_decision"}, cfg, 2, 1, InProcessBackendFactory());
  ASSERT_TRUE(Replay(reference.get(), diag, 2, ReplayChurn::kDisabled).ok());
  ASSERT_TRUE(reference->Finish().ok());

  auto initial = ShardTopology::MakeInitial(std::vector<ShardPlacement>(2), 16);
  auto owned0 = initial->OwnedSlotIds(0);
  std::vector<uint32_t> slots(owned0.begin(), owned0.begin() + 4);
  auto moved =
      MakeClient({"rank_decision"}, cfg, 2, 1, InProcessBackendFactory());
  size_t index = 0;
  for (size_t off = 0; off < diag.size(); off += 2, ++index) {
    if (index == 2) {
      ASSERT_TRUE(moved->MoveSlots(0, slots, 1).ok());
    }
    ASSERT_TRUE(moved->Submit(diag.data() + off, 2).ok());
  }
  ASSERT_TRUE(moved->Finish().ok());
  auto got = moved->QueryRank(moved->Handle("rank_decision").value());
  auto want =
      reference->QueryRank(reference->Handle("rank_decision").value());
  ASSERT_TRUE(got.ok() && want.ok());
  EXPECT_EQ(got.value().rank_at_least_k, want.value().rank_at_least_k);
  EXPECT_TRUE(got.value().rank_at_least_k);
}

// ------------------------------------------------------- controller: scale --

// The controller scales out on a synthetic hot load. Manual mode: the
// first EvaluateOnce only records counter baselines, the second sees the
// ingested delta as a rate far above the (tiny) watermark and issues
// AddShards. Post-scale-out answers equal a static reference — the
// controller can reshard whenever it likes without touching correctness.
TEST(AutoscaleTest, ScaleOutFiresOnHotLoadAndPreservesAnswers) {
  const uint64_t universe = 1 << 12;
  auto s = ZipfTurnstile(universe, 24000, 903);
  SketchConfig cfg = TestConfig(universe, 95);
  const std::vector<std::string> sketches = {"ams_f2", "sis_l0"};

  AutoscaleOptions autoscale;
  autoscale.high_watermark_updates_per_sec = 1.0;  // any load trips it
  autoscale.cooldown_ms = 0;
  autoscale.max_shards = 4;
  autoscale.scale_step = 2;
  auto client = MakeAutoscaleClient(sketches, cfg, 2, 2, autoscale,
                                    /*slot_sample_shift=*/0);
  ASSERT_NE(client->autoscaler(), nullptr);

  const size_t half = (s.size() / 2 / 1024) * 1024;
  stream::TurnstileStream head(s.begin(), s.begin() + half);
  stream::TurnstileStream tail(s.begin() + half, s.end());

  // Rates are counter DELTAS between evaluations: the first call only
  // records baselines, so it precedes the load it must not see.
  AutoscaleDecision baseline = client->autoscaler()->EvaluateOnce();
  EXPECT_EQ(baseline.kind, AutoscaleDecision::Kind::kNone);
  ASSERT_TRUE(SubmitAll(client.get(), head).ok());
  AutoscaleDecision decision = client->autoscaler()->EvaluateOnce();
  ASSERT_EQ(decision.kind, AutoscaleDecision::Kind::kScaleOut);
  ASSERT_TRUE(decision.status.ok()) << decision.status.ToString();
  EXPECT_GT(decision.mean_rate, 1.0);
  EXPECT_EQ(client->num_shards(), 4u);

  MetricsSnapshot snap = client->Metrics();
  EXPECT_EQ(snap.Value("engine.autoscaler.scaleouts_total"), 1u);
  EXPECT_EQ(snap.Value("engine.autoscaler.shards_added_total"), 2u);
  bool saw_decision_span = false;
  for (const auto& span : client->TraceSpans()) {
    saw_decision_span |= span.name == "autoscale.decision";
  }
  EXPECT_TRUE(saw_decision_span);

  ASSERT_TRUE(SubmitAll(client.get(), tail).ok());
  ASSERT_TRUE(client->Finish().ok());

  auto reference =
      MakeClient(sketches, cfg, 2, 2, InProcessBackendFactory());
  ASSERT_TRUE(Replay(reference.get(), s, 1024, ReplayChurn::kDisabled).ok());
  ASSERT_TRUE(reference->Finish().ok());
  for (const std::string& name : sketches) {
    auto got = client->QueryScalar(client->Handle(name).value());
    auto want = reference->QueryScalar(reference->Handle(name).value());
    ASSERT_TRUE(got.ok() && want.ok()) << name;
    EXPECT_EQ(got.value().value, want.value().value) << name;
    EXPECT_EQ(got.value().updates, uint64_t(s.size())) << name;
  }
}

// Flapping load: the signal stays above the watermark across many
// evaluation cycles, but the cooldown window lets at most ONE reshard
// through — every further due decision is kCooldown, counted, and leaves
// the topology alone.
TEST(AutoscaleTest, HysteresisAtMostOneReshardPerCooldownWindow) {
  const uint64_t universe = 1 << 12;
  auto s = ZipfTurnstile(universe, 16000, 904);
  SketchConfig cfg = TestConfig(universe, 97);

  AutoscaleOptions autoscale;
  autoscale.high_watermark_updates_per_sec = 1.0;
  autoscale.cooldown_ms = 3'600'000;  // far longer than the test
  autoscale.max_shards = 8;
  autoscale.scale_step = 1;
  auto client = MakeAutoscaleClient({"ams_f2"}, cfg, 2, 2, autoscale,
                                    /*slot_sample_shift=*/0);

  stream::TurnstileStream burst(s.begin(), s.begin() + 2048);
  ASSERT_TRUE(SubmitAll(client.get(), burst).ok());
  EXPECT_EQ(client->autoscaler()->EvaluateOnce().kind,
            AutoscaleDecision::Kind::kNone);  // baselines only
  ASSERT_TRUE(SubmitAll(client.get(), burst).ok());
  AutoscaleDecision first = client->autoscaler()->EvaluateOnce();
  ASSERT_EQ(first.kind, AutoscaleDecision::Kind::kScaleOut);
  ASSERT_TRUE(first.status.ok());
  EXPECT_EQ(client->num_shards(), 3u);

  // The load keeps flapping; the window keeps the controller still.
  const size_t kFlaps = 5;
  for (size_t i = 0; i < kFlaps; ++i) {
    ASSERT_TRUE(SubmitAll(client.get(), burst).ok());
    AutoscaleDecision flap = client->autoscaler()->EvaluateOnce();
    EXPECT_EQ(flap.kind, AutoscaleDecision::Kind::kCooldown) << "flap " << i;
  }
  EXPECT_EQ(client->num_shards(), 3u);
  MetricsSnapshot snap = client->Metrics();
  EXPECT_EQ(snap.Value("engine.autoscaler.scaleouts_total"), 1u);
  EXPECT_EQ(snap.Value("engine.autoscaler.cooldown_suppressed_total"),
            uint64_t(kFlaps));
  ASSERT_TRUE(client->Finish().ok());
}

// The acceptance scenario: ONE hot slot dominates a shard's load. The
// controller rebalances it with a slot-level MoveSlots — no whole-shard
// handoff, no scale-out, shard count unchanged — and the answers still
// equal a static single-shard reference.
TEST(AutoscaleTest, HotSlotPeeledWithoutWholeShardHandoff) {
  const uint64_t universe = 1 << 12;
  SketchConfig cfg = TestConfig(universe, 99);
  const std::vector<std::string> sketches = {"ams_f2", "sis_l0"};

  // Aim the heat: one dominant item on shard 0 (one hot slot), a little
  // spread elsewhere so every rate is nonzero.
  const uint64_t hot = ItemsForShard(0, 2, universe, 1)[0];
  auto shard0_extras = ItemsForShard(0, 2, universe, 8, hot + 1);
  auto shard1_items = ItemsForShard(1, 2, universe, 8);
  stream::TurnstileStream skew;
  for (size_t i = 0; i < 8000; ++i) skew.push_back({hot, 1});
  for (uint64_t item : shard0_extras) {
    for (size_t i = 0; i < 50; ++i) skew.push_back({item, 1});
  }
  for (uint64_t item : shard1_items) {
    for (size_t i = 0; i < 50; ++i) skew.push_back({item, 1});
  }

  AutoscaleOptions autoscale;
  autoscale.high_watermark_updates_per_sec = 0.0;  // no rate scale-out
  autoscale.scale_on_valve_pressure = false;       // imbalance only
  autoscale.imbalance_ratio = 1.5;
  autoscale.cooldown_ms = 0;
  autoscale.max_slots_per_move = 2;
  auto client = MakeAutoscaleClient(sketches, cfg, 2, 2, autoscale,
                                    /*slot_sample_shift=*/1);

  EXPECT_EQ(client->autoscaler()->EvaluateOnce().kind,
            AutoscaleDecision::Kind::kNone);  // baselines
  ASSERT_TRUE(SubmitAll(client.get(), skew).ok());
  AutoscaleDecision decision = client->autoscaler()->EvaluateOnce();
  ASSERT_EQ(decision.kind, AutoscaleDecision::Kind::kMoveSlots);
  ASSERT_TRUE(decision.status.ok()) << decision.status.ToString();
  EXPECT_EQ(decision.source, 0u);
  EXPECT_EQ(decision.dest, 1u);
  ASSERT_FALSE(decision.slots.empty());
  EXPECT_LE(decision.slots.size(), 2u);

  // The dominant item's slot is what got peeled — sampled heat found it.
  const auto topo = client->Topology();
  const uint32_t hot_slot =
      uint32_t(TopologyView::SlotOf(hot, topo.num_slots));
  EXPECT_NE(std::find(decision.slots.begin(), decision.slots.end(), hot_slot),
            decision.slots.end())
      << "hottest slot not selected";

  // Slot-level, not shard-level: same shard count, ownership shifted.
  EXPECT_EQ(topo.num_shards, 2u);
  EXPECT_EQ(topo.slots_per_shard[0], 16 - decision.slots.size());
  EXPECT_EQ(topo.slots_per_shard[1], 16 + decision.slots.size());
  MetricsSnapshot snap = client->Metrics();
  EXPECT_EQ(snap.Value("engine.autoscaler.slot_moves_total"), 1u);
  EXPECT_EQ(snap.Value("engine.autoscaler.scaleouts_total"), 0u);

  // Keep ingesting through the rebalanced table; answers match a static
  // single-shard reference fed the same doubled stream.
  ASSERT_TRUE(SubmitAll(client.get(), skew).ok());
  ASSERT_TRUE(client->Finish().ok());
  auto reference =
      MakeClient(sketches, cfg, 1, 0, InProcessBackendFactory());
  ASSERT_TRUE(SubmitAll(reference.get(), skew).ok());
  ASSERT_TRUE(SubmitAll(reference.get(), skew).ok());
  ASSERT_TRUE(reference->Finish().ok());
  for (const std::string& name : sketches) {
    auto got = client->QueryScalar(client->Handle(name).value());
    auto want = reference->QueryScalar(reference->Handle(name).value());
    ASSERT_TRUE(got.ok() && want.ok()) << name;
    EXPECT_EQ(got.value().value, want.value().value) << name;
    EXPECT_EQ(got.value().updates, uint64_t(2 * skew.size())) << name;
  }
}

// ------------------------------------------------ controller vs dead shards --

// A dead shard must never become a migration destination: MoveSlots itself
// refuses (Unavailable, topology untouched), and the controller's
// destination picker routes around it to the healthiest candidate.
TEST(AutoscaleTest, DeadShardNeverPickedAsDestination) {
  const uint64_t universe = 1 << 12;
  SketchConfig cfg = TestConfig(universe, 101);

  // Tcp shards with heartbeat supervision and NO auto-recovery: the
  // crashed shard stays visibly dead for the whole scenario.
  ClientOptions opts;
  opts.ingest.num_shards = 3;
  opts.ingest.num_threads = 2;
  opts.ingest.sketches = {"ams_f2"};
  opts.ingest.config = cfg;
  opts.ingest.backend = TcpBackendFactory();
  opts.ingest.slot_sample_shift = 1;
  opts.ingest.failover.heartbeat_interval_ms = 10;
  opts.ingest.failover.heartbeat_timeout_ms = 50;
  opts.ingest.failover.dead_after_misses = 2;
  opts.ingest.failover.auto_recover = false;
  opts.ingest.autoscale.enabled = true;
  opts.ingest.autoscale.evaluation_interval_ms = 0;  // manual
  opts.ingest.autoscale.high_watermark_updates_per_sec = 0.0;
  opts.ingest.autoscale.scale_on_valve_pressure = false;
  opts.ingest.autoscale.imbalance_ratio = 1.5;
  opts.ingest.autoscale.cooldown_ms = 0;
  opts.ingest.autoscale.max_slots_per_move = 2;
  auto client_or = Client::Create(opts);
  ASSERT_TRUE(client_or.ok()) << client_or.status().ToString();
  auto client = std::move(client_or).value();

  // Shard 0 hot, shard 2 warm, shard 1 cold — shard 1 would be the
  // natural destination, so killing it makes the picker's health filter
  // load-bearing. The load never routes to shard 1, so ingest stays clean
  // while it is down.
  const uint64_t hot = ItemsForShard(0, 3, universe, 1)[0];
  auto shard0_extras = ItemsForShard(0, 3, universe, 5, hot + 1);
  auto shard2_items = ItemsForShard(2, 3, universe, 10);
  stream::TurnstileStream skew;
  for (size_t i = 0; i < 6000; ++i) skew.push_back({hot, 1});
  for (uint64_t item : shard0_extras) {
    for (size_t i = 0; i < 100; ++i) skew.push_back({item, 1});
  }
  for (uint64_t item : shard2_items) {
    for (size_t i = 0; i < 60; ++i) skew.push_back({item, 1});
  }

  EXPECT_EQ(client->autoscaler()->EvaluateOnce().kind,
            AutoscaleDecision::Kind::kNone);  // baselines
  ASSERT_TRUE(SubmitAll(client.get(), skew).ok());

  ASSERT_TRUE(client->InjectShardCrash(1).ok());
  ASSERT_TRUE(PollUntil([&] {
    return client->Health(1).health == ShardHealth::kDead;
  })) << "supervisor never declared the crashed shard dead";

  // Direct MoveSlots onto the dead shard: refused, topology untouched.
  auto initial = ShardTopology::MakeInitial(std::vector<ShardPlacement>(3), 16);
  auto owned0 = initial->OwnedSlotIds(0);
  const uint64_t generation = client->Topology().generation;
  Status direct = client->MoveSlots(0, {owned0[0]}, 1);
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.code(), Status::Code::kUnavailable) << direct.ToString();
  EXPECT_EQ(client->Topology().generation, generation);

  // The controller sees the same imbalance and peels the hot slots — onto
  // the healthy warm shard, never the dead cold one.
  AutoscaleDecision decision = client->autoscaler()->EvaluateOnce();
  ASSERT_EQ(decision.kind, AutoscaleDecision::Kind::kMoveSlots);
  ASSERT_TRUE(decision.status.ok()) << decision.status.ToString();
  EXPECT_EQ(decision.source, 0u);
  EXPECT_EQ(decision.dest, 2u) << "dead shard selected as destination";

  // Rescue the dead shard so teardown is a clean, loss-free engine.
  ASSERT_TRUE(client->RecoverShard(1, TcpBackendFactory()).ok());
  EXPECT_EQ(client->Health(1).health, ShardHealth::kHealthy);
  ASSERT_TRUE(client->Finish().ok());
}

}  // namespace
}  // namespace wbs::engine
