// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// The quiescence-free query path of the sharded engine: epoch-versioned
// shard snapshots, the incremental merge cache (hit / incremental-refold /
// rebuild accounting, invalidation on per-shard writes), equality of
// snapshot answers with post-Flush references on Zipf and churn workloads,
// determinism across thread counts, and queries issued concurrently with
// ingestion — no Flush() anywhere on the query side. All through the typed
// engine::Client surface (handles resolved once, typed results).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "engine/backend.h"
#include "engine/client.h"
#include "engine/registry.h"
#include "engine/sketch.h"
#include "stream/frequency_oracle.h"
#include "stream/workload.h"

#include "engine_test_util.h"

namespace wbs::engine {
namespace {

SketchConfig TestConfig(uint64_t universe, uint64_t seed) {
  return SketchConfig{}.WithUniverse(universe).WithSeed(seed);
}

// ----------------------------------------------------------- cache basics --

TEST(MergeCacheTest, SecondQueryOfUnchangedEngineIsACacheHit) {
  const uint64_t universe = 1 << 12;
  wbs::RandomTape tape(3);
  auto s = stream::ZipfStream(universe, 20000, 1.2, &tape);
  auto client = MakeClient({"ams_f2", "sis_l0"}, TestConfig(universe, 5), 4, 0);
  ASSERT_TRUE(Replay(client.get(), s).ok());
  ASSERT_TRUE(client->Flush().ok());

  for (const char* name : {"ams_f2", "sis_l0"}) {
    auto handle = client->Handle(name).value();
    auto first = client->QueryScalar(handle);
    auto second = client->QueryScalar(handle);
    ASSERT_TRUE(first.ok() && second.ok()) << name;
    EXPECT_EQ(first.value().value, second.value().value) << name;
    EXPECT_EQ(first.value().updates, second.value().updates) << name;
    const auto metrics = client->Metrics();
    const std::string prefix =
        std::string("engine.sketch.") + name + ".merge_cache.";
    EXPECT_EQ(metrics.Value(prefix + "rebuilds_total"), 1u)
        << name;  // first query folds
    EXPECT_EQ(metrics.Value(prefix + "hits_total"), 1u)
        << name;  // second is served cached
    // Quiescent, fully-reachable engines never flag staleness.
    EXPECT_FALSE(second.value().stale) << name;
  }
}

TEST(MergeCacheTest, PerShardWriteInvalidatesAndRefoldsOnlyDirtyShards) {
  const uint64_t universe = 1 << 12;
  wbs::RandomTape tape(7);
  auto s = stream::ZipfStream(universe, 20000, 1.2, &tape);
  auto client = MakeClient({"ams_f2", "sis_l0"}, TestConfig(universe, 9), 8, 0);
  ASSERT_TRUE(Replay(client.get(), s).ok());
  ASSERT_TRUE(client->Flush().ok());
  auto f2 = client->Handle("ams_f2").value();
  ASSERT_TRUE(client->QueryScalar(f2).ok());  // builds the cache

  // One single-item update dirties exactly one shard.
  stream::TurnstileStream one{{42, 3}};
  ASSERT_TRUE(Replay(client.get(), one).ok());
  ASSERT_TRUE(client->Flush().ok());

  auto after = client->QueryScalar(f2);
  ASSERT_TRUE(after.ok());
  const auto metrics = client->Metrics();
  EXPECT_EQ(metrics.Value("engine.sketch.ams_f2.merge_cache.rebuilds_total"),
            1u);
  // linear: unmerge + merge 1 shard
  EXPECT_EQ(
      metrics.Value("engine.sketch.ams_f2.merge_cache.incremental_total"),
      1u);

  // The refolded answer equals a from-scratch reference run.
  auto reference =
      MakeClient({"ams_f2", "sis_l0"}, TestConfig(universe, 9), 8, 0);
  ASSERT_TRUE(Replay(reference.get(), s).ok());
  ASSERT_TRUE(Replay(reference.get(), one).ok());
  ASSERT_TRUE(reference->Finish().ok());
  auto want = reference->QueryScalar(reference->Handle("ams_f2").value());
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(after.value().value, want.value().value);
  EXPECT_EQ(after.value().updates, want.value().updates);
}

TEST(MergeCacheTest, NonInvertibleSketchFallsBackToRebuild) {
  // misra_gries merges are lossy, so its cache path must rebuild (never
  // incrementally refold) and still be correct.
  const uint64_t universe = 256;
  wbs::RandomTape tape(11);
  auto s = stream::ZipfStream(universe, 10000, 1.1, &tape);
  SketchConfig cfg = TestConfig(universe, 13);
  cfg.misra_gries.counters = 512;  // no eviction: merged answer is exact
  auto client = MakeClient({"misra_gries"}, cfg, 8, 0);
  ASSERT_TRUE(Replay(client.get(), s).ok());
  ASSERT_TRUE(client->Flush().ok());
  auto mg = client->Handle("misra_gries").value();
  ASSERT_TRUE(client->QueryTopK(mg, 1).ok());

  stream::TurnstileStream one{{17, 5}};
  ASSERT_TRUE(Replay(client.get(), one).ok());
  ASSERT_TRUE(client->Flush().ok());

  const auto metrics_before = client->Metrics();
  ASSERT_NE(metrics_before.Find(
                "engine.sketch.misra_gries.merge_cache.rebuilds_total"),
            nullptr);

  stream::FrequencyOracle truth(universe);
  truth.AddStream(s);
  truth.Add(17, 5);
  for (const auto& [item, f] : truth.frequencies()) {
    auto point = client->QueryPoint(mg, item);
    ASSERT_TRUE(point.ok()) << item;
    EXPECT_DOUBLE_EQ(point.value().estimate, double(f)) << item;
  }

  const auto metrics = client->Metrics();
  EXPECT_EQ(
      metrics.Value("engine.sketch.misra_gries.merge_cache.incremental_total"),
      0u);
  EXPECT_EQ(
      metrics.Value("engine.sketch.misra_gries.merge_cache.rebuilds_total"),
      2u);
}

// ------------------------------------------- snapshot vs flushed reference --

TEST(SnapshotQueryTest, MatchesPostFlushReferenceOnZipfAndChurn) {
  const uint64_t universe = 1 << 12;
  wbs::RandomTape tape(21);
  auto items = stream::ZipfStream(universe, 30000, 1.1, &tape);
  stream::TurnstileStream zipf;
  zipf.reserve(items.size());
  for (const auto& u : items) zipf.push_back({u.item, 1});
  auto churn = stream::InsertDeleteChurnStream(universe, 150, 2500, &tape);

  for (const stream::TurnstileStream* s : {&zipf, &churn}) {
    SketchConfig cfg = TestConfig(universe, 77);
    auto snap = MakeClient({"ams_f2", "sis_l0"}, cfg, 4, 2);
    auto ref = MakeClient({"ams_f2", "sis_l0"}, cfg, 1, 0);
    ASSERT_TRUE(Replay(snap.get(), *s).ok());
    ASSERT_TRUE(Replay(ref.get(), *s).ok());
    ASSERT_TRUE(snap->Flush().ok());  // quiescence makes snapshots exact
    ASSERT_TRUE(ref->Finish().ok());
    for (const char* name : {"ams_f2", "sis_l0"}) {
      auto got = snap->QueryScalar(snap->Handle(name).value());
      auto want = ref->QueryScalar(ref->Handle(name).value());
      ASSERT_TRUE(got.ok() && want.ok()) << name;
      EXPECT_EQ(got.value().value, want.value().value) << name;
      EXPECT_EQ(got.value().updates, want.value().updates) << name;
    }
    ASSERT_TRUE(snap->Finish().ok());
  }
}

TEST(SnapshotQueryTest, MidStreamSnapshotEqualsPrefixReference) {
  // Query after some submissions but before others (inline mode, snapshot
  // throttle forced to every batch): the answer must equal a reference run
  // over exactly the submitted prefix — the "consistent as-of-epoch
  // frontier" guarantee in its deterministic, single-threaded form.
  const uint64_t universe = 1 << 12;
  wbs::RandomTape tape(31);
  auto items = stream::ZipfStream(universe, 20000, 1.2, &tape);
  stream::TurnstileStream s;
  s.reserve(items.size());
  for (const auto& u : items) s.push_back({u.item, 1});
  const size_t half = s.size() / 2;

  ClientOptions opts;
  opts.ingest.num_shards = 4;
  opts.ingest.num_threads = 0;
  opts.ingest.snapshot_min_updates = 0;  // publish every batch boundary
  opts.ingest.sketches = {"ams_f2", "sis_l0"};
  opts.ingest.config = TestConfig(universe, 55);
  auto client = Client::Create(opts);
  ASSERT_TRUE(client.ok());
  stream::TurnstileStream prefix(s.begin(), s.begin() + half);
  stream::TurnstileStream suffix(s.begin() + half, s.end());
  ASSERT_TRUE(Replay(client.value().get(), prefix, 512).ok());

  auto ref = MakeClient({"ams_f2", "sis_l0"}, TestConfig(universe, 55), 1, 0);
  ASSERT_TRUE(Replay(ref.get(), prefix, 512).ok());
  ASSERT_TRUE(ref->Finish().ok());
  for (const char* name : {"ams_f2", "sis_l0"}) {
    // No Flush before this query.
    auto got = client.value()->QueryScalar(client.value()->Handle(name).value());
    auto want = ref->QueryScalar(ref->Handle(name).value());
    ASSERT_TRUE(got.ok() && want.ok()) << name;
    EXPECT_EQ(got.value().value, want.value().value) << name;
    EXPECT_EQ(got.value().updates, want.value().updates) << name;
  }

  // The engine keeps ingesting after the mid-stream query.
  ASSERT_TRUE(Replay(client.value().get(), suffix, 512).ok());
  ASSERT_TRUE(client.value()->Finish().ok());
  auto full = client.value()->QueryScalar(client.value()->Handle("ams_f2").value());
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value().updates, uint64_t(s.size()));
}

// ------------------------------------------------------------- determinism --

TEST(SnapshotQueryTest, SummariesDeterministicAcrossThreadCounts) {
  const uint64_t universe = 1 << 14;
  wbs::RandomTape tape(41);
  auto zipf = stream::ZipfStream(universe, 25000, 1.1, &tape);
  auto churn = stream::InsertDeleteChurnStream(universe, 200, 2000, &tape);

  // Turnstile-capable set so the churn stream can ride along (misra_gries
  // would reject its deletions; its determinism is covered in engine_test).
  auto run = [&](size_t threads) {
    auto client = MakeClient({"ams_f2", "sis_l0"}, TestConfig(universe, 2026),
                             4, threads);
    EXPECT_TRUE(Replay(client.get(), zipf, 512).ok());
    EXPECT_TRUE(Replay(client.get(), churn, 512).ok());
    EXPECT_TRUE(client->Finish().ok());
    std::vector<SketchSummary> out;
    for (const char* name : {"ams_f2", "sis_l0"}) {
      auto summary = client->RawSummary(client->Handle(name).value());
      EXPECT_TRUE(summary.ok()) << name;
      out.push_back(std::move(summary).value());
    }
    return out;
  };

  auto reference = run(0);
  for (size_t threads : {1u, 2u, 4u}) {
    auto got = run(threads);
    ASSERT_EQ(got.size(), reference.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].scalar, reference[i].scalar)
          << got[i].sketch << " with " << threads << " threads";
      EXPECT_EQ(got[i].updates, reference[i].updates)
          << got[i].sketch << " with " << threads << " threads";
      ASSERT_EQ(got[i].items.size(), reference[i].items.size());
      for (size_t j = 0; j < got[i].items.size(); ++j) {
        EXPECT_EQ(got[i].items[j].item, reference[i].items[j].item);
        EXPECT_EQ(got[i].items[j].estimate, reference[i].items[j].estimate);
      }
    }
  }
}

// --------------------------------------------------------- concurrent query --

TEST(SnapshotQueryTest, QueriesSucceedWhileWorkersIngest) {
  const uint64_t universe = 1 << 12;
  wbs::RandomTape tape(51);
  auto s = stream::ZipfStream(universe, 200000, 1.2, &tape);

  ClientOptions opts;
  opts.ingest.num_shards = 8;
  opts.ingest.num_threads = 4;
  opts.ingest.snapshot_min_updates = 256;
  opts.ingest.sketches = {"ams_f2", "sis_l0"};
  opts.ingest.config = TestConfig(universe, 99);
  auto client = Client::Create(opts);
  ASSERT_TRUE(client.ok());
  auto f2 = client.value()->Handle("ams_f2").value();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ok_queries{0};
  std::atomic<uint64_t> failed_queries{0};
  uint64_t last_updates = 0;
  bool monotone = true;
  std::thread querier([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto r = client.value()->QueryScalar(f2);
      if (!r.ok()) {
        ++failed_queries;
        continue;
      }
      ++ok_queries;
      // Published epochs only advance, so the summarized update count must
      // be non-decreasing across successive snapshot queries.
      if (r.value().updates < last_updates) monotone = false;
      last_updates = r.value().updates;
    }
  });

  // Submission is asynchronous now: Replay returns as soon as the batches
  // are ticketed, so keep the querier running through Flush() — that is
  // the window in which workers are actually ingesting.
  ASSERT_TRUE(Replay(client.value().get(), s, 2048).ok());
  ASSERT_TRUE(client.value()->Flush().ok());
  stop.store(true, std::memory_order_relaxed);
  querier.join();
  ASSERT_TRUE(client.value()->Finish().ok());

  EXPECT_EQ(failed_queries.load(), 0u);
  EXPECT_GT(ok_queries.load(), 0u);
  EXPECT_TRUE(monotone);

  // Final answer (post-Finish) matches a quiescent reference.
  auto ref = MakeClient({"ams_f2", "sis_l0"}, TestConfig(universe, 99), 1, 0);
  ASSERT_TRUE(Replay(ref.get(), s).ok());
  ASSERT_TRUE(ref->Finish().ok());
  auto got = client.value()->QueryScalar(f2);
  auto want = ref->QueryScalar(ref->Handle("ams_f2").value());
  ASSERT_TRUE(got.ok() && want.ok());
  EXPECT_EQ(got.value().value, want.value().value);
  EXPECT_EQ(got.value().updates, uint64_t(s.size()));
}

// ------------------------------------------------------------------ epochs --

TEST(SnapshotQueryTest, FlushPublishesLaggingShards) {
  const uint64_t universe = 1 << 10;
  auto client = MakeClient({"ams_f2"}, TestConfig(universe, 3), 4, 0);
  wbs::RandomTape tape(3);
  auto s = stream::UniformStream(universe, 100, &tape);
  // Churn-mode opt-out: this test pins the "nothing published yet" state
  // of the snapshot throttle, and an injected handoff publishes.
  ASSERT_TRUE(Replay(client.get(), s, /*batch=*/8, ReplayChurn::kDisabled)
                  .ok());
  auto f2 = client->Handle("ams_f2").value();
  // 100 updates < snapshot_min_updates (1024): nothing published yet, so a
  // snapshot query sees the empty frontier...
  auto before = client->QueryScalar(f2);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.value().updates, 0u);
  uint64_t epochs_before = 0;
  for (size_t sh = 0; sh < 4; ++sh) {
    epochs_before += client->ShardEpoch(sh);
  }
  EXPECT_EQ(epochs_before, 0u);
  // ...and Flush() catches every lagging shard up.
  ASSERT_TRUE(client->Flush().ok());
  auto after = client->QueryScalar(f2);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().updates, 100u);
}

// Idle publication: a worker whose queue runs empty hints the in-process
// cells it applied to, and a cell that lags its live state publishes there
// even below the snapshot_min_updates cap. Tcp cells ignore the hint.

stream::TurnstileStream Uniform2048(uint64_t universe) {
  wbs::RandomTape tape(61);
  auto items = stream::UniformStream(universe, 2048, &tape);
  stream::TurnstileStream s;
  s.reserve(items.size());
  for (const auto& u : items) s.push_back({u.item, 1});
  return s;
}

uint64_t EpochSum(const Client& client) {
  uint64_t sum = 0;
  for (size_t sh = 0; sh < client.num_shards(); ++sh) {
    sum += client.ShardEpoch(sh);
  }
  return sum;
}

TEST(SnapshotQueryTest, IdleCellsPublishBelowTheCap) {
  const uint64_t universe = 1 << 12;
  auto client = MakeClient({"misra_gries", "ams_f2"}, TestConfig(universe, 63),
                           /*shards=*/4, /*threads=*/2,
                           InProcessBackendFactory());
  const auto s = Uniform2048(universe);
  // ~512 updates per shard, below the 1,024-update cap: only the idle hint
  // can publish them before a Flush.
  auto ticket = SubmitAll(*client, s);
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  ASSERT_TRUE(client->Wait(ticket.value()).ok());
  auto f2 = client->Handle("ams_f2").value();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  uint64_t seen = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    auto r = client->QueryScalar(f2);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    seen = r.value().updates;
    if (seen == s.size()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(seen, s.size());
  // Each cell published once, at its first (and only) idle hint; Flush
  // (which waits out the workers' hints) finds nothing left to publish.
  ASSERT_TRUE(client->Flush().ok());
  const auto metrics = client->Metrics();
  for (size_t sh = 0; sh < client->num_shards(); ++sh) {
    const std::string prefix = "engine.shard." + std::to_string(sh) + ".";
    EXPECT_EQ(client->ShardEpoch(sh), 1u) << prefix;
    EXPECT_EQ(metrics.Value(prefix + "idle_publishes_total"), 1u) << prefix;
  }
  ASSERT_TRUE(client->Finish().ok());
}

TEST(SnapshotQueryTest, RemoteCellsIgnoreTheIdleHint) {
  const uint64_t universe = 1 << 12;
  auto client = MakeClient({"misra_gries", "ams_f2"}, TestConfig(universe, 63),
                           /*shards=*/4, /*threads=*/2, TcpBackendFactory());
  const auto s = Uniform2048(universe);
  auto ticket = SubmitAll(*client, s);
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  ASSERT_TRUE(client->Wait(ticket.value()).ok());
  // The hint costs a tcp cell no round trip, so its host keeps the count
  // throttle: nothing below the cap publishes until Flush.
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
  while (std::chrono::steady_clock::now() < until) {
    ASSERT_EQ(EpochSum(*client), 0u);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(client->Flush().ok());
  EXPECT_EQ(EpochSum(*client), client->num_shards());
  auto f2 = client->QueryScalar(client->Handle("ams_f2").value());
  ASSERT_TRUE(f2.ok()) << f2.status().ToString();
  EXPECT_EQ(f2.value().updates, s.size());
  ASSERT_TRUE(client->Finish().ok());
}

// Counts instances destroyed on a thread other than the one that built
// them: a snapshot is built by its shard's worker, a merge target by the
// querying thread.
std::atomic<uint64_t> g_foreign_frees{0};

class ThreadTaggedSketch final : public Sketch {
 public:
  ThreadTaggedSketch() = default;
  ThreadTaggedSketch(const ThreadTaggedSketch&) = delete;
  ThreadTaggedSketch& operator=(const ThreadTaggedSketch&) = delete;
  ~ThreadTaggedSketch() override {
    if (std::this_thread::get_id() != creator_) g_foreign_frees.fetch_add(1);
  }
  const std::string& name() const override {
    static const std::string n = "thread_tagged";
    return n;
  }
  Status Update(const stream::TurnstileUpdate& u) override {
    net_ += u.delta;
    return Status::OK();
  }
  SketchSummary Summary() const override {
    SketchSummary s;
    s.sketch = name();
    s.updates = uint64_t(net_);
    s.has_scalar = true;
    s.scalar = double(net_);
    return s;
  }
  Status MergeFrom(const Sketch& other) override {
    net_ += static_cast<const ThreadTaggedSketch&>(other).net_;
    return Status::OK();
  }
  uint64_t SpaceBits() const override { return 64; }

 private:
  const std::thread::id creator_ = std::this_thread::get_id();
  int64_t net_ = 0;
};

TEST(SnapshotQueryTest, QueriesLeaveSnapshotFreesToTheApplier) {
  static const bool registered =
      SketchRegistry::Global()
          .Register("thread_tagged",
                    [](const SketchConfig&) {
                      return std::make_unique<ThreadTaggedSketch>();
                    })
          .ok();
  ASSERT_TRUE(registered);
  const uint64_t universe = 1 << 12;
  auto client = MakeClient({"thread_tagged"}, TestConfig(universe, 67),
                           /*shards=*/2, /*threads=*/2,
                           InProcessBackendFactory());
  auto handle = client->Handle("thread_tagged").value();
  const auto s = Uniform2048(universe);
  g_foreign_frees = 0;
  uint64_t submitted = 0;
  for (int round = 0; round < 8; ++round) {
    auto ticket = SubmitAll(*client, s);
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    ASSERT_TRUE(client->Wait(ticket.value()).ok());
    submitted += s.size();
    // Poll until the fold covers the round: every shard published again,
    // so the cache lets go of the snapshots it folded last round.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    uint64_t seen = 0;
    while (seen != submitted && std::chrono::steady_clock::now() < deadline) {
      auto r = client->QueryScalar(handle);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      seen = r.value().updates;
    }
    ASSERT_EQ(seen, submitted) << "round " << round;
  }
  // Read before Finish: teardown frees the cells' state on this thread.
  EXPECT_EQ(g_foreign_frees.load(), 0u);
  ASSERT_TRUE(client->Finish().ok());
}

TEST(SnapshotQueryTest, QueryReportsIngestionErrors) {
  // Once ingestion has errored, the quiescence-free query path must return
  // the error too — workers stop mutating state, so continuing to serve OK
  // answers would silently freeze the pipeline for its clients.
  auto client = MakeClient({"ams_f2"}, TestConfig(/*universe=*/16, 1), 2, 0);
  auto f2 = client->Handle("ams_f2").value();
  ASSERT_TRUE(client->QueryScalar(f2).ok());
  stream::TurnstileStream bad{{uint64_t{1} << 20, 1}};
  // Inline mode: fails synchronously.
  EXPECT_FALSE(SubmitAll(*client, bad).ok());
  EXPECT_FALSE(client->QueryScalar(f2).ok());
  EXPECT_FALSE(client->RawSummary(f2).ok());
}

// ----------------------------------------------------- per-shard summaries --

// ShardSummary reads a flushed cell's published state. A publication is a
// fresh instance folded from the live one, so the answer must equal a
// single instance fed the same batches under the shard's config, bit for
// bit, for every family; a cell that ingested nothing reads as a fresh
// instance.
TEST(ShardSummaryTest, EqualsADirectlyFedInstance) {
  const uint64_t universe = 1 << 10;
  SketchConfig cfg = TestConfig(universe, 43);
  cfg.rank.n = 32;  // n * n = universe
  cfg.rank.k = 8;
  const std::vector<std::string> families = {
      "misra_gries", "robust_hh", "crhf_hh",
      "ams_f2",      "sis_l0",    "rank_decision"};
  wbs::RandomTape tape(44);
  tape.set_logging(false);
  stream::TurnstileStream s;
  for (const auto& u : stream::ZipfStream(universe, 5000, 1.2, &tape)) {
    s.push_back({u.item, 1});
  }
  const size_t kBatch = 512;
  for (const bool ingest : {true, false}) {
    auto client = MakeClient(families, cfg, /*shards=*/1, /*threads=*/0);
    if (ingest) {
      for (size_t off = 0; off < s.size(); off += kBatch) {
        ASSERT_TRUE(
            client->Submit(s.data() + off, std::min(kBatch, s.size() - off))
                .ok());
      }
    }
    for (const std::string& name : families) {
      SCOPED_TRACE(name + (ingest ? " fed" : " empty"));
      auto direct =
          SketchRegistry::Global().Create(name, ShardConfigFor(cfg, 0));
      ASSERT_TRUE(direct.ok()) << direct.status().ToString();
      std::vector<stream::TurnstileUpdate> agg;
      FlatItemIndex index;
      for (size_t off = 0; ingest && off < s.size(); off += kBatch) {
        UpdateBatch b{s.data() + off, std::min(kBatch, s.size() - off)};
        auto [effective, has_negative] =
            AggregateUpdates(b.data, b.size, &agg, &index);
        b.aggregated = agg.data();
        b.aggregated_size = agg.size();
        b.effective_updates = effective;
        b.has_negative_delta = has_negative;
        ASSERT_TRUE(direct.value()->ApplyBatch(b).ok());
      }
      const SketchSummary want = direct.value()->Summary();
      auto got = client->ShardSummary(0, name);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got.value().has_scalar, want.has_scalar);
      EXPECT_EQ(got.value().scalar, want.scalar);
      EXPECT_EQ(got.value().updates, want.updates);
      ASSERT_EQ(got.value().items.size(), want.items.size());
      for (size_t i = 0; i < want.items.size(); ++i) {
        EXPECT_EQ(got.value().items[i].item, want.items[i].item) << i;
        EXPECT_EQ(got.value().items[i].estimate, want.items[i].estimate) << i;
      }
    }
    ASSERT_TRUE(client->Finish().ok());
  }
}

}  // namespace
}  // namespace wbs::engine
