// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// The engine's observability surface (PR 6): the engine.* metrics registry
// and its instrumentation sites, the control-plane span tracer, and the
// dump formats. The load-bearing assertions are exact reconciliations —
// the per-shard updates_total counters must sum to exactly what was
// submitted, valve rejections must match the TrySubmit failures the
// producer saw, histogram bucket counts must sum to the histogram count —
// because a metric that drifts from the quantity it claims to measure is
// worse than no metric. Runs on the env-selected backend
// (WBS_ENGINE_BACKEND) and under WBS_ENGINE_TOPOLOGY=churn, so the same
// keys must be present across inprocess / tcp / mixed placements and
// across live handoffs. The dump-while-ingesting test doubles as the TSan
// probe for the relaxed-atomic snapshot path.

#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "engine/client.h"
#include "engine/metrics.h"
#include "engine/trace.h"
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

uint64_t SumMatching(const MetricsSnapshot& snap, const std::string& prefix,
                     const std::string& suffix) {
  uint64_t sum = 0;
  for (const auto& sample : snap.samples) {
    if (sample.name.size() < prefix.size() + suffix.size()) continue;
    if (sample.name.compare(0, prefix.size(), prefix) != 0) continue;
    if (sample.name.compare(sample.name.size() - suffix.size(),
                            suffix.size(), suffix) != 0) {
      continue;
    }
    sum += sample.value;
  }
  return sum;
}

// ---------------------------------------------- primitive-level invariants --

TEST(MetricsPrimitivesTest, HistogramBucketInvariants) {
  Histogram h;
  // One value per bucket boundary region, plus extremes.
  const uint64_t values[] = {0, 1, 2, 3, 7, 8, 1023, 1024, 1'000'000,
                             ~uint64_t{0}};
  uint64_t want_sum = 0;
  for (uint64_t v : values) {
    h.Record(v);
    want_sum += v;
  }
  EXPECT_EQ(h.Count(), std::size(values));
  EXPECT_EQ(h.Sum(), want_sum);
  uint64_t bucket_total = 0;
  for (size_t i = 0; i < Histogram::kBuckets; ++i) {
    bucket_total += h.BucketCount(i);
  }
  EXPECT_EQ(bucket_total, h.Count());  // every value lands in exactly 1 bucket
  // Bucket membership: 0 in bucket 0, [2^(i-1), 2^i) in bucket i.
  EXPECT_EQ(h.BucketCount(0), 1u);                      // the single 0
  EXPECT_EQ(h.BucketCount(1), 1u);                      // 1
  EXPECT_EQ(h.BucketCount(2), 2u);                      // 2, 3
  EXPECT_EQ(h.BucketCount(Histogram::kBuckets - 1), 1u);  // ~0 overflows
  // Quantiles are bucket upper bounds and are monotone in q.
  const MetricSample sample = HistogramSample("h", h);
  EXPECT_GT(sample.ApproxQuantile(0.5), 0u);
  EXPECT_LE(sample.ApproxQuantile(0.5), sample.ApproxQuantile(0.99));
}

TEST(MetricsPrimitivesTest, RegistrySnapshotCarriesEveryInstrument) {
  MetricsRegistry registry;
  Counter* c = registry.NewCounter("test.counter_total");
  Gauge* g = registry.NewGauge("test.gauge");
  Histogram* h = registry.NewHistogram("test.hist_us");
  c->Inc(7);
  g->Set(-3);
  h->Record(100);
  auto samples = registry.Snapshot();
  ASSERT_EQ(samples.size(), 3u);
  MetricsSnapshot snap;
  snap.samples = samples;
  EXPECT_EQ(snap.Value("test.counter_total"), 7u);
  ASSERT_NE(snap.Find("test.gauge"), nullptr);
  EXPECT_EQ(snap.Find("test.gauge")->gauge_value(), -3);
  ASSERT_NE(snap.Find("test.hist_us"), nullptr);
  EXPECT_EQ(snap.Find("test.hist_us")->count, 1u);
  EXPECT_EQ(snap.Find("test.hist_us")->sum, 100u);
}

// -------------------------------------------------- exact reconciliation --

TEST(EngineMetricsTest, ShardCountersReconcileExactlyWithSubmissions) {
  const uint64_t universe = 1 << 12;
  const size_t n = 20000;
  auto s = ZipfTurnstile(universe, n, 401);
  auto client = MakeClient({"ams_f2", "sis_l0"}, TestConfig(universe, 41),
                           /*shards=*/4, /*threads=*/2);
  ASSERT_TRUE(Replay(client.get(), s).ok());
  ASSERT_TRUE(client->Flush().ok());

  const auto snap = client->Metrics();
  // Every submitted update landed on exactly one shard.
  EXPECT_EQ(SumMatching(snap, "engine.shard.", ".updates_total"), n);
  EXPECT_EQ(snap.Value("engine.updates_submitted_total"), n);
  // Sessions: everything went through the shared session 0.
  EXPECT_EQ(SumMatching(snap, "engine.session.", ".submits_total"),
            (n + 1023) / 1024);  // Replay()'s batch size
  // Nothing in flight after Flush.
  ASSERT_NE(snap.Find("engine.inflight_tickets"), nullptr);
  EXPECT_EQ(snap.Find("engine.inflight_tickets")->gauge_value(), 0);
  EXPECT_EQ(snap.Find("engine.inflight_bytes")->gauge_value(), 0);
  EXPECT_EQ(snap.Find("engine.valve.waiters")->gauge_value(), 0);
  EXPECT_EQ(SumMatching(snap, "engine.session.", ".tickets_outstanding"), 0u);

  // Apply histograms: batches_total recordings in each, bucket sums match.
  for (const auto& sample : snap.samples) {
    if (sample.kind != MetricKind::kHistogram) continue;
    uint64_t bucket_total = 0;
    for (uint64_t b : sample.buckets) bucket_total += b;
    EXPECT_EQ(bucket_total, sample.count) << sample.name;
  }
  const uint64_t batches =
      SumMatching(snap, "engine.shard.", ".batches_total");
  EXPECT_GT(batches, 0u);

  // Backend-sourced per-shard samples are present for every current shard
  // regardless of placement (inprocess / tcp / mixed).
  const size_t shards = client->num_shards();
  for (size_t shard = 0; shard < shards; ++shard) {
    const std::string prefix = "engine.shard." + std::to_string(shard) + ".";
    EXPECT_NE(snap.Find(prefix + "epoch"), nullptr) << prefix;
    EXPECT_NE(snap.Find(prefix + "snapshot_lag_updates"), nullptr) << prefix;
  }
  ASSERT_TRUE(client->Finish().ok());
}

TEST(EngineMetricsTest, ValveRejectionCounterMatchesTrySubmitFailures) {
  const uint64_t universe = 1 << 10;
  ClientOptions opts;
  opts.ingest.num_shards = 2;
  opts.ingest.num_threads = 1;
  opts.ingest.max_inflight_tickets = 2;  // tiny valve: rejections guaranteed
  opts.ingest.sketches = {"ams_f2"};
  opts.ingest.config = TestConfig(universe, 43);
  opts.ingest.backend = BackendFactoryFromEnv();
  auto client_or = Client::Create(opts);
  ASSERT_TRUE(client_or.ok()) << client_or.status().ToString();
  auto client = std::move(client_or).value();

  auto s = ZipfTurnstile(universe, 50000, 403);
  uint64_t rejected = 0, accepted = 0;
  for (size_t off = 0; off < s.size(); off += 512) {
    auto t = client->TrySubmit(s.data() + off,
                               std::min<size_t>(512, s.size() - off));
    if (t.ok()) {
      ++accepted;
    } else {
      ASSERT_EQ(t.status().code(), Status::Code::kResourceExhausted);
      ++rejected;
    }
  }
  ASSERT_TRUE(client->Flush().ok());
  const auto snap = client->Metrics();
  EXPECT_EQ(SumMatching(snap, "engine.session.", ".try_rejections_total"),
            rejected);
  EXPECT_EQ(SumMatching(snap, "engine.session.", ".submits_total"), accepted);
  EXPECT_EQ(SumMatching(snap, "engine.shard.", ".updates_total"),
            accepted > 0 ? snap.Value("engine.updates_submitted_total") : 0);
  ASSERT_TRUE(client->Finish().ok());
}

TEST(EngineMetricsTest, PerSessionCountersSplitByProducer) {
  const uint64_t universe = 1 << 10;
  auto client = MakeClient({"ams_f2"}, TestConfig(universe, 47),
                           /*shards=*/2, /*threads=*/2);
  auto session = client->OpenSession();
  ASSERT_TRUE(session.ok());
  auto s = ZipfTurnstile(universe, 4096, 405);
  // 3 update batches and 1 item batch on the dedicated session, 1 update
  // batch on the shared session 0.
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        client->Submit(s.data() + i * 1024, 1024, session.value()).ok());
  }
  const stream::ItemStream items{{1}, {2}, {3}};
  ASSERT_TRUE(
      client->SubmitItems(items.data(), items.size(), session.value()).ok());
  ASSERT_TRUE(client->Submit(s.data() + 3 * 1024, 1024).ok());
  ASSERT_TRUE(client->Flush().ok());
  const auto snap = client->Metrics();
  EXPECT_EQ(snap.Value("engine.session.0.submits_total"), 1u);
  EXPECT_EQ(snap.Value("engine.session.1.submits_total"), 4u);
  ASSERT_TRUE(client->Finish().ok());
}

TEST(EngineMetricsTest, EveryPublicationIsTimed) {
  // 512-update batches give each of 4 shards ~128-update sub-batches, far
  // below the snapshot cap, so publications come from idle hints, the cap
  // and Flush alike. Each one records a publish_us sample and bumps the
  // epoch; the idle ones are a subset.
  const uint64_t universe = 1 << 12;
  auto s = ZipfTurnstile(universe, 20000, 411);
  auto client = MakeClient({"ams_f2", "sis_l0"}, TestConfig(universe, 61),
                           /*shards=*/4, /*threads=*/2);
  ASSERT_TRUE(Replay(client.get(), s, 512).ok());
  ASSERT_TRUE(client->Flush().ok());
  const auto snap = client->Metrics();
  for (size_t shard = 0; shard < client->num_shards(); ++shard) {
    const std::string prefix = "engine.shard." + std::to_string(shard) + ".";
    const MetricSample* epoch = snap.Find(prefix + "epoch");
    const MetricSample* publish = snap.Find(prefix + "publish_us");
    ASSERT_NE(epoch, nullptr) << prefix;
    ASSERT_NE(publish, nullptr) << prefix;
    EXPECT_GT(epoch->gauge_value(), 0) << prefix;
    EXPECT_EQ(int64_t(publish->count), epoch->gauge_value()) << prefix;
    EXPECT_LE(int64_t(snap.Value(prefix + "idle_publishes_total")),
              epoch->gauge_value())
        << prefix;
  }
  ASSERT_TRUE(client->Finish().ok());
}

// ----------------------------------------------------- runtime off switch --

TEST(EngineMetricsTest, DisabledEngineStillServesDerivedSamples) {
  const uint64_t universe = 1 << 10;
  ClientOptions opts;
  opts.ingest.num_shards = 2;
  opts.ingest.num_threads = 1;
  opts.ingest.metrics_enabled = false;
  opts.ingest.sketches = {"ams_f2"};
  opts.ingest.config = TestConfig(universe, 53);
  opts.ingest.backend = BackendFactoryFromEnv();
  auto client_or = Client::Create(opts);
  ASSERT_TRUE(client_or.ok()) << client_or.status().ToString();
  auto client = std::move(client_or).value();

  auto s = ZipfTurnstile(universe, 4096, 407);
  ASSERT_TRUE(Replay(client.get(), s, 1024, ReplayChurn::kDisabled).ok());
  ASSERT_TRUE(client->Flush().ok());
  const auto snap = client->Metrics();
  // No registered engine.* instruments...
  EXPECT_EQ(snap.Find("engine.session.0.submits_total"), nullptr);
  EXPECT_EQ(snap.Find("engine.shard.0.updates_total"), nullptr);
  // ...but derived and backend-sourced samples still report.
  EXPECT_EQ(snap.Value("engine.updates_submitted_total"), s.size());
  EXPECT_NE(snap.Find("engine.topology.num_shards"), nullptr);
  EXPECT_NE(snap.Find("engine.shard.0.epoch"), nullptr);
  ASSERT_TRUE(client->Finish().ok());
}

// ------------------------------------------------------------ dump formats --

TEST(EngineMetricsTest, DumpFormatsRenderEverySample) {
  const uint64_t universe = 1 << 10;
  auto client = MakeClient({"ams_f2"}, TestConfig(universe, 59),
                           /*shards=*/2, /*threads=*/1);
  auto s = ZipfTurnstile(universe, 4096, 409);
  ASSERT_TRUE(Replay(client.get(), s).ok());
  ASSERT_TRUE(client->Flush().ok());

  std::ostringstream jsonl;
  client->Metrics().WriteJsonl(jsonl);
  size_t lines = 0;
  std::string line;
  std::istringstream in(jsonl.str());
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_NE(line.find("\"metric\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"type\":"), std::string::npos) << line;
  }
  EXPECT_GE(lines, client->Metrics().samples.size());

  std::ostringstream table;
  client->Metrics().WriteTable(table);
  EXPECT_NE(table.str().find("engine.shard.0.updates_total"),
            std::string::npos);
  ASSERT_TRUE(client->Finish().ok());
}

// ------------------------------------------------- dump while ingesting --

// Metrics(), its JSONL rendering, and TraceSpans() run concurrently with
// producers, workers, and a topology change — the TSan build of this test
// is the race probe for the relaxed-atomic snapshot path (and the
// dump-while-moving backend pointer stability).
TEST(EngineMetricsTest, SnapshotWhileIngestingAndResharding) {
  const uint64_t universe = 1 << 12;
  auto client = MakeClient({"ams_f2", "sis_l0"}, TestConfig(universe, 61),
                           /*shards=*/4, /*threads=*/2);
  auto s = ZipfTurnstile(universe, 60000, 411);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> dumps{0};
  std::thread dumper([&] {
    std::ostringstream sink;
    while (!stop.load(std::memory_order_relaxed)) {
      const auto snap = client->Metrics();
      // Histogram reads race in-flight Record() calls; the per-sample
      // invariant that survives relaxed tearing: quantiles never exceed
      // the overflow bound and bucket sums never exceed count+in-flight.
      for (const auto& sample : snap.samples) {
        if (sample.kind == MetricKind::kHistogram) {
          (void)sample.ApproxQuantile(0.99);
        }
      }
      client->Metrics().WriteJsonl(sink);
      (void)client->TraceSpans();
      sink.str("");
      ++dumps;
    }
  });

  std::thread producer([&] {
    for (size_t off = 0; off < s.size(); off += 1024) {
      if (!client->Submit(s.data() + off,
                          std::min<size_t>(1024, s.size() - off))
               .ok()) {
        return;
      }
    }
  });
  // A live topology change while both race: backend sample sources move.
  ASSERT_TRUE(client->AddShards(1).ok());
  producer.join();
  ASSERT_TRUE(client->Flush().ok());
  stop.store(true, std::memory_order_relaxed);
  dumper.join();
  EXPECT_GT(dumps.load(), 0u);

  const auto snap = client->Metrics();
  EXPECT_EQ(SumMatching(snap, "engine.shard.", ".updates_total"), s.size());
  ASSERT_TRUE(client->Finish().ok());
}

// ------------------------------------------------------------ span tracer --

TEST(TracerTest, SpansNestAndEvictOldestAtCapacity) {
  Tracer tracer(/*capacity=*/4);
  {
    auto parent = tracer.StartSpan("op");
    auto child = tracer.StartSpan("op.phase", parent.id());
    child.Attr("bytes", 128);
    child.End();
    parent.Attr("shard", 3);
    parent.End();
  }
  auto spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Children record at End(), before their parent.
  EXPECT_EQ(spans[0].name, "op.phase");
  EXPECT_EQ(spans[1].name, "op");
  EXPECT_EQ(spans[0].parent, spans[1].id);
  EXPECT_EQ(spans[0].Attr("bytes"), 128u);
  EXPECT_EQ(spans[1].Attr("shard"), 3u);
  EXPECT_EQ(spans[1].Attr("missing", 77), 77u);

  for (int i = 0; i < 10; ++i) {
    tracer.StartSpan("filler").End();
  }
  spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 4u);  // bounded ring: oldest evicted
  for (const auto& span : spans) EXPECT_EQ(span.name, "filler");
}

TEST(TracerTest, EngineRecordsTopologySpans) {
  const uint64_t universe = 1 << 10;
  auto client = MakeClient({"ams_f2"}, TestConfig(universe, 67),
                           /*shards=*/2, /*threads=*/1);
  auto s = ZipfTurnstile(universe, 4096, 413);
  ASSERT_TRUE(Replay(client.get(), s, 1024, ReplayChurn::kDisabled).ok());
  ASSERT_TRUE(client->Flush().ok());
  ASSERT_TRUE(client->AddShards(1).ok());
  ASSERT_TRUE(client->MoveShard(0, InProcessBackendFactory()).ok());

  bool saw_add = false;
  TraceSpan move;
  uint64_t flush_us = 0, serialize_us = 0, import_us = 0;
  const auto spans = client->TraceSpans();
  for (const auto& span : spans) {
    if (span.name == "add_shards") saw_add = true;
    if (span.name == "move_shard") move = span;
  }
  for (const auto& span : spans) {
    if (move.id != 0 && span.parent == move.id) {
      if (span.name == "move_shard.flush") flush_us = span.duration_us;
      if (span.name == "move_shard.serialize") {
        serialize_us = span.duration_us;
      }
      if (span.name == "move_shard.import") import_us = span.duration_us;
    }
  }
  EXPECT_TRUE(saw_add);
  ASSERT_EQ(move.name, "move_shard");
  EXPECT_GT(move.Attr("state_bytes"), 0u);
  // The spans are the single source of handoff phase timings: each phase
  // child must be present, and the parent covers them all.
  EXPECT_GE(move.duration_us, flush_us + serialize_us + import_us);
  ASSERT_TRUE(client->Finish().ok());
}

}  // namespace
}  // namespace wbs::engine
