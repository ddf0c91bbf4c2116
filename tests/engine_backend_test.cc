// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// The pluggable ShardBackend boundary:
//
//   * tcp vs in-process answers in inline mode and on empty engines, and
//     quiescence-free typed queries racing producers over the tcp wire
//     (the TSan target for the socket path);
//   * backend selection by name: "mixed" really alternates placement by
//     shard id, topology-op cells included, and retired names fail loudly;
//   * ticket-aware flow control: the max_inflight_bytes valve blocks
//     Submit and fails TrySubmit fast, deterministically pinned with a
//     gate sketch that parks the worker inside ApplyBatch;
//   * the conditional snapshot read on both cells: the epoch always, the
//     state only when the epoch is newer than the caller's, and a failed
//     publication as the next newer read's Status;
//   * no head-of-line blocking on remote shards: with an apply parked in
//     the shard host, snapshot reads and Metrics still answer promptly.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "engine/backend.h"
#include "engine/client.h"
#include "engine/metrics.h"
#include "engine/registry.h"
#include "engine/remote_backend.h"
#include "stream/workload.h"

#include "engine_test_util.h"

namespace wbs::engine {
namespace {

SketchConfig TestConfig(uint64_t universe, uint64_t seed) {
  return SketchConfig{}.WithUniverse(universe).WithSeed(seed);
}

/// A snapshot read's newer_than that no epoch exceeds: the epoch alone.
constexpr uint64_t kEpochOnly = std::numeric_limits<uint64_t>::max();

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

// ------------------------------------------------- cross-backend equality --
//
// The bit-identity of tcp and in-process engines on Zipf / planted / churn /
// rank workloads lives in engine_tcp_test.cc (TcpEquivalenceTest); these
// cover the corners it does not: inline mode, empty engines, and queries
// racing producers.

TEST(BackendEquivalenceTest, InlineModeAndQueriesBeforeAnySubmit) {
  const std::vector<std::string> sketches = {"ams_f2", "misra_gries"};
  const SketchConfig cfg = TestConfig(1 << 10, 19);
  // Queries on an empty tcp engine must answer like an empty local one
  // (all shards unpublished), not error.
  auto tcp = MakeClient(sketches, cfg, 2, 0, TcpBackendFactory());
  auto inprocess =
      MakeClient(sketches, cfg, 2, 0, InProcessBackendFactory());
  auto f2_tc = tcp->Handle("ams_f2").value();
  auto f2_in = inprocess->Handle("ams_f2").value();
  auto got = tcp->QueryScalar(f2_tc);
  auto want = inprocess->QueryScalar(f2_in);
  ASSERT_TRUE(got.ok() && want.ok());
  EXPECT_EQ(got.value().value, want.value().value);
  EXPECT_EQ(got.value().updates, want.value().updates);

  // Inline mode (num_threads == 0) drives the tcp data channel from the
  // submitting thread; answers still line up.
  auto s = ZipfTurnstile(1 << 10, 5000, 64);
  ASSERT_TRUE(Replay(tcp.get(), s).ok());
  ASSERT_TRUE(Replay(inprocess.get(), s).ok());
  ASSERT_TRUE(tcp->Flush().ok());
  ASSERT_TRUE(inprocess->Flush().ok());
  got = tcp->QueryScalar(f2_tc);
  want = inprocess->QueryScalar(f2_in);
  ASSERT_TRUE(got.ok() && want.ok());
  EXPECT_EQ(got.value().value, want.value().value);
  EXPECT_EQ(got.value().updates, uint64_t(s.size()));
  ASSERT_TRUE(tcp->Finish().ok());
  ASSERT_TRUE(inprocess->Finish().ok());
}

// Producers racing a typed-query thread across the tcp wire: no errors,
// and the final answer matches a quiescent in-process reference (TSan
// hunts the socket framing and host dispatch here).
TEST(BackendEquivalenceTest, TcpQueriesRaceProducersSafely) {
  const uint64_t universe = 1 << 12;
  auto s = ZipfTurnstile(universe, 40000, 65);
  const SketchConfig cfg = TestConfig(universe, 101);
  auto client =
      MakeClient({"ams_f2", "sis_l0"}, cfg, 4, 2, TcpBackendFactory());
  auto f2 = client->Handle("ams_f2").value();
  auto l0 = client->Handle("sis_l0").value();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> query_errors{0};
  std::thread querier([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (!client->QueryScalar(f2).ok()) ++query_errors;
      if (!client->QueryScalar(l0).ok()) ++query_errors;
    }
  });
  std::vector<std::thread> producers;
  for (size_t p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      const size_t batch = 512;
      for (size_t off = p * batch; off < s.size(); off += 2 * batch) {
        auto t = client->Submit(s.data() + off,
                                std::min(batch, s.size() - off));
        ASSERT_TRUE(t.ok());
      }
    });
  }
  for (auto& t : producers) t.join();
  ASSERT_TRUE(client->Flush().ok());
  stop.store(true, std::memory_order_relaxed);
  querier.join();
  ASSERT_TRUE(client->Finish().ok());
  EXPECT_EQ(query_errors.load(), 0u);

  auto reference =
      MakeClient({"ams_f2", "sis_l0"}, cfg, 4, 0, InProcessBackendFactory());
  ASSERT_TRUE(Replay(reference.get(), s).ok());
  ASSERT_TRUE(reference->Finish().ok());
  auto got = client->QueryScalar(f2);
  auto want = reference->QueryScalar(reference->Handle("ams_f2").value());
  ASSERT_TRUE(got.ok() && want.ok());
  EXPECT_EQ(got.value().value, want.value().value);
  EXPECT_EQ(got.value().updates, uint64_t(s.size()));
}

// ---------------------------------------------------------- flow control --

/// A sketch whose ApplyBatch parks on a global gate — lets the tests hold a
/// worker inside the backend deterministically while the submit-side valves
/// fill up. Registered once under "gate_sketch".
struct GateControl {
  std::mutex mu;
  std::condition_variable cv;
  bool open = true;
  int waiting = 0;

  void Close() {
    std::lock_guard<std::mutex> lock(mu);
    open = false;
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
  /// Blocks until a worker is parked inside ApplyBatch.
  void AwaitWaiter() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return waiting > 0; });
  }
  void Pass() {
    std::unique_lock<std::mutex> lock(mu);
    ++waiting;
    cv.notify_all();
    cv.wait(lock, [&] { return open; });
    --waiting;
  }
};

GateControl& Gate() {
  static GateControl* gate = new GateControl();
  return *gate;
}

class GateSketch final : public Sketch {
 public:
  const std::string& name() const override {
    static const std::string kName = "gate_sketch";
    return kName;
  }
  Status Update(const stream::TurnstileUpdate& u) override {
    if (u.delta != 0) ++updates_;
    return Status::OK();
  }
  Status ApplyBatch(const UpdateBatch& batch) override {
    Gate().Pass();
    for (size_t i = 0; i < batch.size; ++i) {
      if (batch.data[i].delta != 0) ++updates_;
    }
    return Status::OK();
  }
  SketchSummary Summary() const override {
    SketchSummary s;
    s.sketch = name();
    s.has_scalar = true;
    s.scalar = double(updates_);
    s.updates = updates_;
    return s;
  }
  Status MergeFrom(const Sketch& other) override {
    const auto* o = dynamic_cast<const GateSketch*>(&other);
    if (o == nullptr) return Status::InvalidArgument("gate: type mismatch");
    updates_ += o->updates_;
    return Status::OK();
  }
  uint64_t SpaceBits() const override { return 64; }

 private:
  uint64_t updates_ = 0;
};

bool RegisterGateSketch() {
  static bool once = [] {
    Status s = SketchRegistry::Global().Register(
        "gate_sketch",
        [](const SketchConfig&) { return std::make_unique<GateSketch>(); },
        SketchFamily::kScalarEstimate);
    return s.ok();
  }();
  return once;
}

std::unique_ptr<Client> MakeGatedClient(size_t max_inflight_tickets,
                                        size_t max_inflight_bytes) {
  EXPECT_TRUE(RegisterGateSketch());
  ClientOptions opts;
  opts.ingest.num_shards = 1;
  opts.ingest.num_threads = 1;
  opts.ingest.sketches = {"gate_sketch"};
  opts.ingest.config = TestConfig(1 << 10, 3);
  opts.ingest.max_inflight_tickets = max_inflight_tickets;
  opts.ingest.max_inflight_bytes = max_inflight_bytes;
  // The gate parks the worker inside the backend, so keep this test on the
  // in-process backend regardless of WBS_ENGINE_BACKEND (under tcp the park
  // happens on a host thread; semantics hold but Finish() ordering in the
  // teardown path would depend on gate state).
  opts.ingest.backend = InProcessBackendFactory();
  auto client = Client::Create(opts);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(client).value();
}

const stream::TurnstileStream& FourUpdates() {  // 64 valve bytes
  static const stream::TurnstileStream s{{1, 1}, {2, 1}, {3, 1}, {4, 1}};
  return s;
}

TEST(FlowControlTest, TrySubmitFailsFastWhenBytesValveIsFull) {
  auto client = MakeGatedClient(/*tickets=*/0, /*bytes=*/
                                FourUpdates().size() *
                                    sizeof(stream::TurnstileUpdate));
  Gate().Close();
  auto first = SubmitAll(*client, FourUpdates());  // fills the whole valve
  ASSERT_TRUE(first.ok());
  Gate().AwaitWaiter();  // worker parked inside ApplyBatch

  auto second = TrySubmitAll(*client, FourUpdates());
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), Status::Code::kResourceExhausted);

  Gate().Open();
  ASSERT_TRUE(client->Wait(first.value()).ok());
  // Valve drained: the same submission is admitted now.
  auto third = TrySubmitAll(*client, FourUpdates());
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  ASSERT_TRUE(client->Finish().ok());
  auto handle = client->Handle("gate_sketch").value();
  EXPECT_EQ(client->QueryScalar(handle).value().updates,
            2 * FourUpdates().size());
}

TEST(FlowControlTest, TrySubmitFailsFastWhenTicketValveIsFull) {
  auto client = MakeGatedClient(/*tickets=*/1, /*bytes=*/0);
  Gate().Close();
  auto first = SubmitAll(*client, FourUpdates());
  ASSERT_TRUE(first.ok());
  Gate().AwaitWaiter();
  auto second = TrySubmitAll(*client, FourUpdates());
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), Status::Code::kResourceExhausted);
  Gate().Open();
  ASSERT_TRUE(client->Wait(first.value()).ok());
  ASSERT_TRUE(client->Finish().ok());
}

TEST(FlowControlTest, SubmitBlocksOnBytesValveUntilDrain) {
  auto client = MakeGatedClient(/*tickets=*/0, /*bytes=*/
                                FourUpdates().size() *
                                    sizeof(stream::TurnstileUpdate));
  Gate().Close();
  auto first = SubmitAll(*client, FourUpdates());
  ASSERT_TRUE(first.ok());
  Gate().AwaitWaiter();

  std::atomic<bool> second_returned{false};
  std::thread producer([&] {
    auto second = SubmitAll(*client, FourUpdates());  // must block on the valve
    EXPECT_TRUE(second.ok());
    second_returned.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_returned.load(std::memory_order_acquire))
      << "Submit did not block on a full bytes valve";

  Gate().Open();
  producer.join();
  EXPECT_TRUE(second_returned.load(std::memory_order_acquire));
  ASSERT_TRUE(client->Finish().ok());
  auto handle = client->Handle("gate_sketch").value();
  EXPECT_EQ(client->QueryScalar(handle).value().updates,
            2 * FourUpdates().size());
}

TEST(FlowControlTest, OversizedBatchIsAdmittedWhenIdle) {
  // A batch bigger than the whole valve must not deadlock: it is admitted
  // when nothing is in flight.
  auto client = MakeGatedClient(/*tickets=*/0, /*bytes=*/16);
  stream::TurnstileStream big;
  for (uint64_t i = 0; i < 64; ++i) big.push_back({i % 100, 1});  // 1 KiB
  auto t = SubmitAll(*client, big);  // gate open: applies and drains
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(client->Wait(t.value()).ok());
  ASSERT_TRUE(client->Finish().ok());
}

TEST(BackendContractTest, SerializationlessSketchFailsRemoteQueries) {
  // A custom sketch without SerializeState/DeserializeState works on the
  // in-process backend but cannot cross a remote shard boundary: the tcp
  // engine must surface Unimplemented at snapshot-query time — never a
  // silent empty answer.
  EXPECT_TRUE(RegisterGateSketch());  // gate_sketch has no wire format
  ClientOptions opts;
  opts.ingest.num_shards = 2;
  opts.ingest.num_threads = 0;
  opts.ingest.sketches = {"gate_sketch"};
  opts.ingest.config = TestConfig(1 << 10, 11);
  opts.ingest.backend = TcpBackendFactory();
  auto client = Client::Create(opts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(SubmitAll(*client.value(), FourUpdates()).ok());
  ASSERT_TRUE(client.value()->Flush().ok());  // host-side publish is fine
  auto handle = client.value()->Handle("gate_sketch").value();
  auto scalar = client.value()->QueryScalar(handle);
  ASSERT_FALSE(scalar.ok());
  EXPECT_EQ(scalar.status().code(), Status::Code::kUnimplemented)
      << scalar.status().ToString();
  ASSERT_TRUE(client.value()->Finish().ok());
}

TEST(BackendContractTest, FailedMetricsPollIsCountedNotSilent) {
  // A placement whose control channel has died is skipped by the metrics
  // poll, but never silently: the failure is counted per shard
  // (engine.shard.<id>.metrics_errors_total) and the shard's health
  // surface keeps reporting.
  ClientOptions opts;
  opts.ingest.num_shards = 2;
  opts.ingest.num_threads = 1;
  opts.ingest.sketches = {"ams_f2"};
  opts.ingest.config = TestConfig(1 << 10, 23);
  opts.ingest.backend = TcpBackendFactory();
  // Supervision on so the dead placement degrades instead of poisoning
  // the pipeline at Finish(); no auto-recovery — the socket must STAY
  // closed for the polls below.
  opts.ingest.failover.heartbeat_interval_ms = 10;
  opts.ingest.failover.auto_recover = false;
  auto client = Client::Create(opts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(SubmitAll(*client.value(), FourUpdates()).ok());
  ASSERT_TRUE(client.value()->Flush().ok());
  MetricsSnapshot healthy = client.value()->Metrics();
  EXPECT_EQ(healthy.Value("engine.shard.1.metrics_errors_total"), 0u);

  ASSERT_TRUE(client.value()->InjectShardCrash(1).ok());
  MetricsSnapshot degraded = client.value()->Metrics();
  EXPECT_GE(degraded.Value("engine.shard.1.metrics_errors_total"), 1u);
  // The healthy shard's backend samples still flow; the crashed shard
  // keeps its health gauges even though its backend poll failed.
  EXPECT_NE(degraded.Find("engine.shard.0.wire.frames_out_total"), nullptr);
  EXPECT_NE(degraded.Find("engine.shard.1.health"), nullptr);
  ASSERT_TRUE(client.value()->Finish().ok());
}

// --------------------------------------------------- the conditional read --

struct NamedFactory {
  const char* name;
  BackendFactory factory;
};

std::vector<NamedFactory> BothCells() {
  return {{"inprocess", InProcessBackendFactory()},
          {"tcp", TcpBackendFactory()}};
}

// Snapshot(i, newer_than) always answers the cell's current epoch, and the
// state published at that epoch only when the epoch is newer — the merge
// cache reads every shard this way, once per query.
TEST(ConditionalSnapshotTest, StateOnlyWhenTheEpochIsNewer) {
  for (const NamedFactory& cell_kind : BothCells()) {
    SCOPED_TRACE(cell_kind.name);
    BackendOptions bopts;
    bopts.sketches = {"ams_f2"};
    bopts.config = ShardConfigFor(TestConfig(1 << 10, 37), 0);
    bopts.snapshot_min_updates = 0;  // every batch publishes
    auto made = cell_kind.factory(bopts);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    ShardBackend& cell = *made.value();

    // Never published: epoch 0 and no state, whatever the caller holds.
    for (uint64_t newer_than : {uint64_t{0}, uint64_t{1}, kEpochOnly}) {
      auto snap = cell.Snapshot(0, newer_than);
      ASSERT_TRUE(snap.ok()) << snap.status().ToString();
      EXPECT_EQ(snap.value().sketch, nullptr) << newer_than;
      EXPECT_EQ(snap.value().epoch, 0u) << newer_than;
      auto serialized = cell.SnapshotSerialized(0, newer_than);
      ASSERT_TRUE(serialized.ok()) << serialized.status().ToString();
      EXPECT_TRUE(serialized.value().state.empty()) << newer_than;
      EXPECT_EQ(serialized.value().epoch, 0u) << newer_than;
    }

    // One publication: newer than 0, so the state at epoch 1 comes back.
    ASSERT_TRUE(cell.ApplyBatch(FourUpdates().data(), FourUpdates().size())
                    .ok());
    auto direct = SketchRegistry::Global().Create("ams_f2", bopts.config);
    ASSERT_TRUE(direct.ok());
    for (const auto& u : FourUpdates()) {
      ASSERT_TRUE(direct.value()->Update(u).ok());
    }
    auto fresh = cell.Snapshot(0, 0);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    EXPECT_EQ(fresh.value().epoch, 1u);
    ASSERT_NE(fresh.value().sketch, nullptr);
    EXPECT_EQ(fresh.value().sketch->Summary().scalar,
              direct.value()->Summary().scalar);
    auto fresh_serialized = cell.SnapshotSerialized(0, 0);
    ASSERT_TRUE(fresh_serialized.ok());
    EXPECT_EQ(fresh_serialized.value().epoch, 1u);
    auto want_frame = SerializeSketch(*direct.value());
    ASSERT_TRUE(want_frame.ok());
    EXPECT_EQ(fresh_serialized.value().state, want_frame.value());

    // Nothing newer than epoch 1, or than the largest epoch: epoch only.
    for (uint64_t newer_than : {uint64_t{1}, kEpochOnly}) {
      auto snap = cell.Snapshot(0, newer_than);
      ASSERT_TRUE(snap.ok()) << snap.status().ToString();
      EXPECT_EQ(snap.value().sketch, nullptr) << newer_than;
      EXPECT_EQ(snap.value().epoch, 1u) << newer_than;
      auto serialized = cell.SnapshotSerialized(0, newer_than);
      ASSERT_TRUE(serialized.ok()) << serialized.status().ToString();
      EXPECT_TRUE(serialized.value().state.empty()) << newer_than;
      EXPECT_EQ(serialized.value().epoch, 1u) << newer_than;
    }
    EXPECT_EQ(cell.Snapshot(1, 0).status().code(),
              Status::Code::kOutOfRange);
  }
}

/// A sketch whose MergeFrom always fails, so every publication of a cell
/// holding it (a fresh instance folded from the live one) fails too.
class UnpublishableSketch final : public Sketch {
 public:
  const std::string& name() const override {
    static const std::string kName = "unpublishable_sketch";
    return kName;
  }
  Status Update(const stream::TurnstileUpdate&) override {
    return Status::OK();
  }
  SketchSummary Summary() const override {
    SketchSummary s;
    s.sketch = name();
    return s;
  }
  Status MergeFrom(const Sketch&) override {
    return Status::Internal("unpublishable_sketch: merge refused");
  }
  uint64_t SpaceBits() const override { return 64; }
};

// A failed publication still bumps the epoch, and surfaces as the Status
// of the next read whose newer_than is below the new epoch — never as the
// old state served silently. A read that already holds the new epoch gets
// the epoch and no state.
TEST(ConditionalSnapshotTest, FailedPublicationIsTheNextNewerReadsStatus) {
  static const bool registered =
      SketchRegistry::Global()
          .Register("unpublishable_sketch",
                    [](const SketchConfig&) {
                      return std::make_unique<UnpublishableSketch>();
                    },
                    SketchFamily::kScalarEstimate)
          .ok();
  ASSERT_TRUE(registered);
  for (const NamedFactory& cell_kind : BothCells()) {
    SCOPED_TRACE(cell_kind.name);
    BackendOptions bopts;
    bopts.sketches = {"unpublishable_sketch"};
    bopts.config = ShardConfigFor(TestConfig(1 << 10, 38), 0);
    bopts.snapshot_min_updates = 0;  // the batch publishes, and fails
    auto made = cell_kind.factory(bopts);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    ShardBackend& cell = *made.value();
    ASSERT_TRUE(cell.ApplyBatch(FourUpdates().data(), FourUpdates().size())
                    .ok());

    auto failed = cell.Snapshot(0, 0);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), Status::Code::kInternal);
    EXPECT_NE(failed.status().message().find("merge refused"),
              std::string::npos)
        << failed.status().ToString();
    auto failed_serialized = cell.SnapshotSerialized(0, 0);
    ASSERT_FALSE(failed_serialized.ok());
    EXPECT_EQ(failed_serialized.status().code(), Status::Code::kInternal);

    for (uint64_t newer_than : {uint64_t{1}, kEpochOnly}) {
      auto snap = cell.Snapshot(0, newer_than);
      ASSERT_TRUE(snap.ok()) << snap.status().ToString();
      EXPECT_EQ(snap.value().sketch, nullptr) << newer_than;
      EXPECT_EQ(snap.value().epoch, 1u) << newer_than;
    }
  }
}

// ------------------------------------------------------ backend by name --

// "mixed" alternates placement by global shard id — even ids in-process, odd
// ids on self-hosted tcp — for the initial cells and for the cells a
// topology op builds with it. Only a tcp cell reports wire and dialer
// counters, so they tell the two apart: a mixed factory that put every cell
// in one place would pass every other suite, but not this one.
TEST(BackendFactoryByNameTest, MixedAlternatesPlacementByShardId) {
  auto factory = BackendFactoryByName("mixed");
  ASSERT_TRUE(factory.ok()) << factory.status().ToString();
  auto client =
      MakeClient({"ams_f2"}, TestConfig(1 << 10, 31), 2, 1, factory.value());
  ASSERT_TRUE(client->AddShards(2, factory.value()).ok());
  ASSERT_TRUE(SubmitAll(*client, FourUpdates()).ok());
  ASSERT_TRUE(client->Flush().ok());
  const MetricsSnapshot metrics = client->Metrics();
  for (size_t shard = 0; shard < 4; ++shard) {
    const std::string prefix = "engine.shard." + std::to_string(shard) + ".";
    const bool tcp = shard % 2 == 1;
    EXPECT_EQ(metrics.Find(prefix + "wire.frames_out_total") != nullptr, tcp)
        << prefix;
    EXPECT_EQ(metrics.Find(prefix + "tcp.reconnects_total") != nullptr, tcp)
        << prefix;
  }
  ASSERT_TRUE(client->Finish().ok());
}

// A stale WBS_ENGINE_BACKEND=loopback (a backend that no longer exists)
// must fail loudly, never fall back to some default placement.
TEST(BackendFactoryByNameTest, RetiredBackendNameIsRejected) {
  auto factory = BackendFactoryByName("loopback");
  ASSERT_FALSE(factory.ok());
  EXPECT_EQ(factory.status().code(), Status::Code::kInvalidArgument)
      << factory.status().ToString();
}

TEST(FlowControlTest, InlineModeTrySubmitAppliesSynchronously) {
  EXPECT_TRUE(RegisterGateSketch());
  ClientOptions opts;
  opts.ingest.num_shards = 2;
  opts.ingest.num_threads = 0;
  opts.ingest.sketches = {"ams_f2"};
  opts.ingest.config = TestConfig(1 << 10, 5);
  opts.ingest.max_inflight_bytes = 16;
  auto client = Client::Create(opts);
  ASSERT_TRUE(client.ok());
  auto t = TrySubmitAll(*client.value(), FourUpdates());
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.value().seq, 0u);  // inline: applied before returning
  ASSERT_TRUE(client.value()->Finish().ok());
}

// ------------------------------------------------- head-of-line blocking --

// A remote shard answers snapshot reads (epoch-only and with state) and
// Metrics from its published state, so none of them may wait for an apply
// the shard host is still running: the gate parks an apply inside the host
// while the reads go out on the control channel with a 1 s budget each.
// Once the gate opens, the remote answers must be bit-identical to an
// in-process cell fed the same batches.
TEST(HeadOfLineTest, PublishedReadsDoNotQueueBehindAParkedApply) {
  ASSERT_TRUE(RegisterGateSketch());
  BackendOptions bopts;
  bopts.sketches = {"gate_sketch", "ams_f2"};
  bopts.config = TestConfig(1 << 10, 29);
  bopts.snapshot_min_updates = 0;  // every batch publishes
  auto remote = TcpBackendFactory()(bopts);
  auto reference = InProcessBackendFactory()(bopts);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ShardBackend& shard = *remote.value();
  const stream::TurnstileStream first{{1, 1}, {2, 1}, {3, 2}, {4, 1}};
  const stream::TurnstileStream second{{1, -1}, {4, 5}, {5, 1}, {6, 3}};
  const size_t kF2 = 1;  // ams_f2's index in the group

  // Gate open: the first batch lands and publishes epoch 1 on both sides.
  ASSERT_TRUE(shard.ApplyBatch(first.data(), first.size()).ok());
  ASSERT_TRUE(reference.value()->ApplyBatch(first.data(), first.size()).ok());
  auto want_parked = reference.value()->Snapshot(kF2, 0);
  ASSERT_TRUE(want_parked.ok() && want_parked.value().sketch != nullptr);
  ASSERT_TRUE(
      reference.value()->ApplyBatch(second.data(), second.size()).ok());
  // Opens the control channel while the cell is idle: a tcp handshake reads
  // the apply cursor under the cell lock, so a first dial would wait.
  ASSERT_TRUE(shard.Snapshot(kF2, kEpochOnly).ok());

  // Declared before the guard below, so they are destroyed after it: a
  // read still blocked at scope exit finishes once the gate is open.
  std::future<Result<ShardSnapshot>> epoch;
  std::future<Result<ShardSnapshot>> snap;
  std::future<Result<std::vector<MetricSample>>> metrics;
  Gate().Close();
  std::thread applier([&] {
    EXPECT_TRUE(shard.ApplyBatch(second.data(), second.size()).ok());
  });
  struct Release {
    std::thread& applier;
    ~Release() {
      Gate().Open();
      if (applier.joinable()) applier.join();
    }
  } release{applier};
  Gate().AwaitWaiter();  // the second apply is parked inside the host

  const auto kBudget = std::chrono::seconds(1);
  epoch = std::async(std::launch::async,
                     [&] { return shard.Snapshot(kF2, kEpochOnly); });
  EXPECT_EQ(epoch.wait_for(kBudget), std::future_status::ready)
      << "epoch-only Snapshot queued behind the parked apply";
  snap = std::async(std::launch::async,
                    [&] { return shard.Snapshot(kF2, 0); });
  EXPECT_EQ(snap.wait_for(kBudget), std::future_status::ready)
      << "Snapshot(ams_f2) queued behind the parked apply";
  metrics = std::async(std::launch::async, [&] { return shard.Metrics(); });
  EXPECT_EQ(metrics.wait_for(kBudget), std::future_status::ready)
      << "Metrics queued behind the parked apply";

  Gate().Open();
  applier.join();

  // While parked, the reads saw the state published by the first batch.
  auto parked_epoch = epoch.get();
  ASSERT_TRUE(parked_epoch.ok()) << parked_epoch.status().ToString();
  EXPECT_EQ(parked_epoch.value().epoch, 1u);
  EXPECT_EQ(parked_epoch.value().sketch, nullptr);
  auto parked = snap.get();
  ASSERT_TRUE(parked.ok()) << parked.status().ToString();
  EXPECT_EQ(parked.value().epoch, 1u);
  ASSERT_NE(parked.value().sketch, nullptr);
  EXPECT_EQ(parked.value().sketch->Summary().scalar,
            want_parked.value().sketch->Summary().scalar);
  auto parked_metrics = metrics.get();
  ASSERT_TRUE(parked_metrics.ok()) << parked_metrics.status().ToString();
  bool has_epoch_sample = false;
  for (const MetricSample& m : parked_metrics.value()) {
    if (m.name == "epoch") {
      has_epoch_sample = true;
      EXPECT_EQ(m.gauge_value(), 1);
    }
  }
  EXPECT_TRUE(has_epoch_sample);

  // After the gate opens, the remote cell answers like the in-process one.
  auto final_epoch = shard.Snapshot(kF2, kEpochOnly);
  ASSERT_TRUE(final_epoch.ok()) << final_epoch.status().ToString();
  EXPECT_EQ(final_epoch.value().epoch, 2u);
  // Newer than the parked read's epoch 1: the state comes back.
  auto got = shard.Snapshot(kF2, 1);
  auto want = reference.value()->Snapshot(kF2, 0);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok() && want.value().sketch != nullptr);
  ASSERT_NE(got.value().sketch, nullptr);
  EXPECT_EQ(got.value().epoch, want.value().epoch);
  const SketchSummary got_summary = got.value().sketch->Summary();
  const SketchSummary want_summary = want.value().sketch->Summary();
  EXPECT_EQ(got_summary.scalar, want_summary.scalar);
  EXPECT_EQ(got_summary.updates, want_summary.updates);
  // Both batches were applied (gate_sketch has no wire format, so the
  // count is read from ams_f2's published state).
  EXPECT_EQ(got_summary.updates, uint64_t(first.size() + second.size()));
}

}  // namespace
}  // namespace wbs::engine
