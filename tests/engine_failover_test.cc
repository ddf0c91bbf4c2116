// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// Shard failure as a first-class scenario (PR 7): crash injection,
// heartbeat supervision, checkpoints, and MoveShard-based failover.
//
//   * detection + recovery: an injected crash of a tcp shard is
//     noticed by heartbeat timeout (kSuspect -> kDead), auto-re-homed from
//     its last checkpoint, and post-recovery answers are BIT-IDENTICAL to
//     an in-process reference — the recovered cell restores the exact
//     serialized cut and re-derives the same per-shard seed schedule;
//   * bounded loss is exact, never silent: updates_lost_total equals the
//     acked-but-unsnapshotted exposure window plus degraded-mode drops;
//   * FailoverDrill (checkpoint + crash + recover at ONE barrier) is
//     provably loss-free for all six families, with clean and torn-frame
//     deaths (the torn variant exercises the CRC32 reject path and must
//     not poison the pipeline);
//   * graceful degradation: a dead shard fails TrySubmit fast with
//     Unavailable, queries keep answering from the last folded snapshot
//     with the staleness flag set, and WaitFor bounds producer waits;
//   * reclamation: retired cells (and their self-hosted tcp threads and
//     socket fds) are destroyed when the last topology view drops, so a
//     reshard/recover loop does not leak (the ASan CI pass runs this too).
//
// Runs under TSan in CI: the supervisor, workers, producers, and query
// threads all race here on purpose.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <dirent.h>
#endif

#include "common/random.h"
#include "engine/backend.h"
#include "engine/client.h"
#include "engine/registry.h"
#include "engine/remote_backend.h"
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

const std::vector<std::string>& FiveFamilies() {
  static const std::vector<std::string> kNames = {
      "misra_gries", "ams_f2", "sis_l0", "robust_hh", "crhf_hh"};
  return kNames;
}

/// A supervised tcp client: fast heartbeats so detection completes in test
/// time, recovery re-homing into fresh tcp cells (placement stays
/// homogeneous, so cross-backend equality keeps holding afterwards).
std::unique_ptr<Client> MakeSupervisedClient(std::vector<std::string> sketches,
                                             const SketchConfig& cfg,
                                             size_t shards, size_t threads,
                                             bool auto_recover) {
  ClientOptions opts;
  opts.ingest.num_shards = shards;
  opts.ingest.num_threads = threads;
  opts.ingest.sketches = std::move(sketches);
  opts.ingest.config = cfg;
  opts.ingest.backend = TcpBackendFactory();
  opts.ingest.failover.heartbeat_interval_ms = 10;
  opts.ingest.failover.heartbeat_timeout_ms = 50;
  opts.ingest.failover.dead_after_misses = 2;
  opts.ingest.failover.auto_recover = auto_recover;
  opts.ingest.failover.recovery_backend = TcpBackendFactory();
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

const TraceSpan* FindSpan(const std::vector<TraceSpan>& spans,
                          const std::string& name) {
  for (const auto& s : spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

/// Every family's merged answer in `got` must equal `want` bit-for-bit —
/// scalar, update count, and the full candidate list.
void ExpectAnswersEqual(Client* got, Client* want,
                        const std::vector<std::string>& sketches) {
  for (const std::string& name : sketches) {
    auto h_got = got->Handle(name);
    auto h_want = want->Handle(name);
    ASSERT_TRUE(h_got.ok() && h_want.ok()) << name;
    auto s_got = got->RawSummary(h_got.value());
    auto s_want = want->RawSummary(h_want.value());
    ASSERT_TRUE(s_got.ok()) << name << ": " << s_got.status().ToString();
    ASSERT_TRUE(s_want.ok()) << name << ": " << s_want.status().ToString();
    EXPECT_FALSE(s_got.value().stale) << name;
    EXPECT_EQ(s_got.value().scalar, s_want.value().scalar) << name;
    EXPECT_EQ(s_got.value().has_scalar, s_want.value().has_scalar) << name;
    EXPECT_EQ(s_got.value().updates, s_want.value().updates) << name;
    ASSERT_EQ(s_got.value().items.size(), s_want.value().items.size()) << name;
    for (size_t i = 0; i < s_got.value().items.size(); ++i) {
      EXPECT_EQ(s_got.value().items[i].item, s_want.value().items[i].item)
          << name;
      EXPECT_EQ(s_got.value().items[i].estimate,
                s_want.value().items[i].estimate)
          << name;
    }
  }
}

// -------------------------------------------------- checkpoint machinery --

TEST(FailoverTest, PeriodicCheckpointsDrainTheExposureWindow) {
  ClientOptions opts;
  opts.ingest.num_shards = 2;
  opts.ingest.num_threads = 1;
  opts.ingest.sketches = {"ams_f2", "misra_gries"};
  opts.ingest.config = TestConfig(1 << 10, 70);
  opts.ingest.backend = InProcessBackendFactory();
  opts.ingest.failover.checkpoint_interval_ms = 10;  // supervisor-driven cuts
  auto client = Client::Create(opts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto s = ZipfTurnstile(1 << 10, 8000, 71);
  ASSERT_TRUE(Replay(client.value().get(), s, 1024,
                     ReplayChurn::kDisabled).ok());
  ASSERT_TRUE(client.value()->Flush().ok());
  // Everything acked is exposed until the next periodic cut lands; then
  // the window is exactly empty (no traffic races the checkpoint here).
  EXPECT_TRUE(PollUntil([&] {
    bool drained = true;
    for (size_t shard = 0; shard < 2; ++shard) {
      drained &=
          client.value()->Health(shard).updates_acked_unsnapshotted == 0;
    }
    return drained;
  })) << "periodic checkpoints never covered the acked stream";

  // In-process placements cannot crash — injection is a typed refusal, not
  // a silent no-op.
  Status crash = client.value()->InjectShardCrash(0);
  ASSERT_FALSE(crash.ok());
  EXPECT_EQ(crash.code(), Status::Code::kUnimplemented) << crash.ToString();
  ASSERT_TRUE(client.value()->Finish().ok());
  EXPECT_NE(FindSpan(client.value()->TraceSpans(), "checkpoint"), nullptr);
}

// ------------------------------------------- detection + auto-recovery --

TEST(FailoverTest, HeartbeatDetectsCleanCrashAndAutoRecovers) {
  const uint64_t universe = 1 << 12;
  const SketchConfig cfg = TestConfig(universe, 72);
  auto s1 = ZipfTurnstile(universe, 20000, 73);
  auto s2 = ZipfTurnstile(universe, 20000, 74);

  auto client = MakeSupervisedClient(FiveFamilies(), cfg, 2, 2,
                                     /*auto_recover=*/true);
  ASSERT_TRUE(Replay(client.get(), s1, 1024, ReplayChurn::kDisabled).ok());
  ASSERT_TRUE(client->Flush().ok());
  ASSERT_TRUE(client->Checkpoint().ok());

  // Kill shard 0's server mid-life, with NO barrier: the realistic death.
  ASSERT_TRUE(client->InjectShardCrash(0).ok());
  // The recovery bumps its count before it stores the healthy verdict and
  // records its span, so wait for all three.
  ASSERT_TRUE(PollUntil([&] {
    return client->Health(0).recoveries >= 1 &&
           client->Health(0).health == ShardHealth::kHealthy &&
           FindSpan(client->TraceSpans(), "recover_shard") != nullptr;
  })) << "supervisor never detected + re-homed the crashed shard";

  const ShardHealthInfo health = client->Health(0);
  EXPECT_EQ(health.health, ShardHealth::kHealthy);
  EXPECT_EQ(health.recoveries, 1u);
  // The checkpoint covered every acked update and nothing was submitted
  // into the outage window, so the loss bound is exactly zero.
  EXPECT_EQ(health.updates_lost_total, 0u);
  EXPECT_EQ(health.dropped_updates, 0u);

  const auto spans = client->TraceSpans();
  const TraceSpan* dead = FindSpan(spans, "shard_dead");
  ASSERT_NE(dead, nullptr);
  EXPECT_EQ(dead->Attr("shard"), 0u);
  EXPECT_GE(dead->Attr("missed_heartbeats"), 2u);
  const TraceSpan* recover = FindSpan(spans, "recover_shard");
  ASSERT_NE(recover, nullptr);
  EXPECT_EQ(recover->Attr("updates_lost"), 0u);
  EXPECT_EQ(recover->Attr("restored"), 1u);

  // Recovery IS MoveShard from the checkpoint: the restored cell carries
  // the same serialized cut a crash-free handoff at the same boundary
  // would, so continuing the stream stays bit-identical to an in-process
  // reference that moved the shard instead of losing it — for every
  // family, including the sampling heavy hitters (both continue as the
  // identical frozen prefix + identically-seeded fresh sampler).
  ASSERT_TRUE(Replay(client.get(), s2, 1024, ReplayChurn::kDisabled).ok());
  ASSERT_TRUE(client->Finish().ok());

  auto reference =
      MakeClient(FiveFamilies(), cfg, 2, 0, InProcessBackendFactory());
  ASSERT_TRUE(Replay(reference.get(), s1, 1024, ReplayChurn::kDisabled).ok());
  ASSERT_TRUE(reference->MoveShard(0, InProcessBackendFactory()).ok());
  ASSERT_TRUE(Replay(reference.get(), s2, 1024, ReplayChurn::kDisabled).ok());
  ASSERT_TRUE(reference->Finish().ok());
  ExpectAnswersEqual(client.get(), reference.get(), FiveFamilies());
}

// ------------------------------------------------ loss-free drill paths --

/// Mid-replay FailoverDrill: the drill checkpoints, crashes, and recovers
/// at one barrier, so it must equal a crash-free MoveShard at the same
/// batch boundary — bit-identically, for every family (the state-exact
/// families trivially, the sampling heavy hitters because both sides
/// continue as the identical frozen prefix + identically-seeded fresh
/// sampler). `torn` leaves a torn frame on a live connection — the death is
/// observed through the CRC32 reject instead of a failed heartbeat, and
/// must not poison the pipeline.
void CheckDrillIsLossFree(bool torn) {
  const uint64_t universe = 1 << 12;
  const SketchConfig cfg = TestConfig(universe, 75);
  auto s = ZipfTurnstile(universe, 30000, torn ? 76 : 77);
  const size_t batch = 1024;
  const size_t batches = (s.size() + batch - 1) / batch;
  const size_t drill_at = (batches * 3) / 4;

  auto client = MakeClient(FiveFamilies(), cfg, 4, 2, TcpBackendFactory());
  auto reference =
      MakeClient(FiveFamilies(), cfg, 4, 0, InProcessBackendFactory());
  size_t index = 0;
  for (size_t off = 0; off < s.size(); off += batch, ++index) {
    if (index == drill_at) {
      ASSERT_TRUE(
          client->FailoverDrill(0, torn, TcpBackendFactory()).ok());
      ASSERT_TRUE(reference->MoveShard(0, InProcessBackendFactory()).ok());
    }
    const size_t n = std::min(batch, s.size() - off);
    ASSERT_TRUE(client->Submit(s.data() + off, n).ok());
    ASSERT_TRUE(reference->Submit(s.data() + off, n).ok());
  }
  ASSERT_TRUE(client->Finish().ok());
  ASSERT_TRUE(reference->Finish().ok());

  const ShardHealthInfo health = client->Health(0);
  EXPECT_EQ(health.recoveries, 1u);
  EXPECT_EQ(health.updates_lost_total, 0u);
  EXPECT_NE(FindSpan(client->TraceSpans(), "failover_drill"), nullptr);
  ExpectAnswersEqual(client.get(), reference.get(), FiveFamilies());
}

TEST(FailoverTest, FailoverDrillIsLossFreeForAllFamilies) {
  CheckDrillIsLossFree(/*torn=*/false);
}

TEST(FailoverTest, TornFrameDeathIsCaughtByCrcAndStaysLossFree) {
  CheckDrillIsLossFree(/*torn=*/true);
}

TEST(FailoverTest, FailoverDrillPreservesRankDecision) {
  // The sixth family: rank_decision is state-exact over the wire, so a
  // drill splitting its diagonal stream must not change the verdict.
  SketchConfig cfg = TestConfig(1, 78);
  cfg.rank.n = 32;
  cfg.rank.k = 8;
  stream::TurnstileStream diag;
  for (size_t i = 0; i < 8; ++i) {
    diag.push_back({uint64_t(i) * cfg.rank.n + i, 1});
  }
  for (bool torn : {false, true}) {
    auto client = MakeClient({"rank_decision"}, cfg, 2, 1,
                             TcpBackendFactory());
    ASSERT_TRUE(client->Submit(diag.data(), 4).ok());
    ASSERT_TRUE(client->FailoverDrill(0, torn,
                                      TcpBackendFactory()).ok());
    ASSERT_TRUE(client->Submit(diag.data() + 4, 4).ok());
    ASSERT_TRUE(client->Finish().ok());
    EXPECT_EQ(client->Health(0).updates_lost_total, 0u) << "torn=" << torn;

    auto reference = MakeClient({"rank_decision"}, cfg, 2, 0,
                                InProcessBackendFactory());
    ASSERT_TRUE(SubmitAll(*reference, diag).ok());
    ASSERT_TRUE(reference->Finish().ok());
    auto got = client->QueryRank(client->Handle("rank_decision").value());
    auto want =
        reference->QueryRank(reference->Handle("rank_decision").value());
    ASSERT_TRUE(got.ok() && want.ok());
    EXPECT_EQ(got.value().rank_at_least_k, want.value().rank_at_least_k);
    EXPECT_TRUE(got.value().rank_at_least_k);
    EXPECT_EQ(got.value().updates, want.value().updates);
  }
}

TEST(FailoverTest, DrillRacingProducersLosesNothing) {
  // Producers hammer the engine while the drill runs: the barrier parks
  // their batches and re-scatters them under the bumped generation, so the
  // order-independent linear families must still be exact (TSan hunts the
  // supervisor / barrier / producer interleavings here).
  const uint64_t universe = 1 << 12;
  const SketchConfig cfg = TestConfig(universe, 79);
  auto s = ZipfTurnstile(universe, 40000, 80);
  auto client = MakeSupervisedClient({"ams_f2", "sis_l0"}, cfg, 4, 2,
                                     /*auto_recover=*/true);
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
  for (int drill = 0; drill < 3; ++drill) {
    ASSERT_TRUE(
        client->FailoverDrill(drill % 4, /*torn=*/drill == 1,
                              TcpBackendFactory()).ok());
  }
  for (auto& t : producers) t.join();
  ASSERT_TRUE(client->Finish().ok());
  for (size_t shard = 0; shard < 4; ++shard) {
    EXPECT_EQ(client->Health(shard).updates_lost_total, 0u) << shard;
  }

  auto reference = MakeClient({"ams_f2", "sis_l0"}, cfg, 4, 0,
                              InProcessBackendFactory());
  ASSERT_TRUE(Replay(reference.get(), s, 512, ReplayChurn::kDisabled).ok());
  ASSERT_TRUE(reference->Finish().ok());
  for (const char* name : {"ams_f2", "sis_l0"}) {
    auto got = client->QueryScalar(client->Handle(name).value());
    auto want = reference->QueryScalar(reference->Handle(name).value());
    ASSERT_TRUE(got.ok() && want.ok()) << name;
    EXPECT_EQ(got.value().value, want.value().value) << name;
    EXPECT_EQ(got.value().updates, uint64_t(s.size())) << name;
  }
}

// ---------------------------------------------------- degradation modes --

TEST(FailoverTest, DeadShardFailsFastServesStaleAndRecoversExactly) {
  const uint64_t universe = 1 << 12;
  const SketchConfig cfg = TestConfig(universe, 81);
  auto s1 = ZipfTurnstile(universe, 20000, 82);
  auto s2 = ZipfTurnstile(universe, 20000, 83);
  // auto_recover off: the shard stays dead until the manual rescue, which
  // is the window where every degradation contract must hold.
  auto client = MakeSupervisedClient({"ams_f2", "misra_gries"}, cfg, 2, 2,
                                     /*auto_recover=*/false);
  auto f2 = client->Handle("ams_f2").value();
  ASSERT_TRUE(Replay(client.get(), s1, 1024, ReplayChurn::kDisabled).ok());
  ASSERT_TRUE(client->Flush().ok());
  ASSERT_TRUE(client->Checkpoint().ok());
  auto before = client->QueryScalar(f2);  // warms the merge-cache fold
  ASSERT_TRUE(before.ok());
  EXPECT_FALSE(before.value().stale);

  ASSERT_TRUE(client->InjectShardCrash(0).ok());
  ASSERT_TRUE(PollUntil([&] {
    return client->Health(0).health == ShardHealth::kDead;
  })) << "supervisor never declared the crashed shard dead";

  // Fail-fast ingest: a non-blocking submit routed onto the dead shard is
  // refused with Unavailable — the caller owns the redirect/retry policy,
  // and no valve fills up behind a shard that cannot drain.
  auto rejected = TrySubmitAll(*client, s2);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), Status::Code::kUnavailable)
      << rejected.status().ToString();

  // Degraded queries: the last folded snapshot keeps answering, flagged.
  auto during = client->QueryScalar(f2);
  ASSERT_TRUE(during.ok());
  EXPECT_TRUE(during.value().stale);
  EXPECT_EQ(during.value().value, before.value().value);
  EXPECT_EQ(during.value().updates, before.value().updates);
  auto raw = client->RawSummary(f2);
  ASSERT_TRUE(raw.ok());
  EXPECT_TRUE(raw.value().stale);

  // Manual rescue restores the checkpointed cut: zero loss, staleness
  // clears, and the engine continues bit-identically.
  ASSERT_TRUE(client->RecoverShard(0, TcpBackendFactory()).ok());
  EXPECT_EQ(client->Health(0).health, ShardHealth::kHealthy);
  EXPECT_EQ(client->Health(0).recoveries, 1u);
  EXPECT_EQ(client->Health(0).updates_lost_total, 0u);
  auto after = client->QueryScalar(f2);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.value().stale);
  EXPECT_EQ(after.value().value, before.value().value);

  ASSERT_TRUE(Replay(client.get(), s2, 1024, ReplayChurn::kDisabled).ok());
  ASSERT_TRUE(client->Finish().ok());
  auto reference = MakeClient({"ams_f2", "misra_gries"}, cfg, 2, 0,
                              InProcessBackendFactory());
  ASSERT_TRUE(Replay(reference.get(), s1, 1024, ReplayChurn::kDisabled).ok());
  ASSERT_TRUE(Replay(reference.get(), s2, 1024, ReplayChurn::kDisabled).ok());
  ASSERT_TRUE(reference->Finish().ok());
  ExpectAnswersEqual(client.get(), reference.get(),
                     {"ams_f2", "misra_gries"});
}

// ------------------------------------------------------ WaitFor deadline --

/// A sketch whose ApplyBatch parks on a gate — pins a ticket in flight so
/// WaitFor's deadline is deterministic (never a sleep race).
struct ParkGate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = true;
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
  void Pass() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return open; });
  }
};

ParkGate& Gate() {
  static ParkGate* gate = new ParkGate();
  return *gate;
}

class ParkSketch final : public Sketch {
 public:
  const std::string& name() const override {
    static const std::string kName = "failover_park";
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
    const auto* o = dynamic_cast<const ParkSketch*>(&other);
    if (o == nullptr) return Status::InvalidArgument("park: type mismatch");
    updates_ += o->updates_;
    return Status::OK();
  }
  uint64_t SpaceBits() const override { return 64; }

 private:
  uint64_t updates_ = 0;
};

bool RegisterParkSketch() {
  static bool once = [] {
    Status s = SketchRegistry::Global().Register(
        "failover_park",
        [](const SketchConfig&) { return std::make_unique<ParkSketch>(); },
        SketchFamily::kScalarEstimate);
    return s.ok();
  }();
  return once;
}

TEST(FailoverTest, WaitForTimesOutThenSucceedsOnTheSameTicket) {
  ASSERT_TRUE(RegisterParkSketch());
  ClientOptions opts;
  opts.ingest.num_shards = 1;
  opts.ingest.num_threads = 1;
  opts.ingest.sketches = {"failover_park"};
  opts.ingest.config = TestConfig(1 << 10, 84);
  opts.ingest.backend = InProcessBackendFactory();
  auto client = Client::Create(opts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  Gate().Close();
  const stream::TurnstileStream four{{1, 1}, {2, 1}, {3, 1}, {4, 1}};
  auto ticket = SubmitAll(*client.value(), four);
  ASSERT_TRUE(ticket.ok());
  Status timed_out = client.value()->WaitFor(ticket.value(), 50);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.code(), Status::Code::kDeadlineExceeded)
      << timed_out.ToString();

  // A timeout past any real deadline waits like Wait: still pending after
  // 50 ms, then OK once the worker unparks.
  std::atomic<bool> returned{false};
  Status forever;
  std::thread waiter([&] {
    forever = client.value()->WaitFor(ticket.value(), UINT64_MAX);
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(returned.load());

  // The ticket survives the timeout: re-waiting after the worker unparks
  // completes normally.
  Gate().Open();
  waiter.join();
  EXPECT_TRUE(forever.ok()) << forever.ToString();
  EXPECT_TRUE(client.value()->WaitFor(ticket.value(), 30000).ok());
  EXPECT_TRUE(client.value()->Wait(ticket.value()).ok());
  ASSERT_TRUE(client.value()->Finish().ok());
}

// --------------------------------------------------------- reclamation --

#ifdef __linux__
size_t OpenFdCount() {
  size_t count = 0;
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  while (readdir(dir) != nullptr) ++count;
  closedir(dir);
  return count;
}

size_t ThreadCount() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  size_t threads = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "Threads: %zu", &threads) == 1) break;
  }
  std::fclose(f);
  return threads;
}
#endif  // __linux__

TEST(FailoverTest, ReshardRecoverLoopReclaimsCellsAndThreads) {
#ifndef __linux__
  GTEST_SKIP() << "fd/thread accounting reads /proc";
#else
  // Every drill and move retires a tcp cell (a self-hosted listener with
  // its accept and serving threads, plus both channels' sockets).
  // shared_ptr placement ownership must reclaim each one as
  // the last topology view referencing it drops — a long-lived engine that
  // reshards continuously would otherwise bleed fds and threads. The ASan
  // CI pass runs this same loop with leak detection on.
  const SketchConfig cfg = TestConfig(1 << 10, 85);
  auto s = ZipfTurnstile(1 << 10, 4000, 86);
  auto client = MakeClient({"ams_f2", "misra_gries"}, cfg, 2, 1,
                           TcpBackendFactory());
  auto f2 = client->Handle("ams_f2").value();
  ASSERT_TRUE(Replay(client.get(), s, 1024, ReplayChurn::kDisabled).ok());

  auto churn_once = [&](int i) {
    if (i % 2 == 0) {
      ASSERT_TRUE(
          client->FailoverDrill(0, /*torn=*/i % 4 == 2,
                                TcpBackendFactory()).ok());
    } else {
      ASSERT_TRUE(client->MoveShard(0, TcpBackendFactory()).ok());
    }
    ASSERT_TRUE(client->Submit(s.data(), 256).ok());
    ASSERT_TRUE(client->Flush().ok());
    // Querying re-folds under the new generation, releasing the previous
    // topology view (and with it the retired cell).
    ASSERT_TRUE(client->QueryScalar(f2).ok());
  };

  for (int i = 0; i < 3; ++i) churn_once(i);  // warm up to steady state
  const size_t fds_before = OpenFdCount();
  const size_t threads_before = ThreadCount();
  for (int i = 3; i < 13; ++i) churn_once(i);
  const size_t fds_after = OpenFdCount();
  const size_t threads_after = ThreadCount();

  // Ten retired cells would hold ~50 fds and ~30 threads if leaked; a
  // reclaiming engine stays flat (small slack for transient /proc noise).
  EXPECT_LE(fds_after, fds_before + 4)
      << "retired tcp cells are leaking file descriptors";
  EXPECT_LE(threads_after, threads_before + 2)
      << "retired tcp cells are leaking host threads";
  ASSERT_TRUE(client->Finish().ok());
#endif
}

// The initial placements are cells like any other: moving a tcp shard
// in-process retires its cell, and with it the self-hosted host's accept
// and serving threads.
TEST(FailoverTest, MovedInitialShardStopsItsServerThreads) {
#ifndef __linux__
  GTEST_SKIP() << "thread accounting reads /proc";
#else
  const SketchConfig cfg = TestConfig(1 << 10, 87);
  auto s = ZipfTurnstile(1 << 10, 2000, 88);
  auto client = MakeClient({"ams_f2"}, cfg, 2, 1, TcpBackendFactory());
  auto f2 = client->Handle("ams_f2").value();
  ASSERT_TRUE(Replay(client.get(), s, 1024, ReplayChurn::kDisabled).ok());
  ASSERT_TRUE(client->Flush().ok());
  const size_t threads_before = ThreadCount();

  ASSERT_TRUE(client->MoveShard(0, InProcessBackendFactory()).ok());
  ASSERT_TRUE(client->Flush().ok());
  ASSERT_TRUE(client->QueryScalar(f2).ok());
  // A joined thread can stay listed in /proc for a moment after the join.
  EXPECT_TRUE(PollUntil(
      [&] { return ThreadCount() + 2 <= threads_before; }, 5000))
      << "the retired tcp cell still runs its host threads ("
      << ThreadCount() << " threads, " << threads_before << " before)";
  ASSERT_TRUE(client->Finish().ok());
#endif
}

}  // namespace
}  // namespace wbs::engine
