// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// Per-producer fairness on the MPSC submission stage:
//
//   * producer SESSIONS are drained round-robin by the router, so a hot
//     producer that parked many batches cannot monopolize dispatch — a
//     second session's batches interleave instead of waiting for the
//     whole backlog (the regression this file exists to pin: the old
//     single-FIFO router applied one session's entire backlog first);
//   * the inflight valves admit blocked producers in ARRIVAL ORDER (FIFO
//     turnstile), so a hot producer looping on Submit cannot starve a
//     parked one past max_inflight_bytes / max_inflight_tickets;
//   * TrySubmit stays fail-fast under MULTIPLE concurrent producers: a
//     full valve answers ResourceExhausted to every racing producer
//     without blocking or enqueueing (previously only the single-producer
//     gate-sketch path was exercised).
//
// The observable is a recording sketch that logs the tag of every batch
// it applies, combined with a gate that parks the worker inside
// ApplyBatch so queues fill deterministically.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "engine/backend.h"
#include "engine/client.h"
#include "engine/registry.h"
#include "stream/updates.h"

#include "engine_test_util.h"

namespace wbs::engine {
namespace {

// ------------------------------------------------- recording gate sketch --

struct FairGate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = true;
  int waiting = 0;
  std::vector<uint64_t> applied;  // first item of every applied batch

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
  void AwaitWaiter() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return waiting > 0; });
  }
  void Record(uint64_t tag) {
    std::lock_guard<std::mutex> lock(mu);
    applied.push_back(tag);
  }
  std::vector<uint64_t> Applied() {
    std::lock_guard<std::mutex> lock(mu);
    return applied;
  }
  void Reset() {
    std::lock_guard<std::mutex> lock(mu);
    open = true;
    waiting = 0;
    applied.clear();
  }
  void Pass() {
    std::unique_lock<std::mutex> lock(mu);
    ++waiting;
    cv.notify_all();
    cv.wait(lock, [&] { return open; });
    --waiting;
  }
};

FairGate& Gate() {
  static FairGate* gate = new FairGate();
  return *gate;
}

class RecordingSketch final : public Sketch {
 public:
  const std::string& name() const override {
    static const std::string kName = "fair_recording";
    return kName;
  }
  Status Update(const stream::TurnstileUpdate& u) override {
    if (u.delta != 0) ++updates_;
    return Status::OK();
  }
  Status ApplyBatch(const UpdateBatch& batch) override {
    if (batch.size > 0) Gate().Record(batch.data[0].item);
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
    const auto* o = dynamic_cast<const RecordingSketch*>(&other);
    if (o == nullptr) {
      return Status::InvalidArgument("fair_recording: type mismatch");
    }
    updates_ += o->updates_;
    return Status::OK();
  }
  uint64_t SpaceBits() const override { return 64; }

 private:
  uint64_t updates_ = 0;
};

bool RegisterRecordingSketch() {
  static bool once = [] {
    return SketchRegistry::Global()
        .Register("fair_recording",
                  [](const SketchConfig&) {
                    return std::make_unique<RecordingSketch>();
                  },
                  SketchFamily::kScalarEstimate)
        .ok();
  }();
  return once;
}

std::unique_ptr<Client> MakeFairClient(size_t max_inflight_bytes,
                                       size_t max_queue_batches = 64) {
  EXPECT_TRUE(RegisterRecordingSketch());
  Gate().Reset();
  ClientOptions opts;
  opts.ingest.num_shards = 1;  // every item lands on the one shard
  opts.ingest.num_threads = 1;
  opts.ingest.max_queue_batches = max_queue_batches;
  opts.ingest.max_inflight_bytes = max_inflight_bytes;
  opts.ingest.sketches = {"fair_recording"};
  opts.ingest.config = SketchConfig{}.WithUniverse(1 << 10).WithSeed(3);
  // The gate parks the worker inside the backend; keep this suite on the
  // in-process backend regardless of WBS_ENGINE_BACKEND.
  opts.ingest.backend = InProcessBackendFactory();
  auto client = Client::Create(opts);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(client).value();
}

stream::TurnstileStream OneUpdate(uint64_t tag) {
  return stream::TurnstileStream{{tag, 1}};
}

stream::TurnstileStream FourUpdates(uint64_t tag) {
  return stream::TurnstileStream{{tag, 1}, {tag, 1}, {tag, 1}, {tag, 1}};
}

size_t IndexOf(const std::vector<uint64_t>& v, uint64_t tag) {
  auto it = std::find(v.begin(), v.end(), tag);
  EXPECT_NE(it, v.end()) << "tag " << tag << " never applied";
  return size_t(it - v.begin());
}

// ------------------------------------------------------- round-robin drain --

TEST(SessionFairnessTest, RouterDrainsSessionsRoundRobin) {
  auto client = MakeFairClient(/*bytes=*/0, /*max_queue_batches=*/1);
  auto a = client->OpenSession();
  auto b = client->OpenSession();
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_NE(a.value().id, b.value().id);

  Gate().Close();
  // Hot session A parks five batches; the first reaches the worker and
  // blocks on the gate, the rest pile up (worker queue capped at one).
  ASSERT_TRUE(SubmitAll(*client, OneUpdate(10), a.value()).ok());
  Gate().AwaitWaiter();
  for (uint64_t i = 1; i < 5; ++i) {
    ASSERT_TRUE(SubmitAll(*client, OneUpdate(10 + i), a.value()).ok());
  }
  // Session B arrives with its own backlog while A's is parked.
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(SubmitAll(*client, OneUpdate(20 + i), b.value()).ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Gate().Open();
  ASSERT_TRUE(client->Finish().ok());

  const std::vector<uint64_t> applied = Gate().Applied();
  ASSERT_EQ(applied.size(), 9u);
  // Round-robin: B's first batch is dispatched before A's backlog is done.
  // (The old single-FIFO router applied ALL of A first — tags 10..14 —
  // because every A batch was submitted before any B batch.)
  EXPECT_LT(IndexOf(applied, 20), IndexOf(applied, 14))
      << "session B starved behind session A's backlog";
  // Per-session FIFO order is preserved.
  for (uint64_t i = 1; i < 5; ++i) {
    EXPECT_LT(IndexOf(applied, 10 + i - 1), IndexOf(applied, 10 + i));
  }
  for (uint64_t i = 1; i < 4; ++i) {
    EXPECT_LT(IndexOf(applied, 20 + i - 1), IndexOf(applied, 20 + i));
  }
}

// ------------------------------------------------------ fair valve admission --

TEST(SessionFairnessTest, ValveAdmitsBlockedProducersInArrivalOrder) {
  // Bytes valve sized for exactly one 4-update batch.
  auto client =
      MakeFairClient(FourUpdates(0).size() * sizeof(stream::TurnstileUpdate));
  Gate().Close();
  ASSERT_TRUE(SubmitAll(*client, FourUpdates(100)).ok());  // fills the valve
  Gate().AwaitWaiter();

  std::atomic<bool> victim_submitted{false};
  std::thread victim([&] {
    EXPECT_TRUE(SubmitAll(*client, FourUpdates(200)).ok());  // first waiter
    victim_submitted.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_FALSE(victim_submitted.load(std::memory_order_acquire));
  std::thread hot([&] {
    EXPECT_TRUE(SubmitAll(*client, FourUpdates(300)).ok());  // second waiter
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  Gate().Open();
  victim.join();
  hot.join();
  ASSERT_TRUE(client->Finish().ok());

  // FIFO admission: the victim's batch is admitted (and applied) before
  // the hot producer's, because it arrived at the valve first.
  const std::vector<uint64_t> applied = Gate().Applied();
  ASSERT_EQ(applied.size(), 3u);
  EXPECT_EQ(applied[0], 100u);
  EXPECT_EQ(applied[1], 200u) << "later arrival barged past the first waiter";
  EXPECT_EQ(applied[2], 300u);
  auto handle = client->Handle("fair_recording").value();
  EXPECT_EQ(client->QueryScalar(handle).value().updates, 12u);
}

// ------------------------------------- TrySubmit under concurrent producers --

TEST(MultiProducerFlowControlTest, TrySubmitFailsFastForEveryRacingProducer) {
  auto client =
      MakeFairClient(FourUpdates(0).size() * sizeof(stream::TurnstileUpdate));
  Gate().Close();
  auto first = SubmitAll(*client, FourUpdates(1));
  ASSERT_TRUE(first.ok());
  Gate().AwaitWaiter();  // worker parked; the valve is full

  // Many producers hammer TrySubmit concurrently: every attempt must fail
  // fast with ResourceExhausted — no blocking, no partial enqueue.
  constexpr size_t kProducers = 4;
  constexpr size_t kAttempts = 50;
  std::atomic<uint64_t> successes{0}, exhausted{0}, other_errors{0};
  {
    std::vector<std::thread> producers;
    for (size_t p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (size_t i = 0; i < kAttempts; ++i) {
          auto t = TrySubmitAll(*client, FourUpdates(1000 + p));
          if (t.ok()) {
            ++successes;
          } else if (t.status().code() ==
                     Status::Code::kResourceExhausted) {
            ++exhausted;
          } else {
            ++other_errors;
          }
        }
      });
    }
    for (auto& t : producers) t.join();
  }
  EXPECT_EQ(successes.load(), 0u);
  EXPECT_EQ(other_errors.load(), 0u);
  EXPECT_EQ(exhausted.load(), kProducers * kAttempts);

  Gate().Open();
  ASSERT_TRUE(client->Wait(first.value()).ok());

  // Valve drained: concurrent TrySubmits are admitted again, and the
  // update count proves failed attempts never left a partial batch behind.
  std::atomic<uint64_t> admitted{0};
  {
    std::vector<std::thread> producers;
    for (size_t p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        auto t = TrySubmitAll(*client, FourUpdates(2000 + p));
        if (t.ok()) ++admitted;
      });
    }
    for (auto& t : producers) t.join();
  }
  EXPECT_GE(admitted.load(), 1u);
  ASSERT_TRUE(client->Finish().ok());
  auto handle = client->Handle("fair_recording").value();
  EXPECT_EQ(client->QueryScalar(handle).value().updates,
            4 * (1 + admitted.load()));
}

// ---------------------------------------------------- barrier vs sessions --

TEST(SessionFairnessTest, BuriedTopologyBarrierFencesOtherSessions) {
  // A topology barrier parked BEHIND earlier data in its own lane must
  // still hold back later-sequence tickets queued in other lanes: a batch
  // submitted after AddShards() was issued has to be routed by the NEW
  // table. The observable is the new shard receiving its slot share of
  // that batch (the router re-scatters it against the installed view).
  // Hand-rolled options: this test wants several shards so the new shard
  // owns a detectable slot share.
  EXPECT_TRUE(RegisterRecordingSketch());
  Gate().Reset();
  ClientOptions opts;
  opts.ingest.num_shards = 4;
  opts.ingest.num_threads = 1;
  opts.ingest.max_queue_batches = 1;
  opts.ingest.sketches = {"fair_recording"};
  opts.ingest.config = SketchConfig{}.WithUniverse(1 << 10).WithSeed(3);
  opts.ingest.backend = InProcessBackendFactory();
  auto made = Client::Create(opts);
  ASSERT_TRUE(made.ok());
  auto client = std::move(made).value();
  auto other = client->OpenSession();
  ASSERT_TRUE(other.ok());

  Gate().Close();
  // Default lane: four data tickets; the first parks the worker, the rest
  // pile up in front of the barrier.
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(SubmitAll(*client, OneUpdate(i)).ok());
  }
  Gate().AwaitWaiter();
  // The barrier enqueues behind them in lane 0.
  std::thread grower([&] { EXPECT_TRUE(client->AddShards(1).ok()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // A later-sequence batch on ANOTHER lane, wide enough to cover every
  // slot. It must not be dispatched until the barrier installed the grown
  // table.
  stream::TurnstileStream wide;
  for (uint64_t item = 0; item < 1000; ++item) wide.push_back({item, 1});
  ASSERT_TRUE(SubmitAll(*client, wide, other.value()).ok());

  Gate().Open();
  grower.join();
  ASSERT_TRUE(client->Finish().ok());
  ASSERT_EQ(client->num_shards(), 5u);
  // The new shard owns 1/5 of the slots; the wide batch must have reached
  // it. (With the barrier fenced only on lane fronts, the wide batch was
  // dispatched under the old 4-shard table and the new shard saw nothing.)
  auto moved_share = client->ShardSummary(4, "fair_recording");
  ASSERT_TRUE(moved_share.ok()) << moved_share.status().ToString();
  EXPECT_GT(moved_share.value().updates, 0u)
      << "post-barrier batch was routed by the pre-barrier table";
}

// ------------------------------------------------------------ session API --

TEST(SessionFairnessTest, UnknownSessionRejectedAndIdsAreDistinct) {
  auto client = MakeFairClient(/*bytes=*/0);
  auto a = client->OpenSession();
  auto b = client->OpenSession();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a.value().id, b.value().id);
  EXPECT_NE(a.value().id, 0u);  // 0 is the shared default session

  // Every submit verb rejects an id this engine never issued.
  ProducerSession bogus{1234};
  const stream::ItemUpdate item{1};
  const auto expect_rejected = [&](Client& c) {
    EXPECT_EQ(SubmitAll(c, OneUpdate(1), bogus).status().code(),
              Status::Code::kInvalidArgument);
    EXPECT_EQ(TrySubmitAll(c, OneUpdate(1), bogus).status().code(),
              Status::Code::kInvalidArgument);
    EXPECT_EQ(c.SubmitItems(&item, 1, bogus).status().code(),
              Status::Code::kInvalidArgument);
  };
  expect_rejected(*client);
  // The default session keeps working.
  ASSERT_TRUE(SubmitAll(*client, OneUpdate(2)).ok());
  ASSERT_TRUE(client->Finish().ok());
  auto handle = client->Handle("fair_recording").value();
  EXPECT_EQ(client->QueryScalar(handle).value().updates, 1u);

  // Inline mode (num_threads == 0) validates sessions identically.
  ClientOptions opts;
  opts.ingest.num_shards = 2;
  opts.ingest.num_threads = 0;
  opts.ingest.sketches = {"ams_f2"};
  opts.ingest.config = SketchConfig{}.WithUniverse(1 << 10).WithSeed(5);
  auto inline_client = Client::Create(opts);
  ASSERT_TRUE(inline_client.ok());
  expect_rejected(*inline_client.value());
  auto opened = inline_client.value()->OpenSession();
  ASSERT_TRUE(opened.ok());
  ASSERT_TRUE(
      SubmitAll(*inline_client.value(), OneUpdate(1), opened.value()).ok());
  ASSERT_TRUE(inline_client.value()->Finish().ok());
}

}  // namespace
}  // namespace wbs::engine
