// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// Regression guard for the inline-mode submission hot loop: after warm-up,
// Submit/SubmitItems must perform ZERO heap allocations. The scatter
// scratch is a reused member whose single-shard fast path rounds capacity
// to the next power of two (so steadily growing batches do not reallocate
// on every call) and whose multi-shard path retains sub-vector capacity
// across submissions. The test counts every global operator new in the
// binary and pins the hot window at zero; a no-op backend keeps sketch
// internals (which allocate by design) out of the measurement. The same
// counter pins that Health() of an unknown shard id allocates nothing, and
// that a shard's batch aggregation allocates nothing once warm.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "engine/backend.h"
#include "engine/client.h"
#include "engine/sketch.h"
#include "stream/updates.h"

// ---- global allocation counter ---------------------------------------------
// Counts every operator new in this test binary. Only the deltas inside the
// measured windows matter; gtest's own allocations happen outside them.

namespace {
std::atomic<size_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(size_t(align),
                                   (size + size_t(align) - 1) &
                                       ~(size_t(align) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
// noinline: were a delete inlined where gtest's `new TestClass` is also
// visible, gcc would pair the malloc-backed free with that new and warn
// -Wmismatched-new-delete in the sanitizer builds.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t,
                                         std::align_val_t) noexcept {
  std::free(p);
}

namespace wbs::engine {
namespace {

// Accepts every batch and does nothing — the measured loop ends at the
// backend boundary, so sketch-internal allocations (hash table growth,
// aggregation scratch) cannot pollute the scatter-path assertion.
class NullBackend : public ShardBackend {
 public:
  Status ApplyBatch(const stream::TurnstileUpdate*, size_t count) override {
    applied_ += count;
    return Status::OK();
  }
  // Never publishes: every read answers epoch 0 and no state.
  Result<ShardSnapshot> Snapshot(size_t, uint64_t) const override {
    return ShardSnapshot{};
  }
  Result<SerializedSnapshot> SnapshotSerialized(size_t,
                                                uint64_t) const override {
    return SerializedSnapshot{};
  }
  Status Flush() override { return Status::OK(); }
  uint64_t SpaceBits() const override { return 0; }

  uint64_t applied() const { return applied_; }

 private:
  uint64_t applied_ = 0;
};

std::unique_ptr<Client> MakeInlineEngine(size_t shards) {
  ClientOptions opts;
  opts.ingest.num_shards = shards;
  opts.ingest.num_threads = 0;  // inline: apply on the submitting thread
  opts.ingest.metrics_enabled = false;  // no instruments, no clock reads
  opts.ingest.sketches.emplace_back("ams_f2");  // ignored by NullBackend
  opts.ingest.backend = [](const BackendOptions&)
      -> Result<std::unique_ptr<ShardBackend>> {
    return std::unique_ptr<ShardBackend>(std::make_unique<NullBackend>());
  };
  auto engine = Client::Create(opts);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return engine.ok() ? std::move(engine).value() : nullptr;
}

stream::TurnstileStream MakeStream(size_t n) {
  stream::TurnstileStream s;
  s.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    s.push_back({uint64_t(i) * 0x9e3779b97f4a7c15ULL, 1});
  }
  return s;
}

size_t AllocsDuring(const std::function<void()>& fn) {
  const size_t before = g_allocs.load(std::memory_order_relaxed);
  fn();
  return g_allocs.load(std::memory_order_relaxed) - before;
}

TEST(ScatterAllocTest, SingleShardInlineResubmitAllocatesNothing) {
  auto engine = MakeInlineEngine(1);
  ASSERT_NE(engine, nullptr);
  const stream::TurnstileStream s = MakeStream(1000);

  // Warm-up sizes the scratch: capacity is rounded to bit_ceil(1000) = 1024.
  ASSERT_TRUE(engine->Submit(s.data(), s.size()).ok());

  // Steady state, including batches LARGER than the warm-up (up to the
  // power-of-two capacity): zero allocations.
  for (size_t n : {size_t{1}, size_t{500}, size_t{1000}, size_t{1024}}) {
    const stream::TurnstileStream b = MakeStream(n);
    const size_t allocs = AllocsDuring(
        [&] { ASSERT_TRUE(engine->Submit(b.data(), b.size()).ok()); });
    EXPECT_EQ(allocs, 0u) << "batch=" << n;
  }
}

TEST(ScatterAllocTest, MultiShardInlineResubmitAllocatesNothing) {
  auto engine = MakeInlineEngine(4);
  ASSERT_NE(engine, nullptr);
  const stream::TurnstileStream s = MakeStream(2048);

  // Two warm-ups: the first sizes the per-shard sub-vectors, the second
  // confirms sizing converged before the measured window.
  ASSERT_TRUE(engine->Submit(s.data(), s.size()).ok());
  ASSERT_TRUE(engine->Submit(s.data(), s.size()).ok());

  for (int round = 0; round < 3; ++round) {
    const size_t allocs = AllocsDuring(
        [&] { ASSERT_TRUE(engine->Submit(s.data(), s.size()).ok()); });
    EXPECT_EQ(allocs, 0u) << "round=" << round;
  }
}

TEST(ScatterAllocTest, ItemPathInlineResubmitAllocatesNothing) {
  auto engine = MakeInlineEngine(4);
  ASSERT_NE(engine, nullptr);
  stream::ItemStream items;
  items.reserve(2048);
  for (size_t i = 0; i < 2048; ++i) {
    items.push_back({uint64_t(i) * 0x9e3779b97f4a7c15ULL});
  }

  ASSERT_TRUE(engine->SubmitItems(items.data(), items.size()).ok());
  ASSERT_TRUE(engine->SubmitItems(items.data(), items.size()).ok());

  for (int round = 0; round < 3; ++round) {
    const size_t allocs = AllocsDuring([&] {
      ASSERT_TRUE(engine->SubmitItems(items.data(), items.size()).ok());
    });
    EXPECT_EQ(allocs, 0u) << "round=" << round;
  }
}

TEST(ScatterAllocTest, GrowingBatchesReallocateLogarithmically) {
  // The bit_ceil rounding claim, observed directly: growing a single-shard
  // batch 1 -> 1024 one update at a time must reallocate the scratch
  // O(log) times, not O(n) times.
  auto engine = MakeInlineEngine(1);
  ASSERT_NE(engine, nullptr);
  const stream::TurnstileStream s = MakeStream(1024);
  size_t growth_allocs = 0;
  for (size_t n = 1; n <= 1024; ++n) {
    growth_allocs +=
        AllocsDuring([&] { ASSERT_TRUE(engine->Submit(s.data(), n).ok()); });
  }
  // 11 bit_ceil steps; leave headroom for one-off lazy initialization.
  EXPECT_LE(growth_allocs, 32u);
}

TEST(ScatterAllocTest, SameSizedAggregationAllocatesNothing) {
  // A shard's per-batch aggregation reuses its flat item table and output
  // vector: after one warm-up call (here all distinct, the most storage a
  // batch of this size needs), further calls of the same size allocate
  // nothing, whatever their mix of distinct items.
  const size_t n = 2048;
  auto batch = [n](uint64_t distinct, uint64_t salt) {
    stream::TurnstileStream s;
    s.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const uint64_t k = (i * i + salt) % distinct;
      s.push_back({(k + salt) * 0x9e3779b97f4a7c15ULL, int64_t(i % 3) - 1});
    }
    return s;
  };
  std::vector<stream::TurnstileUpdate> out;
  FlatItemIndex index;
  const stream::TurnstileStream warm = MakeStream(n);  // n distinct items
  AggregateUpdates(warm.data(), warm.size(), &out, &index);
  for (uint64_t distinct : {uint64_t{1}, uint64_t{700}, uint64_t{n}}) {
    const stream::TurnstileStream s = batch(distinct, distinct);
    const size_t allocs = AllocsDuring(
        [&] { AggregateUpdates(s.data(), s.size(), &out, &index); });
    EXPECT_EQ(allocs, 0u) << "distinct=" << distinct;
  }
}

TEST(ScatterAllocTest, HealthOfAnUnknownShardAllocatesNothing) {
  // Health() of an id the topology never issued returns the default
  // verdict without growing per-shard state up to that id.
  auto engine = MakeInlineEngine(2);
  ASSERT_NE(engine, nullptr);
  ShardHealthInfo info;
  const size_t allocs =
      AllocsDuring([&] { info = engine->Health(size_t{1} << 20); });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(info.health, ShardHealth::kHealthy);
  EXPECT_EQ(info.recoveries, 0u);
  EXPECT_EQ(info.dropped_updates, 0u);
}

}  // namespace
}  // namespace wbs::engine
