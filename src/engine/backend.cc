// Copyright (c) wbstream authors. Licensed under the MIT license.

#include "engine/backend.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <utility>

#include "common/random.h"
#include "engine/registry.h"
#include "engine/wire.h"

namespace wbs::engine {
namespace {

// The engine's fixed seed schedule — unchanged from the pre-backend
// ingestor so existing runs replay bit-for-bit.
constexpr uint64_t kShardSeedSalt = 0x5ea5ea5ea5ea5ea5ULL;
constexpr uint64_t kMergeSeedSalt = 0x3e63e63e63e63e63ULL;

uint64_t DeriveSeed(uint64_t seed, uint64_t salt, uint64_t index) {
  uint64_t s = seed ^ salt ^ (index * 0xd1342543de82ef95ULL);
  return SplitMix64(&s);
}

uint64_t ElapsedUs(std::chrono::steady_clock::time_point t0) {
  return uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count());
}

/// The engine's original process-local shard code behind the ShardBackend
/// interface: raw-pointer apply, aggregation scratch shared by the group,
/// clone-based snapshot slot with an atomic epoch.
class InProcessBackend final : public ShardBackend {
 public:
  static Result<std::unique_ptr<ShardBackend>> Create(
      const BackendOptions& options) {
    std::unique_ptr<InProcessBackend> cell(new InProcessBackend(options));
    for (const std::string& name : options.sketches) {
      auto sketch = SketchRegistry::Global().Create(name, options.config);
      if (!sketch.ok()) return sketch.status();
      cell->sketches_.push_back(std::move(sketch).value());
    }
    return Result<std::unique_ptr<ShardBackend>>(std::move(cell));
  }

  Status ApplyBatch(const stream::TurnstileUpdate* data,
                    size_t count) override {
    // Aggregate once per batch; every weight-equivalent sketch in the group
    // consumes the shared result instead of re-hashing the batch, which is
    // where most of the engine's batching win comes from.
    auto [effective, has_negative] =
        AggregateUpdates(data, count, &agg_, &agg_index_);
    UpdateBatch batch{data,        count,     agg_.data(),
                      agg_.size(), effective, has_negative};
    for (auto& sketch : sketches_) {
      Status s = sketch->ApplyBatch(batch);
      if (!s.ok()) return s;
    }
    // Relaxed: the applier is the only writer; concurrent Metrics() readers
    // just want a recent value for the snapshot-lag gauge.
    const uint64_t since =
        updates_since_publish_.load(std::memory_order_relaxed) + count;
    updates_since_publish_.store(since, std::memory_order_relaxed);
    if (since >= options_.snapshot_min_updates) Publish();
    return Status::OK();
  }

  Result<ShardSnapshot> Snapshot(size_t sketch_index,
                                 uint64_t newer_than) const override {
    if (sketch_index >= options_.sketches.size()) {
      return Status::OutOfRange("inprocess backend: sketch out of range");
    }
    // The lock-free epoch load decides; the slot's lock is taken only when
    // there is something newer to hand out.
    ShardSnapshot snap;
    snap.epoch = epoch_.load(std::memory_order_acquire);
    if (snap.epoch <= newer_than) return snap;
    std::lock_guard<std::mutex> lock(snap_mu_);
    if (!snap_error_.ok()) return snap_error_;
    snap.sketch = snaps_[sketch_index];
    snap.epoch = epoch_.load(std::memory_order_relaxed);
    return snap;
  }

  Result<SerializedSnapshot> SnapshotSerialized(
      size_t sketch_index, uint64_t newer_than) const override {
    auto snap = Snapshot(sketch_index, newer_than);
    if (!snap.ok()) return snap.status();
    SerializedSnapshot out;
    out.epoch = snap.value().epoch;
    if (snap.value().sketch == nullptr) return out;  // nothing newer
    const auto t0 = std::chrono::steady_clock::now();
    auto frame = SerializeSketch(*snap.value().sketch);
    if (!frame.ok()) return frame.status();
    serialize_us_.Record(ElapsedUs(t0));
    out.state = std::move(frame).value();
    return out;
  }

  Status Flush() override {
    if (updates_since_publish_.load(std::memory_order_relaxed) > 0) {
      Publish();
    }
    // At quiescence no publication may come to free the retired
    // snapshots, so a reader still holding one frees it itself.
    retired_.clear();
    return Status::OK();
  }

  void OnIdle() override {
    if (updates_since_publish_.load(std::memory_order_relaxed) == 0) return;
    Publish();
    idle_publishes_.Inc();
  }

  Status ImportShardState(const std::vector<std::string>& frames) override {
    if (frames.size() != options_.sketches.size()) {
      return Status::InvalidArgument(
          "inprocess backend: handoff frame count does not match the "
          "configured sketch group");
    }
    // Decode everything into fresh instances BEFORE touching the live
    // group, so a bad frame leaves the cell exactly as it was.
    std::vector<std::unique_ptr<Sketch>> imported;
    imported.reserve(frames.size());
    for (size_t i = 0; i < frames.size(); ++i) {
      auto sketch =
          DeserializeSketch(options_.sketches[i], options_.config, frames[i]);
      if (!sketch.ok()) return sketch.status();
      imported.push_back(std::move(sketch).value());
    }
    sketches_ = std::move(imported);
    updates_since_publish_.store(0, std::memory_order_relaxed);
    // Publish immediately: the imported history must be merge-visible the
    // moment the new placement is routed to, or the shard's entire past
    // would vanish from answers until its first post-handoff batch.
    Publish();
    std::lock_guard<std::mutex> lock(snap_mu_);
    return snap_error_;
  }

  Result<std::vector<MetricSample>> Metrics() const override {
    std::vector<MetricSample> out;
    out.push_back(
        GaugeSample("epoch", int64_t(epoch_.load(std::memory_order_relaxed))));
    out.push_back(GaugeSample(
        "snapshot_lag_updates",
        int64_t(updates_since_publish_.load(std::memory_order_relaxed))));
    out.push_back(HistogramSample("serialize_us", serialize_us_));
    out.push_back(HistogramSample("publish_us", publish_us_));
    out.push_back(CounterSample("idle_publishes_total", idle_publishes_));
    return out;
  }

  uint64_t SpaceBits() const override {
    uint64_t bits = 0;
    for (const auto& sketch : sketches_) bits += sketch->SpaceBits();
    return bits;
  }

 private:
  explicit InProcessBackend(BackendOptions options)
      : options_(std::move(options)) {}

  /// Clones every sketch of the group into the snapshot slot and bumps the
  /// epoch. Called by the applier (or Flush at quiescence); failures are
  /// stashed in the slot (they poison snapshot queries, not ingestion).
  void Publish() {
    // Clone = fresh registry instance + MergeFrom(live). State-mergeable
    // sketches copy their state; answer-level sketches fold their current
    // summary — exactly the representation the merge path consumes. Cloning
    // happens outside the lock so readers are never blocked on it.
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::shared_ptr<const Sketch>> snaps(sketches_.size());
    Status s;
    for (size_t i = 0; i < sketches_.size() && s.ok(); ++i) {
      auto fresh = SketchRegistry::Global().Create(options_.sketches[i],
                                                   options_.config);
      s = fresh.ok() ? fresh.value()->MergeFrom(*sketches_[i])
                     : fresh.status();
      if (s.ok()) snaps[i] = std::move(fresh).value();
    }
    publish_us_.Record(ElapsedUs(t0));
    {
      // A failure bumps the epoch too, so queries see the cell as dirty and
      // surface the stashed error rather than silently serving the stale
      // snapshot; a later successful publish clears it and recovers.
      std::lock_guard<std::mutex> lock(snap_mu_);
      if (s.ok()) snaps_.swap(snaps);
      snap_error_ = s;
      epoch_.fetch_add(1, std::memory_order_release);
    }
    // `snaps` now holds the generation just replaced. A snapshot a reader
    // still holds (the merge cache keeps the last one it folded) waits in
    // `retired_` until the reader lets go, so its nodes are freed here, by
    // an applier of the cell, and a query's release is a reference-count
    // decrement rather than a free of memory an applier wrote. A use count
    // of 1 is final: the slot no longer hands it out.
    std::erase_if(retired_, [](const auto& p) { return p.use_count() == 1; });
    for (auto& p : snaps) {
      if (p != nullptr && p.use_count() > 1) retired_.push_back(std::move(p));
    }
    if (!s.ok()) return;
    updates_since_publish_.store(0, std::memory_order_relaxed);
  }

  const BackendOptions options_;  ///< config carries the resolved shard seed
  std::vector<std::unique_ptr<Sketch>> sketches_;
  // Aggregation scratch, computed once per batch and shared with every
  // weight-equivalent sketch via UpdateBatch. Touched only by the single
  // applier (see the ShardBackend contract).
  std::vector<stream::TurnstileUpdate> agg_;
  FlatItemIndex agg_index_;

  // Snapshot slot. `snaps_` are clones published at batch boundaries;
  // `epoch_` counts publications and is bumped (release) inside snap_mu_,
  // so (snaps_, epoch_) always read as a consistent pair under the mutex
  // while a lock-free epoch load answers a read that wants nothing newer.
  // updates_since_publish_ is written only by the applier thread; the
  // atomic exists so the snapshot-lag gauge can read it from any thread.
  // Both hot atomics live on their own cache lines: updates_since_publish_
  // is bumped by the applier on every batch while epoch_ is polled by
  // reader threads on every query, and letting them (or the cold
  // members around them) share a line puts the applier's RMW traffic on
  // the readers' line.
  alignas(64) std::atomic<uint64_t> updates_since_publish_{0};
  alignas(64) std::atomic<uint64_t> epoch_{0};
  mutable Histogram serialize_us_;  ///< SnapshotSerialized encode latency
  Histogram publish_us_;            ///< clone time of every publication
  Counter idle_publishes_;          ///< publications made at an idle hint
  /// Replaced snapshots a reader still held at the last publication
  /// (emptied by Flush); touched like sketches_.
  std::vector<std::shared_ptr<const Sketch>> retired_;
  mutable std::mutex snap_mu_;
  std::vector<std::shared_ptr<const Sketch>> snaps_;  // per sketch index
  Status snap_error_;  // first failed publish, under snap_mu_
};

}  // namespace

BackendFactory InProcessBackendFactory() {
  return [](const BackendOptions& options) {
    return InProcessBackend::Create(options);
  };
}

SketchConfig ShardConfigFor(const SketchConfig& base, size_t shard) {
  SketchConfig cfg = base;
  cfg.shard_seed = DeriveSeed(base.seed, kShardSeedSalt, shard);
  return cfg;
}

uint64_t MergeSeedFor(const SketchConfig& base) {
  return DeriveSeed(base.seed, kMergeSeedSalt, 0);
}

Result<std::string> SerializeSketch(const Sketch& sketch) {
  wire::Writer w;
  Status s = sketch.SerializeState(w);
  if (!s.ok()) return s;
  return wire::EncodeFrame(wire::kSketchState, w.data());
}

Result<std::unique_ptr<Sketch>> DeserializeSketch(const std::string& name,
                                                  const SketchConfig& config,
                                                  std::string_view frame) {
  uint8_t type = 0;
  std::string_view payload;
  Status s = wire::DecodeFrame(frame, &type, &payload);
  if (!s.ok()) return s;
  if (type != wire::kSketchState) {
    return Status::InvalidArgument("DeserializeSketch: not a state frame");
  }
  auto sketch = SketchRegistry::Global().Create(name, config);
  if (!sketch.ok()) return sketch.status();
  wire::Reader r(payload);
  s = sketch.value()->DeserializeState(r);
  if (!s.ok()) return s;
  s = r.ExpectEnd();
  if (!s.ok()) return s;
  return sketch;
}

}  // namespace wbs::engine
