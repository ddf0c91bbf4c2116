// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// engine::metrics — the engine's observability primitives: monotonic
// counters, gauges, and fixed-bucket latency histograms, all built on
// relaxed atomics so instrumenting the ingest hot path costs one
// uncontended cache-line RMW per event and never takes a lock.
//
// Naming convention: dotted lowercase paths, unit-suffixed where a unit
// applies — `engine.shard.3.updates_total`, `engine.session.1.valve_wait_us`,
// `engine.worker.0.queue_depth`. Backends report UNPREFIXED per-shard names
// ("epoch", "wire.bytes_out_total"); the engine prefixes them with
// `engine.shard.<id>.` when it assembles a snapshot, so a metric's full name
// always identifies the GLOBAL shard id regardless of where the shard lives.
//
// Snapshot model: `MetricsRegistry::Snapshot()` reads every instrument once
// (relaxed loads; each value is individually atomic, the set is a consistent
// point-in-time sample up to in-flight increments) into plain-value
// `MetricSample`s, collected in a `MetricsSnapshot` that renders as JSONL
// (one object per metric, machine-diffable) or a human-readable table.
//
// Overhead contract: instruments are single relaxed atomic ops. The one off
// switch is IngestorOptions::metrics_enabled=false, which skips the engine's
// instrumentation sites (and their clock reads) via a predicted branch.

#ifndef WBS_ENGINE_METRICS_H_
#define WBS_ENGINE_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace wbs::engine {

enum class MetricKind : uint8_t {
  kCounter = 0,   ///< monotonic event count
  kGauge = 1,     ///< instantaneous level (may go down)
  kHistogram = 2  ///< value distribution in power-of-two buckets
};

// Instruments are hammered from many threads with relaxed RMWs, and sibling
// instruments in a metrics struct are typically updated by DIFFERENT threads
// (e.g. per-worker counters declared side by side). Padding each instrument
// out to its own cache line (alignas(64) below) trades a few bytes per
// instrument for the elimination of false sharing between neighbours.

/// Monotonic event counter. Inc() from any thread, relaxed.
class alignas(64) Counter {
 public:
  void Inc(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Instantaneous level. Set/Add from any thread, relaxed.
class alignas(64) Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Fixed-bucket histogram over uint64 values (latencies in microseconds,
/// batch sizes, frame bytes). Bucket i counts values of bit width i: bucket
/// 0 holds exactly 0, bucket i >= 1 holds [2^(i-1), 2^i), and the last
/// bucket absorbs everything wider. Record() is three relaxed RMWs and no
/// branches beyond the bit-width computation — cheap enough for per-batch
/// hot-path use.
class alignas(64) Histogram {
 public:
  /// 33 buckets: 0, then [1,2), [2,4), ... [2^30, 2^31), then >= 2^31 —
  /// microsecond latencies up to ~36 minutes resolve to a real bucket.
  static constexpr size_t kBuckets = 33;

  /// Upper bound (exclusive) of bucket `i`; ~0 for the overflow bucket.
  static uint64_t BucketUpperBound(size_t i) {
    if (i == 0) return 1;
    if (i >= kBuckets - 1) return ~uint64_t{0};
    return uint64_t{1} << i;
  }

  void Record(uint64_t v) {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    buckets_[BucketOf(v)].fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  static size_t BucketOf(uint64_t v) {
    size_t w = 0;
    while (v != 0) {
      ++w;
      v >>= 1;
    }
    return w < kBuckets ? w : kBuckets - 1;
  }

  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> buckets_[kBuckets] = {};
};

/// Whole microseconds on the steady clock since `t0`: what the engine's
/// `*_us` histograms record.
inline uint64_t ElapsedUs(std::chrono::steady_clock::time_point t0) {
  return uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count());
}

/// One metric read out as plain values — what snapshots, the wire codec,
/// and the dump formats all carry. For counters `value` holds the count;
/// for gauges, the level (as int64 in disguise); histograms fill `count`,
/// `sum`, and the per-bucket counts instead.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  uint64_t value = 0;   ///< counter count / gauge level (bit-cast int64)
  uint64_t count = 0;   ///< histogram: number of recorded values
  uint64_t sum = 0;     ///< histogram: sum of recorded values
  std::vector<uint64_t> buckets;  ///< histogram: per-bucket counts

  int64_t gauge_value() const { return int64_t(value); }

  /// Histogram quantile estimate (q in [0,1]): the upper bound of the
  /// bucket where the cumulative count crosses q. 0 when empty.
  uint64_t ApproxQuantile(double q) const;
};

MetricSample CounterSample(std::string name, const Counter& c);
MetricSample GaugeSample(std::string name, int64_t value);
MetricSample GaugeSample(std::string name, const Gauge& g);
MetricSample HistogramSample(std::string name, const Histogram& h);

/// A point-in-time read of a set of metrics, renderable as JSONL (one
/// object per line: {"metric":...,"type":"counter","value":N} /
/// {"metric":...,"type":"histogram","count":N,"sum":S,"p50":...,
/// "p99":...,"buckets":[...]}) or as an aligned human-readable table.
struct MetricsSnapshot {
  uint64_t uptime_us = 0;
  std::vector<MetricSample> samples;

  /// The sample named exactly `name`, or nullptr.
  const MetricSample* Find(const std::string& name) const;
  /// Counter/gauge value of `name`, or `fallback` when absent.
  uint64_t Value(const std::string& name, uint64_t fallback = 0) const;

  void WriteJsonl(std::ostream& os) const;
  void WriteTable(std::ostream& os) const;
};

/// Appends one sample as a JSON object (no trailing newline) — shared by
/// WriteJsonl and the engine_server stats stream, which adds its own
/// timestamp field before closing the object.
void AppendSampleJson(const MetricSample& sample, std::string* out);

/// Owns named instruments with stable addresses: New* hands out pointers
/// that stay valid for the registry's lifetime (instruments live in deques
/// and are never removed). Registration takes a mutex — do it at setup, not
/// on the hot path; the instruments themselves are lock-free.
class MetricsRegistry {
 public:
  Counter* NewCounter(std::string name);
  Gauge* NewGauge(std::string name);
  Histogram* NewHistogram(std::string name);

  /// Reads every registered instrument into samples (relaxed loads),
  /// name-ordered by registration sequence.
  std::vector<MetricSample> Snapshot() const;

 private:
  template <typename T>
  struct Named {
    std::string name;
    T instrument;
  };
  /// Registration order, so Snapshot interleaves kinds as they were
  /// created (keeps per-shard bundles adjacent in dumps).
  struct Slot {
    MetricKind kind;
    const void* instrument;
    const std::string* name;
  };

  mutable std::mutex mu_;
  std::deque<Named<Counter>> counters_;
  std::deque<Named<Gauge>> gauges_;
  std::deque<Named<Histogram>> histograms_;
  std::vector<Slot> order_;
};

// ---- typed engine wiring ---------------------------------------------------
//
// The per-entity instrument bundles the ingestor hot paths touch. Bundles
// are created lazily (first access registers the instruments under the
// registry mutex) and have stable addresses, so hot paths cache raw
// pointers: the router caches shard bundles per dispatch loop, sessions
// cache their bundle in the session struct.

/// Per-shard ingest instruments (keyed by GLOBAL shard id — they survive
/// a MoveShard re-homing, so updates_total counts the shard's whole life).
struct ShardIngestMetrics {
  Counter* updates_total;
  Counter* batches_total;
  Histogram* apply_us;
  Histogram* batch_size;
};

/// Per-producer-session instruments.
struct SessionMetrics {
  Counter* submits_total;
  Counter* try_rejections_total;
  Counter* valve_waits_total;
  Histogram* valve_wait_us;
  Counter* valve_applies_total;  ///< sub-batches applied while parked
  Gauge* tickets_outstanding;
};

/// Router instruments (single router thread).
struct RouterMetrics {
  Counter* dispatches_total;
  Counter* rescatters_total;
  Counter* parked_rounds_total;
  Counter* barriers_total;
  Histogram* barrier_us;
};

/// Per-worker instruments.
struct WorkerMetrics {
  Gauge* queue_depth;
};

/// The engine's registry plus lazily-built bundles. Thread-safe; bundle
/// accessors lock only on first creation path (and a short map lookup
/// after), so call them from setup or slow paths and cache the pointer.
class EngineMetrics {
 public:
  EngineMetrics();

  MetricsRegistry& registry() { return registry_; }
  const MetricsRegistry& registry() const { return registry_; }

  RouterMetrics* router() { return &router_; }
  ShardIngestMetrics* shard(size_t id);
  SessionMetrics* session(size_t id);
  WorkerMetrics* worker(size_t id);

  /// How many shard bundles exist (= highest shard id touched + 1).
  size_t shard_count() const;

 private:
  MetricsRegistry registry_;
  RouterMetrics router_;
  mutable std::mutex mu_;
  std::deque<ShardIngestMetrics> shards_;
  std::deque<SessionMetrics> sessions_;
  std::deque<WorkerMetrics> workers_;
};

}  // namespace wbs::engine

#endif  // WBS_ENGINE_METRICS_H_
