// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// ShardedIngestor: the engine's parallel ingestion core.
//
// The universe is hash-partitioned across shards by the engine's ROUTING
// LAYER (topology.h): item -> hash slot -> shard id -> backend placement,
// published as an immutable, generation-stamped TopologyView. Each shard
// owns one instance of every configured sketch. Submitted update batches
// are scattered by slot into per-shard sub-batches and applied either
// inline (num_threads == 0) or by worker threads, each of which owns a
// fixed subset of shards (shard s -> worker s % num_threads) and drains a
// FIFO queue — so every shard sees its sub-stream in dispatch order no
// matter how many workers run.
//
// WHERE a shard lives is behind the pluggable ShardBackend interface
// (backend.h): every shard id is placed in its own one-shard cell, built by
// a BackendFactory call for that id — in this process (zero-copy apply) or
// behind a socket speaking the engine wire format (remote_backend.h). On
// top of that, the topology supports two LIVE operations, both linearized
// at batch boundaries through the router:
//
//   * AddShards(n): scale-out. Fresh shards (their own backend cells) join
//     and hash slots are stolen evenly from existing owners. Old shards
//     stay merge-visible forever, so answers remain a correct merge over
//     every substream ever ingested (bit-identical for the linear
//     families, mergeable-summary bounds for the rest).
//   * MoveShard(id, factory): live handoff. The router drains the shard's
//     in-flight batches, serializes its published state (the wire format
//     of PR 4 is the transfer format), imports it into a cell built by
//     `factory` (kReqImport over the wire for remote cells), and
//     re-points the shard id — same slots, same derived shard seed, full
//     history. Queries racing the handoff keep answering from the old
//     placement until the new view is installed.
//
// Submission is multi-producer and asynchronous: SubmitAsync scatters on
// the calling thread, then hands the pre-scattered batch to a per-session
// MPSC submission queue under a short mutex and returns a sequence-
// numbered IngestTicket immediately. A router thread drains the session
// queues ROUND-ROBIN (fairness across producer sessions — a hot producer
// cannot monopolize dispatch) and forwards sub-batches to the per-shard
// worker queues — worker backpressure therefore blocks the *router* (and
// ticket completion), never the producer's thread. Producers that do not
// open a session share session 0, whose queue drains FIFO exactly like the
// pre-session engine. The inflight valves (max_inflight_tickets /
// max_inflight_bytes) admit blocked producers in ARRIVAL ORDER (a FIFO
// turnstile), so a hot producer re-submitting in a loop cannot starve a
// parked one past the global valves. Wait(ticket)/TryWait(ticket) observe
// a monotone completion watermark: a ticket reports done only once every
// ticket with a smaller sequence number has also been fully applied.
//
// Determinism: slot assignment depends only on the item (and the initial
// table reproduces the legacy hash-mod-shards partition bit-for-bit),
// per-shard randomness only on (config seed, shard id), and per-shard
// apply order only on dispatch order. With one producer session, dispatch
// order is submission order, which reproduces the legacy single-producer
// path exactly; topology operations issued from that producer land at
// deterministic batch boundaries. With multiple sessions the round-robin
// interleaving is deterministic given queue contents but arrival timing is
// not; order-insensitive sketches (the linear families) still produce
// bit-identical final state for every interleaving of the same batches.
//
// Snapshots and queries are unchanged from the pre-topology engine except
// for the cache key: MergedSummary folds the published per-shard snapshots
// of the CURRENT topology view, and the per-sketch merge cache is keyed by
// (topology generation, per-shard epochs) — a topology change invalidates
// wholesale, a plain shard write refolds only the dirty shards.

#ifndef WBS_ENGINE_SHARDED_INGESTOR_H_
#define WBS_ENGINE_SHARDED_INGESTOR_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/autoscaler.h"
#include "engine/backend.h"
#include "engine/metrics.h"
#include "engine/sketch.h"
#include "engine/topology.h"
#include "engine/trace.h"
#include "stream/updates.h"

namespace wbs::engine {

/// Failure-handling knobs: heartbeat supervision, periodic checkpoints, and
/// automatic MoveShard-based recovery. Supervision is OFF by default
/// (heartbeat_interval_ms == 0), which preserves the legacy contract: any
/// shard failure poisons the pipeline as the first error. With supervision
/// on, a placement failure (Unavailable) degrades instead: its batches are
/// dropped with explicit loss accounting, queries serve the last folded
/// state with a staleness flag, and the supervisor re-homes the shard from
/// its last checkpoint through the MoveShard machinery.
struct FailoverOptions {
  /// Supervisor probe period. 0 disables the supervisor thread entirely.
  uint64_t heartbeat_interval_ms = 0;
  /// Deadline for one heartbeat probe (time to the response's first byte).
  uint64_t heartbeat_timeout_ms = 50;
  /// Consecutive missed heartbeats before kSuspect becomes kDead.
  size_t dead_after_misses = 3;
  /// Exponential backoff cap between probes of a suspect shard: the probe
  /// interval stretches to interval * min(2^misses, this).
  uint64_t backoff_max_multiplier = 8;
  /// Periodic checkpoint period (supervisor-driven, runs at a router
  /// barrier, so each checkpoint is an exact cut of the acked stream).
  /// 0 = only explicit Checkpoint() calls (and FailoverDrill's).
  uint64_t checkpoint_interval_ms = 0;
  /// Re-home a dead shard automatically from its last checkpoint. When
  /// false the shard stays kDead (degraded) until RecoverShard is called.
  bool auto_recover = true;
  /// Cell factory for recovered shards; empty = in-process.
  BackendFactory recovery_backend;
};

struct IngestorOptions {
  size_t num_shards = 4;
  size_t num_threads = 0;  ///< 0: apply inline on the submitting thread
  size_t max_queue_batches = 64;  ///< per-worker router->worker bound
  /// Soft cap on tickets submitted but not yet fully applied. SubmitAsync
  /// blocks once this many tickets are in flight — a memory safety valve
  /// far above the worker-queue backpressure point, not the steady-state
  /// flow control (that is the router absorbing worker backpressure while
  /// producers run ahead). 0 = unbounded.
  size_t max_inflight_tickets = 256;
  /// Total-bytes valve on the same queue: SubmitAsync blocks (and
  /// TrySubmitAsync fails fast with ResourceExhausted) while the update
  /// bytes of in-flight tickets would exceed this. A batch larger than the
  /// whole valve is still admitted when nothing is in flight, so a single
  /// oversized submission cannot deadlock. Blocked producers are admitted
  /// in arrival order. 0 = unbounded.
  size_t max_inflight_bytes = 0;
  /// Snapshot throttle: a shard republishes its snapshot at the first batch
  /// boundary after this many updates (0 = every batch). Keeps the
  /// unbatched (batch_size == 1) path from cloning per update; Flush()
  /// always catches lagging shards up, so quiescent queries are exact.
  size_t snapshot_min_updates = 1024;
  /// Routing granularity: the topology has num_shards * slots_per_shard
  /// hash slots, so one AddShards step can rebalance in 1/slots_per_shard
  /// fractions of a shard's range. The initial slot table reproduces the
  /// legacy hash-mod-shards partition exactly for any value.
  size_t slots_per_shard = 16;
  std::vector<std::string> sketches;  ///< registry names to instantiate
  SketchConfig config;
  /// Where the initial shards live: called once per shard id with that
  /// shard's cell options. Empty = InProcessBackendFactory() (the
  /// process-local zero-copy backend). See backend.h for the contract and
  /// remote_backend.h for the wire-format backends.
  BackendFactory backend;
  /// Observability: when true (the default) the engine registers and
  /// maintains the engine.* instruments (metrics.h) — relaxed atomic
  /// increments on the hot path, no locks. False skips every
  /// instrumentation site (and its clock reads) via a predicted branch;
  /// Metrics() then reports only derived and backend-sourced samples. The
  /// `engine_metrics_overhead` bench row guards the instrumented cost.
  bool metrics_enabled = true;
  /// Completed control-plane trace spans retained (trace.h ring buffer).
  size_t trace_capacity = 256;
  /// Failure handling: supervision off by default (see FailoverOptions).
  FailoverOptions failover;
  /// Per-slot heat sampling in the scatter path: 0 (default) = off; N >= 1
  /// counts every 2^N-th scattered update against its hash slot (relaxed
  /// atomic, thread-local stride), making slot-level hotness visible to
  /// SlotHeat() and the autoscaler's MoveSlots decisions. Sampled, so the
  /// hot-path cost is one predicted branch per update plus one hash +
  /// fetch_add per 2^N updates — within the metrics ≤2% overhead contract.
  /// Single-shard fast paths skip sampling (nothing to rebalance).
  size_t slot_sample_shift = 0;
  /// Autoscaling control plane: off by default (see AutoscaleOptions).
  /// When enabled, the engine starts an Autoscaler with these targets in
  /// Init and stops it in Finish. Requires metrics_enabled.
  AutoscaleOptions autoscale;
};

/// A sequence-numbered receipt for one asynchronous submission. Tickets are
/// totally ordered by `seq`; completion is monotone in that order (see
/// Wait/TryWait). Value type: copy freely, pass to any thread. A
/// default-constructed ticket (seq 0) is always complete — SubmitAsync
/// returns it for empty batches and for inline-mode (num_threads == 0)
/// submissions, which are fully applied before SubmitAsync returns.
struct IngestTicket {
  uint64_t seq = 0;
};

/// A producer session: its own FIFO lane in the submission stage, drained
/// round-robin against every other session by the router. Open one per
/// logical producer when fairness between producers matters; producers
/// that skip it share the default session 0 (exactly the pre-session
/// engine). Value type holding a plain lane id: ids are only meaningful to
/// the engine that issued them (an id unknown to an engine is
/// InvalidArgument; one that happens to exist routes into that engine's
/// lane of the same number).
struct ProducerSession {
  uint64_t id = 0;
};

/// Liveness verdict the supervisor maintains per shard. Healthy shards
/// answer heartbeats; a missed deadline makes a shard suspect; after
/// FailoverOptions::dead_after_misses consecutive misses it is dead and
/// (with auto_recover) re-homed from its last checkpoint.
enum class ShardHealth : uint8_t { kHealthy = 0, kSuspect = 1, kDead = 2 };

/// Point-in-time health and loss accounting for one shard (Health()).
struct ShardHealthInfo {
  ShardHealth health = ShardHealth::kHealthy;
  uint64_t missed_heartbeats = 0;  ///< consecutive misses (resets on success)
  /// Updates acked to producers but not yet covered by a checkpoint — the
  /// exposure window: exactly these are lost if the shard dies right now.
  uint64_t updates_acked_unsnapshotted = 0;
  /// Updates dropped while the shard was unreachable (degraded mode);
  /// folded into updates_lost_total at the next recovery.
  uint64_t dropped_updates = 0;
  uint64_t recoveries = 0;         ///< times this shard id was re-homed
  uint64_t updates_lost_total = 0; ///< cumulative bounded loss across them
};

class ShardedIngestor {
 public:
  static Result<std::unique_ptr<ShardedIngestor>> Create(
      const IngestorOptions& options);

  ~ShardedIngestor();

  ShardedIngestor(const ShardedIngestor&) = delete;
  ShardedIngestor& operator=(const ShardedIngestor&) = delete;

  /// Opens a new producer session (its own round-robin lane). Any thread.
  Result<ProducerSession> OpenSession();

  /// Scatters `count` updates into per-shard sub-batches and enqueues them
  /// on `session`'s lane, returning a ticket that completes once the batch
  /// (and every earlier ticket) has been applied. Multi-producer: safe to
  /// call concurrently from any number of threads (sharing a session is
  /// fine; they interleave FIFO within it). Never blocks on worker
  /// backpressure (the router absorbs it); only the inflight valves can
  /// make it wait, and those admit waiters in arrival order.
  Result<IngestTicket> SubmitAsync(const ProducerSession& session,
                                   const stream::TurnstileUpdate* updates,
                                   size_t count);
  Result<IngestTicket> SubmitAsync(const stream::TurnstileUpdate* updates,
                                   size_t count) {
    return SubmitAsync(ProducerSession{}, updates, count);
  }
  Result<IngestTicket> SubmitAsync(const stream::TurnstileStream& s) {
    return SubmitAsync(s.data(), s.size());
  }

  /// Insertion-only convenience: each item becomes a delta-1 update.
  Result<IngestTicket> SubmitItemsAsync(const ProducerSession& session,
                                        const stream::ItemUpdate* items,
                                        size_t count);
  Result<IngestTicket> SubmitItemsAsync(const stream::ItemUpdate* items,
                                        size_t count) {
    return SubmitItemsAsync(ProducerSession{}, items, count);
  }
  Result<IngestTicket> SubmitItemsAsync(const stream::ItemStream& s) {
    return SubmitItemsAsync(s.data(), s.size());
  }

  /// Non-blocking variant: where SubmitAsync would wait on the
  /// max_inflight_tickets / max_inflight_bytes valves (or behind earlier
  /// valve waiters), TrySubmitAsync returns ResourceExhausted immediately
  /// (the batch is NOT enqueued; the producer owns the retry policy).
  /// Identical to SubmitAsync otherwise.
  Result<IngestTicket> TrySubmitAsync(const ProducerSession& session,
                                      const stream::TurnstileUpdate* updates,
                                      size_t count);
  Result<IngestTicket> TrySubmitAsync(const stream::TurnstileUpdate* updates,
                                      size_t count) {
    return TrySubmitAsync(ProducerSession{}, updates, count);
  }
  Result<IngestTicket> TrySubmitAsync(const stream::TurnstileStream& s) {
    return TrySubmitAsync(s.data(), s.size());
  }

  /// Fire-and-forget wrappers (the pre-ticket surface): submit and discard
  /// the ticket. Errors already recorded by the pipeline surface here.
  Status Submit(const stream::TurnstileUpdate* updates, size_t count) {
    return SubmitAsync(updates, count).status();
  }
  Status Submit(const stream::TurnstileStream& s) {
    return Submit(s.data(), s.size());
  }
  Status SubmitItems(const stream::ItemUpdate* items, size_t count) {
    return SubmitItemsAsync(items, count).status();
  }
  Status SubmitItems(const stream::ItemStream& s) {
    return SubmitItems(s.data(), s.size());
  }

  // ---- live topology operations -----------------------------------------

  /// Scale-out: adds `n` fresh shards, each hosted by a cell built from
  /// `factory` (empty = in-process), and rebalances hash slots onto them.
  /// Linearized at a batch barrier through the router: every batch
  /// submitted before this call completes is applied under the old table,
  /// every later one under the new. Existing shards keep their state and
  /// stay merge-visible, so answers remain a correct merge over all
  /// substreams ever. Blocks until the new table is installed.
  Status AddShards(size_t n, BackendFactory factory = {});

  /// Live handoff: drains shard `shard`'s in-flight batches, serializes
  /// its published state, imports it into a fresh cell built by `factory`,
  /// and re-points the shard id at the new cell. The shard keeps its hash
  /// slots, derived seed, and full history; summaries immediately after
  /// the move are identical to immediately before. Blocks until installed;
  /// on failure the topology is unchanged. Phase timings are recorded as
  /// trace spans ("move_shard" and its flush/serialize/import children —
  /// see TraceSpans()). Custom sketches without a wire format fail with
  /// Unimplemented (and the topology stays as it was).
  Status MoveShard(size_t shard, BackendFactory factory);

  /// SLOT-LEVEL migration: re-points the given hash slots (all currently
  /// owned by `source`) at shard `dest` — a hot slot peeled off a hot
  /// shard without a whole-shard handoff. Linearized at a batch barrier;
  /// the source's snapshot is published (flushed) first, so its frozen
  /// prefix stays merge-visible and answers remain a merge over all
  /// substreams ever — bit-identical for the linear families, exactly the
  /// AddShards slot-stealing argument. No sketch state crosses cells: the
  /// destination accumulates the slots' suffix substreams. Fails
  /// Unavailable when `dest` is dead (a migration must never target a
  /// shard that cannot serve), InvalidArgument/OutOfRange on a bad slot
  /// set; on failure the topology is unchanged. Emits a "move_slots" span
  /// with a "move_slots.flush" child.
  Status MoveSlots(size_t source, std::vector<uint32_t> slots, size_t dest);

  /// Estimated per-slot update counts from scatter-path sampling (counts
  /// scaled by 2^slot_sample_shift). Empty when sampling is off
  /// (slot_sample_shift == 0). Approximate by design: sampling strides are
  /// thread-local. Any thread.
  std::vector<uint64_t> SlotHeat() const;

  /// The autoscaling controller, or nullptr when autoscale.enabled was
  /// false. Tests drive it manually via Autoscaler::EvaluateOnce().
  Autoscaler* autoscaler() const { return autoscaler_.get(); }

  /// The current routing table, described (generation, shard count, slot
  /// ownership). Any thread.
  TopologyInfo Topology() const { return topology_->Describe(); }

  uint64_t topology_generation() const { return topology_->generation(); }

  // ---- fault tolerance ---------------------------------------------------
  //
  // See FailoverOptions for the model. Checkpoints and recoveries are
  // barrier operations through the router (like AddShards/MoveShard), so
  // each is an exact cut of the acked update stream — loss accounting is
  // exact, not estimated.

  /// Snapshots every reachable shard's full sketch state (serialized wire
  /// frames) at a router barrier. A shard's next recovery restores this
  /// cut; updates acked after it are the bounded loss. An unreachable
  /// shard keeps its previous checkpoint (skipped, not an error).
  Status Checkpoint();

  /// Re-homes shard `shard` into a fresh cell built by `factory` (empty =
  /// failover.recovery_backend, then in-process), restoring its last
  /// checkpoint (empty state if none was ever taken). Runs at a router
  /// barrier; installs a new topology view (generation bump), resets the
  /// shard to kHealthy, and folds the exposure window into
  /// updates_lost_total. This is the manual/rescue path — with
  /// auto_recover the supervisor calls it for dead shards.
  Status RecoverShard(size_t shard, BackendFactory factory = {});

  /// One atomic failure exercise at a single barrier: checkpoint `shard`,
  /// crash its placement (optionally leaving a torn frame on the data
  /// channel so the CRC path rejects it), then recover from the checkpoint
  /// just taken — provably zero update loss, even with producers racing.
  /// Unimplemented when the placement cannot crash (in-process cells).
  Status FailoverDrill(size_t shard, bool torn = false,
                       BackendFactory factory = {});

  /// Crashes shard `shard`'s current placement NOW, from any thread, with
  /// no barrier — the realistic failure: in-flight batches die mid-stream.
  /// Unimplemented for in-process placements.
  Status InjectShardCrash(size_t shard, bool torn = false);

  /// Severs shard `shard`'s live connections WITHOUT killing the peer — a
  /// transient partition. A reconnecting transport (TCP) resyncs with no
  /// state loss and no topology change; Unimplemented elsewhere.
  Status InjectShardPartition(size_t shard);

  /// The supervisor's current verdict and loss accounting for `shard`.
  /// Any thread; meaningful (non-default) once supervision or checkpoints
  /// have touched the shard.
  ShardHealthInfo Health(size_t shard) const;

  // ---- completion, flush, queries ---------------------------------------

  /// Blocks until `ticket` and every earlier ticket has been applied, then
  /// returns the pipeline's first error (OK when healthy). Any thread.
  Status Wait(const IngestTicket& ticket) const;

  /// Wait with a deadline: DeadlineExceeded if the ticket has not completed
  /// within `timeout_ms` (the ticket remains valid — callers may re-wait).
  Status WaitFor(const IngestTicket& ticket, uint64_t timeout_ms) const;

  /// Non-blocking completion probe: true once `ticket` (and every earlier
  /// ticket) is applied. Reports the pipeline's first error once the ticket
  /// has drained, so a producer polling TryWait sees failures too.
  Result<bool> TryWait(const IngestTicket& ticket) const;

  /// Blocks until every submitted ticket has been applied, then publishes
  /// any shard whose snapshot lags its live state. Call from a moment when
  /// producers are paused (a continuously racing producer keeps the
  /// in-flight count nonzero and Flush waiting).
  Status Flush();

  /// Flush + stop and join the router and workers. The ingestor stays
  /// queryable; further Submits fail. Idempotent.
  Status Finish();

  /// Merges the published per-shard snapshots of `sketch` into one global
  /// summary, as of the latest published epochs of the current topology.
  /// Quiescence-free: safe to call from any thread while workers ingest
  /// (after Flush()/Finish() the answer is exact for the full stream).
  /// Served from the per-sketch merge cache (hit/incremental/rebuild
  /// counters surface as `engine.sketch.<name>.merge_cache.*` in
  /// Metrics()). With supervision on, an unreachable shard does not fail
  /// the query: its last folded snapshot keeps answering and the returned
  /// summary carries `stale = true` until the shard recovers.
  Result<SketchSummary> MergedSummary(const std::string& sketch) const;

  /// Zero-copy, index-addressed variant for pre-resolved handles: folds (if
  /// needed) and returns a pointer to the cached summary of the sketch at
  /// `sketch_index` (position in options().sketches). The pointer is valid
  /// only while *lock — handed back holding the per-sketch cache mutex —
  /// stays held; drop the lock as soon as the answer is projected.
  Result<const SketchSummary*> MergedSummaryView(
      size_t sketch_index, std::unique_lock<std::mutex>* lock) const;

  // ---- observability -----------------------------------------------------

  /// A point-in-time read of the engine's full metric surface: every
  /// registered engine.* instrument, the derived health gauges (uptime,
  /// inflight tickets/bytes, valve waiters, topology generation, per-shard
  /// updates/sec), per-shard backend samples (epoch, snapshot lag, wire
  /// traffic — prefixed `engine.shard.<id>.`), and the per-sketch merge
  /// cache counters. Safe from any thread, concurrently with ingest and
  /// topology changes — no quiescence required (counters are relaxed
  /// atomics; remote shards report through their control channel).
  MetricsSnapshot Metrics() const;

  /// Renders Metrics() as a human-readable table or JSONL (one JSON object
  /// per metric line).
  void DumpMetrics(std::ostream& os,
                   MetricsDumpFormat format = MetricsDumpFormat::kTable) const;

  /// The retained control-plane trace spans, oldest first: AddShards /
  /// MoveShard operations and their phases (trace.h). Any thread.
  std::vector<TraceSpan> TraceSpans() const { return tracer_->Snapshot(); }

  /// Number of snapshot publications shard `shard`'s CURRENT placement has
  /// performed (restarts when a handoff re-homes the shard).
  uint64_t ShardEpoch(size_t shard) const;

  /// A single shard's live summary (tests and diagnostics), read from its
  /// current placement. Still requires quiescence: it reads worker-owned
  /// state directly.
  Result<SketchSummary> ShardSummary(size_t shard,
                                     const std::string& sketch) const;

  /// Total state bits across the cells of the current topology (quiescent
  /// callers).
  uint64_t SpaceBits() const;

  /// Index of `sketch` in options().sketches, or sketches.size() if absent.
  size_t SketchIndex(const std::string& sketch) const;

  const std::vector<std::string>& sketch_names() const {
    return options_.sketches;
  }
  uint64_t updates_submitted() const {
    return updates_submitted_.load(std::memory_order_acquire);
  }
  /// CURRENT shard count (grows with AddShards); options().num_shards is
  /// the initial count.
  size_t num_shards() const;
  size_t num_threads() const { return options_.num_threads; }
  const IngestorOptions& options() const { return options_; }

 private:
  /// The controller samples load (metrics_, valve turnstile state, worker
  /// count) and records spans (tracer_) without widening the public
  /// surface; it acts only through the public topology operations.
  friend class Autoscaler;

  /// Completion state shared between one ticket's scattered sub-batches.
  struct TicketState {
    uint64_t seq = 0;
    uint64_t bytes = 0;  ///< update bytes charged to the inflight valve
    std::atomic<size_t> remaining{0};  ///< sub-batches not yet applied
    /// Issuing session's instruments (null when metrics are disabled or
    /// for barrier tickets): tickets_outstanding drops on completion.
    SessionMetrics* session_metrics = nullptr;
  };

  /// A topology operation riding the submission queue as a barrier ticket.
  struct ControlState {
    std::function<Status()> op;
    Status result;  ///< written by the router before the ticket completes
  };

  /// One pre-scattered submission (or control barrier) parked in a session
  /// queue.
  struct PendingTicket {
    std::shared_ptr<TicketState> state;
    std::vector<std::vector<stream::TurnstileUpdate>> sub;  // per shard
    /// Slot-table (routing) generation the scatter used; a mismatch at
    /// dispatch means slots moved (scale-out) and the batch re-scatters.
    /// Handoffs bump only the placement generation, not this.
    uint64_t routing_generation = 0;
    std::shared_ptr<ControlState> control;  ///< set for barrier tickets
  };

  struct ShardHealthState;  // fwd (private, defined below)

  /// One sub-batch in a worker's queue, placement resolved at dispatch.
  /// Holds shared ownership of the backend cell: a topology view retired
  /// while the job sits queued cannot reclaim the cell under the worker.
  struct Job {
    std::shared_ptr<ShardBackend> backend;
    std::vector<stream::TurnstileUpdate> updates;
    std::shared_ptr<TicketState> ticket;
    /// GLOBAL shard id's ingest instruments (null = metrics disabled),
    /// resolved by the router so the worker's apply loop never locks.
    ShardIngestMetrics* metrics = nullptr;
    /// GLOBAL shard id's health/loss accounting (null = supervision off,
    /// the legacy poison-on-error contract), resolved like `metrics`.
    ShardHealthState* health = nullptr;
  };

  struct Worker {
    std::mutex mu;
    std::condition_variable cv_work;     // router -> worker: work available
    std::condition_variable cv_space;    // worker -> router: queue has room
    std::condition_variable cv_drained;  // worker -> waiter: pending == 0
    std::deque<Job> queue;
    size_t pending = 0;  // queued + in-flight batches
    bool stop = false;
    WorkerMetrics* metrics = nullptr;  // null = metrics disabled
    std::thread thread;
  };

  /// One producer session's FIFO lane. Guarded by submit_mu_.
  struct Session {
    std::deque<PendingTicket> queue;
    SessionMetrics* metrics = nullptr;  // null = metrics disabled
  };

  // Per-sketch merge cache. `merged` is the fold of `folded` (one snapshot
  // per shard of generation `generation`, null = shard never published);
  // `epochs` records which shard epochs are incorporated. A generation
  // bump (topology change) invalidates wholesale. All fields live under
  // `mu`.
  struct MergeCache {
    std::mutex mu;
    uint64_t generation = 0;
    std::unique_ptr<Sketch> merged;
    std::vector<std::shared_ptr<const Sketch>> folded;
    std::vector<uint64_t> epochs;
    SketchSummary summary;
    bool valid = false;
    bool try_unmerge = true;  // sticky false after the first Unimplemented
    /// Serving counters, exported as engine.sketch.<name>.merge_cache.*.
    uint64_t hits = 0;         // no shard epoch advanced: cached summary
    uint64_t incremental = 0;  // only dirty shards re-folded (UnmergeFrom)
    uint64_t rebuilds = 0;     // full fold across all shards
  };

  /// Per-shard health/loss accounting (indexed by GLOBAL shard id). Lives
  /// in a deque so pointers handed to jobs stay stable as shards grow.
  /// Atomics: workers, the supervisor, queries, and Metrics() all touch it
  /// without the health map lock.
  struct ShardHealthState {
    std::atomic<uint8_t> health{0};  // ShardHealth
    std::atomic<uint64_t> missed{0};
    /// Updates applied+acked since the last recovery baseline. Together
    /// with applied_at_checkpoint this is the exposure window.
    std::atomic<uint64_t> applied{0};
    std::atomic<uint64_t> applied_at_checkpoint{0};
    std::atomic<uint64_t> dropped{0};  // degraded-mode drops since recovery
    std::atomic<uint64_t> recoveries{0};
    std::atomic<uint64_t> lost_total{0};
    std::atomic<uint64_t> metrics_errors{0};  // failed backend Metrics() polls
    /// Supervisor-thread-only backoff state (no atomics needed).
    uint64_t backoff_misses = 0;
    std::chrono::steady_clock::time_point next_probe{};
  };

  /// One shard's checkpoint: the serialized wire frames of its full sketch
  /// group plus the acked-update count the cut covers. Guarded by ckpt_mu_.
  struct ShardCheckpoint {
    bool valid = false;
    std::vector<std::string> frames;
    uint64_t applied = 0;
  };

  explicit ShardedIngestor(IngestorOptions options);

  Status Init();
  void RouterLoop();
  void WorkerLoop(Worker* worker);
  /// Waits until every worker queue is empty and nothing is in flight.
  void DrainWorkers();
  /// Re-scatters a parked ticket whose scatter predates the current table.
  static void ReScatter(PendingTicket* ticket, const TopologyView& view);
  /// Checks producer-side preconditions shared by the Submit variants.
  Status PreSubmit() const;
  /// Inline mode: applies the sub-batches staged in scatter_ synchronously
  /// against `view`. Caller holds submit_mu_. Returns the always-complete
  /// seq-0 ticket.
  Result<IngestTicket> ApplyInline(const TopologyView& view, size_t count);
  /// Shared body of SubmitAsync/TrySubmitAsync.
  Result<IngestTicket> SubmitScattered(const ProducerSession& session,
                                       const stream::TurnstileUpdate* updates,
                                       size_t count, bool blocking);
  /// Threaded mode: assigns a sequence number to `sub` and parks it on
  /// `session`'s lane for the router. When `blocking` is false, a full
  /// inflight valve (or a queue of earlier valve waiters) is
  /// ResourceExhausted instead of a wait.
  Result<IngestTicket> EnqueueScattered(
      const ProducerSession& session,
      std::vector<std::vector<stream::TurnstileUpdate>> sub, size_t count,
      bool blocking, uint64_t routing_generation);
  /// Runs `op` with all earlier tickets applied and workers drained —
  /// inline under submit_mu_ when there is no router, as a control ticket
  /// through it otherwise. Returns the op's status.
  Status RunAtBarrier(std::function<Status()> op);
  /// The barrier bodies (called with workers drained).
  Status DoAddShards(size_t n, const BackendFactory& factory);
  Status DoMoveShard(size_t shard, const BackendFactory& factory);
  Status DoMoveSlots(size_t source, const std::vector<uint32_t>& slots,
                     size_t dest);
  Status DoCheckpoint();
  /// Checkpoints one shard against `view` (caller is at a barrier).
  Status DoCheckpointShard(size_t shard, const TopologyView& view);
  /// `expected` (when non-null) pins the recovery to the placement whose
  /// death was observed: if the shard has since been re-homed (concurrent
  /// drill / manual rescue), the verdict is stale and the recovery is a
  /// benign no-op instead of a rollback to an older checkpoint.
  Status DoRecoverShard(size_t shard, const BackendFactory& factory,
                        const ShardBackend* expected = nullptr);
  /// Supervisor thread: heartbeat probes with timeout+backoff, suspect/dead
  /// transitions, auto-recovery, and periodic checkpoints.
  void SupervisorLoop();
  void StopSupervisor();
  bool supervision_enabled() const {
    return options_.failover.heartbeat_interval_ms > 0;
  }
  /// The health slot for GLOBAL shard id `shard` (grown on demand; the
  /// returned reference is stable for the ingestor's lifetime).
  ShardHealthState& HealthFor(size_t shard) const;
  /// Builds the cell options for global shard id `shard`.
  BackendOptions CellOptions(size_t shard) const;
  /// Builds the cell of global shard id `shard` with `factory` (empty =
  /// in-process) and records its endpoint.
  Result<ShardPlacement> BuildCell(const BackendFactory& factory,
                                   size_t shard) const;
  /// Marks the ticket applied, releases its valve bytes, and advances the
  /// monotone completion watermark.
  void CompleteTicket(const TicketState& state);
  void RecordError(const Status& s);
  Status FirstError() const;
  Status CheckQuiescent() const;

  /// Refreshes the shard-id -> bundle pointer cache `cache` to cover
  /// `num_shards` entries (no-op when metrics are disabled).
  void RefreshShardMetricsCache(std::vector<ShardIngestMetrics*>* cache,
                                size_t num_shards);
  /// Instruments one applied sub-batch (no-op when `m` is null).
  static void RecordApply(ShardIngestMetrics* m, size_t count,
                          uint64_t elapsed_us);

  /// Scatter-path slot-heat sampling site: counts every 2^slot_sample_shift
  /// -th update (per calling thread) against its hash slot. One predicted
  /// branch per update when sampling is off. Takes the slot directly — the
  /// 8-wide scatter kernel already computed it, so the sampled stride no
  /// longer pays a second hash; the cost stays inside the metrics ≤2%
  /// contract.
  void SampleSlotHeat(size_t slot) {
    if (slot_heat_ == nullptr) return;
    thread_local uint64_t stride = 0;
    if (((++stride) & slot_sample_mask_) != 0) return;
    slot_heat_[slot].fetch_add(1, std::memory_order_relaxed);
  }

  /// Hash+bucket scatter of `count` turnstile updates into (*out)[shard]
  /// through the 8-wide SIMD hash kernel: items are hashed 8 per kernel
  /// call and bucketed by mask when num_slots is a power of two (modulo
  /// otherwise). Identical partition to the per-item ShardFor loop
  /// (Debug-asserted per update). `out` must already have
  /// view.num_shards() cleared sub-vectors; feeds SampleSlotHeat with the
  /// computed slot.
  void ScatterUpdates(const TopologyView& view,
                      const stream::TurnstileUpdate* updates, size_t count,
                      std::vector<std::vector<stream::TurnstileUpdate>>* out);
  /// ScatterUpdates for item streams: each item becomes a delta-1
  /// turnstile update directly in its shard's sub-batch (fused conversion,
  /// no intermediate copy).
  void ScatterItems(const TopologyView& view, const stream::ItemUpdate* items,
                    size_t count,
                    std::vector<std::vector<stream::TurnstileUpdate>>* out);

  IngestorOptions options_;
  /// Observability. metrics_ is null when options_.metrics_enabled is
  /// false — every instrumentation site is behind a null check, so the
  /// disabled engine pays one predicted branch per site and skips the
  /// clock reads. The tracer always exists (control-plane rate only).
  std::unique_ptr<EngineMetrics> metrics_;
  std::unique_ptr<Tracer> tracer_;
  std::chrono::steady_clock::time_point start_time_;
  /// Owns every cell through its views' placements (see ShardPlacement), so
  /// a retired cell is reclaimed when the last view that references it
  /// drops.
  std::unique_ptr<ShardTopology> topology_;
  /// Slot-heat sample counters, one per hash slot — null when sampling is
  /// off. num_slots is FIXED for the engine's lifetime (topology ops only
  /// reassign owners), so a flat atomic array needs no resizing or locks.
  std::unique_ptr<std::atomic<uint64_t>[]> slot_heat_;
  size_t slot_heat_slots_ = 0;
  uint64_t slot_sample_mask_ = 0;  ///< (1 << slot_sample_shift) - 1
  /// The autoscaling controller (autoscale.enabled only). Reads load via
  /// friendship (metrics_/tracer_/valve state) and acts through the public
  /// topology ops; started after the supervisor in Init, stopped first in
  /// Finish.
  std::unique_ptr<Autoscaler> autoscaler_;
  mutable std::vector<std::unique_ptr<MergeCache>> caches_;  // per sketch
  std::vector<std::unique_ptr<Worker>> workers_;
  /// Inline-mode scatter scratch, reused across submissions under
  /// submit_mu_ (threaded submissions scatter into per-call buffers that
  /// move through the session queues instead).
  std::vector<std::vector<stream::TurnstileUpdate>> scatter_;
  /// Inline-mode shard-metrics pointer cache (under submit_mu_); the
  /// router thread keeps its own local equivalent.
  std::vector<ShardIngestMetrics*> inline_shard_metrics_;
  std::atomic<uint64_t> updates_submitted_{0};
  std::atomic<bool> finished_{false};

  // MPSC submission stage: producers append to their session's lane under
  // submit_mu_ (which also serializes sequence assignment); the router
  // drains the lanes round-robin, FIFO within each lane, honoring control
  // barriers (no ticket with a later sequence number is dispatched before
  // a control ticket completes, and none with an earlier one after). In
  // inline mode submit_mu_ additionally serializes the apply itself.
  std::mutex submit_mu_;
  std::condition_variable router_cv_;  // producer -> router: work available
  std::vector<std::unique_ptr<Session>> sessions_;
  /// Mirrors sessions_.size() (sessions are never removed) so the hot
  /// submit path can pre-validate a session id without taking submit_mu_.
  std::atomic<size_t> session_count_{0};
  size_t queued_total_ = 0;  // tickets parked across all sessions
  size_t rr_cursor_ = 0;     // next session the router looks at
  /// Sequence numbers of queued control barriers, ascending. The router's
  /// barrier rule fences on the FRONT of this queue, so a barrier parked
  /// behind earlier data in its own lane still blocks every later-seq
  /// ticket in every other lane.
  std::deque<uint64_t> control_seqs_;
  uint64_t next_seq_ = 0;    // last assigned sequence number
  bool router_stop_ = false;
  std::thread router_;

  // Ticket completion: tickets finish physically out of order (their
  // sub-batches land on different workers), so finished seqs park in a
  // min-heap until the watermark reaches them — completed_seq_ advances
  // only in sequence order, giving Wait/TryWait their prefix semantics.
  // valve_next_/valve_serving_ are the FIFO turnstile for valve admission.
  mutable std::mutex ticket_mu_;
  mutable std::condition_variable ticket_cv_;
  uint64_t completed_seq_ = 0;  // all tickets <= this are applied
  uint64_t inflight_tickets_ = 0;
  uint64_t inflight_bytes_ = 0;  // update bytes of physically pending tickets
  uint64_t valve_next_ = 0;      // turnstile numbers handed to blockers
  uint64_t valve_serving_ = 0;   // turnstile number allowed to admit
  std::priority_queue<uint64_t, std::vector<uint64_t>, std::greater<uint64_t>>
      done_out_of_order_;

  std::atomic<bool> has_error_{false};
  mutable std::mutex error_mu_;
  Status first_error_;

  // Fault tolerance. health_ is a deque for pointer stability (jobs and
  // the supervisor hold raw pointers into it); health_mu_ guards only its
  // GROWTH — the states themselves are atomics. checkpoints_ holds the
  // last serialized cut per shard. The supervisor thread exists only when
  // supervision or periodic checkpoints are configured.
  mutable std::mutex health_mu_;
  mutable std::deque<ShardHealthState> health_;
  std::mutex ckpt_mu_;
  std::vector<ShardCheckpoint> checkpoints_;
  std::mutex sup_mu_;
  std::condition_variable sup_cv_;
  bool supervisor_stop_ = false;
  std::thread supervisor_;
};

}  // namespace wbs::engine

#endif  // WBS_ENGINE_SHARDED_INGESTOR_H_
