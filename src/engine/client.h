// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// engine::Client — the engine's public API and its parallel ingestion
// pipeline, in one class.
//
// Queries are typed: a `SketchHandle` is resolved ONCE (name -> sketch
// index + declared answer family), so every query is an index load, and
// per-family results (`PointEstimate`, `TopK`, `ScalarEstimate`,
// `RankVerdict`) answer exactly what the family can answer — asking the
// wrong family is InvalidArgument, not a silently empty field.
// `RawSummary` is the untyped escape hatch and the bit-identity reference
// the typed projections are tested against (tests/engine_client_test.cc).
//
// The universe is hash-partitioned across shards by the ROUTING LAYER
// (topology.h): item -> hash slot -> shard id -> backend placement,
// published as an immutable, generation-stamped TopologyView. Each shard
// owns one instance of every configured sketch. Submitted batches are
// scattered by slot into per-shard sub-batches and applied either inline
// (num_threads == 0) or from per-worker queues: shard s's sub-batches queue
// at worker s % num_threads, and a thread that applies one — that worker,
// or a producer parked at an inflight valve — first holds the shard's cell,
// taking the oldest queued sub-batch of a cell no thread holds. One applier
// per cell at a time, in queue order, so every shard sees its sub-stream in
// dispatch order no matter how many threads apply.
//
// WHERE a shard lives is behind the pluggable ShardBackend interface
// (backend.h): every shard id is placed in its own one-shard cell, built by
// a BackendFactory call for that id — in this process (zero-copy apply) or
// behind a socket speaking the engine wire format (remote_backend.h). The
// topology supports LIVE operations, all linearized at batch boundaries
// through the router: AddShards (scale-out; old shards stay merge-visible,
// so answers remain a correct merge over every substream ever ingested),
// MoveShard (handoff of a shard's serialized state into a fresh cell) and
// MoveSlots (slot-level migration without moving state).
//
// Submission is multi-producer and asynchronous: Submit scatters on the
// calling thread, then hands the pre-scattered batch to a per-session MPSC
// queue under a short mutex and returns a sequence-numbered IngestTicket
// immediately. A router thread drains the session queues ROUND-ROBIN (a
// hot producer cannot monopolize dispatch) and forwards sub-batches to the
// worker queues — worker-queue backpressure therefore blocks the *router*
// (and ticket completion), not Submit. Producers that do not open a session
// share session 0, which drains FIFO. The inflight valves
// (max_inflight_tickets / max_inflight_bytes) admit blocked producers in
// ARRIVAL ORDER (a FIFO turnstile); a producer parked there keeps its turn
// and meanwhile applies queued sub-batches on its own thread, so a closed
// loop lends its spare time to the appliers. Wait(ticket)/TryWait
// observe a monotone completion watermark: a ticket reports done only once
// every ticket with a smaller sequence number has also been applied.
//
// Determinism: slot assignment depends only on the item, per-shard
// randomness only on (config seed, shard id), and per-shard apply order
// only on dispatch order. With one producer session, dispatch order is
// submission order, and topology operations issued from that producer land
// at deterministic batch boundaries. With multiple sessions the round-robin
// interleaving depends on arrival timing; order-insensitive sketches (the
// linear families) still produce bit-identical final state for every
// interleaving of the same batches.
//
// Queries fold the published per-shard snapshots of the CURRENT topology
// view through a per-sketch merge cache keyed by (topology generation,
// per-shard epochs) — a topology change invalidates wholesale, a plain
// shard write refolds only the dirty shards.
//
// Typical use:
//
//   auto client = Client::Create(opts).value();
//   SketchHandle f2 = client->Handle("ams_f2").value();
//   auto ticket = client->Submit(batch.data(), batch.size()).value();
//   ...                                              // more producers run
//   client->Wait(ticket);                            // prefix through ticket
//   double est = client->QueryScalar(f2).value().value;

#ifndef WBS_ENGINE_CLIENT_H_
#define WBS_ENGINE_CLIENT_H_

#include <algorithm>
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
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/autoscaler.h"
#include "engine/backend.h"
#include "engine/metrics.h"
#include "engine/registry.h"
#include "engine/sketch.h"
#include "engine/topology.h"
#include "engine/trace.h"
#include "stream/updates.h"

namespace wbs::engine {

/// Failure-handling knobs: heartbeat supervision, periodic checkpoints, and
/// automatic MoveShard-based recovery. Supervision is OFF by default
/// (heartbeat_interval_ms == 0): any shard failure poisons the pipeline as
/// the first error. With supervision on, a placement failure (Unavailable)
/// degrades instead: its batches are dropped with explicit loss accounting,
/// queries serve the last folded state with a staleness flag, and the
/// supervisor re-homes the shard from its last checkpoint through the
/// MoveShard machinery. Checkpoints and recoveries are barrier operations
/// through the router, so each is an exact cut of the acked update stream.
struct FailoverOptions {
  /// Supervisor probe period. 0 disables the supervisor thread entirely.
  /// A suspect shard's probes back off to this * min(2^misses, 8).
  uint64_t heartbeat_interval_ms = 0;
  /// Deadline for one heartbeat probe (time to the response's first byte).
  uint64_t heartbeat_timeout_ms = 50;
  /// Consecutive missed heartbeats before kSuspect becomes kDead.
  size_t dead_after_misses = 3;
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
  /// Cap on tickets submitted but not yet fully applied. Submit waits once
  /// this many are in flight, applying queued sub-batches on its own thread
  /// until its turn comes (TrySubmit fails fast instead). The default is a
  /// memory safety valve far above the worker-queue backpressure point; a
  /// small cap makes a closed loop whose producer helps apply while the
  /// appliers are the slower side. 0 = unbounded.
  size_t max_inflight_tickets = 256;
  /// Total-bytes valve on the same queue: Submit blocks (and TrySubmit
  /// fails fast with ResourceExhausted) while the update bytes of in-flight
  /// tickets would exceed this. A batch larger than the whole valve is
  /// still admitted when nothing is in flight, so a single oversized
  /// submission cannot deadlock. Blocked producers are admitted in arrival
  /// order. 0 = unbounded.
  size_t max_inflight_bytes = 0;
  /// Snapshot staleness cap: a shard republishes its snapshot at the first
  /// batch boundary after this many updates at the latest (0 = every
  /// batch). In inline mode and on tcp hosts it is the only rule, which
  /// keeps the unbatched (batch_size == 1) path from cloning per update. A
  /// threaded in-process shard also publishes whenever its worker's queue
  /// runs empty with updates unpublished. Flush() always catches lagging
  /// shards up, so quiescent queries are exact.
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
  /// Metrics() then reports only derived and backend-sourced samples.
  bool metrics_enabled = true;
  /// Failure handling: supervision off by default (see FailoverOptions).
  FailoverOptions failover;
  /// Per-slot heat sampling in the scatter path: 0 (default) = off; N >= 1
  /// counts every 2^N-th scattered update against its hash slot (relaxed
  /// atomic, thread-local stride), making slot-level hotness visible to
  /// SlotHeat() and the autoscaler's MoveSlots decisions. Sampled, so the
  /// hot-path cost is one predicted branch per update plus one fetch_add
  /// per 2^N updates. Single-shard engines skip sampling (nothing to
  /// rebalance).
  size_t slot_sample_shift = 0;
  /// Autoscaling control plane: off by default (see AutoscaleOptions).
  /// When enabled, the engine starts an Autoscaler with these targets at
  /// creation and stops it in Finish. Requires metrics_enabled.
  AutoscaleOptions autoscale;
};

struct ClientOptions {
  IngestorOptions ingest;
};

/// A sequence-numbered receipt for one asynchronous submission. Tickets are
/// totally ordered by `seq`; completion is monotone in that order (see
/// Wait/TryWait). Value type: copy freely, pass to any thread. A
/// default-constructed ticket (seq 0) is always complete — Submit returns
/// it for empty batches and for inline-mode (num_threads == 0)
/// submissions, which are fully applied before Submit returns.
struct IngestTicket {
  uint64_t seq = 0;
};

/// A producer session: its own FIFO lane in the submission stage, drained
/// round-robin against every other session by the router. Open one per
/// logical producer when fairness between producers matters; producers
/// that skip it share the default session 0. Value type holding a plain
/// lane id: ids are only meaningful to the engine that issued them (an id
/// unknown to an engine is InvalidArgument; one that happens to exist
/// routes into that engine's lane of the same number).
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

/// A pre-resolved reference to one configured sketch: the sketch's index in
/// the engine's sketch group plus its declared answer family. Cheap value
/// type — copy freely, share across query threads. Handles are bound to the
/// Client that issued them; using one against another Client is an
/// InvalidArgument (the indices would silently alias a different sketch).
class SketchHandle {
 public:
  SketchHandle() = default;

  bool valid() const { return owner_ != nullptr; }
  size_t index() const { return index_; }
  SketchFamily family() const { return family_; }

 private:
  friend class Client;
  SketchHandle(const void* owner, size_t index, SketchFamily family)
      : owner_(owner), index_(index), family_(family) {}

  const void* owner_ = nullptr;
  size_t index_ = 0;
  SketchFamily family_ = SketchFamily::kGeneric;
};

/// Result of a point-frequency query against a heavy-hitter family sketch.
struct PointEstimate {
  uint64_t item = 0;
  double estimate = 0;   ///< 0 when the item is not a tracked candidate
  bool tracked = false;  ///< candidate list holds a nonzero estimate for item
  uint64_t updates = 0;  ///< effective updates the answer summarizes
  /// Degraded serve: at least one shard was unreachable and its last folded
  /// snapshot answered in its place (supervision on; see FailoverOptions).
  bool stale = false;
};

/// Result of a top-k query: the k highest-estimate candidates,
/// estimate-descending (ties broken by item id ascending).
struct TopK {
  std::vector<hh::WeightedItem> items;
  uint64_t updates = 0;
  bool stale = false;  ///< degraded serve (see PointEstimate::stale)
};

/// Result of a scalar-estimate query (F2 moment, L0 distinct count, ...).
struct ScalarEstimate {
  double value = 0;
  uint64_t updates = 0;
  bool stale = false;  ///< degraded serve (see PointEstimate::stale)
};

/// Result of a rank-decision query: whether the streamed matrix has rank at
/// least the configured threshold k.
struct RankVerdict {
  bool rank_at_least_k = false;
  uint64_t updates = 0;
  bool stale = false;  ///< degraded serve (see PointEstimate::stale)
};

class Client {
 public:
  /// Validates the options, resolves every sketch's answer family, builds
  /// the initial cells, and starts the router, workers, supervisor and
  /// autoscaler that the options ask for.
  static Result<std::unique_ptr<Client>> Create(const ClientOptions& options);

  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Resolves a configured sketch name to a handle. Do this once at setup;
  /// every query after that is an index load.
  Result<SketchHandle> Handle(const std::string& sketch) const;

  // ---- ingest (multi-producer, asynchronous) -----------------------------

  /// Opens a producer session (its own round-robin lane). Any thread.
  Result<ProducerSession> OpenSession();

  /// Scatters `count` updates into per-shard sub-batches and enqueues them
  /// on `session`'s lane, returning a ticket that completes once the batch
  /// (and every earlier ticket) has been applied. Safe to call
  /// concurrently from any number of threads (sharing a session is fine;
  /// they interleave FIFO within it). Never blocks on worker backpressure
  /// (the router absorbs it); only the inflight valves can make it wait,
  /// and those admit waiters in arrival order. While it waits there it
  /// applies queued sub-batches (engine.session.<id>.valve_applies_total).
  Result<IngestTicket> Submit(const stream::TurnstileUpdate* updates,
                              size_t count, ProducerSession session = {});

  /// Non-blocking Submit: where Submit would wait on the inflight valves
  /// (or behind earlier valve waiters), TrySubmit returns ResourceExhausted
  /// immediately and the batch is NOT enqueued — the caller owns the retry
  /// policy. With supervision on, a batch touching a dead shard is
  /// Unavailable.
  Result<IngestTicket> TrySubmit(const stream::TurnstileUpdate* updates,
                                 size_t count, ProducerSession session = {});

  /// Insertion-only Submit: each item becomes a delta-1 update.
  Result<IngestTicket> SubmitItems(const stream::ItemUpdate* items,
                                   size_t count, ProducerSession session = {});

  /// Blocks until `ticket` and every earlier ticket has been applied, then
  /// returns the pipeline's first error (OK when healthy). Any thread.
  Status Wait(const IngestTicket& ticket) const;

  /// Wait with a deadline: DeadlineExceeded if the ticket has not completed
  /// within `timeout_ms` (the ticket remains valid — callers may re-wait).
  /// A timeout beyond ~35 years (2^40 ms) waits like Wait.
  Status WaitFor(const IngestTicket& ticket, uint64_t timeout_ms) const;

  /// Non-blocking completion probe: true once `ticket` (and every earlier
  /// ticket) is applied. Reports the pipeline's first error once the ticket
  /// has drained, so a producer polling TryWait sees failures too.
  Result<bool> TryWait(const IngestTicket& ticket) const;

  /// Blocks until every submitted ticket has been applied, then publishes
  /// any shard whose snapshot lags its live state, making later queries
  /// exact for everything submitted before the call. Call from a moment
  /// when producers are paused (a racing producer keeps Flush waiting).
  Status Flush();

  /// Flush + stop and join the pipeline threads. The client stays
  /// queryable; further Submits fail. Idempotent.
  Status Finish();

  // ---- live topology (scale-out, handoff) --------------------------------
  //
  // Each operation is linearized at a batch barrier through the router:
  // batches submitted before the call land under the old table, later ones
  // under the new, and queries keep answering throughout (from the old
  // view until the new one is installed). Each blocks until installed; on
  // failure the topology is unchanged.

  /// Scale-out: adds `n` fresh shards (hosted by cells from `factory`;
  /// empty = in-process) and rebalances hash slots onto them. Existing
  /// shards keep their state and stay merge-visible.
  Status AddShards(size_t n, BackendFactory factory = {});

  /// Live handoff: drains shard `shard`, serializes its published state
  /// (the engine wire format is the transfer format), imports it into a
  /// fresh cell built by `factory`, and re-points the shard id — same
  /// slots, same derived seed, full history. Summaries immediately after
  /// the move are identical to immediately before. Sketches without a wire
  /// format fail with Unimplemented. Phase timings are recorded as trace
  /// spans ("move_shard" + flush/serialize/import children).
  Status MoveShard(size_t shard, BackendFactory factory);

  /// Slot-level migration: re-points the given hash slots (all owned by
  /// `source`) at shard `dest` without a whole-shard handoff. The source's
  /// snapshot is published first, so its frozen prefix stays merge-visible
  /// and answers remain a merge over all substreams ever (bit-identical for
  /// the linear families); the destination accumulates the suffix. Fails
  /// Unavailable when `dest` is not healthy, InvalidArgument/OutOfRange on
  /// a bad slot set. Emits a "move_slots" span with a "move_slots.flush"
  /// child.
  Status MoveSlots(size_t source, std::vector<uint32_t> slots, size_t dest);

  /// Estimated per-slot update counts from scatter-path sampling (counts
  /// scaled by 2^slot_sample_shift); empty when slot_sample_shift is 0.
  /// Approximate by design: sampling strides are thread-local. Any thread.
  std::vector<uint64_t> SlotHeat() const;

  /// The autoscaling controller (nullptr unless autoscale.enabled). In
  /// manual mode (evaluation_interval_ms == 0) drive it with
  /// Autoscaler::EvaluateOnce().
  Autoscaler* autoscaler() const { return autoscaler_.get(); }

  /// The current routing table, described (generation, shard count, slot
  /// ownership). Any thread.
  TopologyInfo Topology() const { return topology_->Describe(); }

  // ---- fault tolerance ----------------------------------------------------
  //
  // See FailoverOptions for the model: heartbeat supervision, barrier
  // checkpoints, and MoveShard-based recovery with exact bounded-loss
  // accounting.

  /// Snapshots every reachable shard's full sketch state at a router
  /// barrier. A shard's next recovery restores this cut; updates acked
  /// after it are the bounded loss. An unreachable shard keeps its previous
  /// checkpoint (skipped, not an error).
  Status Checkpoint();

  /// Re-homes shard `shard` into a fresh cell built by `factory` (empty =
  /// failover.recovery_backend, then in-process), restoring its last
  /// checkpoint (empty state if none was ever taken), resetting it to
  /// kHealthy and folding its exposure window into updates_lost_total.
  /// With auto_recover the supervisor calls this for dead shards.
  Status RecoverShard(size_t shard, BackendFactory factory = {});

  /// Checkpoint + crash (optionally leaving a torn frame on the data
  /// channel) + recover `shard` at ONE barrier: a provably loss-free
  /// failure exercise. Unimplemented for in-process placements.
  Status FailoverDrill(size_t shard, bool torn = false,
                       BackendFactory factory = {});

  /// Crashes shard `shard`'s placement NOW (no barrier — in-flight batches
  /// die mid-stream). Unimplemented for in-process placements.
  Status InjectShardCrash(size_t shard, bool torn = false);

  /// Severs shard `shard`'s live connections without killing the peer (a
  /// transient partition; a reconnecting transport resyncs with no state
  /// loss). Unimplemented for backends without real connections.
  Status InjectShardPartition(size_t shard);

  /// The supervisor's current verdict and loss accounting for `shard`. Any
  /// thread. An id at or beyond the current shard count returns a default
  /// ShardHealthInfo and touches no engine state.
  ShardHealthInfo Health(size_t shard) const;

  // ---- typed queries (quiescence-free, any thread) -----------------------
  //
  // All queries answer as of the latest published shard epochs (exact after
  // Flush/Finish) and return InvalidArgument when the handle's sketch
  // family cannot answer the requested kind. With supervision on, an
  // unreachable shard's last folded snapshot keeps answering and the result
  // carries `stale = true` until the shard recovers.

  /// Estimated frequency of one item (heavy-hitter families).
  Result<PointEstimate> QueryPoint(const SketchHandle& handle,
                                   uint64_t item) const;

  /// The k highest-estimate candidates (heavy-hitter families). k == 0 is
  /// InvalidArgument; k larger than the candidate list returns all of it.
  Result<TopK> QueryTopK(const SketchHandle& handle, size_t k) const;

  /// The scalar estimate (scalar families: ams_f2's F2, sis_l0's L0, ...).
  Result<ScalarEstimate> QueryScalar(const SketchHandle& handle) const;

  /// The rank decision (rank_decision family).
  Result<RankVerdict> QueryRank(const SketchHandle& handle) const;

  /// The untyped merged summary — the escape hatch for generic tooling.
  /// Prefer the typed queries.
  Result<SketchSummary> RawSummary(const SketchHandle& handle) const;

  // ---- observability -----------------------------------------------------

  /// A point-in-time read of the engine's full metric surface: every
  /// registered engine.* instrument, the derived health gauges (uptime,
  /// inflight tickets/bytes, valve waiters, topology generation, per-shard
  /// updates/sec), per-shard backend samples (epoch, snapshot lag, wire
  /// traffic — prefixed `engine.shard.<id>.`), and the per-sketch merge
  /// cache counters. Any thread, no quiescence needed. Render it with
  /// MetricsSnapshot::WriteTable or WriteJsonl.
  MetricsSnapshot Metrics() const;

  /// The retained control-plane trace spans (topology, checkpoint and
  /// recovery operations and their phases), oldest first. Any thread.
  std::vector<TraceSpan> TraceSpans() const { return tracer_->Snapshot(); }

  // ---- introspection (tests, examples, diagnostics) ----------------------

  /// Number of snapshot publications shard `shard`'s CURRENT placement has
  /// performed (restarts when a handoff re-homes the shard): the epoch of
  /// a conditional snapshot read that asks for no state.
  uint64_t ShardEpoch(size_t shard) const;

  /// A single shard's summary, from its current placement. Requires
  /// quiescence (FailedPrecondition otherwise): it flushes the cell, so
  /// the published state it reads is the live state — and, like Flush(),
  /// it must not run beside another Flush() or ShardSummary(). A cell that
  /// never published reads as an empty one. Fails like a query does when
  /// the cell's sketch cannot be read (a stashed publication error; a tcp
  /// cell whose sketch has no wire format).
  Result<SketchSummary> ShardSummary(size_t shard,
                                     const std::string& sketch) const;

  /// Total state bits across the cells of the current topology (quiescent
  /// callers).
  uint64_t SpaceBits() const;

  const std::vector<std::string>& sketch_names() const {
    return options_.sketches;
  }
  uint64_t updates_submitted() const {
    return updates_submitted_.load(std::memory_order_acquire);
  }
  /// CURRENT shard count (grows with AddShards).
  size_t num_shards() const { return topology_->View()->num_shards(); }
  size_t num_threads() const { return options_.num_threads; }

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
    /// GLOBAL shard id's health/loss accounting, resolved like `metrics`.
    ShardHealthState* health = nullptr;
  };

  /// One worker's queue and the cells its appliers hold. The worker
  /// thread and parked producers (HelpApply) apply from it.
  struct Worker {
    std::mutex mu;
    std::condition_variable cv_work;     // -> worker: job queued, cell freed
    std::condition_variable cv_space;    // -> router: queue has room
    std::condition_variable cv_drained;  // -> waiter: pending == 0
    std::deque<Job> queue;
    /// Cells a thread holds while it applies a job or gives the idle hint;
    /// their queued jobs wait, so each cell has one applier at a time.
    std::vector<const ShardBackend*> held;
    size_t pending = 0;  // queued + in-flight batches
    bool stop = false;
    WorkerMetrics* metrics = nullptr;  // null = metrics disabled
    std::thread thread;

    bool Holds(const ShardBackend* cell) const {
      return std::find(held.begin(), held.end(), cell) != held.end();
    }
    void Release(const ShardBackend* cell) {
      held.erase(std::find(held.begin(), held.end(), cell));
    }
    /// One taken job is finished: wake drainers once nothing is pending.
    void Done() {
      if (--pending == 0) cv_drained.notify_all();
    }
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

  Client(IngestorOptions options, std::vector<SketchFamily> families);

  Status Init();
  void RouterLoop();
  void WorkerLoop(Worker* worker);
  /// Moves the oldest queued job of `worker` whose cell no thread holds
  /// into *job and holds the cell. Caller holds worker->mu. False when no
  /// queued job is runnable.
  static bool TakeJob(Worker* worker, Job* job);
  /// Applies a taken job (skipped once the pipeline has errored) and
  /// completes its share of the ticket. True when it applied.
  bool RunJob(const Job& job);
  /// Valve help: runs one runnable job from the longest worker queue on
  /// the calling thread, as WorkerLoop would, then gives the cell its idle
  /// hint when nothing more is queued for it. False when no queue holds a
  /// runnable job.
  bool HelpApply(SessionMetrics* sm);
  /// Waits until every worker queue is empty and nothing is in flight.
  void DrainWorkers();
  /// Re-scatters a parked ticket whose scatter predates the current table.
  static void ReScatter(PendingTicket* ticket, const TopologyView& view);
  /// Checks producer-side preconditions shared by the Submit variants.
  Status PreSubmit() const;
  /// The one submit body behind Submit/TrySubmit/SubmitItems: scatters on
  /// the calling thread, then applies inline or enqueues for the router.
  /// `blocking` false turns a full inflight valve into ResourceExhausted.
  template <typename T>
  Result<IngestTicket> SubmitBatch(const T* data, size_t count,
                                   ProducerSession session, bool blocking);
  /// Inline mode: applies the sub-batches staged in scatter_ synchronously
  /// against `view`. Caller holds submit_mu_. Returns the always-complete
  /// seq-0 ticket.
  Result<IngestTicket> ApplyInline(const TopologyView& view, size_t count);
  /// Applies one shard's sub-batch. A dead shard drops (and counts) it
  /// without touching the backend; a supervised Unavailable degrades to a
  /// counted drop and flags the shard suspect; any other failure is
  /// recorded as the pipeline's first error and returned.
  Status ApplySubBatch(ShardBackend* backend,
                       const std::vector<stream::TurnstileUpdate>& updates,
                       ShardHealthState* health, ShardIngestMetrics* m);
  /// Threaded mode: assigns a sequence number to `sub` and parks it on
  /// `session`'s lane for the router. When `blocking` is false, a full
  /// inflight valve (or a queue of earlier valve waiters) is
  /// ResourceExhausted instead of a wait.
  Result<IngestTicket> EnqueueScattered(
      ProducerSession session,
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
  /// returned reference is stable for the engine's lifetime).
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

  /// Validates handle ownership and that the handle's family may answer
  /// `query_kind` queries, then hands back the sketch index.
  Result<size_t> CheckHandle(const SketchHandle& handle,
                             const char* query_kind,
                             bool allowed_for_family) const;
  /// Folds (if needed) and returns a pointer to the cached merged summary
  /// of the sketch at `sketch_index`. The pointer is valid only while
  /// *lock — handed back holding the per-sketch cache mutex — stays held;
  /// drop the lock as soon as the answer is projected.
  Result<const SketchSummary*> MergedSummaryView(
      size_t sketch_index, std::unique_lock<std::mutex>* lock) const;
  /// Index of `sketch` in options_.sketches, or sketches.size() if absent.
  size_t SketchIndex(const std::string& sketch) const;

  /// Refreshes the shard-id -> bundle pointer cache `cache` to cover
  /// `num_shards` entries (no-op when metrics are disabled).
  void RefreshShardMetricsCache(std::vector<ShardIngestMetrics*>* cache,
                                size_t num_shards);
  /// Instruments one applied sub-batch (no-op when `m` is null).
  static void RecordApply(ShardIngestMetrics* m, size_t count,
                          uint64_t elapsed_us);

  /// Scatter-path slot-heat sampling site: counts every 2^slot_sample_shift
  /// -th update (per calling thread) against its hash slot. One predicted
  /// branch per update when sampling is off.
  void SampleSlotHeat(size_t slot) {
    if (slot_heat_ == nullptr) return;
    thread_local uint64_t stride = 0;
    if (((++stride) & slot_sample_mask_) != 0) return;
    slot_heat_[slot].fetch_add(1, std::memory_order_relaxed);
  }

  /// Scatters `count` inputs into (*out)[shard] as turnstile updates (an
  /// item becomes a delta-1 update). `out` must already hold
  /// view.num_shards() cleared sub-vectors. A single-shard view copies
  /// straight through; otherwise items are hashed 8 per SIMD kernel call
  /// and bucketed by mask when num_slots is a power of two (modulo
  /// otherwise) — the same partition as the per-item ShardFor loop
  /// (Debug-asserted per update) — feeding SampleSlotHeat the slot.
  template <typename T>
  void Scatter(const TopologyView& view, const T* data, size_t count,
               std::vector<std::vector<stream::TurnstileUpdate>>* out);

  IngestorOptions options_;
  const std::vector<SketchFamily> families_;  ///< per configured sketch
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
  /// Producers parked at the valve, and the router's count of dispatches
  /// made while any was: a parked producer with nothing to apply sleeps
  /// only while the count stands still.
  std::atomic<size_t> valve_parked_{0};
  uint64_t dispatch_epoch_ = 0;
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

#endif  // WBS_ENGINE_CLIENT_H_
