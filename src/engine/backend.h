// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// ShardBackend — the pluggable boundary between the engine's ingestion
// pipeline and the place ONE shard actually lives. Every placement is a
// one-shard cell built by a BackendFactory call for its global shard id:
// in this process (`InProcessBackend`, zero-copy), behind a socket speaking
// the wire format (remote_backend.h), or anywhere a future transport puts
// it — without touching the engine core.
//
// Contract (what the ingestor guarantees / expects):
//
//   * ApplyBatch and OnIdle are called by at most ONE thread at a time per
//     cell, ApplyBatch in dispatch order. The caller may change from call
//     to call — the shard's worker or a producer parked at an inflight
//     valve — but each holds the cell under its worker's mutex, so every
//     call happens-after the previous one; inline mode serializes under the
//     submit mutex. Different cells are applied concurrently.
//   * Snapshot / SnapshotSerialized are the one read of a cell. They may be
//     called from ANY thread at any time, concurrently with ApplyBatch —
//     cells synchronize snapshot publication internally. Each returns the
//     cell's current epoch, and the state published at that epoch only
//     when the epoch is greater than the caller's `newer_than`: a caller
//     that holds epoch e asks with e and gets the state back only if the
//     cell has published since. (sketch, epoch) is a consistent pair. A
//     cell that never published answers {null, 0}.
//   * The epoch counts snapshot publications and only advances. A cell
//     publishes at the first batch boundary after `snapshot_min_updates`
//     updates since the last publication (the staleness cap), and may
//     publish earlier when its applier goes idle (OnIdle); Flush — called
//     only at quiescence — publishes a lagging cell so queries become exact.
//   * A failed publication bumps the epoch too and surfaces as the Status
//     of the next read whose `newer_than` is below the new epoch, never as
//     a stale answer served silently.
//   * SpaceBits is only called at quiescence (the ingestor checks); it
//     reads live, worker-owned state.

#ifndef WBS_ENGINE_BACKEND_H_
#define WBS_ENGINE_BACKEND_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "engine/metrics.h"
#include "engine/sketch.h"
#include "stream/updates.h"

namespace wbs::engine {

/// Everything a factory needs to build the cell of one shard. The ingestor
/// fills this per global shard id from IngestorOptions.
struct BackendOptions {
  std::vector<std::string> sketches;  ///< registry names of the shard group
  /// The shard's config, `shard_seed` already resolved for `shard` by
  /// ShardConfigFor — cells use it as-is, so a shard samples identically
  /// wherever it is homed.
  SketchConfig config;
  size_t snapshot_min_updates = 1024;
  /// The global shard id the cell hosts. Placement factories key on it
  /// (tcp endpoint `shard % n`, mixed placement's parity).
  size_t shard = 0;
};

/// One read of a sketch of a cell: its current epoch, and the state
/// published at that epoch when the read asked for it (see Snapshot).
struct ShardSnapshot {
  std::shared_ptr<const Sketch> sketch;
  uint64_t epoch = 0;
};

/// Snapshot state in serialized form — what an actual transport ships.
/// `state` is a kSketchState frame, empty exactly when ShardSnapshot's
/// `sketch` would be null.
struct SerializedSnapshot {
  std::string state;
  uint64_t epoch = 0;
};

class ShardBackend {
 public:
  virtual ~ShardBackend() = default;

  /// Applies `count` turnstile updates (single caller at a time; see the
  /// contract above). The cell aggregates duplicates, feeds every sketch of
  /// its group, and publishes a snapshot when the throttle allows.
  virtual Status ApplyBatch(const stream::TurnstileUpdate* data,
                            size_t count) = 0;

  /// The cell's current epoch, plus the published snapshot of one sketch
  /// — as a live Sketch instance the merge path can fold (remote backends
  /// deserialize the shipped state) — iff that epoch is > `newer_than`.
  /// Cheap when nothing is newer: an atomic load in process, one small
  /// frame over tcp. `newer_than = 0` fetches whatever was published;
  /// UINT64_MAX reads the epoch alone.
  virtual Result<ShardSnapshot> Snapshot(size_t sketch_index,
                                         uint64_t newer_than) const = 0;

  /// The same read in wire form (handoff, checkpoints, the tcp host).
  virtual Result<SerializedSnapshot> SnapshotSerialized(
      size_t sketch_index, uint64_t newer_than) const = 0;

  /// Publishes the cell's snapshot if it lags live state. Quiescence only.
  virtual Status Flush() = 0;

  /// Idle hint, from the thread that holds the cell: nothing is queued for
  /// the cell, so a publication now delays no apply. The in-process cell
  /// publishes here if its snapshot lags its live state. The default
  /// ignores the hint (a remote cell would pay a round trip; its host keeps
  /// the count throttle).
  virtual void OnIdle() {}

  /// Shard handoff import: replaces the cell's live sketch group with the
  /// states decoded from `frames` (one kSketchState frame per configured
  /// sketch, in sketch order — the wire handoff format produced by
  /// SnapshotSerialized on the source), then publishes a snapshot so the
  /// imported history is immediately merge-visible. Called only at a
  /// topology barrier (no concurrent ApplyBatch). The default is
  /// Unimplemented; both builtin backends support it.
  virtual Status ImportShardState(const std::vector<std::string>& frames) {
    (void)frames;
    return Status::Unimplemented("backend: ImportShardState not supported");
  }

  /// Observability: the cell's metric samples, safe from any thread
  /// concurrently with ApplyBatch (backends read relaxed atomics or go
  /// through their own control channel). Names are UNPREFIXED per-shard
  /// identifiers ("epoch", "snapshot_lag_updates", "serialize_us",
  /// "wire.bytes_out_total", ...); the engine prepends
  /// `engine.shard.<global id>.` when assembling its snapshot. The default
  /// reports nothing — a backend without instrumentation is still valid.
  virtual Result<std::vector<MetricSample>> Metrics() const {
    return std::vector<MetricSample>{};
  }

  /// Liveness probe, bounded by `timeout_ms`, safe from any thread. OK
  /// means the cell answered in time; DeadlineExceeded / Unavailable mean
  /// it did not (the supervisor's failure signal). The default answers OK
  /// immediately — an in-process cell cannot die separately from the
  /// engine, so it is always live.
  virtual Status Heartbeat(uint64_t timeout_ms) {
    (void)timeout_ms;
    return Status::OK();
  }

  /// Fault injection for tests and drills: kills the cell's serving host
  /// (see TcpShardHost::CrashNow); `torn` first emits a checksum-corrupted
  /// frame. Unimplemented by default — cells that cannot crash
  /// independently (in-process) cannot fake it either.
  virtual Status InjectCrash(bool torn) {
    (void)torn;
    return Status::Unimplemented("backend: InjectCrash not supported");
  }

  /// Transient-partition injection: severs the cell's live connections
  /// WITHOUT killing the peer, so a reconnecting transport can resync with
  /// no state loss and no re-home. Unimplemented by default — only
  /// transports with real connections (TCP) can be partitioned.
  virtual Status InjectPartition() {
    return Status::Unimplemented("backend: InjectPartition not supported");
  }

  /// The network endpoint ("host:port") serving this cell, or "" for cells
  /// with no endpoint (in-process). Placements record this so supervision
  /// can group shards into per-host failure domains: when one shard on an
  /// endpoint misses a heartbeat, every placement on that endpoint goes
  /// kSuspect together.
  virtual std::string Endpoint() const { return std::string(); }

  /// State bits across the cell's sketches. Quiescence only.
  virtual uint64_t SpaceBits() const = 0;
};

/// Builds the cell of one shard. IngestorOptions carries one of these; a
/// default-constructed (empty) factory means InProcessBackendFactory().
using BackendFactory =
    std::function<Result<std::unique_ptr<ShardBackend>>(const BackendOptions&)>;

/// The process-local cell — the engine's original shard code behind the
/// interface: zero-copy apply, shared aggregation, clone-based snapshot
/// slots with atomic epochs. Bit-identical to the pre-backend engine for
/// every workload.
BackendFactory InProcessBackendFactory();

/// Derives the per-shard config: `shard_seed` from (config.seed, shard) by
/// the engine's fixed seed schedule. The ingestor resolves every cell's
/// config through this, so a shard samples identically wherever it lives.
SketchConfig ShardConfigFor(const SketchConfig& base, size_t shard);

/// Seed for the merge-target instances the query path creates (distinct
/// from every shard seed).
uint64_t MergeSeedFor(const SketchConfig& base);

/// Reconstructs a sketch from a kSketchState frame: creates `name` from the
/// global registry with `config` (which must match the serializing side's),
/// then restores the framed state. Checksum, version, name and dimension
/// mismatches all surface as Status errors.
Result<std::unique_ptr<Sketch>> DeserializeSketch(const std::string& name,
                                                  const SketchConfig& config,
                                                  std::string_view frame);

/// Serializes a sketch into a kSketchState frame (the inverse).
Result<std::string> SerializeSketch(const Sketch& sketch);

}  // namespace wbs::engine

#endif  // WBS_ENGINE_BACKEND_H_
