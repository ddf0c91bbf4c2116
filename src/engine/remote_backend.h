// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// LoopbackRemoteBackend — a ShardBackend whose shard lives behind a
// socketpair served by a ShardServer (shard_server.h), speaking the engine
// wire format. Nothing engine-side touches shard memory: update batches are
// encoded as kUpdateBatch payloads, snapshots come back as serialized
// kSketchState frames and are reconstructed through the registry, and
// epochs/summaries are request/response frames.
//
// This is the proof that the Client facade, merge cache, and snapshot/epoch
// protocol survive a process-style boundary: for the state-mergeable
// families (ams_f2, sis_l0, rank_decision, misra_gries) a loopback engine
// answers BIT-IDENTICALLY to an in-process engine over the same
// submissions, because the server applies the same batches in the same
// order with the same derived shard seeds, and the wire format round-trips
// state exactly. Sampling heavy hitters cross answer-level, like their
// in-process snapshot clones. Swapping the socketpair for a TCP connection
// to another machine changes none of the protocol — that is the point.
//
// Each cell holds the server plus two client channels (data for
// ApplyBatch, control for queries), each guarded by its own mutex so
// concurrent query threads serialize per shard without blocking ingest.

#ifndef WBS_ENGINE_REMOTE_BACKEND_H_
#define WBS_ENGINE_REMOTE_BACKEND_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/backend.h"

namespace wbs::engine {

/// Factory for the loopback remote backend; plug into
/// IngestorOptions::backend. Each cell spawns one ShardServer (two serving
/// threads).
BackendFactory LoopbackBackendFactory();

/// Reconnection policy of the TCP dialer. Unlike the loopback channels —
/// which poison on the first transport failure, forcing a MoveShard re-home
/// — a TCP channel that breaks is redialed WITHIN the failing call's
/// deadline: connect, kReqHello handshake, resync from the host's
/// last_applied_seq, retransmit. Only a peer that stays unreachable past
/// `op_deadline_ms` (or actively refuses — its listener is gone) surfaces
/// Unavailable and feeds the supervision/re-home path.
struct TcpDialerOptions {
  int connect_timeout_ms = 1000;  ///< per connect() attempt
  int op_deadline_ms = 1000;      ///< whole-call budget incl. redials
  int backoff_initial_ms = 1;     ///< doubles per failed redial...
  int backoff_max_ms = 50;        ///< ...up to this cap
};

struct TcpBackendOptions {
  /// Daemon endpoints ("host:port"); the cell of global shard i is homed
  /// on endpoint i % endpoints.size(). EMPTY = self-host: each cell starts
  /// its own in-process TcpShardHost on an ephemeral 127.0.0.1 port and
  /// dials it over real sockets — the full handshake/resync stack with no
  /// external daemon, which is how tests and CI run it.
  std::vector<std::string> endpoints;
  TcpDialerOptions dialer;
};

/// Factory for the TCP remote backend (TcpRemoteBackend): each cell lives
/// behind a TcpShardHost session (tcp_transport.h), created via the
/// kReqHello spec on first contact. Bit-identical to loopback/in-process
/// for the state-mergeable families by the same argument — same batches,
/// same order, same resolved seeds, exact wire round-trip.
BackendFactory TcpBackendFactory(TcpBackendOptions options = {});

/// Resolves a backend factory by name: "inprocess" (or ""), "loopback",
/// "mixed" (even shard ids in-process, odd ones loopback), "tcp"
/// (self-hosted TCP sockets), and "tcp:HOST:PORT[,HOST:PORT...]" (external
/// engine_shardd daemons).
/// Unknown names are InvalidArgument — this backs --backend= flags and the
/// WBS_ENGINE_BACKEND environment selection in tests and CI.
Result<BackendFactory> BackendFactoryByName(const std::string& name);

}  // namespace wbs::engine

#endif  // WBS_ENGINE_REMOTE_BACKEND_H_
