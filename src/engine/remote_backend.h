// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// TcpRemoteBackend — a ShardBackend whose shard lives behind a TCP session
// served by a TcpShardHost (tcp_transport.h), speaking the engine wire
// format. Nothing engine-side touches shard memory: an apply is one
// kReqApplySeq request, a sequence number plus the encoded updates (so a
// batch resent after a reconnect is applied once), and a query reads each
// sketch with one kReqSnapshot request, which answers the cell's epoch plus,
// when that epoch is newer than the reader's, the state as a kSketchState
// frame that is reconstructed through the registry.
//
// This is the proof that the Client facade, merge cache, and snapshot/epoch
// protocol survive a process boundary: for the state-mergeable families
// (ams_f2, sis_l0, rank_decision, misra_gries) a tcp engine answers
// BIT-IDENTICALLY to an in-process engine over the same submissions,
// because the host applies the same batches in the same order with the
// same derived shard seeds, and the wire format round-trips state exactly.
// Sampling heavy hitters cross answer-level, like their in-process
// snapshot clones. A self-hosted cell (no endpoints configured) starts its
// own host on an ephemeral localhost port; an endpoint cell dials an
// engine_shardd daemon — the protocol is the same either way.
//
// Each cell holds two client channels (data for ApplyBatch and handoff
// imports, control for queries), each guarded by its own mutex so
// concurrent query threads serialize per shard without blocking ingest.
// A broken channel is redialed WITHIN the failing call's deadline:
// connect, kReqHello handshake, resync from the host's last_applied_seq,
// retransmit. Only a peer that stays unreachable past the deadline (or
// actively refuses — its listener is gone) surfaces Unavailable and feeds
// the supervision/re-home path.

#ifndef WBS_ENGINE_REMOTE_BACKEND_H_
#define WBS_ENGINE_REMOTE_BACKEND_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "engine/backend.h"

namespace wbs::engine {

struct TcpBackendOptions {
  /// Daemon endpoints ("host:port"); the cell of global shard i is homed
  /// on endpoint i % endpoints.size(). EMPTY = self-host: each cell starts
  /// its own in-process TcpShardHost on an ephemeral 127.0.0.1 port and
  /// dials it over real sockets — the full handshake/resync stack with no
  /// external daemon, which is how tests and CI run it.
  std::vector<std::string> endpoints;
};

/// Factory for the TCP remote backend (TcpRemoteBackend): each cell lives
/// behind a TcpShardHost session (tcp_transport.h), created via the
/// kReqHello spec on first contact.
BackendFactory TcpBackendFactory(TcpBackendOptions options = {});

/// Resolves a backend factory by name: "inprocess" (or ""), "mixed" (even
/// shard ids in-process, odd ones on self-hosted tcp), "tcp" (self-hosted
/// TCP sockets), and "tcp:HOST:PORT[,HOST:PORT...]" (external engine_shardd
/// daemons).
/// Unknown names are InvalidArgument — this backs --backend= flags and the
/// WBS_ENGINE_BACKEND environment selection in tests and CI.
Result<BackendFactory> BackendFactoryByName(const std::string& name);

}  // namespace wbs::engine

#endif  // WBS_ENGINE_REMOTE_BACKEND_H_
