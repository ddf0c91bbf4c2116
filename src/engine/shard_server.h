// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// ShardServer — one engine shard served behind a socket, speaking the wire
// format of wire.h. This is the server half of LoopbackRemoteBackend: the
// shard's sketch group, aggregation scratch, and snapshot slot live on the
// server side of a socketpair, and everything that crosses — update
// batches, epochs, serialized snapshot states, summaries — crosses as
// checksummed frames. In-process it proves the process-boundary protocol;
// the same loop would serve a real TCP listener unchanged.
//
// Each server exposes TWO connections, mirroring how the ingestor drives a
// shard:
//
//   * the DATA channel carries kReqApply — called by the shard's single
//     owning worker, strictly request/response;
//   * the CONTROL channel carries kReqFlush/kReqEpoch/kReqSnapshot/
//     kReqSummary/kReqSpaceBits — called by query threads at any time.
//
// Each channel is served by its own thread against one shared shard state.
// Requests that change the cell or read its live state take a per-cell
// mutex; epoch, snapshot and metrics reads do not (ShardRequestTakesCellLock
// below), so a query never queues behind an apply. A snapshot request
// racing an apply still sees either the pre- or post-batch published state,
// never a torn one: the cell publishes (snapshot, epoch) pairs under its
// own snap_mu. Internally the shard state IS an in-process cell, so
// apply/publish/epoch semantics are identical to local shards by
// construction.
//
// Response frames carry a Status first; a request that fails (bad frame,
// unknown sketch index, serialization error) answers with that Status and
// the connection stays usable. The server exits its loops when the client
// closes the socket or sends kReqShutdown.

#ifndef WBS_ENGINE_SHARD_SERVER_H_
#define WBS_ENGINE_SHARD_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/status.h"
#include "engine/backend.h"

namespace wbs::engine {

namespace wire {
class Writer;
}  // namespace wire

/// Handles one shard request frame against a cell and appends the
/// response payload (Status first, then request-specific data) to `w`. This
/// is the transport-agnostic half of the shard protocol: ShardServer calls
/// it behind its socketpairs, TcpShardHost (tcp_transport.h) behind real
/// TCP connections. The caller owns serialization: a request for which
/// ShardRequestTakesCellLock() is true must hold the cell's lock, the rest
/// may run at any time.
void DispatchShardRequest(ShardBackend& shard, size_t num_sketches,
                          uint8_t type, std::string_view payload,
                          wire::Writer* w);

/// Whether a request of `type` must hold the cell's lock around
/// DispatchShardRequest. True for the requests that change the cell or read
/// its live, worker-owned state (apply / apply-seq, import, flush, summary,
/// space-bits) and for the heartbeat — on purpose, so a shard wedged inside
/// a locked request also fails its liveness probe. False for kReqEpoch,
/// kReqSnapshot and kReqMetrics: the ShardBackend contract already lets any
/// thread read the epoch, the published snapshot and the metric samples
/// concurrently with ApplyBatch. Unknown types take the lock.
bool ShardRequestTakesCellLock(uint8_t type);

/// Parses a WBS_ENGINE_CRASH value of the form "after=N[,torn]" into an
/// armed crash spec. Returns false (outputs untouched) for any other value
/// — e.g. "replay", which the test util consumes to drive failover drills.
bool ParseCrashEnvSpec(const char* value, int64_t* after, bool* torn);

/// Emits a length-valid frame whose body was corrupted AFTER the checksum
/// was computed — the `torn` crash flavor. The receiver MUST reject it via
/// CRC32, not via framing.
void WriteTornFrameFd(int fd);

struct ShardServerOptions {
  std::vector<std::string> sketches;  ///< registry names of the shard group
  /// Shard config with `shard_seed` ALREADY resolved by the ingestor (via
  /// ShardConfigFor) — the server must not re-derive it, or a relocated
  /// shard would sample differently than its local twin.
  SketchConfig config;
  size_t snapshot_min_updates = 1024;
};

class ShardServer {
 public:
  /// Builds the shard state, creates the two socketpairs, and starts the
  /// serving threads. The returned server owns the server-side ends.
  static Result<std::unique_ptr<ShardServer>> Start(
      const ShardServerOptions& options);

  ~ShardServer();

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  /// Client-side fds (owned by the server object; closed on destruction).
  int data_fd() const { return client_data_fd_; }
  int control_fd() const { return client_control_fd_; }

  /// Closes every fd and joins the serving threads. Idempotent.
  void Stop();

  // ---- fault injection -----------------------------------------------------
  //
  // Crash modes kill the SERVING loops mid-stream — the request that crosses
  // the threshold is read but never answered, exactly what a process death
  // between recv and send looks like to the client. With `torn` set, the
  // server first emits a frame whose body no longer matches its checksum, so
  // the client's CRC32 check (not just EOF detection) is exercised. The
  // server object stays alive and Stop() still reclaims fds and threads.
  //
  // Also armable at birth via env WBS_ENGINE_CRASH="after=N[,torn]" (other
  // values of the variable are ignored here; the test util consumes them).

  /// Arms a crash after `n_frames` more request frames, counted across both
  /// channels. n_frames == 0 crashes on the next frame.
  void CrashAfter(int64_t n_frames, bool torn = false);

  /// Crashes immediately, callable from any thread. No-op after Stop().
  void CrashNow(bool torn = false);

  /// True once a crash mode has fired (never reset).
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

 private:
  ShardServer() = default;

  void Serve(int fd);
  /// Emits the torn frame of the `torn` crash flavor onto `fd`.
  static void WriteTornFrame(int fd);
  /// Handles one request frame; fills the response payload (Status first).
  void Dispatch(uint8_t type, std::string_view payload, std::string* resp);

  std::unique_ptr<ShardBackend> shard_;  // the in-process cell
  size_t num_sketches_ = 0;
  std::mutex mu_;  // the cell lock (see ShardRequestTakesCellLock)

  int server_data_fd_ = -1;
  int server_control_fd_ = -1;
  int client_data_fd_ = -1;
  int client_control_fd_ = -1;
  std::thread data_thread_;
  std::thread control_thread_;
  bool stopped_ = false;
  std::mutex stop_mu_;

  // Fault injection state. crash_after_ is an absolute frames_served_
  // threshold (-1 = disarmed); the serving loop that crosses it dies.
  std::atomic<int64_t> crash_after_{-1};
  std::atomic<int64_t> frames_served_{0};
  std::atomic<bool> crash_torn_{false};
  std::atomic<bool> crashed_{false};
};

}  // namespace wbs::engine

#endif  // WBS_ENGINE_SHARD_SERVER_H_
