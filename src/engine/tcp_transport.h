// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// TCP shard transport — the listener/dialer pair that turns the engine's
// wire protocol into a real multi-process system. It is the engine's only
// remote transport:
//
//   * `TcpShardHost` — a TCP listener (SO_REUSEADDR, TCP_NODELAY) serving
//     the shard requests of wire.h to any number of connections, each
//     dialer holding a data and a control connection per shard.
//     One host can serve MANY shards: each shard is a session keyed by a
//     client-chosen 64-bit token, created on the first kReqHello that
//     carries the shard's spec (sketch names + resolved config). This is
//     the core of the standalone `engine_shardd` daemon, and also runs
//     in-process to self-host the "tcp" backend for tests and CI.
//
//   * the `kReqHello` handshake — the first frame on every connection:
//
//       u32 magic, u8 protocol version, u8 channel (0 data / 1 control),
//       u64 session token, u64 global shard id, u8 has_spec [+ shard spec]
//
//     answered with Status + u64 last_applied_seq.
//     Wrong magic or version is rejected (and the connection closed); an
//     unknown token WITHOUT a spec is NotFound — a reconnecting client
//     never re-sends its spec, so a daemon that lost the session (restart)
//     is distinguished from a transient partition and surfaces as a dead
//     peer instead of silently serving an empty shard.
//
//   * exactly-once applies across reconnects — the data channel ships
//     updates as `kReqApplySeq` (u64 sequence + batch). The host records
//     the last applied sequence per session and answers a replayed
//     sequence from cache without re-applying, so a dialer that lost the
//     response to an applied batch resyncs on reconnect with zero double
//     counts and zero lost acked updates. The hello reply's
//     last_applied_seq tells the dialer which case it is in.
//
// The dialer half (`TcpRemoteBackend`, remote_backend.h) reconnects with
// bounded retry/backoff inside each call's deadline — only a peer that
// stays unreachable past the deadline surfaces Unavailable, which feeds the
// heartbeat supervision and re-home path.

#ifndef WBS_ENGINE_TCP_TRANSPORT_H_
#define WBS_ENGINE_TCP_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "engine/backend.h"
#include "engine/wire.h"

namespace wbs::engine {

/// Handshake constants. The magic identifies the stream as a wbs shard
/// session before any state is touched; the protocol version covers the
/// handshake and the request/reply layouts that follow it (the frame
/// format has its own wire::kFormatVersion).
inline constexpr uint32_t kTcpMagic = 0x57425354;  // "WBST"
inline constexpr uint8_t kTcpProtocolVersion = 2;

/// Everything a host needs to build a shard cell on first contact: the
/// sketch group and the shard's ALREADY-RESOLVED config (the ingestor
/// derives the shard seed via ShardConfigFor for every cell).
struct TcpShardSpec {
  std::vector<std::string> sketches;
  SketchConfig config;
  uint64_t snapshot_min_updates = 1024;
};

void EncodeShardSpec(const TcpShardSpec& spec, wire::Writer* w);
Status DecodeShardSpec(wire::Reader* r, TcpShardSpec* out);

/// The kReqHello payload.
struct TcpHello {
  uint8_t channel = 0;  ///< 0 = data, 1 = control
  uint64_t session_token = 0;
  uint64_t shard_id = 0;  ///< global shard id (diagnostics)
  bool has_spec = false;
  TcpShardSpec spec;  ///< valid only when has_spec
};

void EncodeHello(const TcpHello& hello, wire::Writer* w);
Status DecodeHello(wire::Reader* r, TcpHello* out);

/// Splits "host:port" (InvalidArgument on a missing/garbage port).
Status SplitEndpoint(const std::string& endpoint, std::string* host,
                     uint16_t* port);

/// Dials host:port with a bounded nonblocking connect, then returns a
/// BLOCKING fd with TCP_NODELAY set. Unavailable when the peer refuses or
/// the timeout passes — the dialer's retry loop classifies from there.
Result<int> TcpConnectFd(const std::string& host, uint16_t port,
                         int timeout_ms);

struct TcpShardHostOptions {
  std::string bind_host = "127.0.0.1";
  uint16_t port = 0;  ///< 0 = ephemeral (read back via port())
  /// Operator override (engine_shardd --shard-seed): forces the shard seed
  /// of every session this host creates, 0 = use each spec's seed. Breaks
  /// bit-identity with in-process by design; standalone experiments only.
  uint64_t shard_seed_override = 0;
};

/// The serving half. Start() binds + listens and spawns an accept thread;
/// each accepted connection is served by its own thread against the
/// sessions table. Every request answers with a Status first; a request
/// that fails (bad payload, unknown sketch index or request type) answers
/// with that Status and the connection stays usable. Requests that change
/// a cell or read its live state take the session's cell lock; snapshot
/// and metrics reads do not, so a query never queues behind an apply.
class TcpShardHost {
 public:
  static Result<std::unique_ptr<TcpShardHost>> Start(
      const TcpShardHostOptions& options);

  ~TcpShardHost();

  TcpShardHost(const TcpShardHost&) = delete;
  TcpShardHost& operator=(const TcpShardHost&) = delete;

  uint16_t port() const { return port_; }
  /// "host:port" — what ShardBackend::Endpoint reports for cells here.
  std::string endpoint() const;

  /// Closes the listener and every connection, joins all threads. Sessions
  /// (and their sketch state) are destroyed. Idempotent.
  void Stop();

  /// Transient partition injection: severs every accepted connection but
  /// keeps the listener and ALL session state. Dialers reconnect and
  /// resync; nothing is lost and no re-home is needed.
  void DropConnections();

  /// Crash injection, callable from any thread: every connection dies, a
  /// request read after the crash is never answered, and the listener
  /// closes so redials are refused exactly like a dead process — failover
  /// drills re-home instead of resync. With `torn`, one live connection
  /// first gets a frame whose body no longer matches its checksum, so the
  /// dialer's CRC32 check (not just EOF) observes the crash. Session state
  /// is kept (it is unreachable — the point); Stop() still reclaims
  /// everything.
  void CrashNow(bool torn = false);

  /// Hosted session count (tests, daemon stats).
  size_t sessions() const;

 private:
  /// One hosted shard: an in-process cell plus the apply-sequence
  /// cursor that makes reconnect resync exactly-once.
  struct Session {
    std::unique_ptr<ShardBackend> cell;
    size_t num_sketches = 0;
    /// The cell lock: held for the requests ShardRequestTakesCellLock
    /// names (tcp_transport.cc) and for the apply-sequence cursor below.
    /// Snapshot and metrics reads run without it.
    std::mutex mu;
    uint64_t last_applied_seq = 0;
    Status last_apply_status;  ///< answered again on a replayed sequence
  };

  struct Conn {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  TcpShardHost() = default;

  void AcceptLoop();
  void ServeConn(Conn* conn);
  /// Handles a kReqHello; resolves (creating if spec'd) the session.
  /// Returns the response payload; `session` is null on rejection.
  std::string HandleHello(std::string_view payload, Session** session,
                          bool* close_conn);
  /// Kills connections (and with `kill_listener` the listener); used by
  /// DropConnections / crash / Stop.
  void SeverConnections(bool kill_listener, int torn_fd);
  void ReapFinishedConns();

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::string bind_host_;
  std::thread accept_thread_;

  mutable std::mutex mu_;  // guards sessions_, conns_, stopped_
  std::unordered_map<uint64_t, std::unique_ptr<Session>> sessions_;
  std::list<Conn> conns_;
  bool stopped_ = false;
  uint64_t shard_seed_override_ = 0;

  std::atomic<bool> crashed_{false};
};

/// The engine_shardd entry point (examples/engine_shardd.cpp is a two-line
/// main around this): parses --port=N / --listen=host:port, starts a host,
/// prints "LISTENING <port>" on stdout (the line launchers block on), and
/// serves until SIGTERM/SIGINT. Returns a process exit code.
int ShardDaemonMain(int argc, char** argv);

}  // namespace wbs::engine

#endif  // WBS_ENGINE_TCP_TRANSPORT_H_
