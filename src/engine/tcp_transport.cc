// Copyright (c) wbstream authors. Licensed under the MIT license.

#include "engine/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

namespace wbs::engine {

namespace {

Status Errno(const char* what) {
  return Status::Internal(std::string("tcp: ") + what + " failed: " +
                          std::strerror(errno));
}

/// Numeric-only resolution: the engine's endpoints are operator-provided
/// IPv4 literals (plus the "localhost" convenience) — no DNS in the data
/// path.
Status FillAddr(const std::string& host, uint16_t port, sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  const char* ip = host == "localhost" ? "127.0.0.1" : host.c_str();
  if (::inet_pton(AF_INET, ip, &addr->sin_addr) != 1) {
    return Status::InvalidArgument("tcp: bad host (IPv4 literal expected): " +
                                   host);
  }
  return Status::OK();
}

Status SetNonBlocking(int fd, bool nonblocking) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Errno("fcntl(F_GETFL)");
  flags = nonblocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd, F_SETFL, flags) < 0) return Errno("fcntl(F_SETFL)");
  return Status::OK();
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Whether a request of `type` must hold the session's cell lock. True for
/// the requests that change the cell or read its live, worker-owned state
/// (apply-seq, import, flush, space-bits) and for the heartbeat — on
/// purpose, so a shard wedged inside a locked request also fails its
/// liveness probe. False for kReqSnapshot and kReqMetrics: the ShardBackend
/// contract already lets any thread read the published snapshot and the
/// metric samples concurrently with ApplyBatch. Unknown types take the
/// lock.
bool ShardRequestTakesCellLock(uint8_t type) {
  switch (type) {
    case wire::kReqSnapshot:
    case wire::kReqMetrics:
      return false;
    default:
      return true;
  }
}

/// Handles one shard request frame against a session's cell and appends
/// the response payload (Status first, then request-specific data) to `w`.
/// kReqHello and kReqApplySeq need the session itself and never get here
/// (ServeConn handles them); any other type is an InvalidArgument answer
/// on a connection that stays usable.
void DispatchShardRequest(ShardBackend& cell, size_t num_sketches,
                          uint8_t type, std::string_view payload,
                          wire::Writer* w) {
  switch (type) {
    case wire::kReqFlush:
      wire::EncodeStatus(cell.Flush(), w);
      break;
    case wire::kReqSnapshot: {
      wire::Reader r(payload);
      uint32_t sketch_index = 0;
      uint64_t newer_than = 0;
      Status s = r.U32(&sketch_index);
      if (s.ok()) s = r.U64(&newer_than);
      if (s.ok()) s = r.ExpectEnd();
      if (s.ok() && sketch_index >= num_sketches) {
        s = Status::OutOfRange("tcp shard host: sketch index out of range");
      }
      if (!s.ok()) {
        wire::EncodeStatus(s, w);
        break;
      }
      auto snap = cell.SnapshotSerialized(sketch_index, newer_than);
      if (!snap.ok()) {
        wire::EncodeStatus(snap.status(), w);
        break;
      }
      wire::EncodeStatus(Status::OK(), w);
      w->U64(snap.value().epoch);
      w->Str(snap.value().state);  // empty unless epoch > newer_than
      break;
    }
    case wire::kReqSpaceBits: {
      wire::EncodeStatus(Status::OK(), w);
      w->U64(cell.SpaceBits());
      break;
    }
    case wire::kReqHeartbeat:
      // Liveness probe: answering at all is the signal. Deliberately served
      // under the cell lock (ShardRequestTakesCellLock) — a shard wedged
      // inside an apply fails its heartbeat deadline too.
      wire::EncodeStatus(Status::OK(), w);
      break;
    case wire::kReqMetrics: {
      // Observability: the in-process cell's per-shard samples (epoch,
      // snapshot lag, serialize latency) ship to the dialer, which prefixes
      // them with the global shard id and appends its own wire counters.
      auto samples = cell.Metrics();
      if (!samples.ok()) {
        wire::EncodeStatus(samples.status(), w);
        break;
      }
      wire::EncodeStatus(Status::OK(), w);
      wire::EncodeMetricSamples(samples.value(), w);
      break;
    }
    case wire::kReqImport: {
      // Shard handoff: install the serialized sketch states shipped from
      // the retiring placement, then publish (ImportShardState does both).
      wire::Reader r(payload);
      uint32_t count = 0;
      Status s = r.U32(&count);
      std::vector<std::string> frames;
      if (s.ok() && count != num_sketches) {
        s = Status::InvalidArgument(
            "tcp shard host: handoff frame count does not match the sketch "
            "group");
      }
      for (uint32_t i = 0; s.ok() && i < count; ++i) {
        std::string frame;
        s = r.Str(&frame);
        if (s.ok()) frames.push_back(std::move(frame));
      }
      if (s.ok()) s = r.ExpectEnd();
      if (s.ok()) s = cell.ImportShardState(frames);
      wire::EncodeStatus(s, w);
      break;
    }
    default:
      wire::EncodeStatus(
          Status::InvalidArgument("tcp shard host: unknown request type " +
                                  std::to_string(int(type))),
          w);
      break;
  }
}

/// Emits a length-valid frame whose body was corrupted AFTER the checksum
/// was computed — the `torn` crash flavor. The dialer MUST reject it via
/// CRC32, not via framing. A short write only makes the tear more
/// realistic.
void WriteTornFrame(int fd) {
  std::string frame = wire::EncodeFrame(wire::kResp, "torn");
  frame[frame.size() - 5] ^= 0x5a;  // flip a payload byte, keep the CRC
  // MSG_NOSIGNAL: the dialer may already have hung up; EPIPE is fine here,
  // SIGPIPE is not.
  (void)!::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
}

}  // namespace

// ---- endpoint / socket helpers ---------------------------------------------

Status SplitEndpoint(const std::string& endpoint, std::string* host,
                     uint16_t* port) {
  const size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == endpoint.size()) {
    return Status::InvalidArgument("tcp: endpoint must be host:port, got \"" +
                                   endpoint + "\"");
  }
  unsigned long p = 0;
  const char* begin = endpoint.c_str() + colon + 1;
  const char* end = endpoint.c_str() + endpoint.size();
  auto [ptr, ec] = std::from_chars(begin, end, p);
  if (ec != std::errc() || ptr != end || p == 0 || p > 65535) {
    return Status::InvalidArgument("tcp: bad port in endpoint \"" + endpoint +
                                   "\"");
  }
  *host = endpoint.substr(0, colon);
  *port = uint16_t(p);
  return Status::OK();
}

Result<int> TcpConnectFd(const std::string& host, uint16_t port,
                         int timeout_ms) {
  sockaddr_in addr;
  Status s = FillAddr(host, port, &addr);
  if (!s.ok()) return s;
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  s = SetNonBlocking(fd, true);
  if (!s.ok()) {
    ::close(fd);
    return s;
  }
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    const int err = errno;
    ::close(fd);
    if (err == ECONNREFUSED) {
      // Distinguished message: a refusing peer has no listener — the dialer
      // fails fast instead of burning its deadline on retries.
      return Status::Unavailable("tcp: connection refused by " + host + ":" +
                                 std::to_string(port));
    }
    return Status::Unavailable(std::string("tcp: connect failed: ") +
                               std::strerror(err));
  }
  if (rc != 0) {
    struct pollfd p;
    p.fd = fd;
    p.events = POLLOUT;
    for (;;) {
      rc = ::poll(&p, 1, timeout_ms);
      if (rc < 0 && errno == EINTR) continue;
      break;
    }
    if (rc < 0) {
      ::close(fd);
      return Errno("poll");
    }
    if (rc == 0) {
      ::close(fd);
      return Status::Unavailable("tcp: connect timed out to " + host + ":" +
                                 std::to_string(port));
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0 || err != 0) {
      ::close(fd);
      if (err == ECONNREFUSED) {
        return Status::Unavailable("tcp: connection refused by " + host + ":" +
                                   std::to_string(port));
      }
      return Status::Unavailable(std::string("tcp: connect failed: ") +
                                 std::strerror(err != 0 ? err : errno));
    }
  }
  s = SetNonBlocking(fd, false);
  if (!s.ok()) {
    ::close(fd);
    return s;
  }
  SetNoDelay(fd);
  return fd;
}

// ---- handshake codecs ------------------------------------------------------

void EncodeShardSpec(const TcpShardSpec& spec, wire::Writer* w) {
  w->U32(uint32_t(spec.sketches.size()));
  for (const std::string& name : spec.sketches) w->Str(name);
  const SketchConfig& c = spec.config;
  w->U64(c.universe);
  w->U64(c.seed);
  w->U64(c.shard_seed);
  w->F64(c.hh.eps);
  w->F64(c.hh.phi);
  w->F64(c.hh.delta);
  w->U64(c.hh.time_budget_t);
  w->U64(c.misra_gries.counters);
  w->U64(c.ams.rows);
  w->F64(c.sis_l0.eps);
  w->F64(c.sis_l0.c);
  w->U64(c.sis_l0.f_inf_bound);
  w->U64(c.rank.n);
  w->U64(c.rank.k);
  w->U64(c.rank.q);
  w->U64(spec.snapshot_min_updates);
}

Status DecodeShardSpec(wire::Reader* r, TcpShardSpec* out) {
  uint32_t n = 0;
  Status s = r->U32(&n);
  if (!s.ok()) return s;
  if (n > r->remaining()) {
    return Status::InvalidArgument("tcp: shard spec sketch count exceeds body");
  }
  out->sketches.clear();
  out->sketches.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    std::string name;
    s = r->Str(&name);
    if (!s.ok()) return s;
    out->sketches.push_back(std::move(name));
  }
  SketchConfig& c = out->config;
  uint64_t u64 = 0;
  if (!(s = r->U64(&c.universe)).ok()) return s;
  if (!(s = r->U64(&c.seed)).ok()) return s;
  if (!(s = r->U64(&c.shard_seed)).ok()) return s;
  if (!(s = r->F64(&c.hh.eps)).ok()) return s;
  if (!(s = r->F64(&c.hh.phi)).ok()) return s;
  if (!(s = r->F64(&c.hh.delta)).ok()) return s;
  if (!(s = r->U64(&c.hh.time_budget_t)).ok()) return s;
  if (!(s = r->U64(&u64)).ok()) return s;
  c.misra_gries.counters = size_t(u64);
  if (!(s = r->U64(&u64)).ok()) return s;
  c.ams.rows = size_t(u64);
  if (!(s = r->F64(&c.sis_l0.eps)).ok()) return s;
  if (!(s = r->F64(&c.sis_l0.c)).ok()) return s;
  if (!(s = r->U64(&c.sis_l0.f_inf_bound)).ok()) return s;
  if (!(s = r->U64(&u64)).ok()) return s;
  c.rank.n = size_t(u64);
  if (!(s = r->U64(&u64)).ok()) return s;
  c.rank.k = size_t(u64);
  if (!(s = r->U64(&c.rank.q)).ok()) return s;
  if (!(s = r->U64(&out->snapshot_min_updates)).ok()) return s;
  return Status::OK();
}

void EncodeHello(const TcpHello& hello, wire::Writer* w) {
  w->U32(kTcpMagic);
  w->U8(kTcpProtocolVersion);
  w->U8(hello.channel);
  w->U64(hello.session_token);
  w->U64(hello.shard_id);
  w->U8(hello.has_spec ? 1 : 0);
  if (hello.has_spec) EncodeShardSpec(hello.spec, w);
}

Status DecodeHello(wire::Reader* r, TcpHello* out) {
  uint32_t magic = 0;
  uint8_t version = 0;
  uint8_t has_spec = 0;
  Status s = r->U32(&magic);
  if (!s.ok()) return s;
  if (magic != kTcpMagic) {
    return Status::InvalidArgument(
        "tcp handshake: bad magic (not a wbs shard session)");
  }
  if (!(s = r->U8(&version)).ok()) return s;
  if (version != kTcpProtocolVersion) {
    return Status::InvalidArgument(
        "tcp handshake: unsupported protocol version " +
        std::to_string(int(version)) + " (host speaks " +
        std::to_string(int(kTcpProtocolVersion)) + ")");
  }
  if (!(s = r->U8(&out->channel)).ok()) return s;
  if (out->channel > 1) {
    return Status::InvalidArgument("tcp handshake: bad channel byte");
  }
  if (!(s = r->U64(&out->session_token)).ok()) return s;
  if (!(s = r->U64(&out->shard_id)).ok()) return s;
  if (!(s = r->U8(&has_spec)).ok()) return s;
  if (has_spec > 1) {
    return Status::InvalidArgument("tcp handshake: bad has_spec byte");
  }
  out->has_spec = has_spec == 1;
  if (out->has_spec) {
    s = DecodeShardSpec(r, &out->spec);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

// ---- TcpShardHost ----------------------------------------------------------

Result<std::unique_ptr<TcpShardHost>> TcpShardHost::Start(
    const TcpShardHostOptions& options) {
  std::unique_ptr<TcpShardHost> host(new TcpShardHost());
  host->bind_host_ =
      options.bind_host.empty() ? std::string("127.0.0.1") : options.bind_host;

  sockaddr_in addr;
  Status s = FillAddr(host->bind_host_, options.port, &addr);
  if (!s.ok()) return s;
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    s = Errno("bind");
    ::close(fd);
    return s;
  }
  if (::listen(fd, 64) != 0) {
    s = Errno("listen");
    ::close(fd);
    return s;
  }
  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    s = Errno("getsockname");
    ::close(fd);
    return s;
  }
  host->listen_fd_ = fd;
  host->port_ = ntohs(bound.sin_port);

  TcpShardHost* raw = host.get();
  host->accept_thread_ = std::thread([raw] { raw->AcceptLoop(); });
  return host;
}

TcpShardHost::~TcpShardHost() { Stop(); }

std::string TcpShardHost::endpoint() const {
  return bind_host_ + ":" + std::to_string(port_);
}

void TcpShardHost::AcceptLoop() {
  for (;;) {
    struct pollfd p;
    p.fd = listen_fd_;
    p.events = POLLIN;
    const int rc = ::poll(&p, 1, /*timeout_ms=*/100);
    if (rc < 0 && errno != EINTR) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopped_ || crashed_.load(std::memory_order_acquire)) return;
      ReapFinishedConns();
    }
    if (rc <= 0) continue;
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
          errno == EWOULDBLOCK) {
        continue;
      }
      return;  // listener shut down
    }
    SetNoDelay(fd);
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_ || crashed_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    conns_.emplace_back();
    Conn* conn = &conns_.back();
    conn->fd = fd;
    conn->thread = std::thread([this, conn] { ServeConn(conn); });
  }
}

void TcpShardHost::ServeConn(Conn* conn) {
  const int fd = conn->fd;
  std::string frame_buf;
  Session* session = nullptr;
  for (;;) {
    uint8_t type = 0;
    std::string_view payload;
    Status s = wire::ReadFrameFd(fd, &frame_buf, &type, &payload);
    // A crashed host reads the frame but never answers it — the window a
    // real process death between recv and send leaves behind.
    if (!s.ok() || crashed_.load(std::memory_order_acquire)) break;

    std::string resp;
    if (type == wire::kReqHello) {
      bool close_conn = false;
      resp = HandleHello(payload, &session, &close_conn);
      const Status ws = wire::WriteFrameFd(fd, wire::kResp, resp);
      if (close_conn || !ws.ok()) break;
      continue;
    }
    if (session == nullptr) {
      wire::Writer w;
      wire::EncodeStatus(
          Status::FailedPrecondition("tcp shard host: request before kReqHello"),
          &w);
      (void)wire::WriteFrameFd(fd, wire::kResp, w.data());
      break;
    }
    {
      std::unique_lock<std::mutex> lock(session->mu, std::defer_lock);
      if (ShardRequestTakesCellLock(type)) lock.lock();
      wire::Writer w;
      if (type == wire::kReqApplySeq) {
        wire::Reader r(payload);
        uint64_t seq = 0;
        const Status rs = r.U64(&seq);
        if (!rs.ok()) {
          wire::EncodeStatus(rs, &w);
        } else if (seq <= session->last_applied_seq) {
          // Replay of an already-applied batch — its ack was lost in a
          // partition. Answer from cache; re-applying would double count.
          wire::EncodeStatus(session->last_apply_status, &w);
        } else {
          std::vector<stream::TurnstileUpdate> updates;
          Status applied = wire::DecodeUpdates(&r, &updates);
          if (applied.ok()) applied = r.ExpectEnd();
          if (applied.ok()) {
            applied = session->cell->ApplyBatch(updates.data(),
                                                updates.size());
          }
          session->last_applied_seq = seq;
          session->last_apply_status = applied;
          wire::EncodeStatus(applied, &w);
        }
      } else {
        DispatchShardRequest(*session->cell, session->num_sketches, type,
                             payload, &w);
      }
      resp = w.Take();
    }
    if (!wire::WriteFrameFd(fd, wire::kResp, resp).ok()) break;
  }
  ::shutdown(fd, SHUT_RDWR);
  conn->done.store(true, std::memory_order_release);
}

std::string TcpShardHost::HandleHello(std::string_view payload,
                                      Session** session, bool* close_conn) {
  *session = nullptr;
  *close_conn = true;
  wire::Writer w;
  wire::Reader r(payload);
  TcpHello hello;
  Status s = DecodeHello(&r, &hello);
  if (s.ok()) s = r.ExpectEnd();
  if (!s.ok()) {
    wire::EncodeStatus(s, &w);
    return w.Take();
  }
  Session* sess = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(hello.session_token);
    if (it != sessions_.end()) {
      sess = it->second.get();
    } else if (hello.has_spec) {
      BackendOptions bopts;
      bopts.sketches = hello.spec.sketches;
      bopts.config = hello.spec.config;
      bopts.snapshot_min_updates = size_t(hello.spec.snapshot_min_updates);
      bopts.shard = size_t(hello.shard_id);
      auto cell = InProcessBackendFactory()(bopts);
      if (!cell.ok()) {
        wire::EncodeStatus(cell.status(), &w);
        return w.Take();
      }
      auto owned = std::make_unique<Session>();
      owned->cell = std::move(cell).value();
      owned->num_sketches = hello.spec.sketches.size();
      sess = owned.get();
      sessions_.emplace(hello.session_token, std::move(owned));
    } else {
      // A reconnecting dialer never re-sends its spec, so an unknown token
      // without one means the session is GONE (host restarted): the shard
      // must be re-homed from its checkpoint, not silently served empty.
      wire::EncodeStatus(
          Status::NotFound("tcp shard host: unknown session token " +
                           std::to_string(hello.session_token) +
                           " (session lost; shard must be re-homed)"),
          &w);
      return w.Take();
    }
  }
  *session = sess;
  *close_conn = false;
  wire::EncodeStatus(Status::OK(), &w);
  std::lock_guard<std::mutex> lock(sess->mu);
  w.U64(sess->last_applied_seq);
  return w.Take();
}

void TcpShardHost::SeverConnections(bool kill_listener, int torn_fd) {
  std::lock_guard<std::mutex> lock(mu_);
  if (kill_listener) {
    crashed_.store(true, std::memory_order_release);
    if (torn_fd >= 0) WriteTornFrame(torn_fd);
    // shutdown() (not close) takes the socket out of LISTEN so redials are
    // REFUSED immediately, while the fd number stays ours until Stop() —
    // the accept thread may still be polling it.
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  }
  for (Conn& conn : conns_) {
    if (conn.fd >= 0 && !conn.done.load(std::memory_order_acquire)) {
      ::shutdown(conn.fd, SHUT_RDWR);
    }
  }
}

void TcpShardHost::DropConnections() {
  SeverConnections(/*kill_listener=*/false, /*torn_fd=*/-1);
}

void TcpShardHost::CrashNow(bool torn) {
  int torn_fd = -1;
  if (torn) {
    // Best effort: corrupt whatever connection is live so the dialer's CRC
    // check (not just EOF) observes the crash.
    std::lock_guard<std::mutex> lock(mu_);
    for (Conn& conn : conns_) {
      if (conn.fd >= 0 && !conn.done.load(std::memory_order_acquire)) {
        torn_fd = conn.fd;
        break;
      }
    }
  }
  SeverConnections(/*kill_listener=*/true, torn_fd);
}

size_t TcpShardHost::sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

void TcpShardHost::ReapFinishedConns() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (it->done.load(std::memory_order_acquire)) {
      if (it->thread.joinable()) it->thread.join();
      if (it->fd >= 0) ::close(it->fd);
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void TcpShardHost::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopped_ = true;
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
    for (Conn& conn : conns_) {
      if (conn.fd >= 0) ::shutdown(conn.fd, SHUT_RDWR);
    }
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  // With the accept thread gone no new conns appear; drain the list.
  for (;;) {
    Conn* conn = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (conns_.empty()) break;
      conn = &conns_.front();
    }
    if (conn->thread.joinable()) conn->thread.join();
    std::lock_guard<std::mutex> lock(mu_);
    if (conn->fd >= 0) ::close(conn->fd);
    conns_.pop_front();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

// ---- engine_shardd ---------------------------------------------------------

int ShardDaemonMain(int argc, char** argv) {
  TcpShardHostOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.rfind("--port=", 0) == 0) {
      const std::string_view v = arg.substr(7);
      uint64_t p = 0;
      auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), p);
      if (ec != std::errc() || ptr != v.data() + v.size() || p > 65535) {
        std::fprintf(stderr, "engine_shardd: bad --port value\n");
        return 2;
      }
      options.port = uint16_t(p);
    } else if (arg.rfind("--listen=", 0) == 0) {
      const Status s = SplitEndpoint(std::string(arg.substr(9)),
                                     &options.bind_host, &options.port);
      if (!s.ok()) {
        std::fprintf(stderr, "engine_shardd: %s\n", s.ToString().c_str());
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "engine_shardd — standalone wbs shard daemon\n"
          "\n"
          "Serves the engine's TCP shard protocol: shard state (sketch\n"
          "group + config) arrives with each client's kReqHello handshake,\n"
          "so one daemon hosts any number of shards from any number of\n"
          "engines.\n"
          "\n"
          "  --port=N           listen port on 127.0.0.1 (0 = ephemeral)\n"
          "  --listen=HOST:PORT bind address (IPv4 literal)\n"
          "\n"
          "Prints \"LISTENING <port>\" on stdout once ready; serves until\n"
          "SIGTERM/SIGINT.\n");
      return 0;
    } else {
      std::fprintf(stderr, "engine_shardd: unknown flag %s (try --help)\n",
                   std::string(arg).c_str());
      return 2;
    }
  }

  // Block the shutdown signals BEFORE spawning serving threads so sigwait
  // below is the only consumer.
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  auto host = TcpShardHost::Start(options);
  if (!host.ok()) {
    std::fprintf(stderr, "engine_shardd: %s\n",
                 host.status().ToString().c_str());
    return 1;
  }
  std::printf("LISTENING %u\n", unsigned(host.value()->port()));
  std::fflush(stdout);

  int sig = 0;
  sigwait(&set, &sig);
  host.value()->Stop();
  return 0;
}

}  // namespace wbs::engine
