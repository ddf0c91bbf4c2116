// Copyright (c) wbstream authors. Licensed under the MIT license.

#include "engine/shard_server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <utility>

#include "engine/wire.h"

namespace wbs::engine {
namespace {

/// Builds the standard response payload prefix: an encoded Status.
void PutStatus(const Status& s, wire::Writer* w) { wire::EncodeStatus(s, w); }

}  // namespace

bool ParseCrashEnvSpec(const char* value, int64_t* after, bool* torn) {
  if (value == nullptr) return false;
  std::string_view spec(value);
  if (spec.rfind("after=", 0) != 0) return false;
  spec.remove_prefix(6);
  bool torn_flag = false;
  if (size_t pos = spec.find(','); pos != std::string_view::npos) {
    torn_flag = spec.substr(pos + 1) == "torn";
    spec = spec.substr(0, pos);
  }
  int64_t n = -1;
  auto [ptr, ec] = std::from_chars(spec.data(), spec.data() + spec.size(), n);
  if (ec != std::errc() || ptr != spec.data() + spec.size() || n < 0) {
    return false;
  }
  *after = n;
  *torn = torn_flag;
  return true;
}

void WriteTornFrameFd(int fd) {
  // A length-valid frame whose body was corrupted after the checksum was
  // computed — the client MUST reject it via CRC32, not via framing. A
  // short write only makes the tear more realistic.
  std::string frame = wire::EncodeFrame(wire::kResp, "torn");
  frame[frame.size() - 5] ^= 0x5a;  // flip a payload byte, keep the CRC
  // MSG_NOSIGNAL: the client may already have hung up; EPIPE is fine here,
  // SIGPIPE is not.
  (void)!::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
}

Result<std::unique_ptr<ShardServer>> ShardServer::Start(
    const ShardServerOptions& options) {
  std::unique_ptr<ShardServer> server(new ShardServer());

  BackendOptions bopts;
  bopts.sketches = options.sketches;
  bopts.config = options.config;  // the client resolved the seed already
  bopts.snapshot_min_updates = options.snapshot_min_updates;
  auto shard = InProcessBackendFactory()(bopts);
  if (!shard.ok()) return shard.status();
  server->shard_ = std::move(shard).value();
  server->num_sketches_ = options.sketches.size();

  int data[2], control[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, data) != 0) {
    return Status::Internal(std::string("ShardServer: socketpair: ") +
                            std::strerror(errno));
  }
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, control) != 0) {
    ::close(data[0]);
    ::close(data[1]);
    return Status::Internal(std::string("ShardServer: socketpair: ") +
                            std::strerror(errno));
  }
  server->server_data_fd_ = data[0];
  server->client_data_fd_ = data[1];
  server->server_control_fd_ = control[0];
  server->client_control_fd_ = control[1];

  // Crash injection armed at birth: WBS_ENGINE_CRASH="after=N[,torn]".
  // Any other value of the variable (e.g. "replay", which the test util
  // consumes to drive failover drills) leaves the server healthy.
  int64_t crash_after = -1;
  bool crash_torn = false;
  if (ParseCrashEnvSpec(std::getenv("WBS_ENGINE_CRASH"), &crash_after,
                        &crash_torn)) {
    server->crash_torn_.store(crash_torn, std::memory_order_relaxed);
    server->crash_after_.store(crash_after, std::memory_order_relaxed);
  }

  ShardServer* raw = server.get();
  server->data_thread_ =
      std::thread([raw] { raw->Serve(raw->server_data_fd_); });
  server->control_thread_ =
      std::thread([raw] { raw->Serve(raw->server_control_fd_); });
  return server;
}

ShardServer::~ShardServer() { Stop(); }

void ShardServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  // Closing the client ends makes the serving loops' reads fail cleanly.
  for (int* fd : {&client_data_fd_, &client_control_fd_}) {
    if (*fd >= 0) {
      ::close(*fd);
      *fd = -1;
    }
  }
  if (data_thread_.joinable()) data_thread_.join();
  if (control_thread_.joinable()) control_thread_.join();
  for (int* fd : {&server_data_fd_, &server_control_fd_}) {
    if (*fd >= 0) {
      ::close(*fd);
      *fd = -1;
    }
  }
}

void ShardServer::CrashAfter(int64_t n_frames, bool torn) {
  if (n_frames < 0) n_frames = 0;
  crash_torn_.store(torn, std::memory_order_relaxed);
  crash_after_.store(frames_served_.load(std::memory_order_relaxed) + n_frames,
                     std::memory_order_relaxed);
}

void ShardServer::CrashNow(bool torn) {
  // stop_mu_ keeps this safe against a concurrent Stop(): once stopped_,
  // the fds may already be closed (or reused) and must not be touched.
  std::lock_guard<std::mutex> lock(stop_mu_);
  if (stopped_) return;
  crashed_.store(true, std::memory_order_release);
  if (torn && server_data_fd_ >= 0) WriteTornFrame(server_data_fd_);
  for (int fd : {server_data_fd_, server_control_fd_}) {
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
}

void ShardServer::WriteTornFrame(int fd) { WriteTornFrameFd(fd); }

void ShardServer::Serve(int fd) {
  std::string frame_buf;
  std::string resp;
  for (;;) {
    uint8_t type = 0;
    std::string_view payload;
    Status s = wire::ReadFrameFd(fd, &frame_buf, &type, &payload);
    if (s.ok()) {
      const int64_t served =
          1 + frames_served_.fetch_add(1, std::memory_order_relaxed);
      const int64_t crash_at = crash_after_.load(std::memory_order_relaxed);
      if (crash_at >= 0 && served >= crash_at) {
        // Mid-stream death: the request that crossed the threshold was
        // read but is never answered — exactly the window a real process
        // crash between recv and send leaves behind. Both channels die so
        // the control plane (heartbeats) sees it too.
        crashed_.store(true, std::memory_order_release);
        if (crash_torn_.load(std::memory_order_relaxed)) WriteTornFrame(fd);
        ::shutdown(server_data_fd_, SHUT_RDWR);
        ::shutdown(server_control_fd_, SHUT_RDWR);
        return;
      }
    }
    if (!s.ok()) {
      // Peer closed (orderly shutdown), unrecoverable I/O error, or an
      // unreadable frame (bad length / checksum / version — after which
      // stream alignment cannot be trusted): kill the connection. The
      // shutdown() makes a client blocked in its response read see EOF
      // immediately and turn it into a Status, instead of hanging forever
      // on a connection nobody will write to again; Stop() still owns the
      // close().
      ::shutdown(fd, SHUT_RDWR);
      return;
    }
    if (type == wire::kReqShutdown) {
      (void)wire::WriteFrameFd(fd, wire::kResp, {});
      ::shutdown(fd, SHUT_RDWR);
      return;
    }
    resp.clear();
    Dispatch(type, payload, &resp);
    if (!wire::WriteFrameFd(fd, wire::kResp, resp).ok()) {
      ::shutdown(fd, SHUT_RDWR);
      return;
    }
  }
}

void ShardServer::Dispatch(uint8_t type, std::string_view payload,
                           std::string* resp) {
  wire::Writer w;
  std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
  if (ShardRequestTakesCellLock(type)) lock.lock();
  DispatchShardRequest(*shard_, num_sketches_, type, payload, &w);
  *resp = w.Take();
}

bool ShardRequestTakesCellLock(uint8_t type) {
  switch (type) {
    case wire::kReqEpoch:
    case wire::kReqSnapshot:
    case wire::kReqMetrics:
      return false;
    default:
      return true;
  }
}

void DispatchShardRequest(ShardBackend& shard, size_t num_sketches,
                          uint8_t type, std::string_view payload,
                          wire::Writer* resp_writer) {
  ShardBackend* const shard_ = &shard;
  const size_t num_sketches_ = num_sketches;
  wire::Writer& w = *resp_writer;
  switch (type) {
    case wire::kReqApply: {
      wire::Reader r(payload);
      std::vector<stream::TurnstileUpdate> updates;
      Status s = wire::DecodeUpdates(&r, &updates);
      if (s.ok()) s = r.ExpectEnd();
      if (s.ok()) s = shard_->ApplyBatch(updates.data(), updates.size());
      PutStatus(s, &w);
      w.U64(shard_->Epoch().value_or(0));
      break;
    }
    case wire::kReqFlush: {
      Status s = shard_->Flush();
      PutStatus(s, &w);
      w.U64(shard_->Epoch().value_or(0));
      break;
    }
    case wire::kReqEpoch: {
      PutStatus(Status::OK(), &w);
      w.U64(shard_->Epoch().value_or(0));
      break;
    }
    case wire::kReqSnapshot: {
      wire::Reader r(payload);
      uint32_t sketch_index = 0;
      Status s = r.U32(&sketch_index);
      if (s.ok()) s = r.ExpectEnd();
      if (s.ok() && sketch_index >= num_sketches_) {
        s = Status::OutOfRange("ShardServer: sketch index out of range");
      }
      if (!s.ok()) {
        PutStatus(s, &w);
        break;
      }
      auto snap = shard_->SnapshotSerialized(sketch_index);
      if (!snap.ok()) {
        PutStatus(snap.status(), &w);
        break;
      }
      PutStatus(Status::OK(), &w);
      w.U64(snap.value().epoch);
      w.Str(snap.value().state);  // empty = never published
      break;
    }
    case wire::kReqSummary: {
      wire::Reader r(payload);
      uint32_t sketch_index = 0;
      Status s = r.U32(&sketch_index);
      if (s.ok()) s = r.ExpectEnd();
      if (!s.ok()) {
        PutStatus(s, &w);
        break;
      }
      auto summary = shard_->LiveSummary(sketch_index);
      if (!summary.ok()) {
        PutStatus(summary.status(), &w);
        break;
      }
      PutStatus(Status::OK(), &w);
      wire::EncodeSummary(summary.value(), &w);
      break;
    }
    case wire::kReqSpaceBits: {
      PutStatus(Status::OK(), &w);
      w.U64(shard_->SpaceBits());
      break;
    }
    case wire::kReqHeartbeat: {
      // Liveness probe: answering at all is the signal; the epoch rides
      // along so supervisors can watch progress for free. Deliberately
      // served under the cell lock (ShardRequestTakesCellLock) — a shard
      // wedged inside an apply fails its heartbeat deadline too.
      PutStatus(Status::OK(), &w);
      w.U64(shard_->Epoch().value_or(0));
      break;
    }
    case wire::kReqMetrics: {
      // Observability: the inner in-process cell's per-shard samples
      // (epoch, snapshot lag, serialize latency) ship to the client, which
      // prefixes them with the global shard id and appends its own wire
      // counters for the channel.
      auto samples = shard_->Metrics();
      if (!samples.ok()) {
        PutStatus(samples.status(), &w);
        break;
      }
      PutStatus(Status::OK(), &w);
      wire::EncodeMetricSamples(samples.value(), &w);
      break;
    }
    case wire::kReqImport: {
      // Shard handoff: install the serialized sketch states shipped from
      // the retiring placement, then publish (ImportShardState does both).
      wire::Reader r(payload);
      uint32_t count = 0;
      Status s = r.U32(&count);
      std::vector<std::string> frames;
      if (s.ok() && count != num_sketches_) {
        s = Status::InvalidArgument(
            "ShardServer: handoff frame count does not match the sketch "
            "group");
      }
      for (uint32_t i = 0; s.ok() && i < count; ++i) {
        std::string frame;
        s = r.Str(&frame);
        if (s.ok()) frames.push_back(std::move(frame));
      }
      if (s.ok()) s = r.ExpectEnd();
      if (s.ok()) s = shard_->ImportShardState(frames);
      PutStatus(s, &w);
      w.U64(shard_->Epoch().value_or(0));
      break;
    }
    default:
      PutStatus(Status::InvalidArgument("ShardServer: unknown request type " +
                                        std::to_string(int(type))),
                &w);
      break;
  }
}

}  // namespace wbs::engine
