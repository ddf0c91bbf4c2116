// Copyright (c) wbstream authors. Licensed under the MIT license.

#include "engine/remote_backend.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "engine/tcp_transport.h"
#include "engine/wire.h"

namespace wbs::engine {
namespace {

// The dialer's reconnection policy (see remote_backend.h).
constexpr int kConnectTimeoutMs = 1000;  ///< per connect() attempt
constexpr int kOpDeadlineMs = 1000;      ///< whole-call budget incl. redials
constexpr int kBackoffInitialMs = 1;     ///< doubles per failed redial...
constexpr int kBackoffMaxMs = 50;        ///< ...up to this cap

/// Session tokens must be unique per (process, shard instance): a daemon
/// keyed on a colliding token would hand a foreign session to the dialer.
uint64_t NewSessionToken() {
  static std::atomic<uint64_t> counter{1};
  uint64_t state = (uint64_t(::getpid()) << 32) ^
                   counter.fetch_add(1, std::memory_order_relaxed);
  const uint64_t token = SplitMix64(&state);
  return token == 0 ? 1 : token;
}

/// A ShardBackend whose shard lives behind a TCP session (tcp_transport.h):
/// a data channel for applies and handoff imports, a control channel for
/// queries, one mutex each. A broken connection is REDIALED inside the
/// failing call's deadline and the handshake's last_applied_seq resyncs
/// in-flight applies exactly-once — transient partitions heal with no
/// re-home and no topology churn.
class TcpRemoteBackend final : public ShardBackend {
 public:
  static Result<std::unique_ptr<ShardBackend>> Create(
      const BackendOptions& options, const TcpBackendOptions& topts) {
    std::unique_ptr<TcpRemoteBackend> cell(new TcpRemoteBackend(options));
    cell->spec_.sketches = options.sketches;
    cell->spec_.config = options.config;
    cell->spec_.snapshot_min_updates = options.snapshot_min_updates;
    if (topts.endpoints.empty()) {
      auto host = TcpShardHost::Start(TcpShardHostOptions{});
      if (!host.ok()) return host.status();
      cell->self_host_ = std::move(host).value();
      cell->host_ = "127.0.0.1";
      cell->port_ = cell->self_host_->port();
      cell->endpoint_ = cell->self_host_->endpoint();
    } else {
      cell->endpoint_ = topts.endpoints[options.shard % topts.endpoints.size()];
      Status s = SplitEndpoint(cell->endpoint_, &cell->host_, &cell->port_);
      if (!s.ok()) return s;
    }
    return Result<std::unique_ptr<ShardBackend>>(std::move(cell));
  }

  ~TcpRemoteBackend() override {
    for (TcpChannel* ch : {&data_, &control_}) {
      std::lock_guard<std::mutex> lock(ch->mu);
      if (ch->fd >= 0) ::close(ch->fd);
    }
  }

  Status ApplyBatch(const stream::TurnstileUpdate* data,
                    size_t count) override {
    // Single caller by the backend contract, so the sequence counter needs
    // no lock; consumed even when the call fails, so an abandoned batch
    // leaves a GAP — the host never sees its sequence, and the
    // dropped-update accounting of the supervision layer owns the loss.
    const uint64_t seq = next_apply_seq_++;
    wire::Writer w;
    w.U64(seq);
    wire::EncodeUpdates(data, count, &w);
    return Request(/*data_channel=*/true, wire::kReqApplySeq, w.data(), NoBody,
                   kOpDeadlineMs, seq);
  }

  Result<ShardSnapshot> Snapshot(size_t sketch_index,
                                 uint64_t newer_than) const override {
    // Deserialized straight from the response frame: no copy of the state.
    ShardSnapshot snap;
    Status s = ReadSnapshot(
        sketch_index, newer_than, [&](uint64_t epoch, std::string_view state) {
          snap.epoch = epoch;
          if (state.empty()) return Status::OK();  // nothing newer
          const auto t0 = std::chrono::steady_clock::now();
          auto sketch = DeserializeSketch(options_.sketches[sketch_index],
                                          options_.config, state);
          if (!sketch.ok()) return sketch.status();
          deserialize_us_.Record(ElapsedUs(t0));
          snap.sketch = std::shared_ptr<const Sketch>(std::move(sketch).value());
          return Status::OK();
        });
    if (!s.ok()) return s;
    return snap;
  }

  Result<SerializedSnapshot> SnapshotSerialized(
      size_t sketch_index, uint64_t newer_than) const override {
    SerializedSnapshot out;  // owns its copy: handoffs and checkpoints keep it
    Status s = ReadSnapshot(sketch_index, newer_than,
                            [&](uint64_t epoch, std::string_view state) {
                              out.epoch = epoch;
                              out.state.assign(state);
                              return Status::OK();
                            });
    if (!s.ok()) return s;
    return out;
  }

  Status Flush() override {
    return Request(/*data_channel=*/false, wire::kReqFlush, {}, NoBody);
  }

  Status ImportShardState(const std::vector<std::string>& frames) override {
    if (frames.size() != options_.sketches.size()) {
      return Status::InvalidArgument(
          "tcp backend: handoff frame count does not match the configured "
          "sketch group");
    }
    // The handoff frame: a kReqImport whose payload is the sketch-state
    // frames, length-prefixed in sketch order. The host decodes and
    // installs them atomically, then publishes, so the imported history is
    // merge-visible on the first post-handoff query.
    wire::Writer req;
    req.U32(uint32_t(frames.size()));
    for (const std::string& frame : frames) req.Str(frame);
    return Request(/*data_channel=*/true, wire::kReqImport, req.data(),
                   NoBody);
  }

  Status Heartbeat(uint64_t timeout_ms) override {
    // The probe's timeout IS the call deadline: a dead peer costs exactly
    // the supervisor's probe budget, never the full op deadline.
    return Request(/*data_channel=*/false, wire::kReqHeartbeat, {}, NoBody,
                   int(timeout_ms));
  }

  Status InjectCrash(bool torn) override {
    if (self_host_ == nullptr) {
      return Status::Unimplemented(
          "tcp backend: InjectCrash requires a self-hosted shard (kill the "
          "external daemon instead)");
    }
    self_host_->CrashNow(torn);
    return Status::OK();
  }

  Status InjectPartition() override {
    if (self_host_ != nullptr) {
      // Server-side severance: the host kills the sockets but keeps the
      // listener and all session state — the dialer notices on its next
      // call and resyncs.
      self_host_->DropConnections();
      return Status::OK();
    }
    for (TcpChannel* ch : {&data_, &control_}) {
      std::lock_guard<std::mutex> lock(ch->mu);
      if (ch->fd >= 0) {
        ::shutdown(ch->fd, SHUT_RDWR);
        ::close(ch->fd);
        ch->fd = -1;
      }
    }
    return Status::OK();
  }

  std::string Endpoint() const override { return endpoint_; }

  Result<std::vector<MetricSample>> Metrics() const override {
    // The cell's own samples (epoch, snapshot lag, serialize latency)
    // report THROUGH the control channel — the remote cell is the source
    // of truth for its state, exactly like every other query.
    std::vector<MetricSample> out;
    Status s = Request(/*data_channel=*/false, wire::kReqMetrics, {},
                       [&](wire::Reader& r) {
                         return wire::DecodeMetricSamples(&r, &out);
                       });
    if (!s.ok()) return s;
    // Client-side channel counters ride along under the wire.* prefix.
    out.push_back(CounterSample("wire.frames_out_total", frames_out_));
    out.push_back(CounterSample("wire.frames_in_total", frames_in_));
    out.push_back(CounterSample("wire.bytes_out_total", bytes_out_));
    out.push_back(CounterSample("wire.bytes_in_total", bytes_in_));
    out.push_back(CounterSample("wire.crc_rejects_total", crc_rejects_));
    out.push_back(CounterSample("wire.recv_errors_total", recv_errors_));
    out.push_back(CounterSample("tcp.reconnects_total", reconnects_));
    out.push_back(CounterSample("tcp.resyncs_total", resyncs_));
    out.push_back(HistogramSample("wire.roundtrip_us", roundtrip_us_));
    out.push_back(HistogramSample("wire.deserialize_us", deserialize_us_));
    return out;
  }

  uint64_t SpaceBits() const override {
    uint64_t bits = 0;
    Status s = Request(/*data_channel=*/false, wire::kReqSpaceBits, {},
                       [&](wire::Reader& r) { return r.U64(&bits); });
    return s.ok() ? bits : 0;
  }

 private:
  struct TcpChannel {
    mutable std::mutex mu;
    int fd = -1;  ///< -1 = not connected (dialed lazily / after failure)
  };

  explicit TcpRemoteBackend(BackendOptions options)
      : options_(std::move(options)), token_(NewSessionToken()) {}

  /// Bytes one frame occupies on the wire for a payload of `n` bytes:
  /// u32 length + version + type + payload + u32 crc.
  static uint64_t FramedBytes(size_t n) { return uint64_t(n) + 10; }

  static int RemainingMs(std::chrono::steady_clock::time_point deadline) {
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - std::chrono::steady_clock::now())
                        .count();
    return ms <= 0 ? 0 : int(ms);
  }

  /// A connect/handshake failure that retrying inside the deadline can fix:
  /// timeouts, resets, dropped sockets. NOT a refused connection (the
  /// listener is GONE — retrying burns the caller's deadline for nothing)
  /// and NOT a handshake rejection (NotFound/InvalidArgument from the host
  /// is authoritative).
  static bool RetryableConnectFailure(const Status& s) {
    switch (s.code()) {
      case Status::Code::kUnavailable:
        return s.message().find("connection refused") == std::string::npos;
      case Status::Code::kDeadlineExceeded:
      case Status::Code::kInternal:
        return true;
      default:
        return false;
    }
  }

  /// Dials and handshakes the channel. ch.mu must be held. On success the
  /// channel fd is connected and `last_applied_seq` holds the host's apply
  /// cursor (the resync decision input).
  Status ConnectLocked(TcpChannel& ch, bool data_channel,
                       std::chrono::steady_clock::time_point deadline,
                       uint64_t* last_applied_seq) const {
    const int remaining = RemainingMs(deadline);
    if (remaining <= 0) {
      return Status::DeadlineExceeded("tcp: no deadline left to connect");
    }
    auto fd = TcpConnectFd(host_, port_, std::min(kConnectTimeoutMs, remaining));
    if (!fd.ok()) return fd.status();
    TcpHello hello;
    hello.channel = data_channel ? 0 : 1;
    hello.session_token = token_;
    hello.shard_id = options_.shard;
    hello.has_spec = !established_.load(std::memory_order_acquire);
    if (hello.has_spec) hello.spec = spec_;
    wire::Writer w;
    EncodeHello(hello, &w);
    Status s = wire::WriteFrameFd(fd.value(), wire::kReqHello, w.data());
    uint8_t type = 0;
    std::string_view payload;
    if (s.ok()) {
      s = wire::ReadFrameFdTimeout(fd.value(),
                                   std::max(1, RemainingMs(deadline)),
                                   &frame_scratch(), &type, &payload);
    }
    if (s.ok() && type != wire::kResp) {
      s = Status::Internal("tcp: unexpected handshake response type");
    }
    Status remote = Status::OK();
    if (s.ok()) {
      wire::Reader r(payload);
      s = wire::DecodeStatus(&r, &remote);
      if (s.ok() && remote.ok() && !r.U64(last_applied_seq).ok()) {
        s = Status::Internal("tcp: truncated handshake response");
      }
    }
    if (!s.ok()) {
      ::close(fd.value());
      return s;  // transport-level → retryable by classification above
    }
    if (!remote.ok()) {
      ::close(fd.value());
      return remote;  // host rejection → authoritative, not retryable
    }
    established_.store(true, std::memory_order_release);
    ch.fd = fd.value();
    return Status::OK();
  }

  /// One request/response on the chosen channel, with reconnect — the
  /// channel is (re)dialed and handshaken inside `deadline_ms`, with
  /// exponential backoff between attempts. For kReqApplySeq calls,
  /// `apply_seq` lets a reconnect detect that the host already applied the
  /// batch (its ack was lost) and synthesize the ack instead of resending.
  /// On OK, `resp` views the response payload in this thread's frame
  /// buffer, valid until the thread's next round trip.
  Status Call(bool data_channel, uint8_t type, std::string_view payload,
              std::string_view* resp, int deadline_ms,
              uint64_t apply_seq = 0) const {
    TcpChannel& ch = const_cast<TcpChannel&>(data_channel ? data_ : control_);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(deadline_ms);
    std::lock_guard<std::mutex> lock(ch.mu);
    int backoff_ms = kBackoffInitialMs;
    bool redialing = false;
    for (;;) {
      if (ch.fd < 0) {
        uint64_t last_applied_seq = 0;
        Status c = ConnectLocked(ch, data_channel, deadline, &last_applied_seq);
        if (!c.ok()) {
          if (!RetryableConnectFailure(c) || RemainingMs(deadline) <= 0) {
            return Status::Unavailable("tcp shard unreachable: " +
                                       c.ToString());
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(
              std::min(backoff_ms, std::max(1, RemainingMs(deadline)))));
          backoff_ms = std::min(backoff_ms * 2, kBackoffMaxMs);
          continue;
        }
        if (redialing) reconnects_.Inc();
        if (apply_seq != 0 && last_applied_seq >= apply_seq) {
          // The host applied this batch before the connection broke — the
          // ack was lost, not the update. Synthesize it; resending would be
          // answered from the host's cache anyway.
          resyncs_.Inc();
          wire::Writer w;
          wire::EncodeStatus(Status::OK(), &w);
          frame_scratch() = w.Take();
          *resp = frame_scratch();
          return Status::OK();
        }
      }
      const auto t0 = std::chrono::steady_clock::now();
      Status s = wire::WriteFrameFd(ch.fd, type, payload);
      uint8_t resp_type = 0;
      std::string_view resp_payload;
      if (s.ok()) {
        frames_out_.Inc();
        bytes_out_.Inc(FramedBytes(payload.size()));
        s = wire::ReadFrameFdTimeout(ch.fd, std::max(1, RemainingMs(deadline)),
                                     &frame_scratch(), &resp_type,
                                     &resp_payload);
      }
      if (s.ok() && resp_type != wire::kResp) {
        s = Status::Internal("tcp backend: unexpected response type");
      }
      if (!s.ok()) {
        // A checksum reject means the bytes arrived but failed validation —
        // the corruption counter the health surface watches. Everything
        // else (EOF, EPIPE, short frame, timeout) is a receive error.
        if (s.message().find("checksum") != std::string::npos) {
          crc_rejects_.Inc();
        } else {
          recv_errors_.Inc();
        }
        ::close(ch.fd);
        ch.fd = -1;
        redialing = true;
        if (RemainingMs(deadline) <= 0) {
          return Status::Unavailable("tcp shard unreachable: " + s.ToString());
        }
        continue;  // redial + handshake resync within the same call
      }
      frames_in_.Inc();
      bytes_in_.Inc(FramedBytes(resp_payload.size()));
      roundtrip_us_.Record(ElapsedUs(t0));
      *resp = resp_payload;
      return Status::OK();
    }
  }

  static Status NoBody(wire::Reader&) { return Status::OK(); }

  /// Call plus the response's leading Status: a transport failure or a
  /// remote error comes back as is; on OK, `decode` reads the
  /// request-specific data that follows the Status, in place in the
  /// thread's frame buffer.
  template <typename Decode>
  Status Request(bool data_channel, uint8_t type, std::string_view payload,
                 Decode&& decode, int deadline_ms = kOpDeadlineMs,
                 uint64_t apply_seq = 0) const {
    std::string_view resp;
    Status s = Call(data_channel, type, payload, &resp, deadline_ms,
                    apply_seq);
    if (!s.ok()) return s;
    wire::Reader r(resp);
    Status remote = Status::OK();
    if (Status sd = wire::DecodeStatus(&r, &remote); !sd.ok()) return sd;
    if (!remote.ok()) return remote;
    return decode(r);
  }

  /// The snapshot read both Snapshot forms share: `consume(epoch, state)`
  /// sees the state frame (empty when nothing is newer) in place.
  template <typename Consume>
  Status ReadSnapshot(size_t sketch_index, uint64_t newer_than,
                      Consume&& consume) const {
    if (sketch_index >= options_.sketches.size()) {
      return Status::OutOfRange("tcp backend: sketch out of range");
    }
    wire::Writer req;
    req.U32(uint32_t(sketch_index));
    req.U64(newer_than);
    return Request(/*data_channel=*/false, wire::kReqSnapshot, req.data(),
                   [&](wire::Reader& r) {
                     uint64_t epoch = 0;
                     std::string_view state;
                     if (Status s = r.U64(&epoch); !s.ok()) return s;
                     if (Status s = r.Str(&state); !s.ok()) return s;
                     return consume(epoch, state);
                   });
  }

  /// Per-thread frame buffer so concurrent round trips (different cells /
  /// channels) do not share scratch.
  static std::string& frame_scratch() {
    thread_local std::string buf;
    return buf;
  }

  const BackendOptions options_;  ///< config carries the resolved shard seed
  const uint64_t token_;  ///< the host's session key (NewSessionToken)
  std::string host_;
  uint16_t port_ = 0;
  std::string endpoint_;  ///< "host:port" for placement failure domains
  TcpShardSpec spec_;     ///< shipped with the FIRST hello only
  std::unique_ptr<TcpShardHost> self_host_;  ///< null in endpoint mode

  TcpChannel data_;
  TcpChannel control_;
  /// Set once any channel's hello succeeded: from then on hellos carry no
  /// spec, so a host that lost the session answers NotFound instead of
  /// silently recreating an empty shard.
  mutable std::atomic<bool> established_{false};
  uint64_t next_apply_seq_ = 1;  ///< single caller per the backend contract

  // Client-side channel observability (relaxed atomics, safe from both
  // channels at once). Counted per round trip in Call().
  mutable Counter frames_out_;
  mutable Counter frames_in_;
  mutable Counter bytes_out_;  ///< framed bytes written (incl. headers/CRC)
  mutable Counter bytes_in_;
  mutable Counter crc_rejects_;  ///< responses rejected for a bad checksum
  mutable Counter recv_errors_;  ///< other failed response reads
  mutable Counter reconnects_;  ///< successful REdials (not first connects)
  mutable Counter resyncs_;     ///< applies acked from the hello's seq cursor
  mutable Histogram roundtrip_us_;
  mutable Histogram deserialize_us_;  ///< snapshot state decode latency
};

}  // namespace

BackendFactory TcpBackendFactory(TcpBackendOptions topts) {
  return [topts](const BackendOptions& options) {
    return TcpRemoteBackend::Create(options, topts);
  };
}

Result<BackendFactory> BackendFactoryByName(const std::string& name) {
  if (name.empty() || name == "inprocess") return InProcessBackendFactory();
  if (name == "mixed") {
    // Alternating placement by global shard id: even shards in-process, odd
    // shards behind self-hosted tcp — one engine spanning both worlds at
    // once, topology-op cells included.
    return BackendFactory([](const BackendOptions& options) {
      return options.shard % 2 == 0
                 ? InProcessBackendFactory()(options)
                 : TcpRemoteBackend::Create(options, TcpBackendOptions{});
    });
  }
  if (name == "tcp") return TcpBackendFactory();
  if (name.rfind("tcp:", 0) == 0) {
    // "tcp:HOST:PORT[,HOST:PORT...]" — external engine_shardd daemons,
    // shard i homed on endpoint i % n.
    TcpBackendOptions topts;
    std::string rest = name.substr(4);
    size_t pos = 0;
    while (pos <= rest.size()) {
      const size_t comma = rest.find(',', pos);
      const std::string ep = rest.substr(
          pos, comma == std::string::npos ? std::string::npos : comma - pos);
      std::string host;
      uint16_t port = 0;
      if (Status s = SplitEndpoint(ep, &host, &port); !s.ok()) return s;
      topts.endpoints.push_back(ep);
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    return TcpBackendFactory(std::move(topts));
  }
  return Status::InvalidArgument(
      "unknown shard backend \"" + name +
      "\" (want inprocess | mixed | tcp | tcp:HOST:PORT,...)");
}

}  // namespace wbs::engine
