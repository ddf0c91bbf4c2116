// Copyright (c) wbstream authors. Licensed under the MIT license.

#include "engine/wire.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstring>

#include "common/simd.h"
#include "engine/metrics.h"

namespace wbs::engine::wire {
namespace {

constexpr size_t kLenBytes = 4;
constexpr size_t kCrcBytes = 4;
constexpr size_t kBodyHeaderBytes = 2;  // version + type
/// Hard cap on one frame's body (64 MiB): a corrupted length field must not
/// drive a gigabyte allocation before the checksum gets a chance to reject.
constexpr uint32_t kMaxBodyLen = 64u << 20;

uint32_t ReadU32Le(const char* p) {
  uint32_t v = 0;
  CopyLittleEndian<uint32_t>(&v, p, 1);
  return v;
}

}  // namespace

void Writer::Bytes(const void* data, size_t len) {
  buf_.append(static_cast<const char*>(data), len);
}

void Writer::Str(std::string_view s) {
  U32(uint32_t(s.size()));
  buf_.append(s.data(), s.size());
}

Status Reader::Truncated() {
  return Status::InvalidArgument("wire: truncated buffer");
}

Status Reader::U8(uint8_t* v) {
  if (remaining() < 1) return Truncated();
  *v = uint8_t(buf_[pos_++]);
  return Status::OK();
}

Status Reader::F64(double* v) {
  uint64_t bits = 0;
  Status s = U64(&bits);
  if (!s.ok()) return s;
  *v = std::bit_cast<double>(bits);
  return Status::OK();
}

Status Reader::Bytes(size_t len, std::string_view* out) {
  if (remaining() < len) return Truncated();
  *out = buf_.substr(pos_, len);
  pos_ += len;
  return Status::OK();
}

Status Reader::Str(std::string_view* out) {
  uint32_t len = 0;
  Status s = U32(&len);
  if (!s.ok()) return s;
  return Bytes(len, out);
}

Status Reader::Str(std::string* out) {
  std::string_view v;
  Status s = Str(&v);
  if (!s.ok()) return s;
  out->assign(v);
  return Status::OK();
}

Status Reader::ExpectEnd() const {
  if (remaining() != 0) {
    return Status::InvalidArgument("wire: trailing bytes after payload");
  }
  return Status::OK();
}

uint32_t Crc32(const void* data, size_t len) {
  const uint32_t crc = simd::Kernels().crc32(data, len);
  assert(crc == simd::KernelByName("scalar")->crc32(data, len) &&
         "vector CRC-32 diverged from scalar");
  return crc;
}

std::string EncodeFrame(uint8_t type, std::string_view payload) {
  Writer w;
  w.Reserve(kLenBytes + kBodyHeaderBytes + payload.size() + kCrcBytes);
  w.U32(uint32_t(kBodyHeaderBytes + payload.size()));
  w.U8(kFormatVersion);
  w.U8(type);
  w.Bytes(payload.data(), payload.size());
  const std::string& buf = w.data();
  w.U32(Crc32(buf.data() + kLenBytes, buf.size() - kLenBytes));
  return w.Take();
}

Status DecodeFrame(std::string_view frame, uint8_t* type,
                   std::string_view* payload) {
  if (frame.size() < kLenBytes + kBodyHeaderBytes + kCrcBytes) {
    return Status::InvalidArgument("wire: truncated frame");
  }
  const uint32_t body_len = ReadU32Le(frame.data());
  if (body_len < kBodyHeaderBytes || body_len > kMaxBodyLen ||
      frame.size() != kLenBytes + size_t(body_len) + kCrcBytes) {
    return Status::InvalidArgument("wire: frame length mismatch");
  }
  const uint32_t want_crc = ReadU32Le(frame.data() + kLenBytes + body_len);
  const uint32_t got_crc = Crc32(frame.data() + kLenBytes, body_len);
  if (want_crc != got_crc) {
    return Status::InvalidArgument("wire: frame checksum mismatch");
  }
  const uint8_t version = uint8_t(frame[kLenBytes]);
  if (version != kFormatVersion) {
    return Status::InvalidArgument(
        "wire: unsupported format version " + std::to_string(int(version)) +
        " (this build speaks " + std::to_string(int(kFormatVersion)) + ")");
  }
  *type = uint8_t(frame[kLenBytes + 1]);
  *payload = frame.substr(kLenBytes + kBodyHeaderBytes,
                          body_len - kBodyHeaderBytes);
  return Status::OK();
}

// A batch is its in-memory array: item then delta, 8 bytes each, no padding.
static_assert(sizeof(stream::TurnstileUpdate) == 16 &&
              offsetof(stream::TurnstileUpdate, item) == 0 &&
              offsetof(stream::TurnstileUpdate, delta) == 8);

void EncodeUpdates(const stream::TurnstileUpdate* data, size_t count,
                   Writer* w) {
  w->Reserve(8 + 16 * count);
  w->U64(uint64_t(count));
  w->U64s(reinterpret_cast<const uint64_t*>(data), 2 * count);
}

Status DecodeUpdates(Reader* r, std::vector<stream::TurnstileUpdate>* out) {
  uint64_t count = 0;
  Status s = r->U64(&count);
  if (!s.ok()) return s;
  // Divide, don't multiply: a hostile count must not overflow past the
  // guard and reach resize() (the no-crash contract).
  if (count > r->remaining() / 16) {
    return Status::InvalidArgument("wire: update batch length mismatch");
  }
  out->resize(size_t(count));
  return r->U64s(reinterpret_cast<uint64_t*>(out->data()), 2 * size_t(count));
}

void EncodeStatus(const Status& s, Writer* w) {
  w->U8(uint8_t(s.code()));
  w->Str(s.message());
}

Status DecodeStatus(Reader* r, Status* out) {
  uint8_t code = 0;
  std::string message;
  if (Status s = r->U8(&code); !s.ok()) return s;
  if (Status s = r->Str(&message); !s.ok()) return s;
  switch (Status::Code(code)) {
    case Status::Code::kOk:
      *out = Status::OK();
      return Status::OK();
    case Status::Code::kInvalidArgument:
      *out = Status::InvalidArgument(std::move(message));
      return Status::OK();
    case Status::Code::kOutOfRange:
      *out = Status::OutOfRange(std::move(message));
      return Status::OK();
    case Status::Code::kNotFound:
      *out = Status::NotFound(std::move(message));
      return Status::OK();
    case Status::Code::kFailedPrecondition:
      *out = Status::FailedPrecondition(std::move(message));
      return Status::OK();
    case Status::Code::kResourceExhausted:
      *out = Status::ResourceExhausted(std::move(message));
      return Status::OK();
    case Status::Code::kInternal:
      *out = Status::Internal(std::move(message));
      return Status::OK();
    case Status::Code::kUnimplemented:
      *out = Status::Unimplemented(std::move(message));
      return Status::OK();
    case Status::Code::kUnavailable:
      *out = Status::Unavailable(std::move(message));
      return Status::OK();
    case Status::Code::kDeadlineExceeded:
      *out = Status::DeadlineExceeded(std::move(message));
      return Status::OK();
  }
  return Status::InvalidArgument("wire: unknown status code");
}

void EncodeMetricSamples(const std::vector<MetricSample>& samples, Writer* w) {
  w->U32(uint32_t(samples.size()));
  for (const MetricSample& s : samples) {
    w->Str(s.name);
    w->U8(uint8_t(s.kind));
    switch (s.kind) {
      case MetricKind::kCounter:
      case MetricKind::kGauge:
        w->U64(s.value);
        break;
      case MetricKind::kHistogram: {
        w->U64(s.count);
        w->U64(s.sum);
        // Trailing zero buckets are elided; the decoder zero-pads.
        size_t last = s.buckets.size();
        while (last > 0 && s.buckets[last - 1] == 0) --last;
        w->U32(uint32_t(last));
        w->U64s(s.buckets.data(), last);
        break;
      }
    }
  }
}

Status DecodeMetricSamples(Reader* r, std::vector<MetricSample>* out) {
  uint32_t count = 0;
  if (Status s = r->U32(&count); !s.ok()) return s;
  // Each sample is at least name-length (4) + kind (1) + one u64.
  if (count > r->remaining() / 13) {
    return Status::InvalidArgument("wire: metric sample count mismatch");
  }
  out->clear();
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    MetricSample sample;
    uint8_t kind = 0;
    if (Status s = r->Str(&sample.name); !s.ok()) return s;
    if (Status s = r->U8(&kind); !s.ok()) return s;
    if (kind > uint8_t(MetricKind::kHistogram)) {
      return Status::InvalidArgument("wire: unknown metric kind");
    }
    sample.kind = MetricKind(kind);
    switch (sample.kind) {
      case MetricKind::kCounter:
      case MetricKind::kGauge:
        if (Status s = r->U64(&sample.value); !s.ok()) return s;
        break;
      case MetricKind::kHistogram: {
        uint32_t buckets = 0;
        if (Status s = r->U64(&sample.count); !s.ok()) return s;
        if (Status s = r->U64(&sample.sum); !s.ok()) return s;
        if (Status s = r->U32(&buckets); !s.ok()) return s;
        if (buckets > Histogram::kBuckets || buckets > r->remaining() / 8) {
          return Status::InvalidArgument(
              "wire: metric histogram bucket count mismatch");
        }
        sample.buckets.assign(Histogram::kBuckets, 0);
        if (Status s = r->U64s(sample.buckets.data(), buckets); !s.ok()) {
          return s;
        }
        break;
      }
    }
    out->push_back(std::move(sample));
  }
  return Status::OK();
}

namespace {

using WireClock = std::chrono::steady_clock;

/// Polls `fd` for `events`. With a deadline, the wait is bounded by the
/// time remaining (DeadlineExceeded once it has passed); without one the
/// wait is unbounded. Returning OK means the fd is ready — for POLLIN that
/// guarantees the next read() will not block (data, EOF, or an error).
Status WaitFd(int fd, short events, const WireClock::time_point* deadline) {
  struct pollfd p;
  p.fd = fd;
  p.events = events;
  for (;;) {
    int timeout_ms = -1;
    if (deadline != nullptr) {
      const auto remaining = std::chrono::duration_cast<
          std::chrono::milliseconds>(*deadline - WireClock::now());
      if (remaining.count() <= 0) {
        return Status::DeadlineExceeded("wire: read timed out");
      }
      timeout_ms = int(remaining.count());
    }
    int rc = ::poll(&p, 1, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("wire: poll failed: ") +
                              std::strerror(errno));
    }
    if (rc == 0) return Status::DeadlineExceeded("wire: read timed out");
    return Status::OK();  // ready, hung up, or errored — the I/O classifies
  }
}

Status WriteFull(int fd, const char* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    // MSG_NOSIGNAL: writing to a peer that died (a crashed shard cell)
    // must surface as EPIPE for the failover layer to classify — never as
    // a process-killing SIGPIPE.
    ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Nonblocking fd with a full socket buffer: wait for space. Frame
        // writes stay all-or-error either way.
        Status w = WaitFd(fd, POLLOUT, nullptr);
        if (!w.ok()) return w;
        continue;
      }
      return Status::Internal(std::string("wire: write failed: ") +
                              std::strerror(errno));
    }
    off += size_t(n);
  }
  return Status::OK();
}

/// Reads exactly `len` bytes. `*eof` is set (and OK returned) only when the
/// peer closed before the FIRST byte — mid-frame EOF is an error. With a
/// deadline the fd is polled before every chunk, so the WHOLE read is
/// bounded: a peer that stalls mid-frame surfaces DeadlineExceeded instead
/// of wedging the caller (works on blocking fds too — POLLIN guarantees the
/// following read() returns without blocking).
Status ReadFull(int fd, char* data, size_t len, bool* eof,
                const WireClock::time_point* deadline) {
  size_t off = 0;
  while (off < len) {
    if (deadline != nullptr) {
      Status w = WaitFd(fd, POLLIN, deadline);
      if (!w.ok()) return w;
    }
    ssize_t n = ::read(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (deadline == nullptr) {
          Status w = WaitFd(fd, POLLIN, nullptr);
          if (!w.ok()) return w;
        }
        continue;
      }
      return Status::Internal(std::string("wire: read failed: ") +
                              std::strerror(errno));
    }
    if (n == 0) {
      if (off == 0 && eof != nullptr) {
        *eof = true;
        return Status::OK();
      }
      return Status::Internal("wire: connection closed mid-frame");
    }
    off += size_t(n);
  }
  return Status::OK();
}

/// Shared body of ReadFrameFd / ReadFrameFdTimeout; `deadline` == nullptr
/// means wait forever.
Status ReadFrameFdInternal(int fd, std::string* frame_buf, uint8_t* type,
                           std::string_view* payload,
                           const WireClock::time_point* deadline) {
  char len_bytes[kLenBytes];
  bool eof = false;
  Status s = ReadFull(fd, len_bytes, kLenBytes, &eof, deadline);
  if (!s.ok()) return s;
  if (eof) return Status::FailedPrecondition("wire: connection closed");
  const uint32_t body_len = ReadU32Le(len_bytes);
  if (body_len < kBodyHeaderBytes || body_len > kMaxBodyLen) {
    return Status::InvalidArgument("wire: frame length mismatch");
  }
  frame_buf->resize(kLenBytes + size_t(body_len) + kCrcBytes);
  std::memcpy(frame_buf->data(), len_bytes, kLenBytes);
  s = ReadFull(fd, frame_buf->data() + kLenBytes, body_len + kCrcBytes,
               nullptr, deadline);
  if (!s.ok()) return s;
  return DecodeFrame(*frame_buf, type, payload);
}

}  // namespace

Status WriteFrameFd(int fd, uint8_t type, std::string_view payload) {
  // Enforce the frame size cap on the SENDING side: an oversized payload
  // (e.g. a single multi-million-update sub-batch) gets a Status here
  // instead of a frame the peer must reject and kill the connection over.
  if (payload.size() > kMaxBodyLen - kBodyHeaderBytes) {
    return Status::InvalidArgument(
        "wire: frame payload exceeds the 64 MiB body cap");
  }
  std::string frame = EncodeFrame(type, payload);
  return WriteFull(fd, frame.data(), frame.size());
}

Status ReadFrameFd(int fd, std::string* frame_buf, uint8_t* type,
                   std::string_view* payload) {
  return ReadFrameFdInternal(fd, frame_buf, type, payload, nullptr);
}

Status ReadFrameFdTimeout(int fd, int timeout_ms, std::string* frame_buf,
                          uint8_t* type, std::string_view* payload) {
  // One absolute deadline across the whole frame: header and body reads
  // each poll with whatever budget remains, so a half-open peer that
  // dribbles a partial frame cannot stretch the wait past `timeout_ms`.
  const WireClock::time_point deadline =
      WireClock::now() + std::chrono::milliseconds(timeout_ms);
  return ReadFrameFdInternal(fd, frame_buf, type, payload, &deadline);
}

}  // namespace wbs::engine::wire
