// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// The engine's serialization wire format — the byte-level contract a shard
// backend speaks when shard state crosses a process boundary.
//
// Primitives are little-endian and fixed-width (u8/u32/u64; i64 as two's
// complement; f64 as the IEEE-754 bit pattern), written by `Writer` and read
// back by the bounds-checked `Reader` — a truncated or overlong buffer is a
// Status error, never a crash or a silent partial read. Words move by
// memcpy, byte-swapped only on a big-endian host, and arrays of words
// (update batches, dense sketch states) move as one block: one bounds check
// and one copy each.
//
// Everything that crosses a boundary travels inside a *frame*:
//
//   [u32 body_len][u8 format_version][u8 type][payload...][u32 crc32(body)]
//
// where body = version byte + type byte + payload. DecodeFrame rejects a
// wrong format-version byte (version negotiation: a peer speaking a newer
// format is an InvalidArgument, not garbage reads), a length that disagrees
// with the buffer, and any checksum mismatch (a single corrupted byte
// anywhere in the body fails the CRC). The same frame layout is used for
// update batches, serialized sketch states, and the request/response
// messages of the tcp shard host (tcp_transport.h).
//
// Compound codecs for the engine's value types (TurnstileUpdate batches,
// Status, metric samples) live here too, so every backend and the tests
// share one encoding.

#ifndef WBS_ENGINE_WIRE_H_
#define WBS_ENGINE_WIRE_H_

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bits.h"
#include "common/status.h"
#include "stream/updates.h"

namespace wbs::engine {

struct MetricSample;  // metrics.h

namespace wire {

/// The wire format version this build speaks. Bump on any layout change;
/// DecodeFrame rejects frames from a different version.
inline constexpr uint8_t kFormatVersion = 1;

/// Frame types. 1..31 are sketch/engine payloads; 32..63 are shard-host
/// requests; 64+ are shard-host responses. 3, 32, 34, 36 and 38 are
/// retired (a serialized summary, an unsequenced apply, an epoch read, a
/// live summary read and a shutdown request): never reuse them — a host
/// answers the request types like any unknown type, with InvalidArgument.
enum FrameType : uint8_t {
  kSketchState = 1,   ///< one sketch's serialized state
  kUpdateBatch = 2,   ///< a batch of turnstile updates

  kReqFlush = 33,     ///< publish the shard's snapshot if it lags
  /// u32 sketch + u64 newer_than; answers u64 epoch + the sketch's state
  /// frame, empty unless the epoch is > newer_than
  kReqSnapshot = 35,
  kReqSpaceBits = 37, ///< total state bits of the shard
  kReqImport = 39,    ///< shard handoff: install serialized sketch states
  kReqMetrics = 40,   ///< read the shard's metric samples (observability)
  kReqHeartbeat = 41, ///< liveness probe: answering OK is the signal
  kReqHello = 42,     ///< TCP session handshake (tcp_transport.h layout)
  kReqApplySeq = 43,  ///< apply a batch: u64 apply sequence + update batch

  kResp = 64,         ///< response: Status followed by request-specific data
};

/// Appends fixed-width little-endian primitives into a growable buffer.
class Writer {
 public:
  void U8(uint8_t v) { buf_.push_back(char(v)); }
  void U32(uint32_t v) { Words(&v, 1); }
  void U64(uint64_t v) { Words(&v, 1); }
  void I64(int64_t v) { Words(&v, 1); }
  /// IEEE-754 bit pattern: doubles round-trip bit-identically.
  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }
  /// `n` words in one append: the bytes of n separate U64 calls.
  void U64s(const uint64_t* v, size_t n) { Words(v, n); }
  void I64s(const int64_t* v, size_t n) { Words(v, n); }
  void Bytes(const void* data, size_t len);
  /// Length-prefixed (u32) byte string.
  void Str(std::string_view s);
  /// Capacity for `n` more bytes, so a writer that knows its size grows
  /// once.
  void Reserve(size_t n) { buf_.reserve(buf_.size() + n); }

  const std::string& data() const { return buf_; }
  std::string Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void Words(const T* v, size_t n) {
    if constexpr (std::endian::native == std::endian::little) {
      buf_.append(reinterpret_cast<const char*>(v), n * sizeof(T));
    } else {
      const size_t at = buf_.size();
      buf_.resize(at + n * sizeof(T));
      CopyLittleEndian<T>(buf_.data() + at, v, n);
    }
  }

  std::string buf_;
};

/// Bounds-checked reads over a non-owned buffer. Every getter fails with
/// InvalidArgument("wire: truncated buffer") instead of reading past the
/// end, so corrupted length fields cannot cause out-of-bounds access.
class Reader {
 public:
  explicit Reader(std::string_view buf) : buf_(buf) {}

  Status U8(uint8_t* v);
  Status U32(uint32_t* v) { return Words(v, 1); }
  Status U64(uint64_t* v) { return Words(v, 1); }
  Status I64(int64_t* v) { return Words(v, 1); }
  Status F64(double* v);
  /// `n` words with one bounds check and one copy; on failure nothing is
  /// consumed.
  Status U64s(uint64_t* v, size_t n) { return Words(v, n); }
  Status I64s(int64_t* v, size_t n) { return Words(v, n); }
  /// A view of the next `len` bytes (no copy); on failure nothing is
  /// consumed.
  Status Bytes(size_t len, std::string_view* out);
  /// Reads a u32 length prefix, then that many bytes (view into the buffer).
  Status Str(std::string_view* s);
  Status Str(std::string* s);

  size_t remaining() const { return buf_.size() - pos_; }
  /// InvalidArgument unless the buffer is fully consumed — catches payloads
  /// with trailing garbage (e.g. a truncated length field).
  Status ExpectEnd() const;

 private:
  static Status Truncated();

  template <typename T>
  Status Words(T* v, size_t n) {
    // Divide, don't multiply: a hostile count cannot overflow the check.
    if (remaining() / sizeof(T) < n) return Truncated();
    CopyLittleEndian<T>(v, buf_.data() + pos_, n);
    pos_ += n * sizeof(T);
    return Status::OK();
  }

  std::string_view buf_;
  size_t pos_ = 0;
};

/// CRC-32 (IEEE 802.3 polynomial, bit-reflected — the zlib/PNG checksum,
/// so Crc32("123456789", 9) == 0xCBF43926 and the empty input gives 0) of
/// `len` bytes at any alignment: the `crc32` entry of simd::Kernels()
/// (carry-less-multiply folding on x86, slicing-by-8 otherwise and under
/// WBS_ENGINE_KERNEL=scalar). It runs over every framed byte on both sides
/// of a shard boundary.
uint32_t Crc32(const void* data, size_t len);

/// Wraps `payload` in a checksummed frame of the given type.
std::string EncodeFrame(uint8_t type, std::string_view payload);

/// Validates length, format version, and checksum; hands back the type and
/// a view of the payload (into `frame`). Corruption anywhere in the body is
/// an InvalidArgument mentioning "checksum"; a foreign format-version byte
/// is an InvalidArgument mentioning "version".
Status DecodeFrame(std::string_view frame, uint8_t* type,
                   std::string_view* payload);

// ---- compound codecs -------------------------------------------------------

/// Turnstile update batch: u64 count, then (u64 item, i64 delta) pairs —
/// the in-memory layout of TurnstileUpdate, so a batch moves as one block.
void EncodeUpdates(const stream::TurnstileUpdate* data, size_t count,
                   Writer* w);
Status DecodeUpdates(Reader* r, std::vector<stream::TurnstileUpdate>* out);

/// Status: u8 code + message. Decoding an unknown code is an error.
void EncodeStatus(const Status& s, Writer* w);
Status DecodeStatus(Reader* r, Status* out);

/// Metric samples (metrics.h), the payload of a kReqMetrics response: u32
/// count, then per sample name, kind, and the kind's value fields
/// (histograms ship count/sum plus length-prefixed bucket counts).
void EncodeMetricSamples(const std::vector<MetricSample>& samples, Writer* w);
Status DecodeMetricSamples(Reader* r, std::vector<MetricSample>* out);

// ---- framed I/O over a file descriptor ------------------------------------

/// Writes one frame (EncodeFrame layout) to `fd`, handling short writes,
/// EINTR, and EAGAIN/EWOULDBLOCK (nonblocking fds poll for writability, so
/// the call behaves like a blocking write either way). Internal on failure
/// (peer gone).
Status WriteFrameFd(int fd, uint8_t type, std::string_view payload);

/// Reads one frame from `fd` into `frame_buf` (resized), then decodes it.
/// Short reads, EINTR, and EAGAIN/EWOULDBLOCK are handled (nonblocking fds
/// poll for readability between chunks — a TCP segment boundary mid-frame
/// is invisible to the caller). A cleanly closed peer (EOF before any byte)
/// returns FailedPrecondition with "closed" in the message so servers can
/// exit their loop quietly.
Status ReadFrameFd(int fd, std::string* frame_buf, uint8_t* type,
                   std::string_view* payload);

/// ReadFrameFd with a deadline over the WHOLE frame: the fd is polled
/// before every chunk with the remaining budget, so a half-open peer that
/// sends a partial frame and stalls is caught by this call's deadline, not
/// left to wedge the caller. Returns DeadlineExceeded("wire: read timed
/// out") — the liveness signal heartbeat probes key off.
Status ReadFrameFdTimeout(int fd, int timeout_ms, std::string* frame_buf,
                          uint8_t* type, std::string_view* payload);

}  // namespace wire
}  // namespace wbs::engine

#endif  // WBS_ENGINE_WIRE_H_
