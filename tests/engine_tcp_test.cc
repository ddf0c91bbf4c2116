// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// The TCP shard transport (src/engine/tcp_transport.h + TcpRemoteBackend):
//
//   * cross-backend equivalence — the self-hosted "tcp" backend must be
//     BIT-IDENTICAL to the in-process backend for all six sketch families
//     on Zipf / planted / churn / rank workloads, over real sockets;
//   * the kReqHello handshake — wrong magic, wrong protocol version, and
//     an unknown session token without a spec are rejected (the last as
//     NotFound, so a restarted daemon surfaces as a dead peer instead of
//     silently serving an empty shard);
//   * exactly-once applies — a replayed kReqApplySeq sequence answers from
//     the cached status without re-applying (epoch does not advance), and
//     the hello reply's last_applied_seq reports the resync cursor; the
//     retired request types 32, 34, 36 and 38 apply nothing and answer
//     InvalidArgument on a connection that keeps serving;
//   * one round trip per shard — a query reads each tcp cell with one
//     conditional snapshot frame, whether or not the cell changed;
//   * transient partition — severed connections reconnect and resync with
//     zero answer divergence, zero accounted loss, and NO topology
//     generation bump (a partition is not a re-home);
//   * kill -9 of a standalone engine_shardd — heartbeat supervision (PR 7)
//     declares the shard dead via fast-failing refused probes, post-kill
//     batches are dropped with exact accounting, and RecoverShard re-homes
//     from the pre-kill checkpoint with updates_lost_total equal to
//     exactly the updates submitted after the kill. Gated on WBS_SHARDD
//     (CMake points it at the engine_shardd binary).

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "engine/backend.h"
#include "engine/client.h"
#include "engine/remote_backend.h"
#include "engine/tcp_transport.h"
#include "engine/wire.h"
#include "stream/workload.h"

#include "engine_test_util.h"

namespace wbs::engine {
namespace {

SketchConfig TestConfig(uint64_t universe, uint64_t seed) {
  return SketchConfig{}.WithUniverse(universe).WithSeed(seed);
}

stream::TurnstileStream ZipfTurnstile(uint64_t universe, size_t n,
                                      uint64_t seed) {
  wbs::RandomTape tape(seed);
  tape.set_logging(false);
  auto items = stream::ZipfStream(universe, n, 1.2, &tape);
  stream::TurnstileStream s;
  s.reserve(items.size());
  for (const auto& u : items) s.push_back({u.item, 1});
  return s;
}

// ------------------------------------------------- cross-backend equality --

/// Replays `s` through an in-process client and a self-hosted TCP client
/// (every shard behind a real localhost socket) and requires bit-identical
/// merged answers, per-shard live summaries, and space accounting.
void CheckTcpAgreesWithInProcess(const stream::TurnstileStream& s,
                                 const SketchConfig& cfg,
                                 const std::vector<std::string>& sketches,
                                 size_t shards, size_t threads) {
  auto inprocess =
      MakeClient(sketches, cfg, shards, threads, InProcessBackendFactory());
  auto tcp = MakeClient(sketches, cfg, shards, threads, TcpBackendFactory());
  // Tcp cells report channel and dialer counters; in-process cells neither.
  const MetricsSnapshot tcp_metrics = tcp->Metrics();
  EXPECT_NE(tcp_metrics.Find("engine.shard.0.wire.frames_out_total"), nullptr);
  EXPECT_NE(tcp_metrics.Find("engine.shard.0.tcp.reconnects_total"), nullptr);
  const MetricsSnapshot inprocess_metrics = inprocess->Metrics();
  EXPECT_EQ(inprocess_metrics.Find("engine.shard.0.wire.frames_out_total"),
            nullptr);
  EXPECT_EQ(inprocess_metrics.Find("engine.shard.0.tcp.reconnects_total"),
            nullptr);

  // Opt out of env-injected replay ops (WBS_ENGINE_TOPOLOGY /
  // WBS_ENGINE_CRASH): this harness asserts bit-identical equality BETWEEN
  // the two backends, and a crash drill is asymmetric by design — it fires
  // on the tcp client but is Unimplemented for in-process placements — so
  // an injected op would make the two replays diverge rather than exercise
  // anything. Injection coverage for these workloads lives in the
  // dedicated churn and failover suites.
  ASSERT_TRUE(Replay(inprocess.get(), s, 1024, ReplayChurn::kDisabled).ok());
  ASSERT_TRUE(Replay(tcp.get(), s, 1024, ReplayChurn::kDisabled).ok());
  ASSERT_TRUE(inprocess->Finish().ok());
  ASSERT_TRUE(tcp->Finish().ok());

  for (const std::string& name : sketches) {
    auto h_in = inprocess->Handle(name);
    auto h_tc = tcp->Handle(name);
    ASSERT_TRUE(h_in.ok() && h_tc.ok()) << name;
    auto want = inprocess->RawSummary(h_in.value());
    auto got = tcp->RawSummary(h_tc.value());
    ASSERT_TRUE(want.ok()) << name << ": " << want.status().ToString();
    ASSERT_TRUE(got.ok()) << name << ": " << got.status().ToString();
    EXPECT_EQ(got.value().scalar, want.value().scalar) << name;
    EXPECT_EQ(got.value().has_scalar, want.value().has_scalar) << name;
    EXPECT_EQ(got.value().updates, want.value().updates) << name;
    ASSERT_EQ(got.value().items.size(), want.value().items.size()) << name;
    for (size_t i = 0; i < got.value().items.size(); ++i) {
      EXPECT_EQ(got.value().items[i].item, want.value().items[i].item)
          << name;
      EXPECT_EQ(got.value().items[i].estimate, want.value().items[i].estimate)
          << name;
    }
    for (size_t shard = 0; shard < shards; ++shard) {
      auto shard_want = inprocess->ShardSummary(shard, name);
      auto shard_got = tcp->ShardSummary(shard, name);
      ASSERT_TRUE(shard_want.ok() && shard_got.ok()) << name << "@" << shard;
      EXPECT_EQ(shard_got.value().scalar, shard_want.value().scalar)
          << name << "@" << shard;
      EXPECT_EQ(shard_got.value().updates, shard_want.value().updates)
          << name << "@" << shard;
      ASSERT_EQ(shard_got.value().items.size(),
                shard_want.value().items.size())
          << name << "@" << shard;
      for (size_t i = 0; i < shard_got.value().items.size(); ++i) {
        EXPECT_EQ(shard_got.value().items[i].item,
                  shard_want.value().items[i].item);
        EXPECT_EQ(shard_got.value().items[i].estimate,
                  shard_want.value().items[i].estimate);
      }
    }
  }
  EXPECT_EQ(tcp->SpaceBits(), inprocess->SpaceBits());
}

TEST(TcpEquivalenceTest, ZipfAllFamilies) {
  const uint64_t universe = 1 << 12;
  CheckTcpAgreesWithInProcess(
      ZipfTurnstile(universe, 30000, 71), TestConfig(universe, 21),
      {"misra_gries", "ams_f2", "sis_l0", "robust_hh", "crhf_hh"}, 4, 2);
}

TEST(TcpEquivalenceTest, PlantedHeavyHitters) {
  const uint64_t universe = 1 << 16;
  wbs::RandomTape tape(72);
  tape.set_logging(false);
  std::vector<uint64_t> planted;
  auto items = stream::PlantedHeavyHitterStream(universe, 30000, 3, 0.2,
                                                &tape, &planted);
  stream::TurnstileStream s;
  s.reserve(items.size());
  for (const auto& u : items) s.push_back({u.item, 1});
  CheckTcpAgreesWithInProcess(s, TestConfig(universe, 22),
                              {"misra_gries", "robust_hh", "crhf_hh"}, 4, 2);
}

TEST(TcpEquivalenceTest, ChurnLinearFamilies) {
  const uint64_t universe = 1 << 12;
  wbs::RandomTape tape(73);
  tape.set_logging(false);
  auto s = stream::InsertDeleteChurnStream(universe, 120, 2500, &tape);
  CheckTcpAgreesWithInProcess(s, TestConfig(universe, 23),
                              {"ams_f2", "sis_l0"}, 4, 2);
}

TEST(TcpEquivalenceTest, RankDecision) {
  SketchConfig cfg = TestConfig(1, 24);
  cfg.rank.n = 32;
  cfg.rank.k = 8;
  stream::TurnstileStream diag;
  for (size_t i = 0; i < 8; ++i) {
    diag.push_back({uint64_t(i) * cfg.rank.n + i, 1});
  }
  CheckTcpAgreesWithInProcess(diag, cfg, {"rank_decision"}, 2, 1);
}

// ----------------------------------------------------- handshake contract --

/// Builds a raw hello payload field by field (so tests can corrupt any of
/// them without EncodeHello's help).
std::string RawHello(uint32_t magic, uint8_t version, uint64_t token,
                     bool has_spec, const TcpShardSpec* spec = nullptr) {
  wire::Writer w;
  w.U32(magic);
  w.U8(version);
  w.U8(0);  // data channel
  w.U64(token);
  w.U64(0);  // shard id
  w.U8(has_spec ? 1 : 0);
  if (has_spec) EncodeShardSpec(*spec, &w);
  return w.Take();
}

/// Dials `port`, sends one frame, and decodes the reply's leading Status.
Status OneShot(uint16_t port, uint8_t type, std::string_view payload) {
  auto fd = TcpConnectFd("127.0.0.1", port, /*timeout_ms=*/2000);
  if (!fd.ok()) return fd.status();
  Status s = wire::WriteFrameFd(fd.value(), type, payload);
  std::string buf;
  uint8_t resp_type = 0;
  std::string_view resp;
  if (s.ok()) {
    s = wire::ReadFrameFdTimeout(fd.value(), 5000, &buf, &resp_type, &resp);
  }
  Status decoded;
  if (s.ok()) {
    wire::Reader r(resp);
    s = wire::DecodeStatus(&r, &decoded);
  }
  close(fd.value());
  if (!s.ok()) return s;
  return decoded;
}

TcpShardSpec OneSketchSpec(uint64_t universe, uint64_t seed) {
  TcpShardSpec spec;
  spec.sketches = {"misra_gries"};
  spec.config = TestConfig(universe, seed);
  spec.snapshot_min_updates = 0;  // publish every batch: epoch counts applies
  return spec;
}

TEST(TcpHandshakeTest, WrongMagicRejected) {
  auto host = TcpShardHost::Start({});
  ASSERT_TRUE(host.ok()) << host.status().ToString();
  Status s = OneShot(host.value()->port(), wire::kReqHello,
                     RawHello(0xDEADBEEF, kTcpProtocolVersion, 1, false));
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.ToString().find("magic"), std::string::npos) << s.ToString();
  EXPECT_EQ(host.value()->sessions(), 0u);
}

TEST(TcpHandshakeTest, WrongProtocolVersionRejected) {
  auto host = TcpShardHost::Start({});
  ASSERT_TRUE(host.ok()) << host.status().ToString();
  Status s = OneShot(host.value()->port(), wire::kReqHello,
                     RawHello(kTcpMagic, kTcpProtocolVersion + 1, 1, false));
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.ToString().find("version"), std::string::npos) << s.ToString();
  EXPECT_EQ(host.value()->sessions(), 0u);
}

TEST(TcpHandshakeTest, UnknownTokenWithoutSpecIsNotFound) {
  auto host = TcpShardHost::Start({});
  ASSERT_TRUE(host.ok()) << host.status().ToString();
  Status s =
      OneShot(host.value()->port(), wire::kReqHello,
              RawHello(kTcpMagic, kTcpProtocolVersion, 0x5EED5EED, false));
  EXPECT_EQ(s.code(), Status::Code::kNotFound) << s.ToString();
  EXPECT_EQ(host.value()->sessions(), 0u);
}

TEST(TcpHandshakeTest, RequestBeforeHelloRejected) {
  auto host = TcpShardHost::Start({});
  ASSERT_TRUE(host.ok()) << host.status().ToString();
  wire::Writer w;
  w.U32(0);  // sketch
  w.U64(0);  // newer_than
  Status s = OneShot(host.value()->port(), wire::kReqSnapshot, w.data());
  EXPECT_EQ(s.code(), Status::Code::kFailedPrecondition) << s.ToString();
}

TEST(TcpHandshakeTest, RestartedHostRejectsStaleSession) {
  auto first = TcpShardHost::Start({});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const uint16_t port = first.value()->port();
  const uint64_t token = 0xABCD1234;

  TcpShardSpec spec = OneSketchSpec(1 << 10, 31);
  Status s = OneShot(port, wire::kReqHello,
                     RawHello(kTcpMagic, kTcpProtocolVersion, token, true,
                              &spec));
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(first.value()->sessions(), 1u);

  // Simulate a daemon restart on the same endpoint: the session table is
  // gone. A reconnecting dialer never re-sends its spec, so it must get
  // NotFound (dead peer -> re-home), never a silently empty shard.
  first.value()->Stop();
  first.value().reset();
  auto second = TcpShardHost::Start({.bind_host = "127.0.0.1", .port = port});
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  s = OneShot(port, wire::kReqHello,
              RawHello(kTcpMagic, kTcpProtocolVersion, token, false));
  EXPECT_EQ(s.code(), Status::Code::kNotFound) << s.ToString();
}

TEST(TcpHandshakeTest, HostileSpecRejectedWithoutASession) {
  // A spec no family can serve comes back as its Status before the host
  // builds a cell: ams_f2 rows above any vector's max_size(), and an sis_l0
  // chunking exponent outside (0, 1). The host keeps serving after both.
  auto host = TcpShardHost::Start({});
  ASSERT_TRUE(host.ok()) << host.status().ToString();
  const uint16_t port = host.value()->port();
  TcpShardSpec rows = OneSketchSpec(1 << 10, 51);
  rows.sketches = {"ams_f2"};
  rows.config.ams.rows = size_t{1} << 62;
  TcpShardSpec eps = OneSketchSpec(1 << 10, 52);
  eps.sketches = {"sis_l0"};
  eps.config.sis_l0.eps = 1.5;
  uint64_t token = 0x4057113;
  for (const TcpShardSpec* spec : {&rows, &eps}) {
    Status s = OneShot(port, wire::kReqHello,
                       RawHello(kTcpMagic, kTcpProtocolVersion, ++token, true,
                                spec));
    EXPECT_EQ(s.code(), Status::Code::kInvalidArgument) << s.ToString();
    EXPECT_EQ(host.value()->sessions(), 0u);
  }
  TcpShardSpec valid = OneSketchSpec(1 << 10, 53);
  Status s = OneShot(port, wire::kReqHello,
                     RawHello(kTcpMagic, kTcpProtocolVersion, ++token, true,
                              &valid));
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(host.value()->sessions(), 1u);
}

// ------------------------------------------------------ exactly-once applies

/// One established raw client connection: hello already exchanged.
struct RawConn {
  int fd = -1;
  uint64_t last_applied_seq = 0;  ///< the hello reply's resync cursor

  ~RawConn() {
    if (fd >= 0) close(fd);
  }
};

Status DialHello(uint16_t port, uint64_t token, bool has_spec,
                 const TcpShardSpec* spec, RawConn* out) {
  auto fd = TcpConnectFd("127.0.0.1", port, 2000);
  if (!fd.ok()) return fd.status();
  out->fd = fd.value();
  Status s = wire::WriteFrameFd(
      out->fd, wire::kReqHello,
      RawHello(kTcpMagic, kTcpProtocolVersion, token, has_spec, spec));
  std::string buf;
  uint8_t type = 0;
  std::string_view resp;
  if (s.ok()) s = wire::ReadFrameFdTimeout(out->fd, 5000, &buf, &type, &resp);
  if (!s.ok()) return s;
  wire::Reader r(resp);
  Status remote;
  if (Status ds = wire::DecodeStatus(&r, &remote); !ds.ok()) return ds;
  if (!remote.ok()) return remote;
  if (Status ds = r.U64(&out->last_applied_seq); !ds.ok()) return ds;
  return r.ExpectEnd();
}

/// Sends one request frame on an established connection and decodes the
/// reply's leading Status. After an OK Status, `decode` (if given) reads
/// the request-specific data, and the reply must end there.
Status RawRequest(int fd, uint8_t type, std::string_view payload,
                  const std::function<Status(wire::Reader&)>& decode = {}) {
  Status s = wire::WriteFrameFd(fd, type, payload);
  std::string buf;
  uint8_t resp_type = 0;
  std::string_view resp;
  if (s.ok()) s = wire::ReadFrameFdTimeout(fd, 5000, &buf, &resp_type, &resp);
  if (!s.ok()) return s;
  wire::Reader r(resp);
  Status remote;
  if (Status ds = wire::DecodeStatus(&r, &remote); !ds.ok()) return ds;
  if (!remote.ok()) return remote;
  if (decode) {
    if (Status ds = decode(r); !ds.ok()) return ds;
  }
  return r.ExpectEnd();
}

/// Sends one kReqApplySeq frame; the OK reply carries nothing else.
Status ApplySeq(int fd, uint64_t seq, const stream::TurnstileStream& batch) {
  wire::Writer w;
  w.U64(seq);
  wire::EncodeUpdates(batch.data(), batch.size(), &w);
  return RawRequest(fd, wire::kReqApplySeq, w.data());
}

/// The session's epoch, read as a dialer reads it: a kReqSnapshot that
/// wants nothing newer than UINT64_MAX answers the epoch and no state.
Result<uint64_t> ReadEpoch(int fd) {
  wire::Writer w;
  w.U32(0);
  w.U64(std::numeric_limits<uint64_t>::max());
  uint64_t epoch = 0;
  std::string state;
  Status s = RawRequest(fd, wire::kReqSnapshot, w.data(),
                        [&](wire::Reader& r) {
                          Status se = r.U64(&epoch);
                          return se.ok() ? r.Str(&state) : se;
                        });
  if (!s.ok()) return s;
  if (!state.empty()) return Status::Internal("epoch-only read sent state");
  return epoch;
}

TEST(TcpExactlyOnceTest, ReplayedSequenceIsNotReapplied) {
  auto host = TcpShardHost::Start({});
  ASSERT_TRUE(host.ok()) << host.status().ToString();
  const uint16_t port = host.value()->port();
  const uint64_t token = 0x10CA1;
  TcpShardSpec spec = OneSketchSpec(1 << 10, 33);

  RawConn conn;
  ASSERT_TRUE(DialHello(port, token, true, &spec, &conn).ok());
  EXPECT_EQ(conn.last_applied_seq, 0u);
  auto e0 = ReadEpoch(conn.fd);
  ASSERT_TRUE(e0.ok()) << e0.status().ToString();
  EXPECT_EQ(e0.value(), 0u);

  // With snapshot_min_updates = 0 every applied batch publishes a snapshot,
  // so the epoch is an exact count of APPLIED batches.
  stream::TurnstileStream batch = {{5, 3}, {9, 1}};
  Status applied = ApplySeq(conn.fd, 1, batch);
  ASSERT_TRUE(applied.ok()) << applied.ToString();
  auto e1 = ReadEpoch(conn.fd);
  ASSERT_TRUE(e1.ok()) << e1.status().ToString();
  EXPECT_EQ(e1.value(), 1u);

  // The replayed sequence is ACKed from the cached status without touching
  // the cell: the epoch must NOT advance (a re-apply would double-count).
  Status replay = ApplySeq(conn.fd, 1, batch);
  ASSERT_TRUE(replay.ok()) << replay.ToString();
  auto after_replay = ReadEpoch(conn.fd);
  ASSERT_TRUE(after_replay.ok()) << after_replay.status().ToString();
  EXPECT_EQ(after_replay.value(), 1u);

  applied = ApplySeq(conn.fd, 2, batch);
  ASSERT_TRUE(applied.ok()) << applied.ToString();
  auto e2 = ReadEpoch(conn.fd);
  ASSERT_TRUE(e2.ok()) << e2.status().ToString();
  EXPECT_EQ(e2.value(), 2u);

  // A reconnect (same token, NO spec) resyncs: the hello reply reports the
  // apply cursor so the dialer knows which in-flight batch already landed.
  RawConn re;
  ASSERT_TRUE(DialHello(port, token, false, nullptr, &re).ok());
  EXPECT_EQ(re.last_applied_seq, 2u);
  auto re_epoch = ReadEpoch(re.fd);
  ASSERT_TRUE(re_epoch.ok()) << re_epoch.status().ToString();
  EXPECT_EQ(re_epoch.value(), 2u);
  EXPECT_EQ(host.value()->sessions(), 1u);
}

// Frame types 32 (an unsequenced apply), 34 (an epoch read), 36 (a live
// summary read) and 38 (a shutdown request) are retired. A host answers
// them like any unknown type — InvalidArgument, nothing applied — and the
// connection keeps serving.
TEST(TcpExactlyOnceTest, RetiredRequestTypesAreRejected) {
  auto host = TcpShardHost::Start({});
  ASSERT_TRUE(host.ok()) << host.status().ToString();
  TcpShardSpec spec = OneSketchSpec(1 << 10, 34);
  RawConn conn;
  ASSERT_TRUE(DialHello(host.value()->port(), 0x7E71, true, &spec, &conn).ok());

  // A well-formed update batch: were type 32 still an apply, it would
  // publish epoch 1 (snapshot_min_updates = 0).
  const stream::TurnstileStream batch = {{5, 3}, {9, 1}};
  wire::Writer w;
  wire::EncodeUpdates(batch.data(), batch.size(), &w);
  for (uint8_t retired :
       {uint8_t(32), uint8_t(34), uint8_t(36), uint8_t(38)}) {
    Status s = RawRequest(conn.fd, retired, w.data());
    EXPECT_EQ(s.code(), Status::Code::kInvalidArgument)
        << "type " << int(retired) << ": " << s.ToString();
  }
  auto epoch = ReadEpoch(conn.fd);
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(epoch.value(), 0u);
}

// --------------------------------------------------- transient partitions --

std::unique_ptr<Client> MakeTcpClient(std::vector<std::string> sketches,
                                      const SketchConfig& cfg, size_t shards,
                                      size_t threads,
                                      const FailoverOptions& failover = {},
                                      BackendFactory backend = {}) {
  ClientOptions opts;
  opts.ingest.num_shards = shards;
  opts.ingest.num_threads = threads;
  opts.ingest.sketches = std::move(sketches);
  opts.ingest.config = cfg;
  opts.ingest.backend =
      backend ? std::move(backend) : TcpBackendFactory();
  opts.ingest.failover = failover;
  auto client = Client::Create(opts);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(client).value();
}

TEST(TcpPartitionTest, TransientPartitionResyncsWithoutRehome) {
  const uint64_t universe = 1 << 12;
  const std::vector<std::string> sketches = {"misra_gries", "ams_f2",
                                             "sis_l0"};
  const SketchConfig cfg = TestConfig(universe, 25);
  const size_t shards = 2;
  auto s = ZipfTurnstile(universe, 20000, 75);
  const stream::TurnstileStream head(s.begin(), s.begin() + s.size() / 2);
  const stream::TurnstileStream tail(s.begin() + s.size() / 2, s.end());

  // Same batch boundaries as the partitioned client: Misra-Gries
  // pre-aggregates per batch, so boundaries are part of the answer.
  auto reference =
      MakeClient(sketches, cfg, shards, 2, InProcessBackendFactory());
  ASSERT_TRUE(
      Replay(reference.get(), head, 1024, ReplayChurn::kDisabled).ok());
  ASSERT_TRUE(
      Replay(reference.get(), tail, 1024, ReplayChurn::kDisabled).ok());
  ASSERT_TRUE(reference->Finish().ok());

  auto tcp = MakeTcpClient(sketches, cfg, shards, 2);
  ASSERT_TRUE(Replay(tcp.get(), head, 1024, ReplayChurn::kDisabled).ok());
  ASSERT_TRUE(tcp->Flush().ok());
  const uint64_t gen_before = tcp->Topology().generation;

  // Sever every shard's live connections. Sessions survive on the hosts,
  // so the dialers must reconnect + resync transparently inside the next
  // call's deadline — no supervision, no MoveShard, no loss.
  for (size_t shard = 0; shard < shards; ++shard) {
    ASSERT_TRUE(tcp->InjectShardPartition(shard).ok()) << shard;
  }
  ASSERT_TRUE(Replay(tcp.get(), tail, 1024, ReplayChurn::kDisabled).ok());
  ASSERT_TRUE(tcp->Finish().ok());

  // A transient partition is not a re-home: the routing table never moved.
  EXPECT_EQ(tcp->Topology().generation, gen_before);
  for (size_t shard = 0; shard < shards; ++shard) {
    ShardHealthInfo h = tcp->Health(shard);
    EXPECT_EQ(h.health, ShardHealth::kHealthy) << shard;
    EXPECT_EQ(h.dropped_updates, 0u) << shard;
    EXPECT_EQ(h.recoveries, 0u) << shard;
    EXPECT_EQ(h.updates_lost_total, 0u) << shard;
  }

  // Zero answer divergence from the uncontested in-process replay.
  for (const std::string& name : sketches) {
    auto want = reference->RawSummary(reference->Handle(name).value());
    auto got = tcp->RawSummary(tcp->Handle(name).value());
    ASSERT_TRUE(want.ok() && got.ok()) << name;
    EXPECT_EQ(got.value().scalar, want.value().scalar) << name;
    EXPECT_EQ(got.value().updates, want.value().updates) << name;
    ASSERT_EQ(got.value().items.size(), want.value().items.size()) << name;
    for (size_t i = 0; i < got.value().items.size(); ++i) {
      EXPECT_EQ(got.value().items[i].item, want.value().items[i].item);
      EXPECT_EQ(got.value().items[i].estimate, want.value().items[i].estimate);
    }
  }

  // Each shard's dialer redialed at least once, and says so.
  MetricsSnapshot snap = tcp->Metrics();
  for (size_t shard = 0; shard < shards; ++shard) {
    const std::string counter =
        "engine.shard." + std::to_string(shard) + ".tcp.reconnects_total";
    EXPECT_GE(snap.Value(counter), 1u) << counter;
  }
}

// ------------------------------------------------------ one read per shard --

// A query reads each shard with ONE conditional snapshot frame: the reply
// carries the shard's epoch, and its state only when the epoch is newer
// than the cache's. So a cold query, where every shard is newer, costs one
// control frame per shard, and so does a repeat query that finds nothing
// new. Each Metrics() read sends one kReqMetrics frame of its own, counted
// in the sample it returns; the deltas below subtract it.
TEST(TcpRoundTripTest, QueryReadsEachShardWithOneFrame) {
  const uint64_t universe = 1 << 10;
  const size_t kShards = 2;
  auto client = MakeTcpClient({"ams_f2"}, TestConfig(universe, 35), kShards,
                              1, {}, TcpBackendFactory());
  ASSERT_TRUE(SubmitAll(*client, ZipfTurnstile(universe, 4000, 36)).ok());
  ASSERT_TRUE(client->Flush().ok());
  for (size_t shard = 0; shard < kShards; ++shard) {
    ASSERT_GE(client->ShardEpoch(shard), 1u) << "shard " << shard;
  }
  auto frames_out = [](const MetricsSnapshot& m, size_t shard) {
    return m.Value("engine.shard." + std::to_string(shard) +
                   ".wire.frames_out_total");
  };
  const auto handle = client->Handle("ams_f2").value();
  for (const char* query : {"cold", "repeat"}) {
    const MetricsSnapshot before = client->Metrics();
    auto scalar = client->QueryScalar(handle);
    ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
    const MetricsSnapshot after = client->Metrics();
    for (size_t shard = 0; shard < kShards; ++shard) {
      const uint64_t metrics_read = 1;  // `after`'s own kReqMetrics frame
      EXPECT_EQ(frames_out(after, shard) - frames_out(before, shard),
                metrics_read + 1)
          << query << " query, shard " << shard;
    }
  }
  ASSERT_TRUE(client->Finish().ok());
}

// ------------------------------------------------------------ placement --

// Topology-op cells follow the "shard i on endpoint i mod n" rule: the two
// shards AddShards creates (ids 2 and 3) land one on each endpoint.
TEST(TcpPlacementTest, AddedShardsSpreadAcrossEndpoints) {
  auto a = TcpShardHost::Start({});
  auto b = TcpShardHost::Start({});
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  auto client = MakeClient({"ams_f2"}, TestConfig(1 << 10, 91), 2, 1,
                           InProcessBackendFactory());
  TcpBackendOptions topts;
  topts.endpoints = {a.value()->endpoint(), b.value()->endpoint()};
  ASSERT_TRUE(client->AddShards(2, TcpBackendFactory(topts)).ok());
  ASSERT_TRUE(SubmitAll(*client, ZipfTurnstile(1 << 10, 4000, 92)).ok());
  ASSERT_TRUE(client->Flush().ok());
  EXPECT_EQ(a.value()->sessions(), 1u);
  EXPECT_EQ(b.value()->sessions(), 1u);
  ASSERT_TRUE(client->Finish().ok());
}

// Per-host failure domain: both shards live on one host, so the first
// missed heartbeat implicates the other shard too ("host_suspect") instead
// of waiting for its own probe. Death is out of reach (dead_after_misses),
// so the verdicts stay at kSuspect.
TEST(TcpPlacementTest, HostCrashSuspectsEveryShardOnTheHost) {
  auto host = TcpShardHost::Start({});
  ASSERT_TRUE(host.ok()) << host.status().ToString();
  auto factory = BackendFactoryByName("tcp:" + host.value()->endpoint());
  ASSERT_TRUE(factory.ok()) << factory.status().ToString();
  FailoverOptions failover;
  failover.heartbeat_interval_ms = 10;
  failover.heartbeat_timeout_ms = 1000;
  failover.dead_after_misses = 1000000;
  failover.auto_recover = false;
  auto client = MakeTcpClient({"ams_f2"}, TestConfig(1 << 10, 93), 2, 1,
                              failover, std::move(factory).value());
  ASSERT_TRUE(SubmitAll(*client, ZipfTurnstile(1 << 10, 2000, 94)).ok());
  ASSERT_TRUE(client->Flush().ok());
  ASSERT_EQ(host.value()->sessions(), 2u);

  host.value()->CrashNow();
  auto suspected = [&] {
    bool span = false;
    for (const TraceSpan& s : client->TraceSpans()) {
      span |= s.name == "host_suspect";
    }
    return span && client->Health(0).health != ShardHealth::kHealthy &&
           client->Health(1).health != ShardHealth::kHealthy;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!suspected() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(suspected()) << "no host_suspect verdict within 5 s";
  ASSERT_TRUE(client->Finish().ok());
}

// ------------------------------------------------- kill -9 daemon recovery --

struct DaemonProc {
  pid_t pid = -1;
  uint16_t port = 0;
};

/// Spawns `binary --port=0` with stdout piped and blocks on the daemon's
/// "LISTENING <port>" line.
bool SpawnDaemon(const char* binary, DaemonProc* out) {
  int pfd[2];
  if (pipe(pfd) != 0) return false;
  pid_t pid = fork();
  if (pid < 0) {
    close(pfd[0]);
    close(pfd[1]);
    return false;
  }
  if (pid == 0) {
    dup2(pfd[1], STDOUT_FILENO);
    close(pfd[0]);
    close(pfd[1]);
    execl(binary, binary, "--port=0", static_cast<char*>(nullptr));
    _exit(127);
  }
  close(pfd[1]);
  std::string line;
  char c;
  while (read(pfd[0], &c, 1) == 1 && c != '\n') line.push_back(c);
  close(pfd[0]);
  unsigned port = 0;
  if (std::sscanf(line.c_str(), "LISTENING %u", &port) != 1 || port == 0 ||
      port > 65535) {
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
    return false;
  }
  out->pid = pid;
  out->port = uint16_t(port);
  return true;
}

TEST(TcpDaemonTest, Kill9RecoversFromCheckpointWithExactLoss) {
  const char* shardd = std::getenv("WBS_SHARDD");
  if (shardd == nullptr) {
    GTEST_SKIP() << "WBS_SHARDD not set (ctest sets it to engine_shardd)";
  }
  DaemonProc daemon;
  ASSERT_TRUE(SpawnDaemon(shardd, &daemon)) << "engine_shardd did not start";

  const uint64_t universe = 1 << 10;
  const std::vector<std::string> sketches = {"misra_gries", "ams_f2"};
  const SketchConfig cfg = TestConfig(universe, 29);
  auto s = ZipfTurnstile(universe, 6000, 79);
  const stream::TurnstileStream prefix(s.begin(), s.begin() + 4096);
  const stream::TurnstileStream post(s.begin() + 4096, s.end());

  // The reference saw ONLY the checkpointed prefix: recovery must restore
  // exactly that state, nothing more, nothing less.
  auto reference =
      MakeClient(sketches, cfg, /*shards=*/1, /*threads=*/1,
                 InProcessBackendFactory());
  ASSERT_TRUE(Replay(reference.get(), prefix, 1024,
                     ReplayChurn::kDisabled).ok());
  ASSERT_TRUE(reference->Finish().ok());

  auto factory = BackendFactoryByName(
      "tcp:127.0.0.1:" + std::to_string(daemon.port));
  ASSERT_TRUE(factory.ok()) << factory.status().ToString();
  // Heartbeat supervision on, auto-recovery OFF: the kill is detected by
  // the supervisor, but the re-home happens at a barrier WE choose, so the
  // post-kill drop count is deterministic. The timeout is generous because
  // dead-daemon detection does not depend on it — probes against a killed
  // listener fast-fail with ECONNREFUSED — while a tight timeout could
  // declare a merely-slow daemon dead on sanitizer builds.
  FailoverOptions failover;
  failover.heartbeat_interval_ms = 25;
  failover.heartbeat_timeout_ms = 2000;
  failover.auto_recover = false;
  auto tcp = MakeTcpClient(sketches, cfg, /*shards=*/1, /*threads=*/1,
                           failover, std::move(factory).value());
  ASSERT_TRUE(Replay(tcp.get(), prefix, 1024, ReplayChurn::kDisabled).ok());
  ASSERT_TRUE(tcp->Flush().ok());
  ASSERT_TRUE(tcp->Checkpoint().ok());
  const uint64_t gen_before = tcp->Topology().generation;
  // The exact-loss assertions below are meaningless if the shard degraded
  // during the prefix (only possible if supervision misfired on a healthy
  // daemon) — catch that case here, where the diagnosis is unambiguous.
  ASSERT_EQ(tcp->Health(0).health, ShardHealth::kHealthy);
  ASSERT_EQ(tcp->Health(0).dropped_updates, 0u);

  ASSERT_EQ(kill(daemon.pid, SIGKILL), 0);
  ASSERT_EQ(waitpid(daemon.pid, nullptr, 0), daemon.pid);

  // Refused probes fast-fail (the listener died with the process), so the
  // supervisor converges on kDead in a few heartbeat periods.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (tcp->Health(0).health != ShardHealth::kDead &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(tcp->Health(0).health, ShardHealth::kDead);

  // Everything submitted after the kill is dropped — with a receipt.
  auto ticket = SubmitAll(*tcp, post);
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  ASSERT_TRUE(tcp->Wait(ticket.value()).ok());
  EXPECT_EQ(tcp->Health(0).dropped_updates, post.size());

  // Re-home from the pre-kill checkpoint (default in-process placement).
  ASSERT_TRUE(tcp->RecoverShard(0).ok());
  ShardHealthInfo h = tcp->Health(0);
  EXPECT_EQ(h.health, ShardHealth::kHealthy);
  EXPECT_EQ(h.recoveries, 1u);
  // EXACT loss accounting: the checkpoint was cut after the full prefix
  // was acked and nothing else was acked before the kill, so the loss is
  // precisely the post-kill submissions.
  EXPECT_EQ(h.updates_lost_total, post.size());
  EXPECT_GT(tcp->Topology().generation, gen_before);

  ASSERT_TRUE(tcp->Finish().ok());
  for (const std::string& name : sketches) {
    auto want = reference->RawSummary(reference->Handle(name).value());
    auto got = tcp->RawSummary(tcp->Handle(name).value());
    ASSERT_TRUE(want.ok() && got.ok()) << name;
    EXPECT_EQ(got.value().scalar, want.value().scalar) << name;
    EXPECT_EQ(got.value().has_scalar, want.value().has_scalar) << name;
    EXPECT_EQ(got.value().updates, want.value().updates) << name;
    ASSERT_EQ(got.value().items.size(), want.value().items.size()) << name;
    for (size_t i = 0; i < got.value().items.size(); ++i) {
      EXPECT_EQ(got.value().items[i].item, want.value().items[i].item);
      EXPECT_EQ(got.value().items[i].estimate, want.value().items[i].estimate);
    }
  }
}

}  // namespace
}  // namespace wbs::engine
