// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// Shared helpers for the engine test suites: Client construction with
// EXPECT-checked creation (and an environment-selected shard backend, so CI
// can run every engine suite once per backend — inprocess, tcp, or mixed
// placement), whole-vector forms of the pointer + count submit verbs, and
// materialized-stream replay through the ticketed Submit surface.
//
// Topology churn mode: WBS_ENGINE_TOPOLOGY=churn makes every multi-batch
// Replay() perform a live MoveShard(0) handoff halfway through the stream.
// Every suite must still pass — the handoff transfers serialized state
// exactly, so answers are preserved (custom sketches without a wire format
// surface Unimplemented, which churn mode treats as "skip the move").
//
// Crash replay mode: WBS_ENGINE_CRASH=replay makes every multi-batch
// Replay() run a FailoverDrill(0) — checkpoint, crash injection, and
// MoveShard-based recovery at one barrier — three quarters of the way
// through the stream, with heartbeat supervision enabled on every client.
// The drill is provably loss-free, so every suite's answers must still be
// exact (in-process placements cannot crash; the drill's Unimplemented is
// treated as "skip", mirroring churn mode).

#ifndef WBS_TESTS_ENGINE_TEST_UTIL_H_
#define WBS_TESTS_ENGINE_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/client.h"
#include "engine/remote_backend.h"
#include "stream/updates.h"

namespace wbs::engine {

/// The backend the suite runs against by default: WBS_ENGINE_BACKEND=
/// inprocess (default) | mixed | tcp — any name BackendFactoryByName
/// accepts. CI sets the variable to run the engine suites once per
/// backend; a bad value fails loudly instead of silently testing the
/// default.
inline BackendFactory BackendFactoryFromEnv() {
  const char* env = std::getenv("WBS_ENGINE_BACKEND");
  auto factory = BackendFactoryByName(env == nullptr ? "" : env);
  EXPECT_TRUE(factory.ok()) << factory.status().ToString();
  return factory.ok() ? std::move(factory).value() : BackendFactory{};
}

/// Whether WBS_ENGINE_CRASH=replay is active (CI runs the engine suites
/// once with it against the tcp backend, so every test path also survives
/// a checkpoint + crash + recovery cycle). Any other value is ignored.
inline bool CrashReplayEnabled() {
  const char* env = std::getenv("WBS_ENGINE_CRASH");
  return env != nullptr && std::string(env) == "replay";
}

/// `backend` overrides the environment selection (used by the explicit
/// cross-backend equivalence suites); leave empty to follow the env var.
inline std::unique_ptr<Client> MakeClient(std::vector<std::string> sketches,
                                          const SketchConfig& cfg,
                                          size_t shards, size_t threads,
                                          BackendFactory backend = {}) {
  ClientOptions opts;
  opts.ingest.num_shards = shards;
  opts.ingest.num_threads = threads;
  opts.ingest.sketches = std::move(sketches);
  opts.ingest.config = cfg;
  opts.ingest.backend =
      backend ? std::move(backend) : BackendFactoryFromEnv();
  if (CrashReplayEnabled()) {
    // Supervision on everywhere in crash-replay mode: shard failures must
    // degrade (drop + recover) rather than poison, and the supervisor's
    // probes must never perturb a healthy run's answers.
    opts.ingest.failover.heartbeat_interval_ms = 20;
    opts.ingest.failover.heartbeat_timeout_ms = 100;
  }
  auto client = Client::Create(opts);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(client).value();
}

/// Submits all of `s` as one batch (Client::Submit takes pointer + count).
inline Result<IngestTicket> SubmitAll(Client& client,
                                      const stream::TurnstileStream& s,
                                      ProducerSession session = {}) {
  return client.Submit(s.data(), s.size(), session);
}

/// TrySubmit form of SubmitAll.
inline Result<IngestTicket> TrySubmitAll(Client& client,
                                         const stream::TurnstileStream& s,
                                         ProducerSession session = {}) {
  return client.TrySubmit(s.data(), s.size(), session);
}

/// Whether WBS_ENGINE_TOPOLOGY=churn is active (CI runs the engine suites
/// once with it, so every test path also survives a mid-stream handoff).
inline bool TopologyChurnEnabled() {
  const char* env = std::getenv("WBS_ENGINE_TOPOLOGY");
  return env != nullptr && std::string(env) == "churn";
}

/// Tests whose assertions are incompatible with an injected topology op
/// (e.g. they pin the snapshot throttle's "nothing published yet" state,
/// which a handoff's publish would break) opt out explicitly.
enum class ReplayChurn { kAuto, kDisabled };

/// The churn-mode injection: a live handoff of shard 0 into a fresh
/// in-process cell at a deterministic batch boundary. Unimplemented means
/// a configured sketch has no wire format — the move is skipped, matching
/// the engine's own behavior (topology unchanged on failure).
inline Status MaybeChurnTopology(Client* client) {
  Status s = client->MoveShard(0, InProcessBackendFactory());
  if (!s.ok() && s.code() != Status::Code::kUnimplemented) return s;
  return Status::OK();
}

/// The crash-replay injection: one loss-free FailoverDrill of shard 0
/// (checkpoint + crash + recover at a single barrier), re-homing into the
/// env-selected backend so placement stays homogeneous. Unimplemented means
/// the placement cannot crash (in-process) — skipped, like churn mode.
inline Status MaybeCrashShard(Client* client) {
  Status s = client->FailoverDrill(0, /*torn=*/false, BackendFactoryFromEnv());
  if (!s.ok() && s.code() != Status::Code::kUnimplemented) return s;
  return Status::OK();
}

inline Status Replay(Client* client, const stream::TurnstileStream& s,
                     size_t batch = 1024,
                     ReplayChurn churn = ReplayChurn::kAuto) {
  const size_t batches = s.empty() ? 0 : (s.size() + batch - 1) / batch;
  const bool inject = churn == ReplayChurn::kAuto && batches >= 2 &&
                      TopologyChurnEnabled();
  const bool crash = churn == ReplayChurn::kAuto && batches >= 2 &&
                     CrashReplayEnabled();
  size_t index = 0;
  for (size_t off = 0; off < s.size(); off += batch, ++index) {
    if (inject && index == batches / 2) {
      if (Status cs = MaybeChurnTopology(client); !cs.ok()) return cs;
    }
    if (crash && index == (batches * 3) / 4) {
      if (Status cs = MaybeCrashShard(client); !cs.ok()) return cs;
    }
    auto t = client->Submit(s.data() + off, std::min(batch, s.size() - off));
    if (!t.ok()) return t.status();
  }
  return Status::OK();
}

inline Status Replay(Client* client, const stream::ItemStream& s,
                     size_t batch = 1024,
                     ReplayChurn churn = ReplayChurn::kAuto) {
  const size_t batches = s.empty() ? 0 : (s.size() + batch - 1) / batch;
  const bool inject = churn == ReplayChurn::kAuto && batches >= 2 &&
                      TopologyChurnEnabled();
  const bool crash = churn == ReplayChurn::kAuto && batches >= 2 &&
                     CrashReplayEnabled();
  size_t index = 0;
  for (size_t off = 0; off < s.size(); off += batch, ++index) {
    if (inject && index == batches / 2) {
      if (Status cs = MaybeChurnTopology(client); !cs.ok()) return cs;
    }
    if (crash && index == (batches * 3) / 4) {
      if (Status cs = MaybeCrashShard(client); !cs.ok()) return cs;
    }
    auto t =
        client->SubmitItems(s.data() + off, std::min(batch, s.size() - off));
    if (!t.ok()) return t.status();
  }
  return Status::OK();
}

}  // namespace wbs::engine

#endif  // WBS_TESTS_ENGINE_TEST_UTIL_H_
