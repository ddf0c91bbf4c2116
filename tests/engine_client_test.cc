// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// The typed multi-producer engine API (engine::Client): handle resolution,
// typed query results vs the legacy SketchSummary path (bit-identical on
// Zipf, planted-heavy-hitter and churn workloads), query-kind mismatch
// errors, multi-producer submission matching a single-threaded reference
// bit-for-bit, and IngestTicket Wait/TryWait ordering semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "engine/backend.h"
#include "engine/client.h"
#include "engine/registry.h"
#include "engine/remote_backend.h"
#include "stream/frequency_oracle.h"
#include "stream/workload.h"

#include "engine_test_util.h"

namespace wbs::engine {
namespace {

SketchConfig TestConfig(uint64_t universe, uint64_t seed) {
  return SketchConfig{}.WithUniverse(universe).WithSeed(seed);
}

// ----------------------------------------------------------------- handles --

TEST(ClientHandleTest, ResolvesConfiguredSketches) {
  auto client = MakeClient({"ams_f2", "misra_gries"}, TestConfig(1 << 10, 1),
                           2, 0);
  auto f2 = client->Handle("ams_f2");
  auto mg = client->Handle("misra_gries");
  ASSERT_TRUE(f2.ok() && mg.ok());
  EXPECT_TRUE(f2.value().valid());
  EXPECT_EQ(f2.value().family(), SketchFamily::kScalarEstimate);
  EXPECT_EQ(mg.value().family(), SketchFamily::kHeavyHitter);
}

TEST(ClientHandleTest, UnknownSketchIsNotFound) {
  auto client = MakeClient({"ams_f2"}, TestConfig(1 << 10, 1), 2, 0);
  auto handle = client->Handle("sis_l0");  // registered, but not configured
  EXPECT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), Status::Code::kNotFound);
}

TEST(ClientHandleTest, DefaultHandleRejected) {
  auto client = MakeClient({"ams_f2"}, TestConfig(1 << 10, 1), 2, 0);
  SketchHandle none;
  EXPECT_FALSE(none.valid());
  auto r = client->QueryScalar(none);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument);
}

TEST(ClientHandleTest, ForeignHandleRejected) {
  auto a = MakeClient({"ams_f2"}, TestConfig(1 << 10, 1), 2, 0);
  auto b = MakeClient({"ams_f2"}, TestConfig(1 << 10, 1), 2, 0);
  auto handle = a->Handle("ams_f2");
  ASSERT_TRUE(handle.ok());
  auto r = b->QueryScalar(handle.value());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument);
}

// ---------------------------------------------------------- kind mismatch --

TEST(ClientTypedQueryTest, KindMismatchIsInvalidArgument) {
  auto client = MakeClient(
      {"misra_gries", "ams_f2", "sis_l0", "rank_decision"},
      TestConfig(1 << 10, 3), 2, 0);
  auto mg = client->Handle("misra_gries").value();
  auto f2 = client->Handle("ams_f2").value();
  auto l0 = client->Handle("sis_l0").value();
  auto rank = client->Handle("rank_decision").value();

  // Heavy-hitter sketches answer point/top-k, nothing else.
  EXPECT_EQ(client->QueryScalar(mg).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(client->QueryRank(mg).status().code(),
            Status::Code::kInvalidArgument);
  // Scalar sketches answer scalar estimates, nothing else.
  EXPECT_EQ(client->QueryPoint(f2, 1).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(client->QueryTopK(l0, 5).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(client->QueryRank(f2).status().code(),
            Status::Code::kInvalidArgument);
  // Rank sketches answer the verdict, nothing else.
  EXPECT_EQ(client->QueryScalar(rank).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(client->QueryPoint(rank, 0).status().code(),
            Status::Code::kInvalidArgument);
  // The matching kinds all succeed.
  EXPECT_TRUE(client->QueryPoint(mg, 1).ok());
  EXPECT_TRUE(client->QueryTopK(mg, 5).ok());
  EXPECT_TRUE(client->QueryScalar(f2).ok());
  EXPECT_TRUE(client->QueryScalar(l0).ok());
  EXPECT_TRUE(client->QueryRank(rank).ok());
  // RawSummary (the legacy escape hatch) works for every family.
  EXPECT_TRUE(client->RawSummary(mg).ok());
  EXPECT_TRUE(client->RawSummary(rank).ok());
}

TEST(ClientTypedQueryTest, TopKRequiresPositiveK) {
  auto client = MakeClient({"misra_gries"}, TestConfig(1 << 10, 3), 2, 0);
  auto mg = client->Handle("misra_gries").value();
  EXPECT_EQ(client->QueryTopK(mg, 0).status().code(),
            Status::Code::kInvalidArgument);
}

// ---------------------------------------- typed vs untyped bit-identity --

// The typed results must be projections of exactly the answer the untyped
// string-keyed SketchSummary surface produces for the same options and
// stream (RawSummary on an independently-run engine stands in for the
// deleted Driver shim, which was a thin wrapper over the same path) —
// scalar and update counts compare with ==, candidate lists element-wise.
void CheckTypedMatchesLegacy(const stream::TurnstileStream& s,
                             const SketchConfig& cfg,
                             const std::vector<std::string>& sketches) {
  auto reference = MakeClient(sketches, cfg, 4, 2);
  ASSERT_TRUE(Replay(reference.get(), s).ok());
  ASSERT_TRUE(reference->Finish().ok());

  auto client = MakeClient(sketches, cfg, 4, 2);
  ASSERT_TRUE(Replay(client.get(), s).ok());
  ASSERT_TRUE(client->Finish().ok());

  for (const std::string& name : sketches) {
    auto ref_handle = reference->Handle(name);
    ASSERT_TRUE(ref_handle.ok()) << name;
    auto legacy = reference->RawSummary(ref_handle.value());
    ASSERT_TRUE(legacy.ok()) << name;
    auto handle = client->Handle(name);
    ASSERT_TRUE(handle.ok()) << name;

    // RawSummary: the full legacy answer, bit-identical.
    auto raw = client->RawSummary(handle.value());
    ASSERT_TRUE(raw.ok()) << name;
    EXPECT_EQ(raw.value().scalar, legacy.value().scalar) << name;
    EXPECT_EQ(raw.value().updates, legacy.value().updates) << name;
    ASSERT_EQ(raw.value().items.size(), legacy.value().items.size()) << name;
    for (size_t i = 0; i < raw.value().items.size(); ++i) {
      EXPECT_EQ(raw.value().items[i].item, legacy.value().items[i].item);
      EXPECT_EQ(raw.value().items[i].estimate,
                legacy.value().items[i].estimate);
    }

    // Typed projections agree with the legacy fields exactly.
    switch (handle.value().family()) {
      case SketchFamily::kScalarEstimate: {
        auto scalar = client->QueryScalar(handle.value());
        ASSERT_TRUE(scalar.ok()) << name;
        EXPECT_EQ(scalar.value().value, legacy.value().scalar) << name;
        EXPECT_EQ(scalar.value().updates, legacy.value().updates) << name;
        break;
      }
      case SketchFamily::kRankVerdict: {
        auto verdict = client->QueryRank(handle.value());
        ASSERT_TRUE(verdict.ok()) << name;
        EXPECT_EQ(verdict.value().rank_at_least_k,
                  legacy.value().scalar != 0) << name;
        break;
      }
      case SketchFamily::kHeavyHitter: {
        auto topk = client->QueryTopK(handle.value(),
                                      legacy.value().items.size() + 10);
        ASSERT_TRUE(topk.ok()) << name;
        ASSERT_EQ(topk.value().items.size(), legacy.value().items.size());
        for (size_t i = 0; i < topk.value().items.size(); ++i) {
          EXPECT_EQ(topk.value().items[i].item, legacy.value().items[i].item);
          EXPECT_EQ(topk.value().items[i].estimate,
                    legacy.value().items[i].estimate);
        }
        for (const auto& wi : legacy.value().items) {
          auto point = client->QueryPoint(handle.value(), wi.item);
          ASSERT_TRUE(point.ok());
          EXPECT_EQ(point.value().estimate, wi.estimate) << name;
        }
        break;
      }
      case SketchFamily::kGeneric:
        break;
    }
  }
}

TEST(ClientTypedQueryTest, MatchesLegacyOnZipf) {
  const uint64_t universe = 1 << 12;
  wbs::RandomTape tape(11);
  auto items = stream::ZipfStream(universe, 30000, 1.2, &tape);
  stream::TurnstileStream s;
  s.reserve(items.size());
  for (const auto& u : items) s.push_back({u.item, 1});
  CheckTypedMatchesLegacy(s, TestConfig(universe, 7),
                          {"misra_gries", "ams_f2", "sis_l0"});
}

TEST(ClientTypedQueryTest, MatchesLegacyOnPlantedHeavyHitters) {
  const uint64_t universe = 1 << 16;
  wbs::RandomTape tape(12);
  std::vector<uint64_t> planted;
  auto items = stream::PlantedHeavyHitterStream(universe, 30000, 3, 0.2,
                                                &tape, &planted);
  stream::TurnstileStream s;
  s.reserve(items.size());
  for (const auto& u : items) s.push_back({u.item, 1});
  CheckTypedMatchesLegacy(s, TestConfig(universe, 8),
                          {"misra_gries", "robust_hh", "crhf_hh"});
}

TEST(ClientTypedQueryTest, MatchesLegacyOnChurn) {
  const uint64_t universe = 1 << 12;
  wbs::RandomTape tape(13);
  auto s = stream::InsertDeleteChurnStream(universe, 120, 2500, &tape);
  CheckTypedMatchesLegacy(s, TestConfig(universe, 9), {"ams_f2", "sis_l0"});
}

TEST(ClientTypedQueryTest, RankVerdictMatchesLegacy) {
  SketchConfig cfg = TestConfig(1, 17);
  cfg.rank.n = 32;
  cfg.rank.k = 8;
  stream::TurnstileStream diag;
  for (size_t i = 0; i < 8; ++i) {
    diag.push_back({uint64_t(i) * cfg.rank.n + i, 1});
  }
  CheckTypedMatchesLegacy(diag, cfg, {"rank_decision"});
}

// ---------------------------------------------------------- multi-producer --

// N producer threads split the stream into interleaved slices and submit
// concurrently. The engine's linear families (ams_f2, sis_l0) and
// eviction-free Misra-Gries are order-insensitive, so the merged answers
// must equal a single-threaded reference run bit-for-bit no matter how the
// producers' batches interleave. Runs against a caller-chosen shard backend
// so the guarantee is pinned on BOTH the in-process and the tcp-remote
// paths (the ShardBackend boundary must not change any answer).
void CheckConcurrentProducersMatchSingleThreadedRun(
    const BackendFactory& backend) {
  const uint64_t universe = 1 << 12;
  wbs::RandomTape tape(21);
  auto items = stream::ZipfStream(universe, 60000, 1.1, &tape);
  stream::TurnstileStream s;
  s.reserve(items.size());
  for (const auto& u : items) s.push_back({u.item, 1});

  SketchConfig cfg = TestConfig(universe, 99);
  cfg.misra_gries.counters = 8192;  // > universe: eviction-free, order-free
  const std::vector<std::string> sketches = {"misra_gries", "ams_f2",
                                             "sis_l0"};

  auto reference = MakeClient(sketches, cfg, 4, 0, backend);
  ASSERT_TRUE(Replay(reference.get(), s).ok());
  ASSERT_TRUE(reference->Finish().ok());

  for (size_t producers : {2u, 4u}) {
    auto client = MakeClient(sketches, cfg, 4, 2, backend);
    std::vector<std::thread> threads;
    std::atomic<bool> failed{false};
    const size_t batch = 512;
    for (size_t p = 0; p < producers; ++p) {
      threads.emplace_back([&, p] {
        // Producer p owns every producers-th batch of the stream.
        for (size_t off = p * batch; off < s.size();
             off += producers * batch) {
          const size_t n = std::min(batch, s.size() - off);
          auto t = client->Submit(s.data() + off, n);
          if (!t.ok()) {
            failed.store(true);
            return;
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    ASSERT_FALSE(failed.load());
    ASSERT_TRUE(client->Finish().ok());
    EXPECT_EQ(client->updates_submitted(), uint64_t(s.size()));

    for (const std::string& name : sketches) {
      auto handle = client->Handle(name);
      auto want_handle = reference->Handle(name);
      ASSERT_TRUE(handle.ok() && want_handle.ok());
      auto got = client->RawSummary(handle.value());
      auto want = reference->RawSummary(want_handle.value());
      ASSERT_TRUE(got.ok() && want.ok()) << name;
      EXPECT_EQ(got.value().scalar, want.value().scalar)
          << name << " with " << producers << " producers";
      EXPECT_EQ(got.value().updates, want.value().updates) << name;
      ASSERT_EQ(got.value().items.size(), want.value().items.size()) << name;
      for (size_t i = 0; i < got.value().items.size(); ++i) {
        EXPECT_EQ(got.value().items[i].item, want.value().items[i].item);
        EXPECT_EQ(got.value().items[i].estimate,
                  want.value().items[i].estimate);
      }
    }
  }
}

TEST(ClientMultiProducerTest, ConcurrentProducersMatchOnInProcessBackend) {
  CheckConcurrentProducersMatchSingleThreadedRun(InProcessBackendFactory());
}

TEST(ClientMultiProducerTest, ConcurrentProducersMatchOnTcpBackend) {
  CheckConcurrentProducersMatchSingleThreadedRun(TcpBackendFactory());
}

// Producers racing with a typed-query thread: no errors, and the final
// answer still matches a quiescent reference (TSan hunts for races here).
TEST(ClientMultiProducerTest, TypedQueriesRaceProducersSafely) {
  const uint64_t universe = 1 << 12;
  wbs::RandomTape tape(23);
  auto items = stream::ZipfStream(universe, 60000, 1.2, &tape);
  stream::TurnstileStream s;
  s.reserve(items.size());
  for (const auto& u : items) s.push_back({u.item, 1});

  SketchConfig cfg = TestConfig(universe, 101);
  auto client = MakeClient({"ams_f2", "sis_l0"}, cfg, 4, 2);
  auto f2 = client->Handle("ams_f2").value();
  auto l0 = client->Handle("sis_l0").value();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> query_errors{0};
  std::thread querier([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (!client->QueryScalar(f2).ok()) ++query_errors;
      if (!client->QueryScalar(l0).ok()) ++query_errors;
    }
  });

  std::vector<std::thread> producers;
  for (size_t p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      const size_t batch = 512;
      for (size_t off = p * batch; off < s.size(); off += 2 * batch) {
        auto t = client->Submit(s.data() + off,
                                std::min(batch, s.size() - off));
        ASSERT_TRUE(t.ok());
      }
    });
  }
  for (auto& t : producers) t.join();
  // Producers only ticketed the batches; keep querying through the drain.
  ASSERT_TRUE(client->Flush().ok());
  stop.store(true, std::memory_order_relaxed);
  querier.join();
  ASSERT_TRUE(client->Finish().ok());
  EXPECT_EQ(query_errors.load(), 0u);

  auto reference = MakeClient({"ams_f2", "sis_l0"}, cfg, 4, 0);
  ASSERT_TRUE(Replay(reference.get(), s).ok());
  ASSERT_TRUE(reference->Finish().ok());
  auto got = client->QueryScalar(f2);
  auto want = reference->QueryScalar(reference->Handle("ams_f2").value());
  ASSERT_TRUE(got.ok() && want.ok());
  EXPECT_EQ(got.value().value, want.value().value);
  EXPECT_EQ(got.value().updates, uint64_t(s.size()));
}

// ------------------------------------------------------------------ tickets --

TEST(IngestTicketTest, SequenceNumbersIncreaseAndWaitIsPrefixMonotone) {
  const uint64_t universe = 1 << 12;
  wbs::RandomTape tape(31);
  auto items = stream::ZipfStream(universe, 20000, 1.2, &tape);
  stream::TurnstileStream s;
  s.reserve(items.size());
  for (const auto& u : items) s.push_back({u.item, 1});

  auto client = MakeClient({"ams_f2"}, TestConfig(universe, 5), 4, 2);
  std::vector<IngestTicket> tickets;
  const size_t batch = 1024;
  for (size_t off = 0; off < s.size(); off += batch) {
    auto t = client->Submit(s.data() + off, std::min(batch, s.size() - off));
    ASSERT_TRUE(t.ok());
    tickets.push_back(t.value());
  }
  for (size_t i = 1; i < tickets.size(); ++i) {
    EXPECT_GT(tickets[i].seq, tickets[i - 1].seq);
  }

  // Waiting on a mid-stream ticket completes every earlier one too.
  const size_t mid = tickets.size() / 2;
  ASSERT_TRUE(client->Wait(tickets[mid]).ok());
  for (size_t i = 0; i <= mid; ++i) {
    auto done = client->TryWait(tickets[i]);
    ASSERT_TRUE(done.ok());
    EXPECT_TRUE(done.value()) << "ticket " << i << " after Wait(" << mid << ")";
  }

  ASSERT_TRUE(client->Wait(tickets.back()).ok());
  for (const auto& t : tickets) {
    auto done = client->TryWait(t);
    ASSERT_TRUE(done.ok());
    EXPECT_TRUE(done.value());
  }
  // Everything waited on is ingested: the snapshot query covers the full
  // stream after a Flush (publishes throttled snapshots).
  ASSERT_TRUE(client->Flush().ok());
  auto f2 = client->Handle("ams_f2").value();
  auto scalar = client->QueryScalar(f2);
  ASSERT_TRUE(scalar.ok());
  EXPECT_EQ(scalar.value().updates, uint64_t(s.size()));
  ASSERT_TRUE(client->Finish().ok());
}

TEST(IngestTicketTest, EmptySubmitReturnsCompletedTicket) {
  auto client = MakeClient({"ams_f2"}, TestConfig(1 << 10, 5), 2, 1);
  auto t = client->Submit(nullptr, 0);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.value().seq, 0u);
  auto done = client->TryWait(t.value());
  ASSERT_TRUE(done.ok());
  EXPECT_TRUE(done.value());
  EXPECT_TRUE(client->Wait(t.value()).ok());
}

TEST(IngestTicketTest, InlineModeTicketsCompleteSynchronously) {
  auto client = MakeClient({"ams_f2"}, TestConfig(1 << 10, 5), 2, 0);
  stream::TurnstileStream s{{1, 1}, {2, 2}, {3, 1}};
  auto t = SubmitAll(*client, s);
  ASSERT_TRUE(t.ok());
  auto done = client->TryWait(t.value());
  ASSERT_TRUE(done.ok());
  EXPECT_TRUE(done.value());  // applied before Submit returned
}

TEST(IngestTicketTest, WaitSurfacesIngestErrors) {
  // universe 16: item 1<<20 fails inside the worker; the ticket still
  // completes (workers drain) and Wait hands the pipeline error back.
  auto client = MakeClient({"ams_f2"}, TestConfig(16, 1), 2, 2);
  stream::TurnstileStream bad{{uint64_t{1} << 20, 1}};
  auto t = SubmitAll(*client, bad);
  ASSERT_TRUE(t.ok());  // submission itself succeeds; the failure is async
  EXPECT_FALSE(client->Wait(t.value()).ok());
  // Once drained, TryWait reports the error too.
  auto done = client->TryWait(t.value());
  EXPECT_FALSE(done.ok());
  // And so does any later submission attempt.
  stream::TurnstileStream good{{1, 1}};
  EXPECT_FALSE(SubmitAll(*client, good).ok());
}

// ------------------------------------------------------------ point lookup --

TEST(SketchSummaryTest, IndexedEstimateMatchesLinearScan) {
  SketchSummary summary;
  wbs::RandomTape tape(41);
  for (int i = 0; i < 200; ++i) {
    summary.items.push_back(
        {tape.NextWord() % 5000, double(tape.NextWord() % 1000 + 1)});
  }
  // Deduplicate items (candidate lists never repeat an item).
  std::sort(summary.items.begin(), summary.items.end(),
            [](const hh::WeightedItem& a, const hh::WeightedItem& b) {
              return a.item < b.item;
            });
  summary.items.erase(
      std::unique(summary.items.begin(), summary.items.end(),
                  [](const hh::WeightedItem& a, const hh::WeightedItem& b) {
                    return a.item == b.item;
                  }),
      summary.items.end());
  summary.SortItems();

  // Estimate-descending order (the TopK contract) survives SortItems...
  for (size_t i = 1; i < summary.items.size(); ++i) {
    EXPECT_GE(summary.items[i - 1].estimate, summary.items[i].estimate);
  }
  // ...and the indexed lookup agrees with a hand-rolled linear scan for
  // present and absent items alike.
  for (uint64_t probe = 0; probe < 5000; probe += 7) {
    double want = 0;
    for (const auto& wi : summary.items) {
      if (wi.item == probe) want = wi.estimate;
    }
    EXPECT_EQ(summary.Estimate(probe), want) << probe;
  }
}

}  // namespace
}  // namespace wbs::engine
